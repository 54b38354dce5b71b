"""In-memory span tracer for the traced benchmark mode.

The tracer rebinds public vpcf functions to timing wrappers in every loaded
``vpcf`` module that holds them, so calls made inside the package (for
example ``flow.run`` calling ``step``) are seen as well as the harness's
own calls.  Nothing under ``src/`` changes, and untraced repetitions
never install the wrappers.

A span is ``(id, name, parent_id, start, end)``.  A layer's self time is its
span's duration minus the time its child spans cover; calls are synchronous
and nested, so the children of one span never overlap.
"""

import contextlib
import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# Functions wrapped in traced mode, as ``module.function`` under ``vpcf``.
# Each gives the per-layer metrics ``<name>.calls`` and ``<name>.self_s``.
LAYERS = (
    "flow.run",
    "flow.step",
    "geometry.build_cache",
    "geometry.resample_uniform",
    "geometry.polygon_diameter",
    "geometry.write_snapshot",
    "geometry.read_snapshot",
    "diagnostics.series",
    "diagnostics.gaussian_density",
    "diagnostics.local_density",
    "runner.write_run_directory",
    "runner.load_history",
    "blowup.classify_type",
    "blowup.shrinker_residual_battery",
    "blowup.psi_invariance_check",
    "revolution.balance_trilobite",
    "revolution.quadrature_integrals",
    "scenarios.make_scenario",
    "cli.main",
)

# Counters measured at the same boundaries, with their units.
COUNTERS = {
    "flow.step.rejected": "count",
    "flow.accept_ratio": "ratio",
    "flow.dt_reductions": "count",
    "runner.bytes_written": "B",
    "runner.bytes_read": "B",
}


def layer_metric_units():
    """Name -> unit of every per-layer metric the traced mode reports."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


def dt_halvings(history):
    """Number of step-size halvings between consecutive accepted steps.

    Every accepted step uses ``config.dt / 2**k`` except a final step that
    is clipped to land on ``t_end``, which is left out.
    """
    dt = np.asarray(history.dt_used, dtype=float)
    if history.termination == "t_end":
        dt = dt[:-1]
    if dt.size == 0:
        return 0
    k = np.rint(np.log2(history.config.dt / dt)).astype(np.int64)
    return int(np.clip(np.diff(k, prepend=0), 0, None).sum())


def _dir_bytes(path, prefix=""):
    with os.scandir(path) as it:
        return sum(e.stat().st_size for e in it
                   if e.is_file() and e.name.startswith(prefix))


def _history_bytes(outdir):
    """Bytes ``load_history`` reads: run.json, steps.npz and snapshots."""
    return (os.path.getsize(os.path.join(outdir, "run.json"))
            + os.path.getsize(os.path.join(outdir, "steps.npz"))
            + _dir_bytes(outdir, "snap_"))


class Tracer:
    """Records spans and counters while installed; see the module notes."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.enabled = True
        self._stack = []
        self._next_id = 0
        self._bound = []        # (module, attribute, original)

    # --- spans ---------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, parent, start, end))

    @contextlib.contextmanager
    def span(self, name):
        """A harness-level span (setup, request)."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(name, *state)

    def _wrap(self, name, fn, after=None, on_raise=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(name, *state)
                if on_raise is not None:
                    on_raise(exc)
                raise
            self._close(name, *state)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # --- installation ----------------------------------------------------

    def install(self):
        """Rebind every name in LAYERS wherever a vpcf module holds it."""
        from vpcf.errors import StepRejected

        def on_step_raise(exc):
            if isinstance(exc, StepRejected):
                self.counts["flow.step.rejected"] += 1

        def after_run(history, args, kwargs):
            self.counts["flow.dt_reductions"] += dt_halvings(history)

        def after_write(result, args, kwargs):
            self.counts["runner.bytes_written"] += _dir_bytes(args[0])

        def after_load(history, args, kwargs):
            self.counts["runner.bytes_read"] += _history_bytes(args[0])

        hooks = {
            "flow.step": (None, on_step_raise),
            "flow.run": (after_run, None),
            "runner.write_run_directory": (after_write, None),
            "runner.load_history": (after_load, None),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vpcf" or n.startswith("vpcf.")]
        for name in LAYERS:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"vpcf.{module}"),
                               func)
            after, on_raise = hooks.get(name, (None, None))
            wrapped = self._wrap(name, original, after, on_raise)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapped)
                    self._bound.append((mod, func, original))

    def uninstall(self):
        for mod, func, original in reversed(self._bound):
            setattr(mod, func, original)
        self._bound.clear()

    # --- results ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer calls, self time and counters from the recorded spans."""
        selfs = self_times(self.spans)
        calls = Counter()
        self_s = Counter()
        for sid, name, _, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        attempted = calls["flow.step"]
        rejected = self.counts["flow.step.rejected"]
        out["flow.accept_ratio"] = ((attempted - rejected) / attempted
                                    if attempted else 0.0)
        return out

    def dump(self, path, meta):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "counts": dict(self.counts),
                       "layers": self.layer_metrics(),
                       "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans):
    """Span id -> duration minus the duration of its direct children."""
    child = Counter()
    for _, _, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid]
            for sid, _, _, start, end in spans}
