"""The three benchmark workloads: inputs, timed requests and output checks.

Every workload drives only the public API (``vpcf.*`` and
``vpcf.cli.main``).  A workload runs in three phases inside one fresh
interpreter (see ``worker.py``):

``setup``     builds the inputs from the repetition's random generator
              (for ``query_stored`` this includes the source run);
``requests``  lists the timed requests as ``(label, call)``; the worker
              times each call, which returns ``(ops, ok, detail)``;
``check``     verifies the outputs; a failed check counts against
              ``error_rate`` and makes the benchmark exit non-zero.

Why these workloads (a format or caching change that helps one side and
costs another shows up on at least one of them):

integrate_capsule
    The README quick start as a library call: constrained vpmcf on
    ``capsule(0.1, 512)`` with ``dt=1e-4``, sparse snapshots, no I/O and no
    diagnostics.  It isolates the per-step kernel (``flow.step`` with the
    secant every step, ``geometry.build_cache``, CFL halving early on and a
    few resamples).  ``t_end`` is 1.0, not the README's 5.0: 10,518 steps
    take about 7 s here, 50,518 would take 34 s and not fit the run budget.
run_dumbbell_mcf
    ``vpcf run config.json`` through ``cli.main``: plain MCF on
    ``dumbbell(0.1)`` at N=512 run to extinction with a dense snapshot
    cadence (about 11,350 steps and 569 snapshots).  The flow layer is used
    differently (no secant, dt halved down to about 1e-14, about 50
    resamples, singular termination), and the write path is exercised:
    snapshot CSVs and ``series()`` with its O(N^2) diameter per snapshot.
query_stored
    A seeded mix of CLI queries (``blowup --auto``, ``blowup
    --center/--time/--lambda``, Gaussian and localized ``density``,
    ``trilobite``) against a run directory that setup writes: plain MCF on
    ``ellipse(2, 1)`` at N=1024 to extinction, about 150 snapshots.  The
    read side of the same file format: ``load_history`` dominates.
"""

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

# Full-size presets and the tiny ones used by selfcheck.py.
SIZES = {
    "full": {
        "capsule_n": 512, "capsule_t_end": 1.0,
        "dumbbell_n": 512, "dumbbell_dt": 1e-4, "dumbbell_every": 20,
        "ellipse_n": 1024, "ellipse_every": 10,
    },
    "tiny": {
        "capsule_n": 256, "capsule_t_end": 0.02,
        "dumbbell_n": 128, "dumbbell_dt": 2.5e-4, "dumbbell_every": 20,
        "ellipse_n": 128, "ellipse_every": 10,
    },
}

AREA_DRIFT_TOL = 1e-10          # relative, per accepted step
LENGTH_RISE_TOL = 1e-12         # times the initial length
EXTINCTION_RTOL = 0.01          # vs A0 / (2 pi)

# Query mix of one repetition: fixed composition, seeded order and values.
QUERY_MIX = (("auto", 1), ("rescale", 3), ("gaussian", 3), ("localized", 3),
             ("trilobite", 2))


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


class Context:
    """What a workload needs: the package, the generator, size and paths."""

    def __init__(self, vpcf, rng, size, workdir, tracer=None):
        self.vpcf = vpcf
        self.rng = rng
        self.size = SIZES[size]
        self.workdir = workdir
        self.tracer = tracer

    def span(self, name):
        """A harness-level span in traced mode; nothing otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def untraced(self):
        """Run correctness checks without recording spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


def _cli(vpcf, argv):
    """Call ``vpcf.cli.main`` with its output captured; (code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = vpcf.cli.main(argv)
    return code, buf.getvalue()


def _relabel(vpcf, curve, rng):
    """Rotate by a seeded angle and shift the vertex labels.

    The geometry, and so the work, stays the same while every float input
    differs between seeds.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rotated = curve.vertices @ np.array([[c, s], [-s, c]])
    shift = int(rng.integers(len(rotated)))
    return vpcf.ClosedCurve(np.roll(rotated, shift, axis=0), curve.time)


# --- integrate_capsule ------------------------------------------------------

class IntegrateCapsule:
    op = "accepted flow step"

    def setup(self, ctx):
        v = ctx.vpcf
        cfg = v.FlowConfig(dt=1e-4, t_end=ctx.size["capsule_t_end"],
                           n_vertices=ctx.size["capsule_n"])
        base = v.make_scenario(v.ScenarioConfig(scenario="capsule", eps=0.1,
                                                flow=cfg))
        self.config = cfg
        self.curve = _relabel(v, base, ctx.rng)

    def requests(self, ctx):
        def call():
            self.history = ctx.vpcf.run(self.curve, self.config,
                                        snapshot_every=1000)
            return int(self.history.n_steps), True, ""
        return [("run", call)]

    def check(self, ctx):
        h = self.history
        drift = float(np.max(np.abs(h.area_after - h.initial_area))
                      / abs(h.initial_area))
        rise = float(np.max(h.length_after - h.length_before))
        slack = LENGTH_RISE_TOL * h.caches[0].length
        return [
            Check("termination", h.termination == "t_end", h.termination),
            Check("area_drift", drift <= AREA_DRIFT_TOL,
                  f"max relative drift {drift:.3e}"),
            Check("length_monotone", rise <= slack,
                  f"max per-step rise {rise:.3e} (slack {slack:.1e})"),
        ]


# --- run_dumbbell_mcf -------------------------------------------------------

class RunDumbbell:
    op = "accepted flow step"

    def setup(self, ctx):
        v = ctx.vpcf
        n = ctx.size["dumbbell_n"]
        base = v.make_scenario(v.ScenarioConfig(
            scenario="dumbbell", neck_width=0.1,
            flow=v.FlowConfig(n_vertices=n)))
        init = os.path.join(ctx.workdir, "dumbbell_init.csv")
        v.write_snapshot(init, _relabel(v, base, ctx.rng))
        self.every = ctx.size["dumbbell_every"]
        self.outdir = os.path.join(ctx.workdir, "dumbbell_run")
        self.config_path = os.path.join(ctx.workdir, "dumbbell.json")
        doc = {"scenario": "file", "path": init,
               "flow": {"mode": "mcf", "dt": ctx.size["dumbbell_dt"],
                        "t_end": 2.0, "n_vertices": n},
               "outdir": self.outdir,
               "snapshot_every": self.every, "series_every": self.every}
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)

    def requests(self, ctx):
        def call():
            self.code, self.output = _cli(ctx.vpcf, ["run", self.config_path])
            m = re.search(r"after (\d+) accepted steps", self.output)
            self.n_steps = int(m.group(1)) if m else 0
            return (self.n_steps, self.code == 0,
                    f"exit {self.code}: {self.output.strip()}")
        return [("run", call)]

    def check(self, ctx):
        if self.code != 0:
            return []       # the failed request already counts
        with open(os.path.join(self.outdir, "run.json")) as fh:
            meta = json.load(fh)
        target = meta["initial_area"] / (2.0 * math.pi)
        t_sing = meta["singular_time"]
        err = abs(t_sing - target) / target if t_sing is not None else math.inf
        h = ctx.vpcf.load_history(self.outdir)
        n = self.n_steps
        snaps = n // self.every + 1 + (n % self.every != 0)
        return [
            Check("termination", meta["termination"] == "singularity",
                  meta["termination"]),
            Check("extinction_time", err <= EXTINCTION_RTOL,
                  f"T = {t_sing} vs A0/2pi = {target:.6g} ({err:.2%})"),
            Check("reload_steps", h.n_steps == n, f"{h.n_steps} vs {n}"),
            Check("reload_snapshots", len(h.snapshots) == snaps,
                  f"{len(h.snapshots)} vs {snaps}"),
        ]


# --- query_stored -------------------------------------------------------------

class QueryStored:
    op = "CLI query"

    def setup(self, ctx):
        v = ctx.vpcf
        self.history_dir = os.path.join(ctx.workdir, "ellipse_run")
        every = ctx.size["ellipse_every"]
        # cfl_guard 0.001: with the default 0.01 this run ends in a dt
        # underflow (NoProgress) before the singular-edge test fires; see
        # README.md, "Defects found".
        source = v.run_scenario(v.config_from_dict({
            "scenario": "ellipse", "a": 2.0, "b": 1.0,
            "flow": {"mode": "mcf", "dt": 1e-3, "t_end": 2.0,
                     "n_vertices": ctx.size["ellipse_n"], "cfl_guard": 1e-3},
            "outdir": self.history_dir,
            "snapshot_every": every, "series_every": every}))
        self.argvs = self._queries(ctx, source)

    def _queries(self, ctx, source):
        rng = ctx.rng
        times = source.snapshot_times
        # evaluation times need three earlier snapshots and snapshots still
        # spread in time, so stay before the last 5% of the run
        usable = np.nonzero(times <= 0.95 * times[-1])[0][3:]
        collapse = source.snapshots[-1].vertices.mean(axis=0)
        hist = ["--history", self.history_dir]

        def point(flag):
            # "--flag=X,Y": argparse reads "--flag -0.3,0.1" as two options
            x, y = collapse + rng.normal(0.0, 0.15, 2)
            return f"--{flag}={x:.17g},{y:.17g}"

        def when():
            return repr(float(times[rng.choice(usable)]))

        kinds = [k for k, count in QUERY_MIX for _ in range(count)]
        argvs = []
        for kind in rng.permutation(kinds):
            if kind == "auto":
                argv = ["blowup", *hist, "--auto"]
            elif kind == "rescale":
                argv = ["blowup", *hist, point("center"), "--time", when(),
                        "--lambda", repr(rng.uniform(1.0, 4.0))]
            elif kind == "gaussian":
                argv = ["density", *hist, point("point"), "--time", when()]
            elif kind == "localized":
                argv = ["density", *hist, point("point"), "--time", when(),
                        "--rho", repr(rng.uniform(0.5, 2.0))]
            else:
                argv = ["trilobite", "--rho", repr(rng.uniform(0.5, 2.0)),
                        "--n", str(int(rng.integers(5, 10))),
                        "--r", repr(rng.uniform(1e-3, 1e-2)),
                        "--out", os.path.join(ctx.workdir, "trilobite.csv")]
            argvs.append((str(kind), argv))
        return argvs

    def requests(self, ctx):
        def query(argv):
            code, output = _cli(ctx.vpcf, argv)
            return 1, code == 0, f"exit {code} for {' '.join(argv)}: " \
                f"{output.strip()}"
        return [(kind, lambda argv=argv: query(argv))
                for kind, argv in self.argvs]

    def check(self, ctx):
        return []           # every query's exit code is its request's check


WORKLOADS = {
    "integrate_capsule": IntegrateCapsule,
    "run_dumbbell_mcf": RunDumbbell,
    "query_stored": QueryStored,
}
