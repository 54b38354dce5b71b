"""Configuration-driven runs, run directories, and certificate suites.

The JSON config mirrors :class:`~vpcf.scenarios.ScenarioConfig`: scenario
parameters at the top level, integrator parameters under ``"flow"``, plus
``outdir``, the two cadences and ``seed``.  Unknown keys are rejected so a
typo cannot silently fall back to a default.

A run directory holds three files: ``run.json`` with the configuration
and the termination summary, ``series.csv`` at the ``series_every``
cadence, and ``steps.npz`` with the per-step scalar records plus every kept
snapshot as one ``(S, N, 2)`` float64 array ``snapshots`` (the
``snapshot_every`` cadence plus the final state, at the accepted steps
``snap_steps``).  The engine records snapshots at the gcd of the two
cadences and the writers filter.  :func:`write_run_directory` builds the
directory in a temporary sibling and swaps it into place, so a rerun leaves
no stale file and a failed write leaves the previous run intact; it refuses
an existing non-empty directory that is not a run directory, and the
working directory.
:func:`load_history` rebuilds a full history with one ``np.load``; the
snapshots' caches are built on first access.

Suites run fixed preset configurations and write ``verify_<name>.txt`` with
one human detail block plus one ``CERT <name> PASS|FAIL <margin>`` machine
line per certificate.  ``quick=True`` shrinks the presets for smoke
testing; every threshold is identical to the full-size battery.
"""

import dataclasses
import json
import math
import os
import shutil
import tempfile
import zipfile
from collections.abc import Sequence

import numpy as np

from .blowup import (RescalingFrame, classify_type, psi_invariance_check,
                     shrinker_residual_battery)
from .diagnostics import (Certificate, DensityQuery, clearing_out_certificate,
                          diameter_derivative_check, gaussian_density,
                          local_density, series, write_series_csv)
from .errors import BadParameters, UnknownSuite
from .flow import FlowConfig, FlowHistory, run
from .geometry import ClosedCurve, build_cache
from .revolution import (assemble_trilobite, balance_trilobite,
                         hbar_derivative_at_zero, quadrature_integrals,
                         write_trilobite_report)
from .scenarios import (ScenarioConfig, capsule, circle, dumbbell, ellipse,
                        make_scenario)

AREA_DRIFT_TOL = 1e-10
DENSITY_LIMIT_TOL = 1e-3
TYPE_ONE_CONSTANT_TOL = 0.05       # relative, about 1/2
RESIDUAL_FLOOR = 1e-2
PSI_INVARIANCE_TOL = 1e-6          # times (1 + i2)
ISO_CONVERGENCE_TOL = 0.05
DIAM_RATE_RTOL = 0.10
AFFINE_SLOPE_RTOL = 1e-6
DOUBLING_RTOL = 0.02               # |ratio - 2| after halving the cap radius

SUITES = ("conservation", "diameter", "monotonicity", "density", "blowup",
          "trilobite", "example1", "all")
_FLOW_PRESETS = ("circle", "ellipse", "capsule", "dumbbell")


# --- configuration ----------------------------------------------------------

def config_from_dict(doc):
    """Build a validated ScenarioConfig from a plain dict (JSON document)."""
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise BadParameters(f"unknown config keys: {unknown}")
    doc = dict(doc)
    flow_doc = doc.pop("flow", {}) or {}
    fknown = {f.name for f in dataclasses.fields(FlowConfig)}
    funknown = sorted(set(flow_doc) - fknown)
    if funknown:
        raise BadParameters(f"unknown flow keys: {funknown}")
    try:
        flow = FlowConfig(**flow_doc)
    except ValueError as exc:
        raise BadParameters(str(exc)) from exc
    config = ScenarioConfig(flow=flow, **doc)
    for key in ("snapshot_every", "series_every"):
        value = getattr(config, key)
        if not isinstance(value, int) or value < 1:
            raise BadParameters(f"{key} must be a positive integer")
    return config


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# --- run directories ----------------------------------------------------------

def run_scenario(config):
    """Build the initial curve, run the flow, persist artifacts if asked.

    The engine stores snapshots at gcd(snapshot_every, series_every) so both
    writers can filter down to their own cadence.
    """
    curve = make_scenario(config)
    cadence = math.gcd(config.snapshot_every, config.series_every)
    history = run(curve, config.flow, snapshot_every=cadence)
    if config.outdir:
        write_run_directory(config.outdir, config, history)
    return history


def write_run_directory(outdir, config, history):
    """Write the run directory ``outdir`` (see the module notes).

    Everything is written into a temporary sibling first, which then
    replaces ``outdir``; if anything raises, ``outdir`` is left as it was.

    Raises
    ------
    BadParameters
        If ``outdir`` is not a directory, is non-empty without a
        ``run.json``, or is (or contains) the working directory.
    """
    target = os.path.realpath(outdir)
    if os.path.exists(target):
        if not os.path.isdir(target):
            raise BadParameters(f"{outdir!r} exists and is not a directory")
        if os.listdir(target) and not os.path.isfile(
                os.path.join(target, "run.json")):
            raise BadParameters(
                f"{outdir!r} is not empty and not a run directory "
                "(no run.json); refusing to replace it")
        cwd = os.path.realpath(os.getcwd())
        if os.path.commonpath([target, cwd]) == target:
            raise BadParameters(
                f"{outdir!r} holds the working directory; refusing to "
                "replace it")
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{name}.", dir=parent)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o777 & ~umask)
        _write_run_files(tmp, config, history)
        if os.path.isdir(target):
            old = tmp + ".old"
            os.rename(target, old)
            try:
                os.rename(tmp, target)
            except OSError:
                os.rename(old, target)
                raise
            shutil.rmtree(old)
        else:
            os.rename(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_run_files(outdir, config, history):
    steps = np.asarray(history.snap_steps)
    keep = [i for i, s in enumerate(steps)
            if s % config.snapshot_every == 0 or i == len(steps) - 1]

    cadence = math.gcd(config.snapshot_every, config.series_every)
    write_series_csv(os.path.join(outdir, "series.csv"), series(history),
                     every=max(1, config.series_every // cadence))

    path = os.path.join(outdir, "steps.npz")
    np.savez(path,
             step_times=history.step_times,
             multipliers=history.multipliers,
             kappa_bar_samples=history.kappa_bar_samples,
             i2=history.i2,
             length_before=history.length_before,
             length_after=history.length_after,
             area_after=history.area_after,
             dt_used=history.dt_used,
             snap_steps=steps[keep],
             resample_steps=np.asarray(history.resample_steps,
                                       dtype=np.int64))
    _append_snapshots(path, [history.snapshots[i].vertices for i in keep])
    meta = {
        "config": dataclasses.asdict(config),
        "termination": history.termination,
        "singular_time": None if history.singular_time is None
        else float(history.singular_time),
        "initial_area": float(history.initial_area),
        "n_steps": int(history.n_steps),
    }
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _append_snapshots(path, rows):
    """Append ``rows`` to the archive ``path`` as one ``snapshots.npy``.

    The member is streamed row by row, so no stacked copy is made.
    """
    shape = rows[0].shape
    for v in rows:
        if v.shape != shape:
            raise ValueError(f"snapshot of shape {v.shape} in a run whose "
                             f"first snapshot has shape {shape}")
    header = {"descr": "<f8", "fortran_order": False,
              "shape": (len(rows),) + shape}
    with zipfile.ZipFile(path, "a") as zf, \
            zf.open("snapshots.npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for v in rows:
            fh.write(np.ascontiguousarray(v, dtype="<f8"))


class _LazyCaches(Sequence):
    """``build_cache`` of each curve, computed on first access and kept."""

    def __init__(self, curves):
        self._curves = curves
        self._caches = [None] * len(curves)

    def __len__(self):
        return len(self._curves)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._caches[i] is None:
            self._caches[i] = build_cache(self._curves[i])
        return self._caches[i]


def load_history(outdir):
    """Rebuild a FlowHistory from a run directory.

    The snapshots are views into one array read from ``steps.npz``; their
    caches are built on first access.

    Raises
    ------
    BadParameters
        If ``outdir`` has no ``run.json``, its ``steps.npz`` holds no
        snapshot array (a directory of ``snap_*.csv`` files written by an
        older version), the snapshot count disagrees with the recorded
        snapshot steps, a stored vertex is not finite, or a snapshot step
        lies outside the recorded steps.
    """
    meta_path = os.path.join(outdir, "run.json")
    if not os.path.exists(meta_path):
        raise BadParameters(f"{outdir!r} is not a run directory (no run.json)")
    with open(meta_path) as fh:
        meta = json.load(fh)
    config = config_from_dict(meta["config"])
    with np.load(os.path.join(outdir, "steps.npz")) as npz:
        if "snapshots" not in npz.files:
            raise BadParameters(
                f"{outdir}: steps.npz holds no snapshots array; the run was "
                "stored in the older snap_*.csv layout, run it again")
        rec = {key: npz[key] for key in npz.files}
    verts, snap_steps = rec["snapshots"], rec["snap_steps"]
    if verts.ndim != 3 or len(verts) != len(snap_steps):
        raise BadParameters(
            f"{outdir}: snapshots of shape {verts.shape} but "
            f"{len(snap_steps)} recorded snapshot steps")
    if not np.isfinite(verts).all():
        raise BadParameters(f"{outdir}: a stored vertex is not finite")
    if not np.all((snap_steps >= 0) & (snap_steps < len(rec["step_times"]))):
        raise BadParameters(f"{outdir}: a snapshot step lies outside the "
                            f"{len(rec['step_times'])} recorded steps")
    times = rec["step_times"][snap_steps]
    snapshots = [ClosedCurve(v, time=float(t)) for v, t in zip(verts, times)]
    return FlowHistory(
        config=config.flow,
        snapshots=snapshots,
        caches=_LazyCaches(snapshots),
        snap_steps=snap_steps,
        step_times=rec["step_times"],
        multipliers=rec["multipliers"],
        kappa_bar_samples=rec["kappa_bar_samples"],
        i2=rec["i2"],
        length_before=rec["length_before"],
        length_after=rec["length_after"],
        area_after=rec["area_after"],
        dt_used=rec["dt_used"],
        resample_steps=list(rec["resample_steps"]),
        termination=meta["termination"],
        singular_time=meta["singular_time"],
        initial_area=meta["initial_area"])


# --- suite presets ------------------------------------------------------------

_RUN_MEMO = {}


def _preset_history(name, quick=False):
    key = (name, bool(quick))
    if key not in _RUN_MEMO:
        _RUN_MEMO[key] = _build_preset(name, quick)
    return _RUN_MEMO[key]


def _build_preset(name, quick):
    if name == "mcf_circle":
        if quick:
            return run(circle(1.0, 128),
                       FlowConfig(mode="mcf", dt=1e-4, t_end=0.6,
                                  n_vertices=128), snapshot_every=100)
        return run(circle(1.0, 256),
                   FlowConfig(mode="mcf", dt=1e-5, t_end=0.6,
                              n_vertices=256), snapshot_every=250)
    if name == "circle_dense":
        # fine cadence for the clearing-out measurement times
        if quick:
            return run(circle(1.0, 128),
                       FlowConfig(dt=1e-3, t_end=1.0, n_vertices=128),
                       snapshot_every=2)
        return run(circle(1.0, 512),
                   FlowConfig(dt=1e-5, t_end=1.0, n_vertices=512),
                   snapshot_every=250)
    if quick:
        table = {
            "circle": (circle(1.0, 128),
                       FlowConfig(dt=1e-3, t_end=0.3, n_vertices=128), 10),
            "ellipse": (ellipse(2.0, 1.0, 128),
                        FlowConfig(dt=1e-3, t_end=0.3, n_vertices=128), 10),
            "capsule": (capsule(0.1, 256),
                        FlowConfig(dt=1e-3, t_end=1.0, n_vertices=256), 20),
            "dumbbell": (dumbbell(0.1, 256),
                         FlowConfig(dt=1e-3, t_end=1.0, n_vertices=256), 20),
        }
    else:
        table = {
            "circle": (circle(1.0, 512),
                       FlowConfig(dt=1e-5, t_end=1.0, n_vertices=512), 1000),
            "ellipse": (ellipse(2.0, 1.0, 512),
                        FlowConfig(dt=1e-5, t_end=1.0, n_vertices=512), 1000),
            "capsule": (capsule(0.1, 512),
                        FlowConfig(dt=1e-4, t_end=5.0, n_vertices=512), 1000),
            "dumbbell": (dumbbell(0.1, 512),
                         FlowConfig(dt=1e-5, t_end=1.0, n_vertices=512),
                         1000),
        }
    curve, cfg, every = table[name]
    return run(curve, cfg, snapshot_every=every)


# --- suites ---------------------------------------------------------------

def conservation_suite(quick=False, outdir="."):
    certs = []
    for name in ("circle", "ellipse"):
        h = _preset_history(name, quick)
        drift = float(np.max(np.abs(h.area_after - h.initial_area))
                      / abs(h.initial_area))
        certs.append(Certificate(
            f"area_conservation_{name}", drift <= AREA_DRIFT_TOL,
            (AREA_DRIFT_TOL - drift) / AREA_DRIFT_TOL,
            f"max relative enclosed-area drift {drift:.3e} "
            f"over {h.n_steps} steps"))
    return certs, []


def diameter_suite(quick=False, outdir="."):
    certs = []
    for name in _FLOW_PRESETS:
        ser = series(_preset_history(name, quick))
        bad = diameter_derivative_check(ser)
        certs.append(Certificate(
            f"diameter_growth_{name}", not bad,
            1.0 - len(bad) / len(ser),
            f"{len(bad)} window violations / {len(ser)} snapshots"))
    return certs, []


def monotonicity_suite(quick=False, outdir="."):
    certs = []
    for name in _FLOW_PRESETS:
        h = _preset_history(name, quick)
        worst = float(np.max(h.length_after - h.length_before))
        slack = 1e-12 * h.caches[0].length
        certs.append(Certificate(
            f"length_monotonicity_{name}", worst <= slack,
            (slack - worst) / slack,
            f"max per-step length increase {worst:.3e} (slack {slack:.1e})"))
    return certs, []


def density_suite(quick=False, outdir="."):
    certs = []
    mcf = _preset_history("mcf_circle", quick)
    times = mcf.snapshot_times
    res = gaussian_density(mcf, DensityQuery(
        center=(0.0, 0.0), t0=float(mcf.singular_time),
        times=tuple(times[[-10, -7, -4]])))
    target = float(np.sqrt(2.0 * np.pi / np.e))
    err = abs(res.limit - target)
    certs.append(Certificate(
        "gaussian_density_limit", err <= DENSITY_LIMIT_TOL,
        (DENSITY_LIMIT_TOL - err) / DENSITY_LIMIT_TOL,
        f"shrinking-circle center density limit {res.limit:.9g} "
        f"vs sqrt(2 pi / e) = {target:.9g}"))

    dense = _preset_history("circle_dense", quick)
    st = dense.snapshot_times
    reach = gaussian_density(dense, DensityQuery(
        center=(1.0, 0.0), t0=float(st[-1]), times=tuple(st[[-8, -5, -2]])))
    certs.append(Certificate(
        "density_at_reached_point", reach.limit >= 0.99,
        (reach.limit - 0.99) / 0.99,
        f"density limit {reach.limit:.9g} at a vertex of the "
        f"stationary circle"))
    certs.append(clearing_out_certificate(dense, (1.0, 0.0), 1.0, 0.3, 0.03))

    for name in _FLOW_PRESETS:
        h = _preset_history(name, quick)
        t = h.snapshot_times
        rep = local_density(h, DensityQuery(
            center=tuple(h.caches[-1].centroid), t0=float(t[-1]),
            times=tuple(t[[-8, -6, -4]]), rho=1.0))
        certs.append(Certificate(
            f"local_density_pairs_{name}", rep.pairs_pass,
            -rep.pair_discrepancy / rep.tol,
            f"worst pair discrepancy {rep.pair_discrepancy:.3e} "
            f"(tol {rep.tol:.3e})"))
    return certs, []


def blowup_suite(quick=False, outdir="."):
    certs = []
    mcf = _preset_history("mcf_circle", quick)
    rep = classify_type(mcf)
    err = abs(rep.constant - 0.5)
    bound = TYPE_ONE_CONSTANT_TOL * 0.5
    certs.append(Certificate(
        "type_one_rate", rep.classification == "TypeI" and err <= bound,
        (bound - err) / bound,
        f"{rep.classification}, sup kappa^2 (T - t) = {rep.constant:.6g}"))

    battery = shrinker_residual_battery(mcf)
    decreasing = bool(np.all(np.diff(battery) < 0.0))
    certs.append(Certificate(
        "shrinker_residuals", decreasing and battery[-1] < RESIDUAL_FLOOR,
        (RESIDUAL_FLOOR - battery[-1]) / RESIDUAL_FLOOR,
        "unit-scale residuals " + " -> ".join(f"{v:.3e}" for v in battery)))

    for name in _FLOW_PRESETS + ("mcf_circle",):
        h = _preset_history(name, quick)
        frame = RescalingFrame(tuple(h.caches[-1].centroid),
                               float(h.step_times[-1]), 2.0)
        defect = psi_invariance_check(h, frame)
        tol = PSI_INVARIANCE_TOL * (1.0 + float(h.i2[-1]))
        certs.append(Certificate(
            f"psi_invariance_{name}", defect <= tol, (tol - defect) / tol,
            f"multiplier-integral defect {defect:.3e} under a "
            f"lambda = 2 rescaling (tol {tol:.3e})"))
    return certs, []


def trilobite_suite(quick=False, outdir="."):
    rho, n_cyl, r = 1.0, 7, 0.005
    built = balance_trilobite(rho, n_cyl, r)
    hbar = hbar_derivative_at_zero(built)
    totals = built.totals
    certs = []

    tol = 1e-10 * totals.area
    certs.append(Certificate(
        "mean_curvature_balance", abs(totals.intH) <= tol,
        (tol - abs(totals.intH)) / tol,
        f"sum intH = {totals.intH:.3e} at l = {built.l_used:.12g}"))

    floor = 2.0 * np.pi * (2.0 - np.sqrt(3.0)) / r - 6.0 * n_cyl * np.pi / rho
    certs.append(Certificate(
        "gauss_term_positive", totals.intHK > max(floor, 0.0),
        (totals.intHK - floor) / abs(floor),
        f"sum intHK = {totals.intHK:.6f} above the closed-form floor "
        f"{floor:.6f}"))

    certs.append(Certificate(
        "hbar_initial_rate_negative", hbar < 0.0,
        -hbar / max(abs(hbar), 1e-30),
        f"d/dt of the average mean curvature at balance: {hbar:.9g}"))

    ls = (5.0, 10.0, 20.0)
    hs = [assemble_trilobite(rho, n_cyl, r, l=v).totals.intH for v in ls]
    slope = (hs[2] - hs[0]) / (ls[2] - ls[0])
    target = np.pi * (9.0 - 2.0 * n_cyl)
    rel = abs(slope - target) / abs(target)
    fit = abs(hs[1] - (hs[0] + slope * (ls[1] - ls[0]))) \
        / max(abs(hs[1]), 1.0)
    worst = max(rel, fit)
    certs.append(Certificate(
        "total_mean_curvature_affine", worst <= AFFINE_SLOPE_RTOL,
        (AFFINE_SLOPE_RTOL - worst) / AFFINE_SLOPE_RTOL,
        f"slope {slope:.12g} vs pi (9 - 2 n) = {target:.12g}; "
        f"midpoint residual {fit:.3e}"))

    a = balance_trilobite(rho, n_cyl, 1e-3).totals.intHK
    b = balance_trilobite(rho, n_cyl, 5e-4).totals.intHK
    err = abs(b / a - 2.0)
    certs.append(Certificate(
        "gauss_term_doubles", err <= DOUBLING_RTOL,
        (DOUBLING_RTOL - err) / DOUBLING_RTOL,
        f"sum intHK {a:.4f} -> {b:.4f} on halving the cap radius "
        f"(ratio {b / a:.6f})"))

    path = os.path.join(outdir, "trilobite_report.csv")
    write_trilobite_report(path, built, hbar=hbar)
    notes = [f"per-piece oracle vs reference rows in {path}"]
    for g in built.surface:
        piece = quadrature_integrals(g.segment)
        if abs(g.count * piece.intH - g.table_intH) \
                > 1e-6 * (1.0 + abs(g.table_intH)):
            notes.append(f"{g.name}: oracle intH {g.count * piece.intH:.6g} "
                         f"vs reference row {g.table_intH:.6g}")
        if not g.hk_is_bound and abs(g.count * piece.intHK - g.table_intHK) \
                > 1e-6 * (1.0 + abs(g.table_intHK)):
            notes.append(f"{g.name}: oracle intHK "
                         f"{g.count * piece.intHK:.6g} vs reference row "
                         f"{g.table_intHK:.6g}")
    return certs, notes


def example_one_suite(quick=False, outdir="."):
    certs = []
    probe = run(capsule(0.1, 2048),
                FlowConfig(dt=1e-9, t_end=1e-7, n_vertices=2048),
                snapshot_every=1)
    poles = (0, 1024)
    kappa = np.array([[c.kappa[p] for p in poles] for c in probe.caches])
    worst_rise = float(np.max(np.diff(kappa, axis=0)))
    scale = float(np.mean(np.abs(np.diff(kappa, axis=0))))
    certs.append(Certificate(
        "extremal_curvature_decreasing", worst_rise < 0.0,
        -worst_rise / scale,
        f"max per-step curvature change {worst_rise:.3e} at the two "
        f"extremal vertices over {probe.n_steps} steps"))

    dt_total = float(probe.step_times[-1] - probe.step_times[0])
    rate = (probe.caches[-1].diameter - probe.caches[0].diameter) / dt_total
    length0 = probe.caches[0].length
    target = 4.0 * (np.pi / length0 - 1.0)
    err = abs(rate - target)
    certs.append(Certificate(
        "diameter_growth_rate", err <= DIAM_RATE_RTOL * abs(target),
        (DIAM_RATE_RTOL * abs(target) - err) / (DIAM_RATE_RTOL * abs(target)),
        f"measured {rate:.6f} vs predicted 4 (pi / L - 1) = {target:.6f}"))

    ser = series(_preset_history("capsule", quick))
    iso_err = abs(ser.iso_ratio[-1] - 1.0)
    certs.append(Certificate(
        "isoperimetric_convergence", iso_err <= ISO_CONVERGENCE_TOL,
        (ISO_CONVERGENCE_TOL - iso_err) / ISO_CONVERGENCE_TOL,
        f"|isoperimetric ratio - 1| = {iso_err:.3e} at t = {ser.t[-1]:.3g}"))
    return certs, []


_SUITE_FUNCS = {
    "conservation": conservation_suite,
    "diameter": diameter_suite,
    "monotonicity": monotonicity_suite,
    "density": density_suite,
    "blowup": blowup_suite,
    "trilobite": trilobite_suite,
    "example1": example_one_suite,
}


def verify_suite(name, outdir=".", quick=False):
    """Run one certificate suite (or all) and write ``verify_<name>.txt``.

    Returns ``(status, path)`` with status 0 iff every certificate passed.
    """
    if name not in SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; expected one of {SUITES}")
    os.makedirs(outdir, exist_ok=True)
    names = [s for s in SUITES if s != "all"] if name == "all" else [name]

    lines = []
    all_pass = True
    for suite in names:
        certs, notes = _SUITE_FUNCS[suite](quick=quick, outdir=outdir)
        lines.append(f"suite {suite}" + (" (quick presets)" if quick else ""))
        for cert in certs:
            for detail in cert.detail.splitlines():
                lines.append(f"  {cert.name}: {detail}")
            lines.append(cert.machine_line())
            all_pass &= cert.passed
        lines.extend(f"  note: {note}" for note in notes)
    lines.append(f"overall {'PASS' if all_pass else 'FAIL'}")

    path = os.path.join(outdir, f"verify_{name}.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return (0 if all_pass else 1), path
