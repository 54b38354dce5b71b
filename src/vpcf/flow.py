"""Semi-implicit time integration of the area-preserving curvature flow.

The flow moves a closed planar curve with normal velocity ``-(kappa - lam)``
where ``lam`` is the average curvature (vpmcf mode) or zero (mcf mode).
Writing the curvature vector as the arclength Laplacian of position, one
accepted step solves

    (I - dt * L_h) X_new = X + dt * lam * nu

with the Laplacian coefficients frozen on the current mesh.  The solve is a
periodic tridiagonal system, reduced to a banded one by a Sherman-Morrison
rank-one correction; position and normal right-hand sides share one batched
LAPACK ``dgtsv`` call, so ``X_new = X_heat + lam * Q`` is affine in ``lam``.
The enclosed (shoelace) area of an affine family is an exact quadratic in
``lam``, and the constrained multiplier is the root found by a scalar secant
iteration — this is what makes the enclosed area constant to ~1e-13 per
step instead of drifting at O(dt^2).
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .errors import IndexOutOfRange, NoProgress, StepRejected
from .geometry import (ClosedCurve, build_cache, cyclic_next, cyclic_prev,
                       edge_vectors, resample_uniform)

MODES = ("vpmcf", "mcf")
MULTIPLIERS = ("constrained", "analytic")

SECANT_MAX_ITER = 50
SECANT_RTOL = 1e-13            # relative area defect accepted by the secant
EDGE_COLLAPSE_FRACTION = 1e-3  # vs mean edge: step rejection threshold
SINGULAR_EDGE_FRACTION = 1e-6  # vs initial mean edge: singularity declaration
MIN_DT = 1e-14
RESAMPLE_EDGE_RATIO = 1.005    # skip resampling while the mesh is this even
DT_RECOVERY_STREAK = 50        # accepted steps before dt may double back


@dataclass
class FlowConfig:
    """Integrator parameters.

    ``mode`` selects the target average curvature (computed in "vpmcf",
    forced to zero in "mcf"); ``multiplier`` selects how the vpmcf value is
    obtained per step — "constrained" solves for exact discrete area
    conservation, "analytic" uses the cached average curvature directly.
    ``cfl_guard * dt <= (min edge)^2`` is enforced at every accepted step by
    halving dt.
    """

    mode: str = "vpmcf"
    multiplier: str = "constrained"
    dt: float = 1e-5
    t_end: float = 1.0
    n_vertices: int = 512
    resample_every: int = 200
    cfl_guard: float = 0.01

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.multiplier not in MULTIPLIERS:
            raise ValueError(f"multiplier must be one of {MULTIPLIERS}")
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if not 0 < self.cfl_guard <= 1:
            raise ValueError("cfl_guard must lie in (0, 1]")


@dataclass
class FlowHistory:
    """Everything a run produced.

    Snapshots are stored at a fixed accepted-step cadence plus the initial
    and final states; per-step scalar records cover *every* accepted step.
    ``step_times``, ``kappa_bar_samples`` and ``i2`` have length
    ``n_steps + 1`` (entry 0 is the initial state; the t=0 average-curvature
    sample is the initial cache value in vpmcf mode and 0 in mcf mode, so
    the trapezoid accumulation of ``i2 = integral of kappa_bar^2 dt`` starts
    cleanly at t=0).  ``length_before``/``length_after`` are measured on the
    same mesh within each step, so length monotonicity is not polluted by
    resampling events.  ``caches`` holds ``build_cache`` of each snapshot:
    a list for a fresh run, a sequence that builds each cache on first
    access for a history loaded from disk.
    """

    config: FlowConfig
    snapshots: list
    caches: Sequence
    snap_steps: np.ndarray      # accepted-step index of each snapshot
    step_times: np.ndarray      # (n_steps+1,)
    multipliers: np.ndarray     # (n_steps,) lambda used per accepted step
    kappa_bar_samples: np.ndarray  # (n_steps+1,)
    i2: np.ndarray              # (n_steps+1,) cumulative integral of kbar^2
    length_before: np.ndarray   # (n_steps,)
    length_after: np.ndarray    # (n_steps,)
    area_after: np.ndarray      # (n_steps,)
    dt_used: np.ndarray         # (n_steps,)
    resample_steps: list
    termination: str            # "t_end" | "singularity"
    singular_time: float = None
    initial_area: float = 0.0

    @property
    def n_steps(self):
        return len(self.multipliers)

    @property
    def snapshot_times(self):
        return self.step_times[self.snap_steps]

    @property
    def singularity_reached(self):
        return self.termination == "singularity"

    def i2_at_snapshots(self):
        return self.i2[self.snap_steps]


def _secant_area_multiplier(A, B, target, lam0):
    """Root of shoelace_area(A + lam*B) = target by secant iteration.

    The shoelace form is bilinear, so the area along the affine family is
    the exact quadratic c2*lam^2 + c1*lam + c0; its coefficients are
    assembled once and the secant runs on the polynomial.
    """
    # M[j, k] = shoelace form of (P_j, P_k), P = (A, B), in the edge form
    # 0.5 * (x . Ey - Ex . y) that build_cache uses for the area
    x = np.column_stack((A[:, 0], B[:, 0]))
    y = np.column_stack((A[:, 1], B[:, 1]))
    M = 0.5 * (x.T @ (cyclic_next(y) - y) - (cyclic_next(x) - x).T @ y)
    c0 = float(M[0, 0])
    c1 = float(M[0, 1] + M[1, 0])
    c2 = float(M[1, 1])

    def g(lam):
        return (c2 * lam + c1) * lam + c0 - target

    tol = SECANT_RTOL * abs(target) + 1e-300
    x0 = float(lam0)
    x1 = x0 + 1e-3 * abs(x0) + 1e-6
    f0, f1 = g(x0), g(x1)
    if abs(f0) <= tol:
        return x0
    for _ in range(SECANT_MAX_ITER):
        if abs(f1) <= tol:
            return x1
        if f1 == f0:
            break
        x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
        f1 = g(x1)
    raise StepRejected(f"area secant did not converge: residual {f1:.3e}")


def step(curve, config, dt=None, target_area=None, cache=None):
    """Advance one semi-implicit step; returns ``(new_curve, multiplier)``.

    Parameters
    ----------
    curve : ClosedCurve
    config : FlowConfig
    dt : float, optional
        Override of ``config.dt`` (used by the adaptive run loop).
    target_area : float, optional
        Area the constrained multiplier conserves; defaults to the area of
        `curve` itself.  The run loop passes the global initial area so the
        constraint never drifts.
    cache : GeoCache, optional
        Pass the current cache to avoid recomputing it.

    Returns
    -------
    (ClosedCurve, float)
        The stepped curve (time advanced by dt) and the multiplier used:
        the secant root (constrained), the cached average curvature
        (analytic) or 0 (mcf mode).

    Raises
    ------
    StepRejected
        If an edge of the proposed curve collapses below 1e-3 of the mean
        edge, or the secant fails to converge in 50 iterations.  The caller
        is expected to halve dt and retry.
    ValueError, DegenerateEdge
        If the proposed curve has a non-finite vertex or coincident
        consecutive vertices, as ``ClosedCurve`` would refuse it.
    numpy.linalg.LinAlgError
        If the implicit system is singular.
    """
    dt = float(config.dt if dt is None else dt)
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if cache is None:
        cache = build_cache(curve)

    X = curve.vertices
    n = len(X)
    h = cache.edge_lengths
    hm = cyclic_prev(h)
    dual = cache.dual_lengths

    a = dt / (dual * hm)           # sub-diagonal magnitude (couples i-1)
    c = dt / (dual * h)            # super-diagonal magnitude (couples i+1)
    d = 1.0 + a + c

    # periodic corners handled by a Sherman-Morrison rank-one update:
    # M = T + u v^T with u = (gamma,0,...,0,alpha), v = (1,0,...,0,beta/gamma)
    alpha = -c[-1]                 # M[n-1, 0]
    beta = -a[0]                   # M[0, n-1]
    gamma = -d[0]

    # the tridiagonal part T as dgtsv's sub-, main and super-diagonals
    dl = -a[1:]
    du = -c[:-1]
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma

    B = np.empty((n, 5), order="F")
    B[:, 0:2] = X
    B[:, 2:4] = cache.normals
    B[:, 4] = 0.0
    B[0, 4] = gamma
    B[-1, 4] = alpha

    Y, info = dgtsv(dl, d, du, B, overwrite_dl=1, overwrite_d=1,
                    overwrite_du=1, overwrite_b=1)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    q = Y[:, 4]
    w = beta / gamma
    fac = (Y[0, :4] + w * Y[-1, :4]) / (1.0 + q[0] + w * q[-1])
    Z = Y[:, :4] - np.outer(q, fac)

    X_heat = Z[:, 0:2]
    Q = dt * Z[:, 2:4]

    if config.mode == "mcf":
        lam = 0.0
    elif config.multiplier == "analytic":
        lam = cache.kappa_bar
    else:
        target = cache.area if target_area is None else float(target_area)
        lam = _secant_area_multiplier(X_heat, Q, target, cache.kappa_bar)

    X_new = X_heat + lam * Q
    E, edges = edge_vectors(X_new)
    if edges.min() < EDGE_COLLAPSE_FRACTION * edges.mean():
        raise StepRejected(
            f"edge collapsed to {edges.min():.3e} (mean {edges.mean():.3e})")
    return ClosedCurve.from_edges(X_new, curve.time + dt, E, edges), float(lam)


def run(initial, config, snapshot_every=1000):
    """Integrate from ``initial`` until ``config.t_end`` or a singularity.

    The step size starts at ``config.dt``, is halved whenever the CFL guard
    demands it or a step is rejected, and may double back toward
    ``config.dt`` after 50 consecutive accepted steps once the guard allows
    (it is also clipped, without shrinking the working value, so the last
    step lands on t_end exactly).  A singularity is declared — not raised —
    when the
    minimum edge drops below 1e-6 of the initial mean edge; the history is
    then tagged ``termination="singularity"`` with the reached time as the
    estimate of the singular time.  Vertices are redistributed every
    ``resample_every`` accepted steps, skipped while the edge-length ratio
    is below 1.005.

    Raises
    ------
    NoProgress
        If dt underflows below 1e-14.
    """
    if initial.time >= config.t_end:
        raise ValueError("initial time must be below t_end")
    curve = initial
    cache = build_cache(curve)
    V0 = cache.area
    target = V0 if (config.mode == "vpmcf"
                    and config.multiplier == "constrained") else None
    singular_edge = SINGULAR_EDGE_FRACTION * cache.edge_lengths.mean()
    kb0 = cache.kappa_bar if config.mode == "vpmcf" else 0.0

    step_times = [curve.time]
    kbar = [kb0]
    i2 = [0.0]
    length_before, length_after, area_after, dt_used = [], [], [], []
    multipliers = []
    snapshots, caches, snap_steps = [curve], [cache], [0]
    resample_steps = []
    termination = "t_end"
    singular_time = None

    dt_cur = config.dt
    streak = 0
    k = 0
    t = curve.time
    t_tol = 1e-15 * max(1.0, abs(config.t_end))
    while t < config.t_end - t_tol:
        min_h = float(cache.edge_lengths.min())
        if min_h < singular_edge:
            termination = "singularity"
            singular_time = t
            break
        if (dt_cur < config.dt and streak >= DT_RECOVERY_STREAK
                and config.cfl_guard * 2.0 * dt_cur <= min_h * min_h):
            dt_cur = min(2.0 * dt_cur, config.dt)
            streak = 0
        while config.cfl_guard * dt_cur > min_h * min_h and dt_cur >= MIN_DT:
            dt_cur *= 0.5
            streak = 0
        if dt_cur < MIN_DT:
            raise NoProgress(f"dt underflow at t={t:.6g}")
        remaining = config.t_end - t
        # fold a float-accumulation crumb into the final step rather than
        # taking a ~1e-13 step after it (which would leave two snapshots
        # at nearly identical times)
        dt_step = remaining if remaining <= dt_cur * (1.0 + 1e-6) else dt_cur

        try:
            new_curve, lam = step(curve, config, dt=dt_step,
                                  target_area=target, cache=cache)
        except StepRejected:
            dt_cur *= 0.5
            streak = 0
            if dt_cur < MIN_DT:
                raise NoProgress(f"dt underflow after rejection at t={t:.6g}")
            continue
        streak += 1

        new_cache = build_cache(new_curve)
        k += 1
        t = new_curve.time
        step_times.append(t)
        multipliers.append(lam)
        i2.append(i2[-1] + 0.5 * (lam * lam + kbar[-1] ** 2) * dt_step)
        kbar.append(lam)
        length_before.append(cache.length)
        length_after.append(new_cache.length)
        area_after.append(new_cache.area)
        dt_used.append(dt_step)
        curve, cache = new_curve, new_cache

        if k % snapshot_every == 0:
            snapshots.append(curve)
            caches.append(cache)
            snap_steps.append(k)
        if config.resample_every and k % config.resample_every == 0:
            h = cache.edge_lengths
            if h.max() > RESAMPLE_EDGE_RATIO * h.min():
                curve = resample_uniform(curve)
                cache = build_cache(curve)
                resample_steps.append(k)

    if snap_steps[-1] != k:
        snapshots.append(curve)
        caches.append(cache)
        snap_steps.append(k)

    return FlowHistory(
        config=config, snapshots=snapshots, caches=caches,
        snap_steps=np.asarray(snap_steps), step_times=np.asarray(step_times),
        multipliers=np.asarray(multipliers),
        kappa_bar_samples=np.asarray(kbar), i2=np.asarray(i2),
        length_before=np.asarray(length_before),
        length_after=np.asarray(length_after),
        area_after=np.asarray(area_after), dt_used=np.asarray(dt_used),
        resample_steps=resample_steps, termination=termination,
        singular_time=singular_time, initial_area=V0,
    )


def curvature_evolution_residual(history, step_index):
    """Consistency defect of the curvature evolution at a stored snapshot.

    Compares the centered time difference of vertex curvature across
    snapshots ``step_index - 1, step_index + 1`` against
    ``lap_s kappa + (kappa - kappa_bar) kappa^2`` evaluated at snapshot
    ``step_index``; returns the max-norm over vertices.  Vertex indices are
    the material labels (the scheme adds no tangential motion), so the
    window must not contain a resampling event.

    Raises
    ------
    IndexOutOfRange
        If the index leaves no room for the centered window, or a resample
        broke the vertex correspondence inside it.
    """
    last = len(history.snapshots) - 1
    if not 1 <= step_index <= last - 1:
        raise IndexOutOfRange(
            f"need 1 <= step_index <= {last - 1}, got {step_index}")
    s0, s2 = history.snap_steps[step_index - 1], history.snap_steps[step_index + 1]
    if any(s0 <= r < s2 for r in history.resample_steps):
        raise IndexOutOfRange(
            f"resample inside snapshot window [{s0}, {s2}) breaks material "
            "correspondence")

    c0 = history.caches[step_index - 1]
    c1 = history.caches[step_index]
    c2 = history.caches[step_index + 1]
    t0 = history.step_times[s0]
    t2 = history.step_times[s2]

    dkappa_dt = (c2.kappa - c0.kappa) / (t2 - t0)
    kap = c1.kappa
    h = c1.edge_lengths
    hm = np.roll(h, 1)
    lap = ((np.roll(kap, -1) - kap) / h - (kap - np.roll(kap, 1)) / hm) \
        / c1.dual_lengths
    rhs = lap + (kap - c1.kappa_bar) * kap ** 2
    return float(np.max(np.abs(dkappa_dt - rhs)))
