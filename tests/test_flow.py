import numpy as np
import pytest

from vpcf import flow
from vpcf.errors import DegenerateEdge, IndexOutOfRange, NoProgress, StepRejected
from vpcf.flow import (FlowConfig, FlowHistory, curvature_evolution_residual,
                       run, step)
from vpcf.geometry import ClosedCurve, build_cache
from vpcf.scenarios import circle, ellipse


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(mode="mean-curvature")
    with pytest.raises(ValueError):
        FlowConfig(multiplier="penalty")
    with pytest.raises(ValueError):
        FlowConfig(dt=-1e-5)
    with pytest.raises(ValueError):
        FlowConfig(cfl_guard=0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_dt_is_refused_up_front(bad):
    with pytest.raises(ValueError, match="dt and t_end"):
        FlowConfig(dt=bad)
    with pytest.raises(ValueError, match="dt and t_end"):
        FlowConfig(t_end=bad)
    with pytest.raises(ValueError, match="dt must be"):
        step(circle(1.0, 64), FlowConfig(), dt=bad)


def test_circle_is_stationary_single_step():
    c = circle(1.0, 256)
    new, lam = step(c, FlowConfig(dt=1e-3))
    assert abs(lam - 1.0) <= 1e-10
    assert np.max(np.abs(new.vertices - c.vertices)) <= 1e-8


def test_circle_is_stationary_over_run():
    c = circle(1.0, 256)
    hist = run(c, FlowConfig(dt=1e-3, t_end=1.0), snapshot_every=200)
    assert hist.termination == "t_end"
    for snap in hist.snapshots:
        assert np.max(np.abs(snap.vertices - c.vertices)) <= 1e-8


def test_mcf_circle_tracks_closed_form_radius():
    cfg = FlowConfig(mode="mcf", dt=1e-5, t_end=0.1, n_vertices=256,
                     resample_every=0)
    hist = run(circle(1.0, 256), cfg, snapshot_every=1000)
    for snap in hist.snapshots:
        r = np.mean(np.hypot(*snap.vertices.T))
        assert abs(r - np.sqrt(1.0 - 2.0 * snap.time)) <= 1e-4


def test_mcf_circle_reaches_singularity():
    cfg = FlowConfig(mode="mcf", dt=1e-4, t_end=0.6, n_vertices=64,
                     resample_every=0)
    hist = run(circle(1.0, 64), cfg, snapshot_every=10000)
    assert hist.singularity_reached
    assert abs(hist.singular_time - 0.5) <= 0.01
    # multiplier is identically zero in mcf mode
    assert np.all(hist.multipliers == 0.0)
    assert np.all(hist.i2 == 0.0)


def test_constrained_run_conserves_area():
    cfg = FlowConfig(dt=1e-5, t_end=0.02, n_vertices=512, resample_every=200)
    hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=500)
    V0 = hist.initial_area
    assert np.max(np.abs(hist.area_after - V0)) <= 1e-10 * abs(V0)
    for snap in hist.snapshots:
        assert abs(build_cache(snap).area - V0) <= 1e-10 * abs(V0)


def test_length_monotone_per_accepted_step():
    cfg = FlowConfig(dt=1e-5, t_end=0.02, n_vertices=512, resample_every=200)
    hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=500)
    L0 = hist.length_before[0]
    assert np.all(hist.length_after <= hist.length_before + 1e-10 * L0)


def test_multiplier_converges_to_cache_average():
    # |lambda - kappa_bar| <= C*dt with C measured at the coarsest level
    devs = {}
    for dt in (1e-3, 5e-4, 2.5e-4):
        cfg = FlowConfig(dt=dt, t_end=5 * dt, n_vertices=512, resample_every=0)
        hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=1)
        devs[dt] = abs(hist.multipliers[0] - hist.caches[0].kappa_bar)
    C = devs[1e-3] / 1e-3
    for dt, dev in devs.items():
        assert dev <= 1.25 * C * dt


def test_analytic_multiplier_mode():
    c = ellipse(2.0, 1.0, 512)
    g = build_cache(c)
    _, lam = step(c, FlowConfig(multiplier="analytic", dt=1e-4))
    assert lam == g.kappa_bar


def test_unreachable_target_area_rejects_step():
    # the area of the affine step family is a parabola with minimum near 0,
    # so a negative target admits no root
    with pytest.raises(StepRejected):
        step(circle(1.0, 64), FlowConfig(dt=1e-4), target_area=-1.0)


def test_collapsed_edge_rejects_step():
    th = np.arange(64) * (2 * np.pi / 64)
    th[1] = th[0] + 5e-4 * (2 * np.pi / 64)
    curve = ClosedCurve(np.column_stack([np.cos(th), np.sin(th)]))
    with pytest.raises(StepRejected):
        step(curve, FlowConfig(dt=1e-8))


def test_cfl_guard_halves_dt():
    cfg = FlowConfig(dt=1e-2, t_end=3e-2, cfl_guard=1.0, resample_every=0)
    hist = run(circle(1.0, 256), cfg, snapshot_every=100)
    h2 = (2 * np.pi / 256) ** 2
    assert hist.dt_used[0] <= h2
    # halving, not resetting: dt is config.dt / 2^k
    assert np.log2(cfg.dt / hist.dt_used[0]) == round(
        np.log2(cfg.dt / hist.dt_used[0]))


def test_dt_underflow_raises_no_progress():
    cfg = FlowConfig(dt=1.0, t_end=2.0, cfl_guard=1.0, resample_every=0)
    with pytest.raises(NoProgress):
        run(circle(1e-6, 256), cfg, snapshot_every=100)


def test_snapshot_cadence_and_final_state():
    cfg = FlowConfig(dt=1e-4, t_end=1e-3, resample_every=0)
    hist = run(circle(1.0, 64), cfg, snapshot_every=3)
    assert list(hist.snap_steps) == [0, 3, 6, 9, 10]
    assert hist.snapshot_times[-1] == pytest.approx(1e-3, rel=1e-12)


def test_i2_accumulates_kappa_bar_square():
    cfg = FlowConfig(dt=1e-4, t_end=0.01, resample_every=0)
    hist = run(circle(1.0, 128), cfg, snapshot_every=10)
    # kappa_bar = 1 on the unit circle, so i2(t) = t
    assert abs(hist.i2[-1] - 0.01) <= 1e-9
    assert hist.kappa_bar_samples[0] == pytest.approx(1.0, abs=1e-12)


def test_resampling_restores_even_mesh():
    cfg = FlowConfig(dt=1e-5, t_end=3e-3, n_vertices=512, resample_every=100)
    hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=100)
    assert 100 in hist.resample_steps
    g = build_cache(hist.snapshots[-1])
    assert g.edge_lengths.max() / g.edge_lengths.min() <= 1.2


def test_residual_vanishes_on_stationary_circle():
    cfg = FlowConfig(dt=1e-3, t_end=5e-3, resample_every=0)
    hist = run(circle(1.0, 256), cfg, snapshot_every=1)
    assert curvature_evolution_residual(hist, 2) <= 1e-8


def test_residual_small_on_ellipse():
    cfg = FlowConfig(dt=1e-5, t_end=1e-3, n_vertices=512, resample_every=0)
    hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=1)
    tol = 0.05 * hist.caches[0].max_abs_kappa ** 3
    assert curvature_evolution_residual(hist, 50) <= tol


def test_residual_first_order_in_dt():
    t_star = 3.2e-4
    res = {}
    for dt in (1e-5, 5e-6):
        cfg = FlowConfig(dt=dt, t_end=2 * t_star, n_vertices=512,
                         resample_every=0)
        hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=1)
        res[dt] = curvature_evolution_residual(hist, int(round(t_star / dt)))
    assert res[1e-5] / res[5e-6] >= 1.7


def test_residual_index_bounds():
    cfg = FlowConfig(dt=1e-4, t_end=5e-4, resample_every=0)
    hist = run(circle(1.0, 64), cfg, snapshot_every=1)
    with pytest.raises(IndexOutOfRange):
        curvature_evolution_residual(hist, 0)
    with pytest.raises(IndexOutOfRange):
        curvature_evolution_residual(hist, len(hist.snapshots) - 1)


def test_residual_rejects_resample_in_window():
    cfg = FlowConfig(dt=1e-5, t_end=3e-4, n_vertices=512, resample_every=10)
    hist = run(ellipse(2.0, 1.0, 512), cfg, snapshot_every=10)
    assert hist.resample_steps  # the ellipse mesh is uneven enough to trigger
    with pytest.raises(IndexOutOfRange):
        curvature_evolution_residual(hist, 1)


def _dense_step(curve, dt, lam):
    """Solve (I - dt L_h) X_new = X + dt lam nu with a dense periodic L_h."""
    g = build_cache(curve)
    n = len(curve)
    h, dual = g.edge_lengths, g.dual_lengths
    i = np.arange(n)
    L = np.zeros((n, n))
    L[i, (i + 1) % n] = 1.0 / (dual * h)
    L[i, (i - 1) % n] = 1.0 / (dual * np.roll(h, 1))
    L[i, i] = -(L[i, (i + 1) % n] + L[i, (i - 1) % n])
    rhs = curve.vertices + dt * lam * g.normals
    return np.linalg.solve(np.eye(n) - dt * L, rhs)


@pytest.mark.parametrize("cfg", [FlowConfig(), FlowConfig(multiplier="analytic"),
                                 FlowConfig(mode="mcf")],
                         ids=["constrained", "analytic", "mcf"])
def test_step_matches_dense_periodic_solve(cfg):
    c = ellipse(2.0, 1.0, 64)
    dt = 1e-2                       # dt / h^2 ~ 0.4: the corners matter
    new, lam = step(c, cfg, dt=dt)
    assert np.max(np.abs(new.vertices - _dense_step(c, dt, lam))) <= 1e-12
    # the edges step hands to build_cache are those of its vertices
    g, ref = build_cache(new), build_cache(ClosedCurve(new.vertices, new.time))
    for name in ("edge_lengths", "dual_lengths", "normals", "kappa"):
        assert np.array_equal(getattr(g, name), getattr(ref, name))
    assert (g.length, g.area, g.turning_number) == (
        ref.length, ref.area, ref.turning_number)


def test_step_refuses_non_finite_proposal():
    # the edge lengths underflow, so the implicit system fills with inf/nan
    tiny = ClosedCurve(circle(1.0, 64).vertices * 1e-160)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        step(tiny, FlowConfig(mode="mcf", dt=1e-4))


def test_step_refuses_degenerate_proposal(monkeypatch):
    # a huge implicit step contracts the curve onto its centroid, and
    # rounding makes neighbouring vertices coincide; with the collapse
    # rejection switched off the curve check itself must refuse it
    monkeypatch.setattr(flow, "EDGE_COLLAPSE_FRACTION", 0.0)
    c = ClosedCurve(circle(1.0, 64).vertices + np.array([1.0, 0.5]))
    with pytest.raises(DegenerateEdge):
        step(c, FlowConfig(mode="mcf"), dt=1e20)
