import dataclasses
import json

import numpy as np
import pytest

import vpcf.runner
from vpcf.diagnostics import (SERIES_COLUMNS, DensityQuery, gaussian_density,
                              local_density, series)
from vpcf.blowup import RescalingFrame, psi_invariance_check
from vpcf.errors import BadParameters, UnknownSuite
from vpcf.geometry import build_cache, write_snapshot
from vpcf.runner import (SUITES, config_from_dict, load_config, load_history,
                         run_scenario, trilobite_suite, verify_suite)

BASE = {
    "scenario": "circle",
    "radius": 1.0,
    "flow": {"dt": 1e-3, "t_end": 0.05, "n_vertices": 64},
    "snapshot_every": 10,
    "series_every": 5,
}


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "circle"
    config = config_from_dict({**BASE, "outdir": str(out)})
    history = run_scenario(config)
    return out, config, history


def test_config_defaults_and_roundtrip():
    cfg = config_from_dict(BASE)
    assert cfg.scenario == "circle"
    assert cfg.flow.dt == 1e-3 and cfg.flow.mode == "vpmcf"
    assert cfg.seed == 0 and cfg.outdir is None
    assert config_from_dict({}).flow.n_vertices == 512


@pytest.mark.parametrize("doc", [
    {"scenari": "circle"},
    {"flow": {"dtt": 1e-3}},
    {"flow": {"dt": -1.0}},
    {"snapshot_every": 0},
    {"series_every": 2.5},
])
def test_config_rejects_bad_documents(doc):
    with pytest.raises(BadParameters):
        config_from_dict(doc)


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    assert load_config(path).snapshot_every == 10


def test_run_directory_layout(rundir):
    out, config, history = rundir
    names = {p.name for p in out.iterdir()}
    assert names == {"run.json", "series.csv", "steps.npz"}
    assert not any(n.startswith("snap_") for n in names)
    # 50 steps at snapshot_every=10: steps 0, 10, ..., 50, one array
    with np.load(out / "steps.npz") as rec:
        assert rec["snapshots"].shape == (6, 64, 2)
        assert list(rec["snap_steps"]) == list(range(0, 51, 10))
    # engine recorded at gcd(10, 5) = 5, so the series has 11 rows
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == ",".join(SERIES_COLUMNS)
    assert len(lines) == 1 + 11
    meta = json.loads((out / "run.json").read_text())
    assert meta["termination"] == "t_end"
    assert meta["n_steps"] == 50
    assert meta["config"]["flow"]["dt"] == 1e-3


def test_load_history_round_trip(rundir):
    out, config, history = rundir
    loaded = load_history(str(out))
    assert loaded.config == config.flow
    assert loaded.termination == "t_end"
    assert len(loaded.snapshots) == 6
    assert list(loaded.snap_steps) == list(range(0, 51, 10))
    assert np.array_equal(loaded.step_times, history.step_times)
    assert np.array_equal(loaded.i2, history.i2)
    # stored vertices come back from the binary store at full precision
    src = history.snapshots[list(history.snap_steps).index(10)]
    assert np.array_equal(loaded.snapshots[1].vertices, src.vertices)
    assert loaded.snapshot_times[1] == src.time


def test_every_snapshot_round_trips_exactly(rundir):
    out, _, history = rundir
    loaded = load_history(str(out))
    for k, curve in zip(loaded.snap_steps, loaded.snapshots):
        src = history.snapshots[list(history.snap_steps).index(k)]
        assert np.array_equal(curve.vertices, src.vertices)
        assert curve.time == src.time
    assert list(loaded.snapshot_times) == [c.time for c in loaded.snapshots]


def test_loaded_history_supports_diagnostics(rundir):
    out, _, _ = rundir
    loaded = load_history(str(out))
    ser = series(loaded)
    assert len(ser) == 6
    assert np.all(np.abs(ser.area - 64 * np.sin(np.pi / 64)
                         * np.cos(np.pi / 64)) < 1e-12)
    frame = RescalingFrame((0.0, 0.0), float(loaded.step_times[-1]), 2.0)
    assert psi_invariance_check(loaded, frame) <= 1e-8


def test_series_is_deterministic(tmp_path):
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_scenario(config_from_dict({**BASE, "outdir": str(out)}))
        dirs.append((out / "series.csv").read_bytes())
    assert dirs[0] == dirs[1]


def test_load_history_rejects_non_run_dirs(tmp_path):
    with pytest.raises(BadParameters):
        load_history(str(tmp_path))


def _clone_with_records(out, dest, edit):
    """Copy a run directory, rewriting ``steps.npz`` through ``edit``."""
    dest.mkdir()
    for p in out.iterdir():
        (dest / p.name).write_bytes(p.read_bytes())
    with np.load(out / "steps.npz") as npz:
        rec = {key: npz[key] for key in npz.files}
    edit(rec)
    np.savez(dest / "steps.npz", **rec)
    return str(dest)


def test_load_history_detects_missing_snapshot(rundir, tmp_path):
    out, config, history = rundir

    def drop_row(rec):
        rec["snapshots"] = np.delete(rec["snapshots"], 3, axis=0)

    clone = _clone_with_records(out, tmp_path / "clone", drop_row)
    with pytest.raises(BadParameters, match="5, 64, 2"):
        load_history(clone)


def test_load_history_refuses_non_finite_vertex(rundir, tmp_path):
    out, _, _ = rundir

    def poison(rec):
        rec["snapshots"][2, 5, 0] = np.nan

    clone = _clone_with_records(out, tmp_path / "clone", poison)
    with pytest.raises(BadParameters, match="not finite"):
        load_history(clone)


def test_load_history_refuses_snapshot_step_out_of_range(rundir, tmp_path):
    out, _, _ = rundir

    def shift(rec):
        rec["snap_steps"][-1] = 999

    clone = _clone_with_records(out, tmp_path / "clone", shift)
    with pytest.raises(BadParameters, match="outside the 51 recorded"):
        load_history(clone)


def test_load_history_refuses_old_csv_layout(rundir, tmp_path):
    out, _, history = rundir
    clone = _clone_with_records(out, tmp_path / "old",
                                lambda rec: rec.pop("snapshots"))
    for k, curve in zip(history.snap_steps, history.snapshots):
        if k % 10 == 0:
            write_snapshot(f"{clone}/snap_{int(k):08d}.csv", curve)
    with pytest.raises(BadParameters, match="snap_"):
        load_history(clone)


def test_load_history_builds_no_cache(rundir, monkeypatch):
    out, _, _ = rundir
    calls = []

    def counting(curve):
        calls.append(curve)
        return build_cache(curve)

    monkeypatch.setattr(vpcf.runner, "build_cache", counting)
    loaded = load_history(str(out))
    assert calls == []
    loaded.caches[2]
    loaded.caches[2]
    assert calls == [loaded.snapshots[2]]


def _assert_same_cache(a, b):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    assert a.diameter == b.diameter


def test_loaded_caches_match_fresh_ones(rundir):
    out, _, _ = rundir
    loaded = load_history(str(out))
    caches = loaded.caches
    assert len(caches) == len(loaded.snapshots) == 6
    _assert_same_cache(caches[-1], build_cache(loaded.snapshots[-1]))
    assert caches[-1] is caches[5]
    assert [c.length for c in caches[1:4]] == \
        [caches[i].length for i in (1, 2, 3)]
    for cache, curve in zip(caches, loaded.snapshots):
        _assert_same_cache(cache, build_cache(curve))
    with pytest.raises(IndexError):
        caches[6]


def test_queries_agree_on_loaded_and_fresh_history(tmp_path):
    # equal cadences: the stored snapshots are all the in-memory ones
    config = config_from_dict({
        "scenario": "ellipse", "a": 2.0, "b": 1.0,
        "flow": {"dt": 1e-3, "t_end": 0.05, "n_vertices": 64},
        "outdir": str(tmp_path / "run"),
        "snapshot_every": 5, "series_every": 5})
    fresh = run_scenario(config)
    loaded = load_history(config.outdir)
    t = fresh.snapshot_times
    assert np.array_equal(loaded.snapshot_times, t)
    for query_fn, rho in ((gaussian_density, None), (local_density, 1.5)):
        query = DensityQuery(center=(0.1, -0.2), t0=0.06,
                             times=tuple(t[[-5, -3, -1]]), rho=rho)
        a, b = query_fn(fresh, query), query_fn(loaded, query)
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
    frame = RescalingFrame((0.3, 0.1), float(t[-2]), 2.5)
    assert psi_invariance_check(loaded, frame) \
        == psi_invariance_check(fresh, frame)


def _base_run(out, **extra):
    return run_scenario(config_from_dict({**BASE, "outdir": str(out),
                                          **extra}))


def test_rerun_with_another_cadence_replaces_the_run(tmp_path):
    out = tmp_path / "run"
    _base_run(out)
    (out / "blowup_report.txt").write_text("from the first run\n")
    _base_run(out, snapshot_every=25)
    assert {p.name for p in tmp_path.iterdir()} == {"run"}
    assert {p.name for p in out.iterdir()} == \
        {"run.json", "series.csv", "steps.npz"}
    loaded = load_history(str(out))
    assert list(loaded.snap_steps) == [0, 25, 50]
    assert len(loaded.snapshots) == 3


def test_failed_write_keeps_the_previous_run(tmp_path, monkeypatch):
    out = tmp_path / "run"
    _base_run(out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def broken(history):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(vpcf.runner, "series", broken)
    with pytest.raises(RuntimeError, match="injected"):
        _base_run(out, snapshot_every=25)
    assert {p.name for p in tmp_path.iterdir()} == {"run"}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert list(load_history(str(out)).snap_steps) == list(range(0, 51, 10))


def test_write_refuses_a_directory_that_is_not_a_run(tmp_path):
    out = tmp_path / "mine"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    with pytest.raises(BadParameters, match="not a run directory"):
        _base_run(out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me\n"
    assert {p.name for p in tmp_path.iterdir()} == {"mine"}


def test_write_refuses_the_working_directory(tmp_path, monkeypatch):
    out = tmp_path / "run"
    _base_run(out)
    before = sorted(p.name for p in out.iterdir())
    monkeypatch.chdir(out)
    for outdir in (".", str(tmp_path)):
        with pytest.raises(BadParameters):
            _base_run(outdir)
    assert sorted(p.name for p in out.iterdir()) == before


def test_write_into_an_empty_directory(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    _base_run(out)
    assert len(load_history(str(out)).snapshots) == 6


def test_verify_suite_unknown_name(tmp_path):
    with pytest.raises(UnknownSuite):
        verify_suite("bogus", outdir=str(tmp_path))


def test_verify_all_quick(tmp_path):
    status, path = verify_suite("all", outdir=str(tmp_path), quick=True)
    assert status == 0
    text = open(path).read()
    assert text.splitlines()[-1] == "overall PASS"
    certs = [ln for ln in text.splitlines() if ln.startswith("CERT ")]
    assert len(certs) == 32
    assert all(" PASS " in ln for ln in certs)
    for suite in SUITES[:-1]:
        assert f"suite {suite}" in text
    assert (tmp_path / "trilobite_report.csv").exists()


def test_trilobite_suite_logs_reference_discrepancies(tmp_path):
    certs, notes = trilobite_suite(outdir=str(tmp_path))
    assert all(certs)
    joined = "\n".join(notes)
    # the reference cone and cap rows differ from the oracle; the suite
    # must say so rather than hide it
    assert "cone: oracle intH" in joined
    assert "cap: oracle intHK" in joined


def test_single_suite_report(tmp_path):
    status, path = verify_suite("conservation", outdir=str(tmp_path),
                                quick=True)
    assert status == 0
    text = open(path).read()
    assert path.endswith("verify_conservation.txt")
    assert "CERT area_conservation_circle PASS" in text
    assert "CERT area_conservation_ellipse PASS" in text
