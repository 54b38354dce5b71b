import json
from pathlib import Path

import pytest

from vpcf.cli import main
from vpcf.runner import config_from_dict, run_scenario


@pytest.fixture(scope="module")
def vpmcf_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "circle"
    run_scenario(config_from_dict({
        "scenario": "circle", "radius": 1.0,
        "flow": {"dt": 1e-3, "t_end": 0.3, "n_vertices": 64},
        "outdir": str(out), "snapshot_every": 10, "series_every": 10}))
    return str(out)


@pytest.fixture(scope="module")
def mcf_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "mcf"
    run_scenario(config_from_dict({
        "scenario": "circle", "radius": 1.0,
        "flow": {"mode": "mcf", "dt": 1e-4, "t_end": 0.6, "n_vertices": 128},
        "outdir": str(out), "snapshot_every": 100, "series_every": 100}))
    return str(out)


def test_run_command(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "ellipse", "a": 2.0, "b": 1.0,
        "flow": {"dt": 1e-3, "t_end": 0.02, "n_vertices": 64},
        "outdir": str(out), "snapshot_every": 10, "series_every": 10}))
    assert main(["run", str(cfg)]) == 0
    captured = capsys.readouterr().out
    assert "termination: t_end" in captured
    assert (out / "series.csv").exists()


def test_run_block_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "circle", "radiu": 1.0}))
    assert main(["run", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_run_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_verify_cli(tmp_path, capsys):
    code = main(["verify", "conservation", "--outdir", str(tmp_path),
                 "--quick"])
    assert code == 0
    assert "overall PASS" in capsys.readouterr().out
    assert (tmp_path / "verify_conservation.txt").exists()


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


def test_blowup_auto(mcf_dir, capsys):
    assert main(["blowup", "--history", mcf_dir, "--auto"]) == 0
    out = capsys.readouterr().out
    assert "classification: TypeI" in out
    assert (Path(mcf_dir) / "blowup_report.txt").exists()


def test_blowup_manual_frame(mcf_dir, capsys):
    code = main(["blowup", "--history", mcf_dir, "--center", "0,0",
                 "--time", "0.3", "--lambda", "2.0"])
    assert code == 0
    assert "invariance defect" in capsys.readouterr().out


def test_negative_points_parse(mcf_dir, capsys):
    code = main(["blowup", "--history", mcf_dir, "--center", "-1,2",
                 "--time", "0.3", "--lambda", "2.0"])
    assert code == 0
    assert "invariance defect" in capsys.readouterr().out
    for point in (["--point", "-0.3,0.1"], ["--point=-0.3,0.1"]):
        code = main(["density", "--history", mcf_dir, *point,
                     "--time", "0.3"])
        assert code == 0
        assert "limit:" in capsys.readouterr().out


def test_blowup_needs_mode(mcf_dir, capsys):
    assert main(["blowup", "--history", mcf_dir]) == 2


def test_blowup_without_singularity(vpmcf_dir):
    assert main(["blowup", "--history", vpmcf_dir, "--auto"]) == 3


def test_density_limit(vpmcf_dir, capsys):
    code = main(["density", "--history", vpmcf_dir, "--point", "1,0",
                 "--time", "0.3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "limit:" in out
    limit = float(out.splitlines()[-1].split()[-1])
    assert abs(limit - 1.0) < 1e-2


def test_density_local_pairs(vpmcf_dir, capsys):
    code = main(["density", "--history", vpmcf_dir, "--point", "0,0",
                 "--time", "0.3", "--rho", "1.0"])
    assert code == 0
    assert "pair checks: PASS" in capsys.readouterr().out


def test_density_out_of_range(vpmcf_dir):
    assert main(["density", "--history", vpmcf_dir, "--point", "1,0",
                 "--time", "0.0"]) == 3


def test_density_bad_point(vpmcf_dir):
    assert main(["density", "--history", vpmcf_dir, "--point", "1;0",
                 "--time", "0.3"]) == 2


def test_trilobite_command(tmp_path, capsys):
    report = tmp_path / "tri.csv"
    code = main(["trilobite", "--rho", "1.0", "--n", "7", "--r", "0.005",
                 "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "hbar derivative at zero: -0.16220861297384" in out
    assert report.exists()


def test_trilobite_too_few_cylinders(tmp_path, capsys):
    code = main(["trilobite", "--rho", "1.0", "--n", "4", "--r", "0.005",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_trilobite_bad_parameters(tmp_path):
    assert main(["trilobite", "--rho", "1.0", "--n", "3", "--r", "0.005",
                 "--out", str(tmp_path / "t.csv")]) == 2
