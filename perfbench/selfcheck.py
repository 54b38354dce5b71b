"""Tiny-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks the harness, not vpcf: the span arithmetic, the tail percentile,
that BENCHMARK.json names exactly the metrics the harness prints, that
every workload runs and passes its checks on tiny presets, that two traced
runs give identical call counts, and that the benchmark refuses to run
where the vpcf sources are missing.  Takes about two minutes; exits 0 when
every check holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

import run
from tracing import COUNTERS, dt_halvings, layer_metric_units, self_times

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def unit_checks():
    spans = [(0, "a", None, 0.0, 10.0), (1, "b", 0, 1.0, 4.0),
             (2, "c", 1, 2.0, 3.0), (3, "b", 0, 5.0, 6.0)]
    expect(self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0},
           "self time is the span minus its direct children")

    expect(run.tail(range(10)) is None, "no tail with only 10 samples")
    expect(run.tail(range(1, 21)) == (10, 50.0, 20),
           "tail of 1..20 is 10 at p50 with 10 samples beyond")

    dt = 1e-4 / np.array([1, 2, 2, 4, 2, 8, 3.7])
    history = SimpleNamespace(dt_used=dt, termination="t_end",
                              config=SimpleNamespace(dt=1e-4))
    expect(dt_halvings(history) == 4,
           "dt halvings count 1+1+2, skip the clipped last step")


def manifest_checks():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match run.py")
    expect({m["name"]: m["unit"] for m in doc["end_to_end"]}
           == run.E2E_UNITS, "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in doc["per_layer"]}
           == layer_metric_units(),
           "BENCHMARK.json per_layer matches tracing.py")


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def workload_checks(name):
    common = ["--workload", name, "--seed", "7", "--seconds", "1",
              "--size", "tiny"]
    code, res = bench(*common, "--trace", "0")
    expect(code == 0 and res is not None and res["correct"]
           and res["failed"] == 0, f"{name}: untraced run passes")
    if res is None:
        return
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           f"{name}: result has exactly the four keys")
    metrics = res["metrics"]
    expect(set(metrics) == set(run.E2E_UNITS)
           and all(m["value"] > 0 for m in metrics.values()),
           f"{name}: every end-to-end metric reported and nonzero")

    traced = [bench(*common, "--trace", "1") for _ in range(2)]
    expect(all(c == 0 and r is not None and r["correct"] for c, r in traced),
           f"{name}: traced runs pass")
    if any(r is None for _, r in traced):
        return
    expect(all(set(r["metrics"]) == set(layer_metric_units())
               for _, r in traced),
           f"{name}: every per-layer metric reported")
    exact = [k for k in layer_metric_units()
             if k.endswith(".calls") or k in COUNTERS]
    first, second = (r["metrics"] for _, r in traced)
    same = [k for k in exact if first[k]["value"] == second[k]["value"]]
    expect(len(same) == len(exact),
           f"{name}: counts identical across traced runs "
           f"(differ: {sorted(set(exact) - set(same))})")


def missing_sources_check():
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out",
                                                      "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "integrate_capsule", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without vpcf sources: non-zero exit and no result")


def main():
    unit_checks()
    manifest_checks()
    missing_sources_check()
    for name in run.WORKLOAD_NAMES:
        workload_checks(name)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
