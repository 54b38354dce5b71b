"""vpcf benchmark: three workloads through the public API, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``integrate_capsule``, ``run_dumbbell_mcf``, ``query_stored`` or
``all``.  Every repetition runs in a fresh interpreter (``worker.py``) with
BLAS/OpenMP threads capped at the number of usable cores; repetitions are
started until their timed requests add up to S seconds, and at least
MIN_REPS of them run so that set-up time is a median.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics: pairs of an untraced and a traced repetition on identical inputs,
so call counts repeat exactly and ``trace.overhead_s`` is the difference
of their ``wall_s``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every request and check passed.  See README.md for what each
metric means and which layer should move it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"        # per-repetition inputs and outputs
TRACE_ROOT = HERE / "_out"        # span dumps of traced repetitions

WORKLOAD_NAMES = ("integrate_capsule", "run_dumbbell_mcf", "query_stored")
MIN_REPS = 3
RUN_LIMIT_S = 150.0     # start no repetition that could end past this
TAIL_BEYOND = 10        # samples the tail percentile must leave above it

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc():
    return len(os.sched_getaffinity(0))


def _worker_env():
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)     # the worker imports vpcf from ROOT/src
    return env


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile leaving ``beyond`` samples above it.

    Returns ``(value, percentile, n)``, or None with too few samples.
    """
    xs = sorted(values)
    i = len(xs) - beyond - 1
    if i < 0:
        return None
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def run_rep(workload, seed, rep, size, timeout, trace_out=None):
    """One repetition in a fresh interpreter; returns its result dict."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--rep", str(rep),
           "--size", size, "--workdir", workdir]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    spawned = _now()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=_worker_env(), cwd=ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"crash": f"repetition {rep} timed out after {timeout:.0f} s",
                "rep_s": _now() - spawned}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rep_s = _now() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"repetition {rep} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}", "rep_s": rep_s}
    result = json.loads(lines[-1])
    result["rep_s"] = rep_s
    return result


def _repeat(seconds, min_reps, body):
    """Call ``body(rep, timeout)`` until the timed work reaches ``seconds``.

    ``body`` returns the results of the repetitions it ran.
    """
    t0 = _now()
    results = []
    work_s = 0.0
    longest = 0.0
    while True:
        timeout = RUN_LIMIT_S + 25.0 - (_now() - t0)
        batch = body(len(results), timeout)
        results.extend(batch)
        longest = max([longest] + [r["rep_s"] for r in batch])
        if any("crash" in r for r in batch):
            break
        work_s += sum(q["seconds"] for r in batch for q in r["requests"])
        done = len(results) >= min_reps and work_s >= seconds
        if done or _now() - t0 + longest > RUN_LIMIT_S:
            break
    return results


def _tally(reps):
    attempted = failed = 0
    problems = []
    for r in reps:
        if "crash" in r:
            attempted += 1
            failed += 1
            problems.append(r["crash"])
            continue
        for q in r["requests"]:
            attempted += 1
            if not q["ok"]:
                failed += 1
                problems.append(f"request {q['label']}: {q['detail']}")
        for c in r["checks"]:
            attempted += 1
            if not c["passed"]:
                failed += 1
                problems.append(f"check {c['name']}: {c['detail']}")
    return attempted, failed, problems


def _wall_s(reps, key="cal_seconds"):
    return statistics.median(q[key] for r in reps for q in r["requests"])


def end_to_end(reps, calibrated=True):
    """The bounded metrics (calibrated), or the same in raw seconds."""
    ok = [r for r in reps if "crash" not in r]
    if not ok:
        return {}
    key = "cal_seconds" if calibrated else "seconds"
    requests = [q for r in ok for q in r["requests"]]
    setup = "setup_cal_s" if calibrated else "setup_s"
    return {
        "setup_s": statistics.median(r[setup] for r in ok),
        "wall_s": _wall_s(ok, key),
        "ops_per_s": sum(q["ops"] for q in requests)
        / sum(q[key] for q in requests),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(pairs):
    plain = [p for p, _ in pairs if "crash" not in p]
    traced = [t for _, t in pairs if "crash" not in t]
    if not plain or not traced:
        return {}
    out = {name: statistics.median(t["layers"][name] for t in traced)
           for name in layer_metric_units() if name != "trace.overhead_s"}
    # the traced half runs without the speed sampler: compare own seconds
    out["trace.overhead_s"] = (_wall_s(traced, "seconds")
                               - _wall_s(plain, "seconds"))
    return out


def measure(workload, seed, seconds, trace, size):
    """Run one workload; returns (reps, metrics, units)."""
    if not trace:
        reps = _repeat(seconds, MIN_REPS, lambda rep, timeout: [
            run_rep(workload, seed, rep, size, timeout)])
        return reps, end_to_end(reps), E2E_UNITS

    pairs = []

    def pair(_, timeout):
        # both halves use repetition 0's inputs, so counts repeat exactly
        start = _now()
        plain = run_rep(workload, seed, 0, size, timeout)
        out = TRACE_ROOT / f"trace-{workload}-seed{seed}-{len(pairs)}.json"
        traced = run_rep(workload, seed, 0, size,
                         timeout - (_now() - start), trace_out=out)
        pairs.append((plain, traced))
        return [plain, traced]

    reps = _repeat(2 * seconds, 2, pair)
    return reps, per_layer(pairs), layer_metric_units()


def report(workload, seed, trace, reps, metrics, units):
    """Print the human-readable lines; return the result object."""
    attempted, failed, problems = _tally(reps)
    ok = [r for r in reps if "crash" not in r]
    print(f"workload {workload}: seed {seed}, {len(reps)} repetitions, "
          f"trace {int(trace)}"
          + (f", operation = {ok[0]['op']}" if ok else ""))
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    if not trace and ok:
        raw = end_to_end(ok, calibrated=False)
        print("  uncalibrated: " + ", ".join(
            f"{k} {raw[k]:.6g} {units[k]}" for k in ("setup_s", "wall_s",
                                                      "ops_per_s")))
        if workload == "query_stored":
            cal = [q["cal_seconds"] for r in ok for q in r["requests"]]
            t = tail(cal)
            print(f"  query_p50_s = wall_s, queries_per_s = ops_per_s; "
                  + (f"query_tail_s = {t[0]:.6g} s at p{t[1]:.1f} "
                     f"(n = {t[2]}, {TAIL_BEYOND} beyond)" if t else
                     f"query_tail_s needs more than {TAIL_BEYOND} queries"))
        else:
            print("  steps_per_s = ops_per_s")
    print(f"  error_rate = {failed / max(attempted, 1):.6g} "
          f"({failed} failed / {attempted} attempted)")
    for problem in problems:
        print(f"  FAIL {problem}")
    return {"correct": failed == 0 and bool(metrics),
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(
        description="vpcf benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny presets for the harness self-check")
    args = p.parse_args(argv)
    # on SIGTERM unwind, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "vpcf" / "__init__.py").is_file():
        print(f"error: no vpcf sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    env_line = None
    for name in names:
        reps, metrics, units = measure(name, args.seed, args.seconds,
                                       bool(args.trace), args.size)
        ok = [r for r in reps if "crash" not in r]
        if ok and env_line is None:
            v = ok[0]["versions"]
            env_line = (f"env: nproc {nproc()} (BLAS/OpenMP threads capped "
                        f"at {nproc()}), python {sys.version.split()[0]}, "
                        f"numpy {v['numpy']}, scipy {v['scipy']}, "
                        f"{v['blas']}")
            print(env_line)
        results[name] = report(name, args.seed, args.trace, reps, metrics,
                               units)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
