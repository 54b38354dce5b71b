"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line:
the set-up time (from the parent's spawn time, ``--spawned-at`` on
CLOCK_MONOTONIC, which all processes share), the timed requests, each in
raw and calibrated seconds (see calibrate.py), the correctness checks, peak
RSS and, in traced mode, the per-layer metrics.  Traced mode also writes
every span to ``--trace-out``.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _versions(np):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": openblas}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    import numpy as np
    from calibrate import SpeedSampler
    sampler = SpeedSampler()
    if not args.trace_out:      # slices would add to the traced self times
        sampler.start()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import vpcf
    import vpcf.cli  # noqa: F401  (workloads call vpcf.cli.main)
    if not os.path.abspath(vpcf.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported vpcf from {vpcf.__file__}, not {src}")

    from workloads import WORKLOADS, Context

    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    rng = np.random.default_rng([args.seed, args.rep])
    ctx = Context(vpcf, rng, args.size, args.workdir, tracer)
    workload = WORKLOADS[args.workload]()
    with ctx.span("setup"):
        workload.setup(ctx)
    setup_cal_s, setup_s = sampler.calibrate(_now() - args.spawned_at, 0)

    requests = []
    for label, call in workload.requests(ctx):
        since = sampler.mark()
        with ctx.span("request"):
            t0 = time.perf_counter()
            ops, ok, detail = call()
            elapsed = time.perf_counter() - t0
        cal_seconds, seconds = sampler.calibrate(elapsed, since)
        requests.append({"label": label, "seconds": seconds,
                         "cal_seconds": cal_seconds, "ops": ops,
                         "ok": ok, "detail": "" if ok else detail})
    if not args.trace_out:
        sampler.stop()

    with ctx.untraced():
        try:
            checks = [asdict(c) for c in workload.check(ctx)]
        except Exception:  # a crashing check is a failed check, not a crash
            checks = [{"name": "check_raised", "passed": False,
                       "detail": traceback.format_exc()}]

    result = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "requests": requests,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "op": workload.op,
        "versions": _versions(np),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace_out, {"workload": args.workload,
                                     "seed": args.seed, "rep": args.rep})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
