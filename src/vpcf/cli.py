"""Command-line interface.

Subcommands: ``run <config.json>``, ``verify <suite>``, ``blowup``,
``density`` and ``trilobite``.  Exit codes: 0 success / all certificates
pass, 1 certificate failure, 2 usage or configuration error, 3 numerical
failure.
"""

import argparse
import os
import sys

from .blowup import (RescalingFrame, classify_type, psi_invariance_check,
                     shrinker_residual_battery, write_blowup_report)
from .diagnostics import DensityQuery, gaussian_density, local_density
from .errors import (BadParameters, NotBalanced, ParameterDomain,
                     UnknownSuite, VpcfError)
from .revolution import (balance_trilobite, hbar_derivative_at_zero,
                         write_trilobite_report)
from .runner import (SUITES, load_config, load_history, run_scenario,
                     verify_suite)

USAGE_ERRORS = (BadParameters, UnknownSuite, ParameterDomain, ValueError,
                OSError)

POINT_OPTIONS = ("--point", "--center")


def _point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise BadParameters(f"expected a point 'X,Y', got {text!r}")
    return float(parts[0]), float(parts[1])


def cmd_run(args):
    config = load_config(args.config)
    history = run_scenario(config)
    print(f"termination: {history.termination} at "
          f"t = {history.step_times[-1]:.17g} "
          f"after {history.n_steps} accepted steps")
    if config.outdir:
        print(f"artifacts in {config.outdir}")
    return 0


def cmd_verify(args):
    status, path = verify_suite(args.suite, outdir=args.outdir,
                                quick=args.quick)
    with open(path) as fh:
        print(fh.read(), end="")
    return status


def cmd_blowup(args):
    history = load_history(args.history)
    if args.auto:
        report = classify_type(history)
        # the battery evaluates each resolved snapshot at unit scale, tau=-1/2
        residuals = [(-0.5, v) for v in shrinker_residual_battery(history)]
        path = os.path.join(args.history, "blowup_report.txt")
        write_blowup_report(path, report, residuals=residuals)
        print(f"classification: {report.classification} "
              f"(sup kappa^2 (T - t) = {report.sup_product:.6g})")
        print(f"report: {path}")
        return 0
    if args.center is None or args.time is None or args.lam is None:
        raise BadParameters(
            "need either --auto or all of --center, --time, --lambda")
    frame = RescalingFrame(_point(args.center), args.time, args.lam)
    defect = psi_invariance_check(history, frame)
    tol = 1e-6 * (1.0 + float(history.i2[-1]))
    print(f"multiplier-integral invariance defect {defect:.6g} "
          f"(tolerance {tol:.6g})")
    return 0 if defect <= tol else 1


def cmd_density(args):
    history = load_history(args.history)
    times = history.snapshot_times
    before = tuple(times[times < args.time - 1e-12 * max(1.0, args.time)][-3:])
    query = DensityQuery(center=_point(args.point), t0=args.time,
                         times=before, rho=args.rho)
    if args.rho is not None:
        report = local_density(history, query)
        for t, v in zip(report.times, report.values):
            print(f"t = {t:.17g}  localized density = {v:.17g}")
        status = "PASS" if report.pairs_pass else "FAIL"
        print(f"pair checks: {status} "
              f"(worst discrepancy {report.pair_discrepancy:.6g}, "
              f"tol {report.tol:.6g})")
        return 0 if report.pairs_pass else 1
    result = gaussian_density(history, query)
    for t, v in zip(before, result.values):
        print(f"t = {t:.17g}  density = {v:.17g}")
    print(f"limit: {result.limit:.17g}")
    return 0


def cmd_trilobite(args):
    try:
        built = balance_trilobite(args.rho, args.n, args.r)
    except NotBalanced as exc:
        print(f"FAIL: {exc}")
        return 1
    hbar = hbar_derivative_at_zero(built)
    path = args.out
    write_trilobite_report(path, built, hbar=hbar)
    totals = built.totals
    print(f"l = {built.l_used:.17g}")
    print(f"sum intH = {totals.intH:.6g} (area {totals.area:.6g})")
    print(f"sum intHK = {totals.intHK:.17g}")
    print(f"hbar derivative at zero: {hbar:.17g}")
    print(f"report: {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vpcf",
        description="Volume-preserving curvature flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario from a JSON config")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run a certificate suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--outdir", default=".")
    p.add_argument("--quick", action="store_true",
                   help="shrink the presets (same thresholds)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blowup", help="rescaling analysis of a stored run")
    p.add_argument("--history", required=True)
    p.add_argument("--auto", action="store_true",
                   help="classify the singularity and report residuals")
    p.add_argument("--center")
    p.add_argument("--time", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("density", help="backward heat-kernel density")
    p.add_argument("--history", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--rho", type=float)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("trilobite",
                       help="balance the capped-cylinder test surface")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out", default="trilobite_report.csv")
    p.set_defaults(func=cmd_trilobite)
    return parser


def _fuse_points(argv):
    """Write ``--point X,Y`` as ``--point=X,Y``.

    argparse reads a separate value that starts with ``-`` (a negative X)
    as an option, not as the value of ``--point``.
    """
    out = []
    for arg in argv:
        if out and out[-1] in POINT_OPTIONS and "," in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_fuse_points(argv))
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VpcfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
