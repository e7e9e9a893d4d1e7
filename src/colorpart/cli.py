"""Command-line surface: exact series, constants, comparisons, fits, regions.

Exit codes: 0 success, 1 assertion/property failure, 2 usage, invalid
input or an unwritable --output path, 3 exact-method mismatch, 4 work
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from . import asymptotic, exact, quadform, regions, selftest, specs
from .errors import ColorpartError, InsufficientData, OracleMismatch, TooLarge
from .precision import set_default_bits

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help='compact spec, e.g. "s=1,3;l=2,2"')
    group.add_argument("--spec-json", help='JSON spec, e.g. \'{"s":[1,3],"l":[2,2]}\'')


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision-bits", type=int, default=None,
                   help="significand bits for extended-precision work (default 128)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write results to PATH instead of stdout")


def _resolve_spec(args) -> specs.ColoredSpec:
    if args.spec is not None:
        return specs.parse_text(args.spec)
    return specs.parse_json(args.spec_json)


def _parse_ns(args) -> list[int]:
    if getattr(args, "n_geom", None):
        start, _, stop = args.n_geom.partition(":")
        return asymptotic.geometric_grid(int(start), int(stop))
    if getattr(args, "n_list", None):
        return [int(x) for x in args.n_list.split(",") if x.strip()]
    raise InsufficientData("provide --n-geom START:STOP or --n-list N1,N2,...")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_exact(args) -> int:
    spec = _resolve_spec(args)
    # Convolution goes first: it refuses an over-budget request before any
    # engine builds a table.  Engines are looked up on ``exact`` per call.
    names = ["convolution", "divisor", "euler"] if args.method == "all" else [args.method]
    series = {}
    for name in names:
        kwargs = {"budget": args.budget} if name == "convolution" else {}
        series[name] = getattr(exact, f"g_series_{name}")(spec, args.n_max, **kwargs)
    if args.method == "all":
        columns = zip(series["divisor"].coeffs, series["euler"].coeffs,
                      series["convolution"].coeffs)
        for n, (div, eul, conv) in enumerate(columns):
            if not div == eul == conv:
                raise OracleMismatch(f"methods disagree at n={n}: divisor={div} "
                                     f"euler={eul} convolution={conv}")
    shown = series["divisor" if args.method == "all" else args.method]
    if args.format == "raw":
        _emit(args, exact.series_to_raw(shown))
    elif args.format == "json":
        _emit(args, exact.series_to_json(shown) + "\n")
    else:
        _emit(args, exact.series_to_csv(shown))
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    spec = _resolve_spec(args)
    consts = specs.constants(spec)
    ns = [int(x) for x in args.n_list.split(",")] if args.n_list else []
    payload = {
        "spec": {"s": list(spec.s), "l": list(spec.l)},
        "a": [consts.a.numerator, consts.a.denominator],
        "d": [consts.d.numerator, consts.d.denominator],
        "c": mpmath.nstr(consts.c, 25),
        "exp_coeff": mpmath.nstr(consts.exp_coeff, 25),
        "ln_main": {str(n): mpmath.nstr(asymptotic.ln_main_term(consts, n), 25) for n in ns},
    }
    if args.format == "json":
        _emit(args, json.dumps(payload) + "\n")
    else:
        lines = [
            f"a,{consts.a}",
            f"d,{consts.d}",
            f"c,{payload['c']}",
            f"exp_coeff,{payload['exp_coeff']}",
        ]
        lines += [f"ln_main({n}),{v}" for n, v in payload["ln_main"].items()]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _comparison_rows(args):
    spec = _resolve_spec(args)
    ns = _parse_ns(args)
    return spec, asymptotic.comparison_table(spec, ns)


def cmd_compare(args) -> int:
    _, rows = _comparison_rows(args)
    if args.format == "json":
        _emit(args, asymptotic.rows_to_json(rows) + "\n")
    else:
        _emit(args, asymptotic.rows_to_csv(rows))
    return EXIT_OK


def cmd_fit(args) -> int:
    _, rows = _comparison_rows(args)
    fit = asymptotic.fit_error_exponent(rows)
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_range": list(fit.n_range),
    }
    if args.format == "json":
        _emit(args, json.dumps(payload) + "\n")
    else:
        _emit(args, "slope,intercept,r_squared,n_min,n_max\n"
              f"{fit.slope},{fit.intercept},{fit.r_squared},{fit.n_range[0]},{fit.n_range[1]}\n")
    if args.assert_slope_max is not None and fit.slope > args.assert_slope_max:
        print(f"assertion failed: slope {fit.slope:.4f} > {args.assert_slope_max}",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_regions(args) -> int:
    spec = _resolve_spec(args)
    eta = specs.require_eta(spec, Fraction(args.eta))
    # The split folds every color but the first; refuse before the p-table.
    exact.check_fold_budget(spec.moduli[1:], args.n, args.budget)
    ptable = exact.partition_table(args.n)
    report = regions.region_split(spec, args.n, eta, ptable, budget=args.budget)
    _emit(args, report.to_json() + "\n")
    return EXIT_OK


def cmd_quadform(args) -> int:
    lines = [f"1..{args.trials}"]
    failures = 0
    trials = quadform.det_trials(args.trials, args.k, args.rng_seed)
    for idx, (k, closed, elim) in enumerate(trials, start=1):
        rel = abs(closed - elim) / abs(elim)
        ok = rel < 1e-9
        failures += not ok
        status = "ok" if ok else "not ok"
        lines.append(f"{status} {idx} - det k={k} rel_err={rel:.3e}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_ASSERTION


def cmd_selftest(args) -> int:
    if args.output:
        with open(args.output, "w") as fh:
            ok = selftest.run_all(out=fh)
    else:
        ok = selftest.run_all()
    return EXIT_OK if ok else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorpart",
        description="Exact and asymptotic evaluation of colored partition counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact coefficient series by one or all methods")
    _add_spec_args(p)
    _add_common_args(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=["divisor", "euler", "convolution", "all"],
                   default="divisor")
    p.add_argument("--budget", type=int, default=exact.DEFAULT_FOLD_BUDGET)
    p.add_argument("--format", choices=["csv", "json", "raw"], default="csv")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("asymptotic", help="closed-form constants and ln of the main term")
    _add_spec_args(p)
    _add_common_args(p)
    p.add_argument("--n-list", default=None, help="comma-separated n values")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_asymptotic)

    for name, func, extra_help in [
        ("compare", cmd_compare, "exact vs main-term comparison table"),
        ("fit", cmd_fit, "least-squares error-decay exponent"),
    ]:
        p = sub.add_parser(name, help=extra_help)
        _add_spec_args(p)
        _add_common_args(p)
        p.add_argument("--n-list", default=None, help="comma-separated n values")
        p.add_argument("--n-geom", default=None, metavar="START:STOP",
                       help="geometric grid by doubling")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if name == "fit":
            p.add_argument("--assert-slope-max", type=float, default=None,
                           help="exit 1 if the fitted slope exceeds this value")
        p.set_defaults(func=func)

    p = sub.add_parser("regions", help="exact near-saddle / tail decomposition")
    _add_spec_args(p)
    _add_common_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", default="4/5", help="box-width exponent (rational)")
    p.add_argument("--budget", type=int, default=exact.DEFAULT_FOLD_BUDGET)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("quadform", help="determinant identity property suite (TAP)")
    _add_common_args(p)
    p.add_argument("--k", type=int, default=8, help="maximum dimension")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=cmd_quadform)

    p = sub.add_parser("selftest", help="run the full acceptance battery (TAP)")
    _add_common_args(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if getattr(args, "precision_bits", None) is not None:
        try:
            set_default_bits(args.precision_bits)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except OracleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ColorpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    finally:
        set_default_bits(None)


if __name__ == "__main__":
    sys.exit(main())
