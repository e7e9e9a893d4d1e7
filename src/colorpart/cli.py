"""Command-line surface: exact series, constants, comparisons, fits, regions.

Exit codes: 0 success, 1 assertion/property failure, 2 usage, invalid
input or an unwritable --output path, 3 exact-method mismatch, 4 work
budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from . import exact, specs
from .errors import ColorpartError, InsufficientData, OracleMismatch, TooLarge
from .precision import DEFAULT_BITS, check_bits

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4

# Fold steps charged per quadform trial besides its k**3 elimination: a trial
# (draw, det, TAP line) costs about 18 us at k = 1 and a convolution-series
# fold step about 45 ns (2-core x86-64 VM, Python 3.11), so 18e-6 / 45e-9.
_TRIAL_WEIGHT = 400


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help='compact spec, e.g. "s=1,3;l=2,2"')
    group.add_argument("--spec-json", help='JSON spec, e.g. \'{"s":[1,3],"l":[2,2]}\'')


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision-bits", type=int, default=DEFAULT_BITS,
                   help=f"significand bits for extended-precision work (default {DEFAULT_BITS})")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write results to PATH instead of stdout")


def _checked(cast, accept, requirement: str):
    """An argparse type: ``cast`` the text, and refuse a value ``accept``
    rejects as a usage error.  A text ``cast`` refuses gets the message
    argparse gives any ``type=cast`` option."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    return parse


# --budget is a step count.  No slope exceeds nan or inf, so either would make
# --assert-slope-max an assertion that cannot fail.
_budget = _checked(int, lambda budget: budget >= 0, ">= 0")
_finite = _checked(float, math.isfinite, "finite")


def _resolve_spec(args) -> specs.ColoredSpec:
    if args.spec is not None:
        return specs.parse_text(args.spec)
    return specs.parse_json(args.spec_json)


def _parse_ns(args) -> list[int]:
    """The n values of --n-geom START:STOP or --n-list N1,N2,...; [] when neither is set."""
    if getattr(args, "n_geom", None):
        try:
            start, stop = map(int, args.n_geom.split(":"))
        except ValueError:
            raise ValueError(f"--n-geom must be START:STOP, two integers, "
                             f"got {args.n_geom!r}") from None
        from . import asymptotic

        return asymptotic.geometric_grid(start, stop)
    if args.n_list:
        try:
            return [int(x) for x in args.n_list.split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"--n-list must be comma-separated integers, "
                             f"got {args.n_list!r}") from None
    return []


def _text(value) -> str:
    """A value as csv cells and JSON strings show it; mpmath floats get 25 digits."""
    # No mpf exists before mpmath is loaded, and exact and quadform never load it.
    mpmath = sys.modules.get("mpmath")
    return mpmath.nstr(value, 25) if mpmath and isinstance(value, mpmath.mpf) else str(value)


def _json_value(value):
    """JSON for the values json does not know: a spec, a Fraction, an mpmath float."""
    if isinstance(value, specs.ColoredSpec):
        return {"s": value.s, "l": value.l}
    # As in _text: no Fraction exists before fractions is loaded, and exact never loads it.
    fractions = sys.modules.get("fractions")
    if fractions and isinstance(value, fractions.Fraction):
        return [value.numerator, value.denominator]
    return _text(value)


def rows_to_csv(header, rows) -> str:
    """Comma-joined lines: the header, if there is one, then one line per row."""
    return "".join(",".join(map(_text, row)) + "\n" for row in [header, *rows] if row)


def value_to_json(value) -> str:
    """One JSON line.  Exact integers go in as decimal strings: JSON readers
    would round them to doubles."""
    import json

    return json.dumps(value, default=_json_value) + "\n"


def _write(args, lines) -> None:
    """Write each line to --output, or to stdout, as soon as it is made."""
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        for line in lines:
            fh.write(line)


def _emit(args, value=None, header=(), rows=()) -> None:
    """Write one command's result: ``value`` for --format json, else (csv,
    raw) ``header`` and ``rows`` as comma-joined lines."""
    _write(args, [value_to_json(value) if args.format == "json" else rows_to_csv(header, rows)])


def _tap(args, plan: int, rows) -> int:
    """Write the TAP plan, then each (ok, description) row as it is produced, the
    output open before the first: EXIT_ASSERTION if any row failed, else EXIT_OK."""
    failed = False

    def lines():
        nonlocal failed
        yield f"1..{plan}\n"
        for idx, (ok, description) in enumerate(rows, start=1):
            failed |= not ok
            yield f"{'ok' if ok else 'not ok'} {idx} - {description}\n"

    _write(args, lines())
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_exact(args) -> int:
    spec = _resolve_spec(args)
    # Every named engine's estimate is checked, in name order (convolution's first),
    # before any engine builds anything.  Engines are looked up on ``exact`` per call.
    names = sorted(exact.ENGINES) if args.method == "all" else [args.method]
    for name in names:
        exact.check_series_budget(name, spec, args.n_max, args.budget)
    series = {name: getattr(exact, f"g_series_{name}")(spec, args.n_max) for name in names}
    if args.method == "all":
        columns = zip(series["divisor"].coeffs, series["euler"].coeffs,
                      series["convolution"].coeffs)
        for n, (div, eul, conv) in enumerate(columns):
            if not div == eul == conv:
                raise OracleMismatch(f"methods disagree at n={n}: divisor={div} "
                                     f"euler={eul} convolution={conv}")
    shown = series["divisor" if args.method == "all" else args.method]
    if args.format == "csv":
        # exact.series_to_csv stays this table's writer: tests substitute it.
        _write(args, [exact.series_to_csv(shown)])
    else:
        _emit(args, {"spec": spec, "method": shown.method,
                     "g": [str(g) for g in shown.coeffs]},
              rows=[(g,) for g in shown.coeffs])
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    from . import asymptotic  # mpmath loads only for the commands that use it

    spec = _resolve_spec(args)
    consts = specs.constants(spec, prec=args.precision_bits)
    ns = _parse_ns(args)
    ln_main = dict(zip(ns, asymptotic._ln_main_terms(consts, ns, consts.prec)))
    _emit(args, {"spec": spec, "a": consts.a, "d": consts.d, "c": consts.c,
                 "exp_coeff": consts.exp_coeff, "ln_main": ln_main},
          rows=[("a", consts.a), ("d", consts.d), ("c", consts.c),
                ("exp_coeff", consts.exp_coeff),
                *((f"ln_main({n})", v) for n, v in ln_main.items())])
    return EXIT_OK


def _comparison_rows(args):
    spec = _resolve_spec(args)
    if not (args.n_geom or args.n_list):
        raise InsufficientData("provide --n-geom START:STOP or --n-list N1,N2,...")
    from . import asymptotic

    return asymptotic.comparison_table(spec, _parse_ns(args), prec=args.precision_bits,
                                       budget=args.budget)


def cmd_compare(args) -> int:
    header = ("n", "ln_exact", "ln_main", "rel_err")
    rows = [(r.n, r.ln_exact, r.ln_main, r.rel_err) for r in _comparison_rows(args)]
    _emit(args, [dict(zip(header, row)) for row in rows], header, rows)
    return EXIT_OK


def cmd_fit(args) -> int:
    from . import asymptotic

    fit = asymptotic.fit_error_exponent(_comparison_rows(args))
    _emit(args, {"slope": fit.slope, "intercept": fit.intercept,
                 "r_squared": fit.r_squared, "n_range": fit.n_range},
          ("slope", "intercept", "r_squared", "n_min", "n_max"),
          [(fit.slope, fit.intercept, fit.r_squared, *fit.n_range)])
    if args.assert_slope_max is not None and fit.slope > args.assert_slope_max:
        print(f"assertion failed: slope {fit.slope:.4f} > {args.assert_slope_max}",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_regions(args) -> int:
    import mpmath

    from . import regions

    report = regions.region_split(_resolve_spec(args), args.n, args.eta, budget=args.budget)
    _emit(args, {"spec": report.spec, "n": report.n, "eta": report.eta, "v": report.v,
                 "main_sum": str(report.main_sum), "tail_sum": str(report.tail_sum),
                 "tail_fraction": mpmath.nstr(report.tail_fraction(args.precision_bits), 17)})
    return EXIT_OK


def cmd_quadform(args) -> int:
    # Each trial draws a form and eliminates a matrix of up to k**3 steps.
    # A non-positive --k or --trials goes on to det_trials, which words it.
    if args.trials > 0 and args.k > 0:
        exact.check_budget(args.trials * (args.k**3 + _TRIAL_WEIGHT), "determinant steps",
                           exact.DEFAULT_FOLD_BUDGET)
    from . import quadform  # numpy loads only for this command and selftest

    trials = quadform.det_trials(args.trials, args.k, args.rng_seed)  # checks its arguments
    return _tap(args, args.trials, ((ok, f"det k={k} rel_err={rel:.3e}") for k, ok, rel in trials))


def cmd_selftest(args) -> int:
    from . import selftest

    def rows():
        for check in selftest.ALL_CHECKS:
            try:
                name, ok, detail = check()
            except Exception as exc:  # a crash is a failure, not an abort
                name, ok, detail = check.__name__, False, f"raised {exc!r}"
            yield ok, f"{name}: {detail}"

    return _tap(args, len(selftest.ALL_CHECKS), rows())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="colorpart",
        description="Exact and asymptotic evaluation of colored partition counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact coefficient series by one or all methods")
    _add_spec_args(p)
    _add_common_args(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=[*exact.ENGINES, "all"], default="divisor")
    p.add_argument("--budget", type=_budget, default=exact.DEFAULT_FOLD_BUDGET)
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
        ns = p.add_mutually_exclusive_group()
        ns.add_argument("--n-list", default=None, help="comma-separated n values")
        ns.add_argument("--n-geom", default=None, metavar="START:STOP",
                        help="geometric grid by doubling")
        p.add_argument("--budget", type=_budget, default=exact.DEFAULT_FOLD_BUDGET)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if name == "fit":
            p.add_argument("--assert-slope-max", type=_finite, default=None,
                           help="exit 1 if the fitted slope exceeds this value")
        p.set_defaults(func=func)

    p = sub.add_parser("regions", help="exact near-saddle / tail decomposition")
    _add_spec_args(p)
    _add_common_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", default="4/5", help="box-width exponent (rational)")
    p.add_argument("--budget", type=_budget, default=exact.DEFAULT_FOLD_BUDGET)
    p.set_defaults(func=cmd_regions, format="json")

    p = sub.add_parser("quadform", help="determinant identity property suite (TAP)")
    _add_common_args(p)
    p.add_argument("--k", type=int, default=8, help="maximum dimension")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=cmd_quadform, format="tap")

    p = sub.add_parser("selftest", help="run the full acceptance battery (TAP)")
    _add_common_args(p)
    p.set_defaults(func=cmd_selftest, format="tap")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # Every command checks it, so its exit code does not depend on which ones use it.
        check_bits(args.precision_bits)
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


if __name__ == "__main__":
    sys.exit(main())
