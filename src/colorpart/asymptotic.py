"""Log-space comparison of exact counts against the asymptotic main term.

The main term M(n) = c * n**d * exp(exp_coeff * sqrt(n)) dwarfs float range
long before n reaches desk scale, so everything here works with ln g(n) and
ln M(n); the relative error is recovered as expm1 of their difference.
"""

from __future__ import annotations

import math
import warnings

import mpmath

from .errors import InsufficientData, NonPositive
from .exact import DEFAULT_FOLD_BUDGET, ExactSeries, check_series_budget, g_series_divisor
from .precision import DEFAULT_BITS, working_precision
from .specs import AsymptoticConstants, ColoredSpec, _Record, constants


class ComparisonRow(_Record):
    __slots__ = ("n", "ln_exact", "ln_main", "rel_err")
    n: int
    ln_exact: mpmath.mpf
    ln_main: mpmath.mpf
    rel_err: mpmath.mpf


class ExponentFit(_Record):
    """Least-squares fit of ln|rel_err| against ln n."""

    __slots__ = ("slope", "intercept", "r_squared", "n_range")
    slope: float
    intercept: float
    r_squared: float
    n_range: tuple[int, int]


def ln_of_bigint(x: int, prec: int = DEFAULT_BITS) -> mpmath.mpf:
    """Natural log of an arbitrary-size positive integer.

    mpmath rounds x to the working significand and tracks the bit-length in
    the exponent, so the result is accurate to the full working precision
    regardless of how large x is.
    """
    if x <= 0:
        raise NonPositive(f"ln requires a positive integer, got {x}")
    with working_precision(prec):
        return +mpmath.log(mpmath.mpf(x))


def ln_main_term(
    consts: AsymptoticConstants, n: int, prec: int | None = None
) -> mpmath.mpf:
    """ln M(n) = ln c + d*ln n + exp_coeff*sqrt(n), at ``prec`` bits (default: consts.prec)."""
    return _ln_main_terms(consts, [n], prec if prec is not None else consts.prec)[0]


def _ln_main_terms(consts: AsymptoticConstants, ns, prec: int) -> list[mpmath.mpf]:
    """``ln_main_term`` at each n of ``ns``, with ln c and d taken once at ``prec`` bits."""
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    with working_precision(prec):
        ln_c = mpmath.log(consts.c)
        d = mpmath.mpf(consts.d.numerator) / consts.d.denominator
        return [+(ln_c + d * mpmath.log(n) + consts.exp_coeff * mpmath.sqrt(n)) for n in ns]


def comparison_table(
    spec: ColoredSpec,
    ns: list[int],
    series: ExactSeries | None = None,
    prec: int = DEFAULT_BITS,
    budget: int = DEFAULT_FOLD_BUDGET,
) -> list[ComparisonRow]:
    """One ComparisonRow per requested n (ascending), rows independent.

    If no precomputed series is supplied the divisor recurrence is run up to
    max(ns), after ``check_series_budget`` has checked its steps against
    ``budget`` (TooLarge when over).  ValueError comes first for an empty or
    non-positive ``ns``, and for a given series of another spec or too short.
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1:
        raise ValueError("need n values >= 1")
    if series is None:
        check_series_budget("divisor", spec, ns[-1], budget)
        series = g_series_divisor(spec, ns[-1])
    if series.spec != spec:
        raise ValueError(f"series is of spec {series.spec}, not {spec}")
    if len(series) <= ns[-1]:
        raise ValueError(f"series covers 0..{len(series) - 1}, need {ns[-1]}")
    ln_mains = _ln_main_terms(constants(spec, prec=prec), ns, prec)
    rows = []
    with working_precision(prec):
        for n, ln_main in zip(ns, ln_mains):
            ln_exact = ln_of_bigint(series[n], prec=prec)
            rel_err = +mpmath.expm1(ln_exact - ln_main)
            rows.append(ComparisonRow(n=n, ln_exact=ln_exact, ln_main=ln_main, rel_err=rel_err))
    return rows


def fit_error_exponent(rows: list[ComparisonRow]) -> ExponentFit:
    """Ordinary least squares of ln|rel_err| vs ln n.

    Rows with an exactly zero relative error carry no information on a log
    scale; they are dropped with a warning.  Requires at least 4 usable rows
    spanning a factor of 8 in n.
    """
    usable = []
    for row in rows:
        if row.rel_err == 0:
            warnings.warn(f"rel_err is exactly 0 at n={row.n}; row excluded from fit")
            continue
        usable.append((row.n, abs(float(row.rel_err))))
    if len(usable) < 4:
        raise InsufficientData(f"need >= 4 nonzero rows, have {len(usable)}")
    n_min = min(n for n, _ in usable)
    n_max = max(n for n, _ in usable)
    if n_max < 8 * n_min:
        raise InsufficientData(f"n range [{n_min}, {n_max}] spans less than a factor of 8")
    xs = [math.log(n) for n, _ in usable]
    ys = [math.log(r) for _, r in usable]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope=slope, intercept=intercept, r_squared=r_squared,
                       n_range=(n_min, n_max))


def geometric_grid(start: int, stop: int) -> list[int]:
    """n values start, 2*start, 4*start, ... up to and including stop when hit."""
    if start < 1 or stop < start:
        raise ValueError("need 1 <= start <= stop")
    out = []
    n = start
    while n <= stop:
        out.append(n)
        n *= 2
    return out
