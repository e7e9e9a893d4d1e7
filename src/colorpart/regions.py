"""Exact decomposition of the tuple sum into near-saddle and tail regions.

The count g(n) equals a sum of products of plain partition numbers over all
color tuples u with sum s_i * u_{i,j} = n.  The dominant contribution comes
from tuples near the saddle v_{i,j} = n / (s_i^2 * a); this module splits
the sum exactly into the box |u - v| < v**eta (main) and its complement
(tail).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .exact import (DEFAULT_FOLD_BUDGET, ExactSeries, _fold, _free_colors, check_budget,
                    check_fold_budget, check_partition_table, partition_table)
from .precision import DEFAULT_BITS, working_precision
from .specs import ColoredSpec, require_eta


@dataclass(frozen=True)
class RegionSplitReport:
    spec: ColoredSpec
    n: int
    eta: Fraction
    v: tuple[Fraction, ...]
    main_sum: int
    tail_sum: int

    @property
    def total(self) -> int:
        return self.main_sum + self.tail_sum

    def tail_fraction(self, prec: int = DEFAULT_BITS) -> mpmath.mpf:
        with working_precision(prec):
            return +(mpmath.mpf(self.tail_sum) / self.total)


def saddle_tuple(spec: ColoredSpec, n: int) -> list[Fraction]:
    """The maximizer v_{i,j} = n / (s_i^2 * a) of sum sqrt(u) over the tuple set.

    Exact rationals, one entry per color in spec.moduli order; satisfies
    sum s_i * v_{i,j} = n exactly.
    """
    return [vi for vi, li in zip(_class_saddles(spec, n), spec.l) for _ in range(li)]


def _class_saddles(spec: ColoredSpec, n: int) -> list[Fraction]:
    """The saddle value n / (s_i^2 * a) of each modulus s_i; ValueError for n < 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = spec.growth_rate()
    return [Fraction(n) / (si**2 * a) for si in spec.s]


def _box(v: Fraction, eta: Fraction, top: int) -> tuple[int, int]:
    """The range lo..hi of u in 0..top with |u - v| < v**eta; ties fall outside.

    For eta = a/b and v = vn/vd the test is the exact integer comparison
    |u*vd - vn|**b * vd**a < vn**a * vd**b.  The u that pass form one run
    around v, and it contains floor(v) because 0 < eta < 1 makes
    v**eta > v - floor(v) for every v > 0, so each end is found by bisection.
    """
    vn, vd = v.numerator, v.denominator
    scale, bound = vd**eta.numerator, vn**eta.numerator * vd**eta.denominator

    def inside(u: int) -> bool:
        return abs(u * vd - vn) ** eta.denominator * scale < bound

    center = vn // vd
    lo = bisect.bisect_left(range(center + 1), True, key=inside)
    hi = center - 1 + bisect.bisect_left(range(center, top + 1), True,
                                         key=lambda u: not inside(u))
    return lo, hi


def check_split_budget(spec: ColoredSpec, n: int, eta: Fraction, budget: int) -> None:
    """Raise TooLarge if splitting g(n) at eta takes over ``budget`` steps.

    Beside the fold steps, each end of a free color's box costs about
    bits(n//s + 1) box tests, whose powers reach B = (a + b) * bits(n * vd)
    bits for eta = a/b, v = vn/vd; one is counted as (B/64)**1.5 word
    products, just under Karatsuba's exponent log2(3).  Each modulus counts
    once, times its free colors (all but the first for s = 1).  The saddle
    values come first, so n < 1 raises their ValueError before any estimate.
    """
    v = _class_saddles(spec, n)
    free = (spec.l[0] - 1, *spec.l[1:])
    check_fold_budget(zip(spec.s, free), n, budget)
    est = 0
    for si, li, vi in zip(spec.s, free, v):
        words = (eta.numerator + eta.denominator) * (n * vi.denominator).bit_length() // 64 + 1
        est += li * 2 * (n // si + 1).bit_length() * math.isqrt(words**3)
    check_budget(est, "box-test steps", budget)


def region_split(spec: ColoredSpec, n: int, eta, ptable: ExactSeries | None = None,
                 budget: int = DEFAULT_FOLD_BUDGET) -> RegionSplitReport:
    """Exactly split the tuple sum for g(n) at box-width exponent eta.

    A tuple lands in the main region iff every coordinate but u_{1,1}
    satisfies the strict box condition |u - v| < v**eta; boundary ties count
    as tail.  u_{1,1} is exempt and absorbs the remainder of the linear
    constraint (s_1 = 1 makes it always integral).  Both the whole sum and
    the main sum are one fold over the free colors, the main one with each
    color's range cut to its box; the tail is their difference.

    The checks run before any table is built: WindowUndefined or
    EtaOutOfWindow (from ``require_eta``) for an inadmissible eta, then
    ValueError for n < 1 (before any estimate), then
    TooLarge when ``check_split_budget``'s estimate exceeds ``budget``.
    ``ptable``, p(0..n) or longer, is built by ``partition_table`` when not
    given; a given one is checked by ``check_partition_table``.
    """
    eta = require_eta(spec, eta)
    check_split_budget(spec, n, eta, budget)
    v = saddle_tuple(spec, n)
    if ptable is None:
        ptable = partition_table(n)
    check_partition_table(ptable, n)

    p = ptable.coeffs
    total = _fold(n, p, _free_colors(spec, n))
    main_sum = _fold(n, p, [(si, *_box(vi, eta, n // si))
                            for si, vi in zip(spec.moduli[1:], v[1:])])
    return RegionSplitReport(spec=spec, n=n, eta=eta, v=tuple(v),
                             main_sum=main_sum, tail_sum=total - main_sum)
