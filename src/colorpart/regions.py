"""Exact decomposition of the tuple sum into near-saddle and tail regions.

The count g(n) equals a sum of products of plain partition numbers over all
color tuples u with sum s_i * u_{i,j} = n.  The dominant contribution comes
from tuples near the saddle v_{i,j} = n / (s_i^2 * a); this module splits
the sum exactly into the box |u - v| < v**eta (main) and its complement
(tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .exact import (DEFAULT_FOLD_BUDGET, _fold, _free_colors, check_budget, check_fold_budget,
                    partition_table)
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

    Exact rationals, one entry per color: l[i] copies of class i's value,
    class by class; satisfies sum s_i * v_{i,j} = n exactly.
    """
    return [vi for vi, li in zip(_class_saddles(spec, n).values(), spec.l) for _ in range(li)]


def _class_saddles(spec: ColoredSpec, n: int) -> dict[int, Fraction]:
    """The saddle value n / (s_i^2 * a) of each modulus s_i; ValueError for n < 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = spec.growth_rate()
    return {si: Fraction(n * a.denominator, si**2 * a.numerator) for si in spec.s}


def _box(v: Fraction, eta: Fraction, top: int) -> tuple[int, int]:
    """The range lo..hi of u in 0..top with |u - v| < v**eta; ties fall outside.

    For eta = a/b and v = vn/vd, u is inside iff its distance |u*vd - vn|
    has b-th power below vn**a * vd**(b - a).  The u inside form one run
    that holds floor(v), since v**eta > v - floor(v) for 0 < eta < 1.  A
    float v -+ v**eta guesses the ends, and two exact tests prove them: the
    farther end is inside, the nearer point just beyond them is not.  Each
    failed test moves the end it tested by one.
    """
    vn, vd, b = v.numerator, v.denominator, eta.denominator
    bound = vn**eta.numerator * vd**(b - eta.numerator)

    def dist(u: int) -> int:
        return abs(u * vd - vn)

    fv = float(v)
    w = fv**float(eta)
    lo, hi = min(vn // vd, max(0, math.ceil(fv - w))), max(vn // vd, min(top, math.floor(fv + w)))
    while True:
        far = max((lo, hi), key=dist)
        if dist(far) ** b >= bound:
            lo, hi = (lo + 1, hi) if far == lo else (lo, hi - 1)
            continue
        near = min((u for u in (lo - 1, hi + 1) if 0 <= u <= top), key=dist, default=None)
        if near is None or dist(near) ** b >= bound:
            return lo, hi
        lo, hi = min(lo, near), max(hi, near)


def check_split_budget(spec: ColoredSpec, n: int, eta: Fraction, budget: int) -> None:
    """Raise TooLarge if splitting g(n) at eta takes over ``budget`` steps.

    Beside the fold steps, each modulus with a free color costs 3 box
    tests (``_box`` proves a box with two), whose powers reach
    B = (a + b) * bits(n * vd) bits for eta = a/b, v = vn/vd; one is counted
    as (B/64)**1.5 word products, just under Karatsuba's exponent log2(3).
    The fold counts each modulus once, times its free colors.  The saddle
    values come first, so n < 1 raises their ValueError before any estimate.
    """
    v = _class_saddles(spec, n)
    free = _free_colors(spec, n)
    check_fold_budget([(si, li) for si, _, _, li in free], n, budget)
    words = [(eta.numerator + eta.denominator) * (n * v[si].denominator).bit_length() // 64 + 1
             for si, *_ in free]
    check_budget(sum(3 * math.isqrt(w**3) for w in words), "box-test steps", budget)


def region_split(spec: ColoredSpec, n: int, eta, _ptable=None,
                 budget: int = DEFAULT_FOLD_BUDGET) -> RegionSplitReport:
    """Exactly split the tuple sum for g(n) at box-width exponent eta.

    A tuple lands in the main region iff every coordinate but u_{1,1}
    satisfies the strict box condition |u - v| < v**eta; boundary ties count
    as tail.  u_{1,1} is exempt and absorbs the remainder of the linear
    constraint (s_1 = 1 makes it always integral).  Both the whole sum and
    the main sum are one fold over the free colors, the main one with each
    class's range cut to its modulus's box; the tail is their difference.

    The checks run first: WindowUndefined or EtaOutOfWindow (from
    ``require_eta``) for an inadmissible eta, then ValueError for n < 1
    (before any estimate), then TooLarge when ``check_split_budget``'s
    estimate exceeds ``budget``.  Only then is p(0..n) built.  ``_ptable``,
    the table that callers once passed, is ignored.
    """
    eta = require_eta(spec, eta)
    check_split_budget(spec, n, eta, budget)
    v = _class_saddles(spec, n)
    p = partition_table(n).coeffs
    free = _free_colors(spec, n)
    total = _fold(n, p, free)
    main_sum = _fold(n, p, [(si, *_box(v[si], eta, hi), li) for si, _, hi, li in free])
    return RegionSplitReport(spec=spec, n=n, eta=eta, v=tuple(saddle_tuple(spec, n)),
                             main_sum=main_sum, tail_sum=total - main_sum)
