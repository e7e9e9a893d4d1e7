"""Exact decomposition of the tuple sum into near-saddle and tail regions.

The count g(n) equals a sum of products of plain partition numbers over all
color tuples u with sum s_i * u_{i,j} = n.  The dominant contribution comes
from tuples near the saddle v_{i,j} = n / (s_i^2 * a); this module splits
the sum exactly into the box |u - v| < v**eta (main) and its complement
(tail), and reports the implied tail-decay constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import TooLarge, WindowUndefined
from .exact import ExactSeries
from .precision import working_precision
from .specs import AsymptoticConstants, ColoredSpec, require_eta

DEFAULT_ENUM_BUDGET = 10**9


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

    def tail_fraction(self) -> mpmath.mpf:
        with working_precision():
            return +(mpmath.mpf(self.tail_sum) / self.total)

    def to_json(self) -> str:
        # Exact integers as decimal strings; g(n) at n in the hundreds already
        # overflows a double.
        return json.dumps(
            {
                "spec": {"s": list(self.spec.s), "l": list(self.spec.l)},
                "n": self.n,
                "eta": [self.eta.numerator, self.eta.denominator],
                "v": [[vi.numerator, vi.denominator] for vi in self.v],
                "main_sum": str(self.main_sum),
                "tail_sum": str(self.tail_sum),
                "tail_fraction": mpmath.nstr(self.tail_fraction(), 17),
            }
        )


def saddle_tuple(spec: ColoredSpec, n: int) -> list[Fraction]:
    """The maximizer v_{i,j} = n / (s_i^2 * a) of sum sqrt(u) over the tuple set.

    Exact rationals, one entry per (i, j) in spec.pairs() order; satisfies
    sum s_i * v_{i,j} = n exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = spec.growth_rate()
    return [Fraction(n) / (spec.modulus(i) ** 2 * a) for i, _ in spec.pairs()]


def region_split(
    spec: ColoredSpec,
    n: int,
    eta,
    ptable: ExactSeries,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> RegionSplitReport:
    """Exactly split the tuple sum for g(n) at box-width exponent eta.

    Only the coordinates after the first are enumerated; u_{1,1} is derived
    from the linear constraint (s_1 = 1 makes it always integral) and tuples
    driving it negative are skipped.  A tuple lands in the main region iff
    every free coordinate satisfies the strict box condition |u - v| < v**eta;
    boundary ties count as tail.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.k + spec.l[0] < 3:
        raise WindowUndefined(
            f"region split needs k + l[0] >= 3, got k={spec.k}, l[0]={spec.l[0]}"
        )
    if len(ptable) <= n:
        raise ValueError(f"partition table covers 0..{len(ptable) - 1}, need {n}")
    eta = require_eta(spec, eta)

    pairs = list(spec.pairs())
    v = saddle_tuple(spec, n)
    free = [(spec.modulus(i), vi) for (i, _), vi in zip(pairs, v)][1:]

    est = 1
    for si, _ in free:
        est *= n // si + 1
    if est > budget:
        raise TooLarge(f"estimated {est} tuples exceeds budget {budget}")

    # The box test compares an integer distance against the irrational v**eta;
    # 192 bits leaves the strict inequality unambiguous for any reachable n.
    with working_precision(192):
        centers = [mpmath.mpf(vi.numerator) / vi.denominator for _, vi in free]
        radii = [
            c ** (mpmath.mpf(eta.numerator) / eta.denominator) for c in centers
        ]

    main_sum = 0
    tail_sum = 0

    def walk(idx: int, remaining: int, prod: int, in_box: bool) -> None:
        nonlocal main_sum, tail_sum
        if idx == len(free):
            # remaining is u_{1,1}; the (1,1) coordinate is exempt from the box
            term = prod * ptable[remaining]
            if in_box:
                main_sum += term
            else:
                tail_sum += term
            return
        si, _ = free[idx]
        center, radius = centers[idx], radii[idx]
        for u in range(remaining // si + 1):
            ok = in_box and abs(u - center) < radius
            walk(idx + 1, remaining - si * u, prod * ptable[u], ok)

    walk(0, n, 1, True)
    return RegionSplitReport(spec=spec, n=n, eta=eta, v=tuple(v),
                             main_sum=main_sum, tail_sum=tail_sum)


def tail_bound_certificate(
    report: RegionSplitReport, consts: AsymptoticConstants
) -> mpmath.mpf:
    """Implied tail-decay constant from an exact region split.

    The tail obeys  ln(tail) <= c1*sqrt(a*n) - c3*n**(2*eta - 3/2)  for some
    positive c3; this returns the estimate c3 = -gap / n**(2*eta - 3/2) with
    gap = ln(tail) - c1*sqrt(a*n).  A zero tail yields +inf (vacuous bound).
    """
    if report.tail_sum == 0:
        return mpmath.inf
    with working_precision():
        c1 = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
        a = mpmath.mpf(consts.a.numerator) / consts.a.denominator
        gap = mpmath.log(mpmath.mpf(report.tail_sum)) - c1 * mpmath.sqrt(a * report.n)
        eta = mpmath.mpf(report.eta.numerator) / report.eta.denominator
        return +(-gap / mpmath.mpf(report.n) ** (2 * eta - mpmath.mpf(3) / 2))
