"""The acceptance battery: one check per claim the package reproduces.

Each check returns (name, passed, detail).  ``colorpart selftest`` renders
them as TAP, and ``tests/test_acceptance.py`` runs each one under a time
bound, so the CLI and the pytest gate check the same criteria at the same
settings.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np

from . import asymptotic, exact, quadform, regions, specs
from .precision import working_precision

ANCHOR_N = 8192
CLASSICAL = specs.validate([1], [1])
REMARK = specs.validate([1, 3], [2, 2])


@functools.lru_cache(maxsize=None)
def anchor_series(spec: specs.ColoredSpec) -> exact.ExactSeries:
    """g(0..ANCHOR_N) by pentagonal division, built once per spec and process."""
    return exact.g_series_euler(spec, ANCHOR_N)


def random_spec(rng: random.Random) -> specs.ColoredSpec:
    """A spec with k <= 3 strictly increasing moduli in 1..7 and l_i in 1..3."""
    k = rng.randint(1, 3)
    s = [1]
    while len(s) < k and s[-1] < 7:
        s.append(rng.randint(s[-1] + 1, 7))
    return specs.validate(s, [rng.randint(1, 3) for _ in s])


def check_triple_agreement(seed: int = 2024, n_max: int = 100) -> tuple[str, bool, str]:
    rng = random.Random(seed)
    for _ in range(5):
        spec = random_spec(rng)
        div = exact.g_series_divisor(spec, n_max)
        for other in (exact.g_series_euler(spec, n_max), exact.g_series_convolution(spec, n_max)):
            if other.coeffs != div.coeffs:
                return ("triple agreement", False,
                        f"divisor vs {other.method} mismatch for {spec}")
    return ("triple agreement", True, f"5 random specs (seed {seed}), n <= {n_max}, 3 methods")


def check_classical_reduction(n_max: int = 2000) -> tuple[str, bool, str]:
    series = exact.g_series_divisor(CLASSICAL, n_max)
    ptable = exact.partition_table(n_max)
    if series.coeffs != ptable.coeffs:
        return ("classical reduction", False, "series differs from pentagonal table")
    # Independent DP oracle: partitions with parts <= m.
    dp = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            dp[n] += dp[n - part]
    if tuple(dp) != ptable.coeffs:
        return ("classical reduction", False, "DP oracle disagrees with pentagonal table")
    return ("classical reduction", True, f"p(0..{n_max}) matches, DP oracle agrees")


def meinardus_gap(spec: specs.ColoredSpec) -> mpmath.mpf:
    """The largest relative gap of c, d and exp_coeff from ``specs.constants`` at 256
    bits to C, kappa and r of Meinardus' theorem (Math. Z. 59, 1954) with alpha = 1.

    The main term C * n**kappa * exp(r * sqrt(n)) follows from the Dirichlet
    series D(s) = zeta(s) * sum l_i * s_i**-s, whose residue at s = 1 is
    A = sum l_i / s_i: kappa = (D(0) - 3/2)/2, r = 2*sqrt(A*zeta(2)) and
    C = e**D'(0) * (4*pi)**(-1/2) * (A*zeta(2))**((1 - 2*D(0))/4), with
    D(0) = L*zeta(0) and D'(0) = sum l_i*(zeta'(0) - zeta(0)*ln s_i).  zeta(0),
    zeta'(0) and zeta(2) come from ``mpmath.zeta``, so no formula is shared
    with ``specs.constants``.
    """
    got = specs.constants(spec, prec=256)
    with working_precision(256):
        z0, dz0, z2 = mpmath.zeta(0), mpmath.zeta(0, derivative=1), mpmath.zeta(2)
        classes = list(zip(spec.s, spec.l))
        az2 = sum(mpmath.mpf(li) / si for si, li in classes) * z2
        d0 = spec.total_colors() * z0
        dd0 = sum(li * (dz0 - z0 * mpmath.log(si)) for si, li in classes)
        want = (mpmath.exp(dd0) / mpmath.sqrt(4 * mpmath.pi) * az2 ** ((1 - 2 * d0) / 4),
                (d0 - mpmath.mpf(3) / 2) / 2, 2 * mpmath.sqrt(az2))
        have = (got.c, mpmath.mpf(got.d.numerator) / got.d.denominator, got.exp_coeff)
        return max(abs(x - y) / abs(y) for x, y in zip(have, want))


def check_closed_form_constants() -> tuple[str, bool, str]:
    # exp_coeff is compared absolutely: both values exceed 1, so this is
    # tighter than the relative tolerance used for c.
    with working_precision(256):
        tol = mpmath.mpf(10) ** -30
        cp = specs.constants(CLASSICAL, prec=256)
        cc = specs.constants(REMARK, prec=256)
        ok = (
            cp.d == -1
            and cc.d == Fraction(-7, 4)
            and abs(cp.c - 1 / (4 * mpmath.sqrt(3))) < tol * cp.c
            and abs(cc.c - 1 / (3 * mpmath.sqrt(6))) < tol * cc.c
            and abs(cp.exp_coeff - mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)) < tol
            and abs(cc.exp_coeff - 4 * mpmath.pi / 3) < tol
        )
        rng = random.Random(2024)
        gap = max(meinardus_gap(random_spec(rng)) for _ in range(50))
        ok = ok and gap < mpmath.mpf(10) ** -60
    return ("closed-form constants", bool(ok),
            "classical and 4-colored anchors to 30 digits, 50 random specs (seed 2024) "
            f"within {mpmath.nstr(gap, 2)} of Meinardus' formulas, at 256 bits")


def _anchor_rows(spec, ns):
    return asymptotic.comparison_table(spec, ns, series=anchor_series(spec))


def check_error_exponent() -> tuple[str, bool, str]:
    ns = asymptotic.geometric_grid(256, ANCHOR_N)
    fit_p = asymptotic.fit_error_exponent(_anchor_rows(CLASSICAL, ns))
    fit_c = asymptotic.fit_error_exponent(_anchor_rows(REMARK, ns))
    # One-sided for the 4-colored spec: the true decay exponent is at most
    # -1/4 + eps; the finite-n threshold -0.15 was frozen from a pre-build
    # run (observed slope about -0.48).
    ok = -0.65 <= fit_p.slope <= -0.35 and fit_c.slope <= -0.15
    return ("error exponent", ok, f"slopes {fit_p.slope:.3f} / {fit_c.slope:.3f}")


def check_error_decay() -> tuple[str, bool, str]:
    ok = True
    for spec in (CLASSICAL, REMARK):
        rows = _anchor_rows(spec, [256, 1024, 4096])
        ok &= abs(rows[2].rel_err) < abs(rows[1].rel_err) < abs(rows[0].rel_err)
    return ("relative error decay", ok, "|rel_err| falls over n = 256, 1024, 4096")


def check_determinant(trials: int = 1000, k_max: int = 8, seed: int = 0) -> tuple[str, bool, str]:
    _, oks, rels = zip(*quadform.det_trials(trials, k_max, seed))
    return ("determinant identity", all(oks), f"{trials} trials, worst rel err {max(rels):.2e}")


def check_gaussian_integrals() -> tuple[str, bool, str]:
    rng = np.random.default_rng(7)
    fixed = [quadform.QuadFormSpec(1.0, (1.0,)), quadform.QuadFormSpec(1.0, (1.0, 1.0))]
    drawn = [quadform.random_form(rng, k, 0.5, 3) for k in (1, 2)]
    ok = all(
        abs(quadform.gaussian_quadform_integral(q) - quadform.gaussian_integral_quadrature(q))
        < 1e-6
        for q in fixed + drawn
    )
    q3 = quadform.random_form(rng, 3, 0.5, 3)
    est, se = quadform.gaussian_integral_monte_carlo(q3, samples=10**7, seed=0)
    closed = quadform.gaussian_quadform_integral(q3)
    ok &= abs(est - closed) < 3 * se
    return ("gaussian quadform integrals", bool(ok),
            f"4 forms k<=2 quadrature, k=3 MC |{est:.6f} - {closed:.6f}| < 3*{se:.2e}")


def check_region_decomposition() -> tuple[str, bool, str]:
    spec = specs.validate([1], [2])
    series = exact.g_series_divisor(spec, 400)
    fracs = []
    for n in (100, 200, 400):
        rep = regions.region_split(spec, n, Fraction(4, 5))
        if rep.main_sum + rep.tail_sum != series[n]:
            return ("region decomposition", False, f"conservation fails at n={n}")
        fracs.append(rep.tail_fraction())
    ok = fracs[0] > fracs[1] > fracs[2]
    return ("region decomposition", bool(ok),
            "tail fractions " + ", ".join(mpmath.nstr(f, 6) for f in fracs))


def sum_vs_integral_cases() -> list[tuple]:
    """The battery's 101 (f, lo, hi, m) cases: three fixed, 98 drawn with seed 9."""
    c1 = math.pi * math.sqrt(2 / 3)
    cases = [
        (lambda x: 1.0, 0.0, 10.0, 0),
        (lambda x: math.exp(c1 * math.sqrt(x)), 1.0, 500.0, 0),
        (lambda x: math.exp(c1 * (math.sqrt(x) + math.sqrt(100 - x))), 1.0, 99.0, 1),
    ]
    rng = random.Random(9)
    for _ in range(98):
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(5.0, 80.0)
        kind = rng.randrange(3)
        if kind == 0:
            cases.append((lambda x, a=a: math.exp(a * math.sqrt(x)), 1.0, b, 0))
        elif kind == 1:
            cases.append((lambda x, a=a, b=b: math.exp(-a * (x - b / 2) ** 2), 0.0, b, 1))
        else:
            cases.append((lambda x, a=a: a * x + 1.0, 0.0, b, 0))
    return cases


def check_sum_vs_integral() -> tuple[str, bool, str]:
    cases = sum_vs_integral_cases()
    for f, lo, hi, m in cases:
        total, integral, bound = quadform.sum_vs_integral(f, lo, hi, m)
        if not abs(total - integral) <= bound:
            return ("sum vs integral bound", False, f"bound fails on [{lo}, {hi}]")
    return ("sum vs integral bound", True, f"{len(cases)} functions, bound 2*(m+1)*max|f|")


ALL_CHECKS = [
    check_triple_agreement,
    check_classical_reduction,
    check_closed_form_constants,
    check_error_exponent,
    check_error_decay,
    check_determinant,
    check_gaussian_integrals,
    check_region_decomposition,
    check_sum_vs_integral,
]
