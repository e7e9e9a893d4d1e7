"""Independent checks of job outputs; none of this code calls colorpart.

Coefficients come from the benchmark's own series engine, pentagonal
division: g = prod_i E(q^{s_i})^{-l_i} with E(q) = sum_k (-1)^k q^{k(3k-1)/2},
so dividing in place by E(q^s) is ``c[j] += sum(+-c[j - s*pent])``.  It
costs O(L * N^1.5) additions, far less than the jobs it checks.  The main
term comes from Meinardus' theorem for the Dirichlet series
D(z) = zeta(z) * sum_i l_i * s_i^{-z}, written out here rather than taken
from ``colorpart.specs``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from jobs import Job, free_moduli

LN_DIGITS = 20
REL_ERR_ABS = mpmath.mpf(10) ** -20
QUADRATURE_ABS = 1e-6
# A correct Monte Carlo estimate lies beyond 3 standard errors in 0.27% of
# jobs, which over the hundreds of jobs in a set of runs would flag correct
# code; beyond 5 standard errors it happens in fewer than 1 in 10^6.
MC_STANDARD_ERRORS = 5.0
FIT_REL = 1e-9
_PREC = 256


def _pentagonal_offsets(limit: int) -> list[tuple[int, int]]:
    """(offset, sign) for the generalized pentagonal numbers <= limit, ascending."""
    out = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = 1 if k % 2 else -1
        out.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= limit:
            out.append((k * (3 * k + 1) // 2, sign))
        k += 1
    return out


def reference_series(spec, n_max: int) -> list[int]:
    """g(0..n_max) for spec (s, l) by pentagonal division."""
    s, l = spec
    c = [0] * (n_max + 1)
    c[0] = 1
    for si, li in zip(s, l):
        offsets = [(si * off, sign) for off, sign in _pentagonal_offsets(n_max // si)]
        for _ in range(li):
            for j in range(si, n_max + 1):
                acc = c[j]
                for off, sign in offsets:
                    if off > j:
                        break
                    if sign > 0:
                        acc += c[j - off]
                    else:
                        acc -= c[j - off]
                c[j] = acc
    return c


class References:
    """Reference series shared by the checks of one run, grown on demand."""

    def __init__(self):
        self._series: dict = {}

    def series(self, spec, n_max: int) -> list[int]:
        have = self._series.get(spec)
        if have is None or len(have) <= n_max:
            have = reference_series(spec, n_max)
            self._series[spec] = have
        return have

    def partitions(self, n_max: int) -> list[int]:
        return self.series(((1,), (1,)), n_max)


def ln_main_term(spec, n: int) -> mpmath.mpf:
    """ln of C n^kappa exp(r sqrt n) from Meinardus' theorem (alpha = 1).

    D(0) = -L/2, D'(0) = sum l_i (ln s_i - ln 2 pi) / 2, A = a = sum l_i / s_i:
    kappa = (D(0) - 3/2) / 2, r = 2 sqrt(A zeta(2)),
    ln C = D'(0) - ln(4 pi) / 2 + (1 - 2 D(0)) / 4 * ln(A zeta(2)).
    """
    s, l = spec
    total = sum(l)
    a = sum(Fraction(li, si) for si, li in zip(s, l))
    with mpmath.workprec(_PREC):
        two_pi = 2 * mpmath.pi
        d0 = -mpmath.mpf(total) / 2
        d0_prime = sum(li * (mpmath.log(si) - mpmath.log(two_pi)) / 2 for si, li in zip(s, l))
        a_zeta2 = mpmath.mpf(a.numerator) / a.denominator * mpmath.zeta(2)
        kappa = (d0 - mpmath.mpf(3) / 2) / 2
        ln_c = d0_prime - mpmath.log(4 * mpmath.pi) / 2 + (1 - 2 * d0) / 4 * mpmath.log(a_zeta2)
        return +(ln_c + kappa * mpmath.log(n) + 2 * mpmath.sqrt(a_zeta2 * n))


def _geom(start: int, stop: int) -> list[int]:
    out = []
    n = start
    while n <= stop:
        out.append(n)
        n *= 2
    return out


def _reference_rows(spec, ns, refs: References):
    g = refs.series(spec, max(ns))
    rows = []
    with mpmath.workprec(_PREC):
        for n in ns:
            ln_exact = mpmath.log(mpmath.mpf(g[n]))
            rows.append((n, ln_exact, +mpmath.expm1(ln_exact - ln_main_term(spec, n))))
    return rows


def _check_compare(job: Job, text: str, refs: References) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "n,ln_exact,ln_main,rel_err":
        return "compare: bad header"
    n = job.size
    expected = _reference_rows(job.spec, _geom(n // 16, n), refs)
    if len(lines) - 1 != len(expected):
        return f"compare: {len(lines) - 1} rows, expected {len(expected)}"
    with mpmath.workprec(_PREC):
        for line, (n_ref, ln_ref, rel_ref) in zip(lines[1:], expected):
            fields = line.split(",")
            if int(fields[0]) != n_ref:
                return f"compare: row n={fields[0]}, expected {n_ref}"
            ln_out = mpmath.mpf(fields[1])
            if abs(ln_out - ln_ref) > mpmath.mpf(10) ** -LN_DIGITS * abs(ln_ref):
                return f"compare: ln_exact at n={n_ref} is {fields[1]}, expected {ln_ref}"
            if abs(mpmath.mpf(fields[3]) - rel_ref) > REL_ERR_ABS:
                return f"compare: rel_err at n={n_ref} is {fields[3]}, expected {rel_ref}"
    return None


def _check_fit(job: Job, text: str, refs: References) -> str | None:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "slope,intercept,r_squared,n_min,n_max":
        return "fit: bad output shape"
    slope, intercept, r_squared, n_min, n_max = lines[1].split(",")
    n = job.size
    rows = _reference_rows(job.spec, _geom(n // 16, n), refs)
    xs = [math.log(r[0]) for r in rows]
    ys = [math.log(abs(float(r[2]))) for r in rows]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    ref_slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    ref_intercept = my - ref_slope * mx
    ss_res = math.fsum((y - ref_intercept - ref_slope * x) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    ref_r2 = 1.0 - ss_res / ss_tot
    if (int(n_min), int(n_max)) != (rows[0][0], rows[-1][0]):
        return f"fit: n range {n_min}:{n_max}"
    for name, got, want in (("slope", slope, ref_slope), ("intercept", intercept, ref_intercept),
                            ("r_squared", r_squared, ref_r2)):
        if not math.isclose(float(got), want, rel_tol=FIT_REL, abs_tol=FIT_REL):
            return f"fit: {name} {got}, expected {want!r}"
    return None


def _check_exact(job: Job, text: str, refs: References) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "n,g":
        return "exact: bad header"
    g = refs.series(job.spec, job.size)
    if len(lines) - 1 != job.size + 1:
        return f"exact: {len(lines) - 1} coefficients, expected {job.size + 1}"
    for n, line in enumerate(lines[1:]):
        n_out, _, value = line.partition(",")
        if int(n_out) != n or int(value) != g[n]:
            return f"exact: line {line!r}, expected {n},{g[n]}"
    return None


def _in_box(u: int, v: Fraction, eta: Fraction) -> bool:
    """|u - v| < v^eta decided in exact integers: |u - v|^b < v^a for eta = a/b."""
    return abs(u - v) ** eta.denominator < v**eta.numerator


def box_main_sum(spec, n: int, eta: Fraction, refs: References) -> int:
    """Main-region sum as one fold: each free color's p-series cut to its box."""
    s, l = spec
    a = sum(Fraction(li, si) for si, li in zip(s, l))
    p = refs.partitions(n)
    acc = [0] * (n + 1)
    acc[0] = 1
    for si in free_moduli(spec):
        v = Fraction(n) / (si * si * a)
        terms = [(si * u, p[u]) for u in range(n // si + 1) if _in_box(u, v, eta)]
        out = [0] * (n + 1)
        for t, base in enumerate(acc):
            if base:
                for shift, pu in terms:
                    if t + shift > n:
                        break
                    out[t + shift] += base * pu
        acc = out
    # The first color is exempt from the box and absorbs the remainder.
    return sum(acc[t] * p[n - t] for t in range(n + 1))


def _check_regions(job: Job, text: str, refs: References) -> str | None:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "regions: output is not JSON"
    n = job.size
    eta = Fraction(*report["eta"])
    if report["n"] != n or eta != Fraction(4, 5):
        return f"regions: n={report['n']} eta={eta}"
    main, tail = int(report["main_sum"]), int(report["tail_sum"])
    want_main = box_main_sum(job.spec, n, eta, refs)
    if main != want_main:
        return f"regions: main_sum {main}, box fold gives {want_main}"
    g = refs.series(job.spec, n)[n]
    if main + tail != g:
        return f"regions: main_sum + tail_sum = {main + tail}, g({n}) = {g}"
    return None


def _check_quadform_cli(job: Job, text: str) -> str | None:
    lines = text.splitlines()
    trials = job.size
    if not lines or lines[0] != f"1..{trials}" or len(lines) != trials + 1:
        return "quadform: bad TAP plan"
    for idx, line in enumerate(lines[1:], start=1):
        head, _, rest = line.partition(" - det k=")
        k_text, _, err_text = rest.partition(" rel_err=")
        if head != f"ok {idx}" or not 1 <= int(k_text) <= 8 or not float(err_text) < 1e-9:
            return f"quadform: line {line!r}"
    return None


def closed_form_integral(a0: float, a_rest) -> float:
    """pi^(k/2) / sqrt(det M) with det M by elimination of the dense matrix."""
    k = len(a_rest)
    m = np.full((k, k), a0) + np.diag(a_rest)
    return math.pi ** (k / 2) / math.sqrt(float(np.linalg.det(m)))


def _bump_integral(height, centre, width, a, b) -> float:
    scale = width * math.sqrt(2)
    return height * width * math.sqrt(math.pi / 2) * (
        math.erf((b - centre) / scale) - math.erf((a - centre) / scale))


def _check_direct(job: Job, result) -> str | None:
    kw = job.kwargs
    if job.kind == "gaussian_integral_quadrature":
        want = closed_form_integral(kw["a0"], kw["a_rest"])
        if not abs(result - want) < QUADRATURE_ABS:
            return f"quadrature {result} vs closed form {want}"
    elif job.kind == "gaussian_integral_monte_carlo":
        est, se = result
        want = closed_form_integral(kw["a0"], kw["a_rest"])
        if not abs(est - want) < MC_STANDARD_ERRORS * se:
            return f"monte carlo {est} +- {se} vs closed form {want}"
    elif job.kind == "sum_vs_integral":
        lattice, integral, bound = result
        h, c, w = kw["height"], kw["centre"], kw["width"]
        want_sum = math.fsum(h * math.exp(-((x - c) / w) ** 2 / 2)
                             for x in range(math.ceil(kw["a"]), math.floor(kw["b"]) + 1))
        want_int = _bump_integral(h, c, w, kw["a"], kw["b"])
        if not math.isclose(lattice, want_sum, rel_tol=1e-12):
            return f"sum_vs_integral: lattice sum {lattice}, expected {want_sum}"
        if not math.isclose(integral, want_int, rel_tol=1e-8):
            return f"sum_vs_integral: integral {integral}, expected {want_int}"
        if not abs(lattice - integral) <= bound <= 2 * (kw["m"] + 1) * h * (1 + 1e-12):
            return f"sum_vs_integral: bound {bound} inconsistent"
    else:
        return f"unknown job kind {job.kind}"
    return None


_CLI_CHECKS = {
    "compare": _check_compare,
    "fit": _check_fit,
    "exact": _check_exact,
    "regions": _check_regions,
}


def check(job: Job, rc, output, refs: References) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if job.kind != "cli":
        return _check_direct(job, output)
    command = job.argv[0]
    if command == "quadform":
        return _check_quadform_cli(job, output)
    return _CLI_CHECKS[command](job, output, refs)
