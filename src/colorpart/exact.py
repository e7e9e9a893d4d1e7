"""Exact arbitrary-precision evaluation of colored partition counts.

Three independent series engines, each returning g(0..N):

* ``g_series_euler``       -- pentagonal division of 1 by E(z^{s_i}) once per
  color, E(q) = prod_m (1 - q^m), for the generating product: the fast engine,
  O(L * N^1.5) additions.  ``partition_table``, plain p(n), is its s=1;l=1 case.
* ``g_series_divisor``     -- divisor-sum recurrence from the logarithmic
  derivative of the generating product, with weights from one divisor
  sieve, solved by divide and conquer so that most of its N^2/2
  multiply-adds run inside a few big-integer products (``_kron``,
  Kronecker substitution).
* ``g_series_convolution`` -- the convolution of plain partition counts
  over constrained tuples: the free colors are folded once by ``_product``,
  largest modulus first, and each g(n) closes with one dot product against p.

All three take ``(spec, n_max)`` and check no budget: the caller estimates
the cost first with ``check_series_budget``.  Each serves as an oracle for
the others; the test suite enforces three-way agreement.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import add, mul

from .errors import TooLarge
from .specs import ColoredSpec, _Record, validate


# One name per engine ``g_series_<name>``: its series' ``method``, and ``exact --method``.
ENGINES = ("divisor", "euler", "convolution")


class ExactSeries(_Record):
    """Exact coefficient table g(0..N) together with the name of the engine that built it."""

    __slots__ = ("spec", "coeffs", "method")
    spec: ColoredSpec
    coeffs: tuple[int, ...]
    method: str

    def __init__(self, spec: ColoredSpec, coeffs: tuple[int, ...], method: str):
        if coeffs and coeffs[0] != 1:
            raise ValueError(f"series must start at g(0)=1, got {coeffs[0]}")
        super().__init__(spec, coeffs, method)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def _pentagonal(limit: int) -> list[tuple[int, int]]:
    """(g, sign) for the generalized pentagonal numbers 0 < g <= limit, ascending.

    g = k(3k - 1)/2 and k(3k + 1)/2 for k >= 1, with sign +1 for odd k, so that
    E(q) = 1 - sum sign * q**g (Euler's pentagonal theorem).
    """
    return [(g, 1 if k % 2 else -1) for k in range(1, isqrt(limit) + 2)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= limit]


def _divide(classes, n_max: int) -> list[int]:
    """Coefficients 0..n_max of the product over (s, l) ``classes`` of 1/E(z^s)**l.

    Each class divides l times in place with one offset list, c[j] += sum sign * c[j - s*g]
    over pentagonal s*g <= j, in increasing j so that every c[j - s*g] read is already divided.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    c = [0] * (n_max + 1)
    c[0] = 1
    for s, l in classes:
        if s > n_max:  # E(z^s) = 1 below z^s: skip its l passes, which would do nothing
            continue
        offsets = [(s * g, sign) for g, sign in _pentagonal(n_max // s)]
        for _ in range(l):
            for j in range(s, n_max + 1):
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


_PLAIN = validate([1], [1])  # the spec of plain partition counts p(n)


def partition_table(n_max: int) -> ExactSeries:
    """p(0..n_max), the s=1;l=1 series, by pentagonal division."""
    return ExactSeries(_PLAIN, tuple(_divide([(1, 1)], n_max)), "euler")


# Blocks of the divisor recurrence at most this long sum their terms directly.
_DIVISOR_LEAF = 48
# Colors with fewer terms than this fold by the direct loop in ``_product``.
_KRON_TERMS = 48


def _kron(a, b, start: int, stop: int) -> list[int]:
    """Coefficients start..stop-1 of the product of polynomials a and b.

    Kronecker substitution: each operand's non-negative integer coefficients
    are packed into one int, in byte slots too wide for any coefficient of
    the product to carry into the next, the two ints are multiplied once
    (CPython's Karatsuba), and only the slots start..stop-1 of the product
    are unpacked; slots past its end read as 0.
    """
    if stop <= start:
        return []
    a, b = a[:stop], b[:stop]
    if not a or not b:
        return [0] * (stop - start)
    bits = (max(a).bit_length() + max(b).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    w = (bits + 7) // 8
    x = int.from_bytes(b"".join([v.to_bytes(w, "little") for v in a]), "little")
    y = int.from_bytes(b"".join([v.to_bytes(w, "little") for v in b]), "little")
    data = (x * y).to_bytes((len(a) + len(b)) * w, "little")
    return [int.from_bytes(data[i:i + w], "little") for i in range(start * w, stop * w, w)]


def divisor_weights(spec: ColoredSpec, n_max: int) -> list[int]:
    """The recurrence weights b(j) = sum over s_i | j of l_i * s_i * sigma_1(j / s_i).

    Each divisor d = s_i * e of j contributes l_i * d, so b(j) is the sum
    over d | j of w(d) = d * (sum of l_i over s_i | d): one sieve adds each
    w(d) to every multiple of d.
    """
    colors = [0] * (n_max + 1)  # colors[d]: sum of l_i over s_i | d
    for si, li in zip(spec.s, spec.l):
        colors[si::si] = map(add, colors[si::si], repeat(li))
    b = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        w = d * colors[d]
        for m in range(d, n_max + 1, d):
            b[m] += w
    return b


# A module-level function, not a closure: a nested function that calls itself
# is a reference cycle, which would keep g, acc and b alive until the cyclic
# collector runs and so raise the process's peak memory.
def _solve_divisor(b, g, acc, lo: int, hi: int) -> None:
    """Fill g[lo:hi] from n*g(n) = acc[n] + sum of b(n - i) * g(i) over lo <= i < n.

    On entry acc[n] holds the terms with i < lo.  A block longer than
    ``_DIVISOR_LEAF`` solves its left half, adds that half's terms to the
    right half's acc with one ``_kron`` product against b, then solves its
    right half; a shorter block sums its terms directly.
    """
    if hi - lo > _DIVISOR_LEAF:
        mid = (lo + hi) // 2
        _solve_divisor(b, g, acc, lo, mid)
        acc[mid:hi] = map(add, acc[mid:hi], _kron(g[lo:mid], b[:hi - lo], mid - lo, hi - lo))
        _solve_divisor(b, g, acc, mid, hi)
        return
    for n in range(max(lo, 1), hi):
        q, r = divmod(acc[n] + sum(map(mul, b[n - lo:0:-1], g[lo:n])), n)
        if r:
            raise ArithmeticError(f"divisor recurrence produced non-integer g({n})")
        g[n] = q


def g_series_divisor(spec: ColoredSpec, n_max: int) -> ExactSeries:
    """g(0..n_max) from the recurrence n*g(n) = sum_j b(j) * g(n-j).

    Solved by divide and conquer over n (see ``_solve_divisor``), so that
    most of the sum runs as a few big-integer products.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    g = [0] * (n_max + 1)
    g[0] = 1
    _solve_divisor(divisor_weights(spec, n_max), g, [0] * (n_max + 1), 0, n_max + 1)
    return ExactSeries(spec=spec, coeffs=tuple(g), method="divisor")


def g_series_euler(spec: ColoredSpec, n_max: int) -> ExactSeries:
    """g(0..n_max) by pentagonal division, once per color of each class (see ``_divide``)."""
    return ExactSeries(spec, tuple(_divide(zip(spec.s, spec.l), n_max)), "euler")


DEFAULT_FOLD_BUDGET = 10**9


def check_budget(est: int, unit: str, budget: int) -> None:
    """Raise TooLarge when an estimated cost, counted in ``unit``, exceeds ``budget``.

    An estimate of 2**13288 or more, past 4000 digits and near CPython's
    4300-digit limit on int-to-text conversion, is shown as ``at least 2**N``.
    """
    if est > budget:
        shown = est if est.bit_length() <= 13288 else f"at least 2**{est.bit_length() - 1}"
        raise TooLarge(f"estimated {shown} {unit} exceeds budget {budget}")


def check_fold_budget(classes, n: int, budget: int) -> None:
    """Raise TooLarge if folding colors at n takes over ``budget`` steps; ``classes``
    holds (s, colors of modulus s) pairs, so no list of one modulus per color is built."""
    check_budget(sum(li * (n // si + 1) * (n + 1) for si, li in classes), "fold steps", budget)


def check_series_budget(method: str, spec: ColoredSpec, n_max: int, budget: int) -> None:
    """Raise TooLarge if ``g_series_<method>(spec, n_max)`` takes over ``budget`` steps.

    Convolution costs its fold at n_max; the divisor recurrence n multiply-adds
    per n, n_max*(n_max + 1)/2 in all.  That count is now an upper bound (most
    of the sums run as ``_kron`` products), kept so that a request is refused
    at the same n_max as before.  Pentagonal division adds once per pair (j, g)
    with s*g <= j <= n_max, for each color of modulus s and pentagonal
    g <= n_max // s.  Any name outside ``ENGINES`` is a ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if method == "convolution":
        return check_fold_budget(zip(spec.s, spec.l), n_max, budget)
    if method == "divisor":
        est = n_max * (n_max + 1) // 2
    elif method == "euler":
        est = sum(li * (n_max - si * g + 1) for si, li in zip(spec.s, spec.l)
                  for g, _ in _pentagonal(n_max // si))
    else:
        raise ValueError(f"unknown engine {method!r}, expected one of {', '.join(ENGINES)}")
    check_budget(est, f"{method} steps", budget)


def _product(n: int, p, entries) -> list[int]:
    """Coefficients 0..n of the product over ``entries`` of (sum_u p[u] * z**(s*u))**count.

    ``entries`` holds ``(s, lo, hi, count)``: ``count`` colors of modulus s, each with u in
    lo..hi, in any order.  They are folded largest modulus first, so the early arrays stay
    sparse, one color at a time as a stride-s convolution with p: a range of at least
    ``_KRON_TERMS`` terms as one ``_kron`` product per residue mod s that holds a nonzero
    entry, a shorter one by a loop that skips zero entries.  With full ranges
    ``(s, 0, m // s, count)`` for some m >= n, the result is the first n + 1 entries of the
    same product at m: s*u <= t <= n already bounds every u that reaches entry t.
    """
    acc = [0] * (n + 1)
    acc[0] = 1
    for s, lo, hi, count in sorted(entries, reverse=True):
        terms = p[lo:hi + 1]
        for _ in range(count):
            out = [0] * (n + 1)
            if len(terms) >= _KRON_TERMS:
                # Entries t = r (mod s) only reach entries = r (mod s): one product per residue.
                for r in range(min(s, n + 1)):
                    row = acc[r::s]
                    if any(row):
                        out[r + s * lo::s] = _kron(row, terms, 0, len(row) - lo)
            else:
                for t, base in enumerate(acc):
                    if base:
                        for j, pu in zip(range(t + s * lo, n + 1, s), terms):
                            out[j] += base * pu
            acc = out
    return acc


def _fold(n: int, p, entries) -> int:
    """Sum of p[u_0] * prod_i p[u_i] over tuples with u_0 + sum_i s_i * u_i = n.

    Each u_i runs over its color's range in ``entries`` (see ``_product``),
    and u_0 is one more, unrestricted, s = 1 color that closes the sum as
    one dot product against p.
    """
    return sum(map(mul, _product(n, p, entries), p[n::-1]))


def _free_colors(spec: ColoredSpec, n: int) -> list[tuple[int, int, int, int]]:
    """One full-range entry ``(s, 0, n // s, count)`` at n per class with free colors: every
    color but the first, s = 1 one, which closes the fold (``_fold``), is free."""
    counts = (spec.l[0] - 1, *spec.l[1:])
    return [(si, 0, n // si, li) for si, li in zip(spec.s, counts) if li]


def g_via_tuple_convolution(spec: ColoredSpec, n: int, ptable: ExactSeries,
                            budget: int = DEFAULT_FOLD_BUDGET, *, free=None) -> int:
    """g(n) as the sum over constrained tuples of products of p-values.

    The free colors fold one at a time (see ``_product``) and the sum
    closes with a dot product against p.  ``free`` is that product,
    ``_product`` over ``_free_colors(spec, m)``, at any m >= n; given it,
    only the dot product runs.  Otherwise the whole fold (``_fold``) runs at
    n, unless its estimated step count exceeds ``budget``: then TooLarge.
    ``ptable`` must be p(0..m), spec s=1;l=1, for some m >= n (ValueError).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if ptable.spec != _PLAIN:
        raise ValueError(f"partition table must be of spec {_PLAIN}, got {ptable.spec}")
    if len(ptable) <= n:
        raise ValueError(f"partition table covers 0..{len(ptable) - 1}, need {n}")
    p = ptable.coeffs
    if free is None:
        check_fold_budget(zip(spec.s, spec.l), n, budget)
        return _fold(n, p, _free_colors(spec, n))
    if len(free) <= n:
        raise ValueError(f"free-color product covers 0..{len(free) - 1}, need {n}")
    return sum(map(mul, free, p[n::-1]))  # p[n::-1] ends the sum at t = n


def g_series_convolution(spec: ColoredSpec, n_max: int) -> ExactSeries:
    """g(0..n_max) from one fold of the free colors and one dot product per n.

    The product over the free colors does not depend on n, so it is folded
    once at n_max and each g(n) closes against its prefix.  Like the other
    engines it checks no budget; ``check_series_budget("convolution", ...)``
    estimates its fold.
    """
    ptable = partition_table(n_max)
    free = _product(n_max, ptable.coeffs, _free_colors(spec, n_max))
    coeffs = tuple(g_via_tuple_convolution(spec, n, ptable, free=free)
                   for n in range(n_max + 1))
    return ExactSeries(spec=spec, coeffs=coeffs, method="convolution")


def series_to_csv(series: ExactSeries) -> str:
    """CSV export, header ``n,g``: the text ``colorpart exact --format csv`` writes."""
    return "n,g\n" + "".join(f"{n},{g}\n" for n, g in enumerate(series.coeffs))
