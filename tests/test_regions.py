import itertools
import math
import types
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import colorpart as cp
from colorpart import errors, regions


class TestSaddleTuple:
    def test_classical_takes_everything(self):
        assert cp.saddle_tuple(cp.validate([1], [1]), 57) == [Fraction(57)]

    def test_four_colored_at_72(self, remark_spec):
        v = cp.saddle_tuple(remark_spec, 72)
        assert v == [Fraction(27), Fraction(27), Fraction(3), Fraction(3)]
        assert 27 + 27 + 3 * 3 + 3 * 3 == 72

    def test_linear_constraint_exact(self):
        for raw, n in [(([1, 2], [1, 1]), 17), (([1, 3, 5], [2, 1, 2]), 101)]:
            spec = cp.validate(*raw)
            v = cp.saddle_tuple(spec, n)
            total = sum(si * vi for si, vi in zip(color_moduli(spec), v))
            assert total == n

    def test_cauchy_schwarz_equality(self, remark_spec):
        # sum of sqrt(v) equals sqrt(a*n) at the saddle
        n = 500
        v = cp.saddle_tuple(remark_spec, n)
        a = remark_spec.growth_rate()
        lhs = sum(math.sqrt(vi) for vi in v)
        assert abs(lhs - math.sqrt(float(a) * n)) < 1e-9


def color_moduli(spec):
    """One modulus per color, expanded from spec.s and spec.l."""
    moduli = []
    for si, li in zip(spec.s, spec.l):
        moduli += [si] * li
    return moduli


def enumerate_tuples(spec, n):
    """All color tuples (colors in increasing modulus order) summing to n."""
    moduli = color_moduli(spec)

    def rec(idx, rem):
        if idx == len(moduli) - 1:
            if rem % moduli[idx] == 0:
                yield (rem // moduli[idx],)
            return
        step = moduli[idx]
        for u in range(rem // step + 1):
            for rest in rec(idx + 1, rem - step * u):
                yield (u,) + rest

    if len(moduli) == 1:
        yield (n,)
        return
    for u0 in range(n + 1):
        for rest in rec(1, n - u0):
            yield (u0,) + rest


def in_box(u, v, eta):
    """|u - v| < v**eta, decided in exact rationals as |u - v|**b < v**a for eta = a/b."""
    return abs(u - v) ** eta.denominator < v ** eta.numerator


def brute_force_split(spec, n, eta, ptable):
    """Independent classifier: enumerate every tuple and test the box directly."""
    v = cp.saddle_tuple(spec, n)
    main = tail = 0
    for u in enumerate_tuples(spec, n):
        # u[0] is color (1, 1), which is exempt from the box.
        in_main = all(in_box(ui, vi, eta) for ui, vi in zip(u[1:], v[1:]))
        prod = 1
        for ui in u:
            prod *= ptable[ui]
        if in_main:
            main += prod
        else:
            tail += prod
    return main, tail


def scanned_box(v, eta, top):
    """min and max u in 0..top passing the box test in its cleared-denominator
    form |u*vd - vn|**b * vd**a < vn**a * vd**b, by scanning every u."""
    vn, vd, a, b = v.numerator, v.denominator, eta.numerator, eta.denominator
    inside = [u for u in range(top + 1) if abs(u * vd - vn) ** b * vd**a < vn**a * vd**b]
    return min(inside), max(inside)


def etas(upper=Fraction(5, 6)):
    """Each eta = a/b strictly inside (3/4, upper) with b <= 60."""
    return st.sampled_from(sorted({Fraction(a, b) for b in range(1, 61) for a in range(b)
                                   if Fraction(3, 4) < Fraction(a, b) < upper}))


class TestBox:
    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=2, max_value=60), max_size=3),
           st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4),
           st.integers(min_value=1, max_value=3000), st.data())
    def test_matches_a_scan(self, moduli, l, n, data):
        s = [1, *sorted(moduli)]
        spec = cp.validate(s, [l[0] + 1, *l[1:len(s)]])
        eta = data.draw(etas(cp.eta_window(spec).upper))
        for si, vi in regions._class_saddles(spec, n).items():
            assert regions._box(vi, eta, n // si) == scanned_box(vi, eta, n // si)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           etas(), st.integers(min_value=0, max_value=1500))
    @example(1, 1, Fraction(4, 5), 1500).via("v = 1")
    @example(2, 1, Fraction(4, 5), 1500).via("v = 32, box 17..47")
    @example(3, 2, Fraction(4, 5), 1500).via("v = 243/32")
    @example(4, 1, Fraction(4, 5), 1500).via("v = 1024")
    def test_exact_powers(self, r, q, eta, above):
        # v = (r/q)**b makes v**eta = (r/q)**a exact, so the bound is a b-th power.
        # top runs from floor(v), where it cuts the box, to past its end.
        v = Fraction(r, q) ** eta.denominator
        assume(v <= 1500)
        top = math.floor(v) + above
        assert regions._box(v, eta, top) == scanned_box(v, eta, top)

    @pytest.mark.parametrize("shift", [-2, 1])
    def test_a_guess_off_by_some_steps(self, monkeypatch, shift):
        # Float rounding can put a guessed end a step inside the box or outside
        # it, and the proof must move it.  shift > 0 moves both ends inward.
        monkeypatch.setattr(regions, "math", types.SimpleNamespace(
            ceil=lambda x: math.ceil(x) + shift, floor=lambda x: math.floor(x) - shift))
        for v, top in [(Fraction(32), 65), (Fraction(243, 32), 20), (Fraction(1125), 1500),
                       (Fraction(1125), 1130)]:
            assert regions._box(v, Fraction(4, 5), top) == scanned_box(v, Fraction(4, 5), top)

    def test_denominators_past_a_float(self):
        # Moduli 1 and the primes to 47 give v denominators of 61 to 67 bits,
        # and s = 10**400 one beyond the float range.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        for spec, n in [(cp.validate([1, *primes], [2] + [1] * 15), 3000),
                        (cp.validate([1, 10**400], [2, 1]), 100)]:
            for si, vi in regions._class_saddles(spec, n).items():
                assert regions._box(vi, Fraction(4, 5), n // si) == scanned_box(
                    vi, Fraction(4, 5), n // si)


class TestRegionSplit:
    def test_conservation_small(self):
        spec = cp.validate([1], [2])
        rep = cp.region_split(spec, 10, Fraction(4, 5))
        assert rep.total == cp.g_series_euler(spec, 10)[10]

    def test_conservation_exact_at_scale(self):
        spec = cp.validate([1], [2])
        series = cp.g_series_divisor(spec, 400)
        for n in (100, 200, 400):
            rep = cp.region_split(spec, n, Fraction(4, 5))
            assert rep.main_sum + rep.tail_sum == series[n]
            assert 0 <= rep.tail_fraction() <= 1

    @pytest.mark.parametrize("l,n", [(2, 400), (3, 600)])
    def test_main_sum_at_scale(self, l, n):
        # Every v is 200, so each box 200 +- 200**(4/5) spans over 48 terms and
        # the main fold runs through the Kronecker product.  The conservation
        # test above cannot see the main sum: the tail is its complement.
        spec, eta = cp.validate([1], [l]), Fraction(4, 5)
        ptable = cp.partition_table(n)
        box = [u for u in range(n + 1) if in_box(u, Fraction(200), eta)]
        assert len(box) > 48
        main = 0
        for us in itertools.product(box, repeat=l - 1):
            if sum(us) <= n:
                main += math.prod(ptable[u] for u in us) * ptable[n - sum(us)]
        assert cp.region_split(spec, n, eta).main_sum == main

    def test_tail_fraction_decreasing(self):
        spec = cp.validate([1], [2])
        f100 = cp.region_split(spec, 100, Fraction(4, 5)).tail_fraction()
        f400 = cp.region_split(spec, 400, Fraction(4, 5)).tail_fraction()
        assert f400 < f100

    def test_matches_brute_force_classifier(self):
        ptable = cp.partition_table(120)
        for raw, n in [(([1, 2], [1, 1]), 20), (([1, 2], [1, 1]), 7),
                       (([1], [2]), 30), (([1, 3], [1, 1]), 25), (([1], [2]), 64),
                       (([1], [3]), 120), (([1, 2], [2, 1]), 120), (([1, 3], [2, 2]), 120),
                       (([1, 2, 5], [1, 1, 2]), 90)]:
            spec = cp.validate(*raw)
            rep = cp.region_split(spec, n, Fraction(4, 5))
            main, tail = brute_force_split(spec, n, Fraction(4, 5), ptable)
            assert (rep.main_sum, rep.tail_sum) == (main, tail), (raw, n)

    def test_exact_tie_is_tail(self):
        # s=1;l=2 at n=64: v = 32 and v**(4/5) = 16 exactly, so u = 16 and u = 48
        # sit on the box boundary.  A float test puts them inside, since
        # 32.0 ** 0.8 rounds to 16.000000000000004.
        spec, eta = cp.validate([1], [2]), Fraction(4, 5)
        assert cp.saddle_tuple(spec, 64) == [32, 32]
        assert not in_box(48, Fraction(32), eta) and not in_box(16, Fraction(32), eta)
        assert in_box(47, Fraction(32), eta) and in_box(17, Fraction(32), eta)
        ptable = cp.partition_table(64)
        rep = cp.region_split(spec, 64, eta)
        assert rep.main_sum == sum(ptable[u] * ptable[64 - u] for u in range(17, 48))

    def test_saddle_maximality_over_tuples(self):
        # Cauchy-Schwarz: every tuple satisfies sum sqrt(u) <= sqrt(a*n)
        spec = cp.validate([1, 2], [1, 1])
        n = 40
        bound = math.sqrt(float(spec.growth_rate()) * n)
        for u in enumerate_tuples(spec, n):
            assert sum(math.sqrt(x) for x in u) <= bound + 1e-9

    # Each refusal comes before the table is built.
    def test_precondition(self, forbid):
        forbid("partition_table")
        with pytest.raises(errors.WindowUndefined):
            cp.region_split(cp.validate([1], [1]), 50, Fraction(4, 5))

    def test_eta_out_of_window(self, forbid):
        forbid("partition_table")
        with pytest.raises(errors.EtaOutOfWindow):
            cp.region_split(cp.validate([1], [2]), 50, Fraction(9, 10))

    def test_box_test_cost_is_budgeted(self):
        spec = cp.validate([1], [2])
        # Fraction(0.8) has a 2**52 denominator: the box test's powers would not end.
        with pytest.raises(errors.TooLarge, match="box-test steps"):
            cp.region_split(spec, 50, 0.8)
        rep = cp.region_split(spec, 100, Fraction(8001, 10000))
        assert rep.total == cp.g_series_divisor(spec, 100)[100]

    def test_budget(self, forbid):
        forbid("partition_table")
        with pytest.raises(errors.TooLarge):
            cp.region_split(cp.validate([1], [3]), 200, Fraction(4, 5), budget=100)

    @pytest.mark.parametrize("eta", [Fraction(4, 5), Fraction("0.80000001")])
    @pytest.mark.parametrize("s,l", [([1], [3]), ([1, 3], [2, 2]), ([1, 2, 5], [1, 3, 2])])
    def test_split_budget_counts_every_free_color(self, s, l, eta):
        # The fold estimate sums over the colors but the first; the box tests,
        # 3 per box, over the moduli that have such a color.
        spec, n = cp.validate(s, l), 200
        free = list(zip(color_moduli(spec), cp.saddle_tuple(spec, n)))[1:]
        fold = sum((n // si + 1) * (n + 1) for si, _ in free)
        words = [(eta.numerator + eta.denominator) * (n * vi.denominator).bit_length() // 64 + 1
                 for vi in dict(free).values()]
        box = sum(3 * math.isqrt(w**3) for w in words)
        with pytest.raises(errors.TooLarge, match=f"^estimated {fold} fold steps "):
            regions.check_split_budget(spec, n, eta, fold - 1)
        regions.check_split_budget(spec, n, eta, max(fold, box))
        if box > fold:  # at the finer eta
            with pytest.raises(errors.TooLarge, match=f"^estimated {box} box-test steps "):
                regions.check_split_budget(spec, n, eta, box - 1)

    def test_many_colors_refused_without_one_entry_per_color(self, small_peak):
        # 2 * 10**7 - 1 free colors of 101 * 101 fold steps each.
        spec = cp.validate([1], [20_000_000])
        with small_peak(), pytest.raises(errors.TooLarge,
                                         match=f"^estimated {19_999_999 * 101**2} fold steps "):
            cp.region_split(spec, 100, Fraction(75_000_001, 10**8), budget=1)

    def test_negative_n_refused_before_the_estimate(self, forbid):
        # The fold estimate at n = -10**6 is far over budget; n is checked first.
        forbid("partition_table")
        for n in (-5, -10**6):
            with pytest.raises(ValueError, match="^n must be >= 1$"):
                cp.region_split(cp.validate([1], [2]), n, Fraction(4, 5))

    def test_short_table_and_bad_n(self):
        # A table passed positionally is ignored: p(0..n) is built afresh, so
        # one that stops short of n no longer matters.
        spec = cp.validate([1], [2])
        rep = cp.region_split(spec, 50, Fraction(4, 5), cp.partition_table(49))
        assert rep.total == cp.g_series_euler(spec, 50)[50]
        for n in (0, -3):
            with pytest.raises(ValueError, match="^n must be >= 1$"):
                cp.region_split(spec, n, Fraction(4, 5))

    def test_saddle_tuple_once_per_split(self, monkeypatch):
        calls = []

        def saddle_tuple(spec, n):
            calls.append(n)
            return original(spec, n)
        original = regions.saddle_tuple
        monkeypatch.setattr(regions, "saddle_tuple", saddle_tuple)
        cp.region_split(cp.validate([1, 3], [2, 2]), 60, Fraction(4, 5))
        assert calls == [60]
