import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import colorpart as cp
from colorpart import errors, exact, selftest
from colorpart.exact import series_to_csv


def enumerate_partitions(n, max_part=None):
    """Independent oracle: literally enumerate the partitions of n."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


def count_colored_brute(spec, n):
    """Independent oracle: bounded-knapsack count over (part, color) item types.

    Items are all pairs (m, color) with the color's modulus dividing m; a
    colored partition is a multiset of items.  Counted by recursion over the
    item list, memoized on (item index, remainder).
    """
    items = []
    for si, li in zip(spec.s, spec.l):
        for color in range(li):
            for m in range(si, n + 1, si):
                items.append((si, color, m))
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def ways(idx, rem):
        if rem == 0:
            return 1
        if idx == len(items):
            return 0
        total = ways(idx + 1, rem)
        m = items[idx][2]
        if m <= rem:
            total += ways(idx, rem - m)
        return total

    return ways(0, n)


def partitions_dp(n_max):
    """Two-dimensional DP oracle: partitions of n with parts <= m."""
    dp = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            dp[n] += dp[n - part]
    return dp


class TestPartitionTable:
    def test_small_values_vs_enumeration(self):
        table = cp.partition_table(5)
        assert list(table.coeffs) == [
            len(list(enumerate_partitions(n))) for n in range(6)
        ]
        assert list(table.coeffs) == [1, 1, 2, 3, 5, 7]
        assert table.method == "euler"
        assert table.spec == cp.validate([1], [1])

    def test_n_zero(self):
        assert cp.partition_table(0).coeffs == (1,)

    def test_p100_vs_dp_oracle(self):
        assert cp.partition_table(100)[100] == partitions_dp(100)[100]

    def test_monotonicity(self, ptable_2000):
        coeffs = ptable_2000.coeffs
        assert all(a <= b for a, b in zip(coeffs, coeffs[1:]))
        assert all(a < b for a, b in zip(coeffs[2:], coeffs[3:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cp.partition_table(-1)

    def test_sympy_hardy_ramanujan_oracle(self, classical_spec):
        sympy = pytest.importorskip("sympy")
        table = cp.partition_table(selftest.ANCHOR_N)
        euler = cp.g_series_euler(classical_spec, selftest.ANCHOR_N)
        for n in [*range(200), 1000, 4096, selftest.ANCHOR_N]:
            assert table[n] == euler[n] == int(sympy.partition(n)), n


class TestDivisorRecurrence:
    def test_reduces_to_p(self, classical_spec):
        series = cp.g_series_divisor(classical_spec, 50)
        assert series.coeffs == cp.partition_table(50).coeffs

    def test_four_colored_prefix(self, remark_spec):
        assert cp.g_series_divisor(remark_spec, 3).coeffs == (1, 2, 5, 12)

    def test_g_zero_is_one(self):
        for raw in ([1], [1]), ([1, 4], [2, 1]), ([1, 2, 3], [1, 1, 1]):
            assert cp.g_series_divisor(cp.validate(*raw), 0)[0] == 1

    @pytest.mark.parametrize("seed", [2, 7, 2024])
    def test_weights_match_their_defining_sum(self, seed):
        # b(j) = sum over s_i | j of l_i * s_i * sigma_1(j / s_i), with sigma_1
        # by trial division rather than a sieve.
        sigma1 = [sum(d for d in range(1, m + 1) if m % d == 0) for m in range(301)]
        rng = random.Random(seed)
        for spec in (selftest.random_spec(rng) for _ in range(5)):
            expected = [sum(li * si * sigma1[j // si]
                            for si, li in zip(spec.s, spec.l) if j % si == 0)
                        for j in range(301)]
            for n_max in (0, 1, exact._DIVISOR_LEAF, 300):
                assert exact.divisor_weights(spec, n_max) == expected[:n_max + 1], spec

    # n_max = 20 is one direct block; b(j) with j >= the leaf size reaches the
    # sums only through a Kronecker product.
    @pytest.mark.parametrize("n_max,j", [(20, 7),
                                         (3 * exact._DIVISOR_LEAF, exact._DIVISOR_LEAF + 5)])
    def test_corrupted_weight_is_caught(self, remark_spec, monkeypatch, n_max, j):
        weights = exact.divisor_weights

        def corrupted(spec, n):
            b = weights(spec, n)
            b[j] += 1  # j*g(j) gains g(0) = 1, so g(j) is no longer an integer
            return b

        monkeypatch.setattr(exact, "divisor_weights", corrupted)
        with pytest.raises(ArithmeticError, match=rf"non-integer g\({j}\)$"):
            cp.g_series_divisor(remark_spec, n_max)


class TestEulerProduct:
    def test_four_colored_prefix(self, remark_spec):
        assert cp.g_series_euler(remark_spec, 3).coeffs == (1, 2, 5, 12)

    def test_two_colored(self):
        series = cp.g_series_euler(cp.validate([1], [2]), 4)
        assert series.coeffs == (1, 2, 5, 10, 20)
        assert series.coeffs == tuple(
            count_colored_brute(series.spec, n) for n in range(5)
        )

    def test_truncation_below_second_modulus(self):
        # Below z^7 the second factor group contributes nothing.
        wide = cp.g_series_euler(cp.validate([1, 7], [3, 2]), 6)
        pure = cp.g_series_euler(cp.validate([1], [3]), 6)
        assert wide.coeffs == pure.coeffs

    @pytest.mark.parametrize("s,l,n_max", [([1], [3], 500), ([1, 3], [2, 2], 1000),
                                           ([1, 4, 7], [1, 2, 1], 77)])
    def test_budget_counts_every_division_step(self, s, l, n_max):
        # One addition per pair (j, g) with s*g <= j <= n_max, per color,
        # g running over k(3k - 1)/2 for every nonzero integer k (|k| <= 40
        # reaches past 1000).
        spec = cp.validate(s, l)
        moduli = [si for si, li in zip(s, l) for _ in range(li)]
        pent = {k * (3 * k - 1) // 2 for k in range(-40, 41) if k}
        steps = sum(1 for si in moduli for j in range(n_max + 1) for g in pent if si * g <= j)
        exact.check_series_budget("euler", spec, n_max, steps)
        with pytest.raises(errors.TooLarge, match=f"^estimated {steps} euler steps "):
            exact.check_series_budget("euler", spec, n_max, steps - 1)

    @pytest.mark.parametrize("method,steps", [("euler", "20000000 euler"),
                                              ("convolution", "80000000 fold")])
    def test_many_colors_refused_without_one_entry_per_color(self, small_peak, method, steps):
        # 2 * 10**7 colors of modulus 1: one pentagonal step, or 2 * 2 fold steps, each.
        spec = cp.validate([1], [20_000_000])
        with small_peak(), pytest.raises(errors.TooLarge, match=f"^estimated {steps} steps "):
            exact.check_series_budget(method, spec, 1, 1)

    @pytest.mark.parametrize("engine", [cp.g_series_euler, cp.g_series_convolution])
    def test_many_colors_run_in_small_memory(self, small_peak, engine):
        # Each class divides, or folds, its colors in place, one at a time.
        spec = cp.validate([1], [20_000])
        with small_peak():
            series = engine(spec, 1)
        assert series.coeffs == (1, 20_000)


class TestTupleConvolution:
    def test_reduces_to_p(self, classical_spec, ptable_2000):
        for n in (0, 1, 17, 100):
            assert cp.g_via_tuple_convolution(classical_spec, n, ptable_2000) == ptable_2000[n]

    def test_four_colored(self, remark_spec, ptable_2000):
        assert cp.g_via_tuple_convolution(remark_spec, 3, ptable_2000) == 12

    def test_hand_evaluated_two_group(self, ptable_2000):
        # sum over u2 of p(4 - 2*u2) * p(u2) = 5 + 2 + 2 = 9
        spec = cp.validate([1, 2], [1, 1])
        assert cp.g_via_tuple_convolution(spec, 4, ptable_2000) == 9

    def test_budget(self, ptable_2000):
        spec = cp.validate([1], [3])
        with pytest.raises(errors.TooLarge):
            cp.g_via_tuple_convolution(spec, 1000, ptable_2000, budget=100)

    def test_budget_refusal_past_4000_digits_names_a_power_of_two(self):
        # 2**13288 - 1 has 4001 digits, still printable; 2**13288 and above are not shown.
        below = 2**13288 - 1
        with pytest.raises(errors.TooLarge, match=f"^estimated {below} steps exceeds budget 1$"):
            exact.check_budget(below, "steps", 1)
        for est, n in ((2**13288, 13288), (2**20000 - 1, 19999)):
            with pytest.raises(errors.TooLarge,
                               match=rf"^estimated at least 2\*\*{n} steps exceeds budget 1$"):
                exact.check_budget(est, "steps", 1)

    @pytest.mark.parametrize("s,l", [([1], [3]), ([1, 3], [2, 2]), ([1, 2, 5], [3, 1, 2])])
    def test_fold_budget_counts_every_color(self, s, l):
        # (n//s + 1) * (n + 1) steps per color, counted once per modulus.
        spec, n = cp.validate(s, l), 300
        steps = sum((n // si + 1) * (n + 1) for si, li in zip(s, l) for _ in range(li))
        exact.check_series_budget("convolution", spec, n, steps)
        with pytest.raises(errors.TooLarge, match=f"^estimated {steps} fold steps "):
            exact.check_series_budget("convolution", spec, n, steps - 1)

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            cp.g_via_tuple_convolution(cp.validate([1], [1]), 10, cp.partition_table(5))

    def test_table_must_be_p(self, remark_spec):
        # The (1,3;2,2) series as p would give 1155274032 for g(30) = 589128.
        spec = cp.validate([1], [2])
        with pytest.raises(ValueError, match="^partition table must be of spec s=1;l=1, "
                                             "got s=1,3;l=2,2$"):
            cp.g_via_tuple_convolution(spec, 30, cp.g_series_euler(remark_spec, 30))
        p_by_divisor = cp.g_series_divisor(cp.validate([1], [1]), 30)
        assert cp.g_via_tuple_convolution(spec, 30, p_by_divisor) == 589128

    def test_series_engine(self, remark_spec):
        series = cp.g_series_convolution(remark_spec, 40)
        assert (series.spec, series.method) == (remark_spec, "convolution")
        assert series.coeffs == cp.g_series_euler(remark_spec, 40).coeffs

    def test_series_folds_the_free_colors_once(self, remark_spec, monkeypatch):
        calls, product = [], exact._product

        def counted(*args):
            calls.append(args[0])
            return product(*args)

        monkeypatch.setattr(exact, "_product", counted)
        series = cp.g_series_convolution(remark_spec, 120)
        assert calls == [120]
        assert series.coeffs == cp.g_series_divisor(remark_spec, 120).coeffs

    @pytest.mark.parametrize("s,l", [([1], [1]), ([1], [3]), ([1, 3], [2, 2]),
                                     ([1, 2, 5], [3, 3, 3]), ([1, 4, 7], [1, 2, 1])])
    def test_free_product_prefix(self, s, l, ptable_2000):
        # The product of the free colors at 120 closes every g(n), n <= 120,
        # to the same integer as the fold at n itself.
        spec = cp.validate(s, l)
        free = exact._product(120, ptable_2000.coeffs, exact._free_colors(spec, 120))
        for n in range(121):
            assert (cp.g_via_tuple_convolution(spec, n, ptable_2000, free=free)
                    == cp.g_via_tuple_convolution(spec, n, ptable_2000))

    def test_free_product_too_short(self, remark_spec, ptable_2000):
        free = exact._product(10, ptable_2000.coeffs, exact._free_colors(remark_spec, 10))
        assert cp.g_via_tuple_convolution(remark_spec, 10, ptable_2000, free=free) == (
            cp.g_series_divisor(remark_spec, 10)[10])
        with pytest.raises(ValueError, match="covers 0..10, need 11"):
            cp.g_via_tuple_convolution(remark_spec, 11, ptable_2000, free=free)


class TestEngineNames:
    @pytest.mark.parametrize("name", exact.ENGINES)
    def test_each_series_carries_its_engine_name(self, remark_spec, name):
        series = getattr(exact, f"g_series_{name}")(remark_spec, 10)
        assert series.method == name

    @pytest.mark.parametrize("name", ["bogus", "all", "Euler", None])
    def test_budget_refuses_an_unknown_engine(self, remark_spec, name):
        # Refused as a name whatever the budget: no engine's estimate stands in.
        for budget in (0, 10**9):
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown engine {name!r}, expected one of divisor, euler, convolution")):
                exact.check_series_budget(name, remark_spec, 10, budget)


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("seed", [2, 7])
    def test_triple_agreement_check(self, seed):
        # Seed 2 hung a spec generator that kept drawing moduli above 7 for k = 3.
        start = time.monotonic()
        _, ok, detail = selftest.check_triple_agreement(seed=seed)
        assert ok, detail
        assert time.monotonic() - start < 10

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(min_value=2, max_value=9), max_size=2),
        st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=300),
    )
    def test_divisor_equals_euler(self, extra, mults, n_max):
        spec = cp.validate([1] + sorted(extra), mults[: 1 + len(extra)])
        assert (
            cp.g_series_divisor(spec, n_max).coeffs
            == cp.g_series_euler(spec, n_max).coeffs
        )

    # The series 0..n_max is one direct block up to n_max = leaf - 1.
    @pytest.mark.parametrize("offset", [-1, 0, 1, exact._DIVISOR_LEAF + 1])
    @pytest.mark.parametrize("s,l", [([1], [1]), ([1, 3], [2, 2]), ([1, 2, 5], [3, 1, 2])])
    def test_divisor_equals_euler_at_the_leaf_size(self, s, l, offset):
        spec, n_max = cp.validate(s, l), exact._DIVISOR_LEAF + offset
        assert cp.g_series_divisor(spec, n_max).coeffs == cp.g_series_euler(spec, n_max).coeffs

    def test_divisor_equals_euler_at_4096(self, remark_spec):
        start = time.monotonic()
        divisor = cp.g_series_divisor(remark_spec, 4096)
        assert time.monotonic() - start < 4
        assert divisor.coeffs == cp.g_series_euler(remark_spec, 4096).coeffs

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(min_value=2, max_value=7), max_size=2),
        st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=80),
    )
    def test_convolution_equals_euler_and_divisor(self, extra, mults, n_max):
        spec = cp.validate([1] + sorted(extra), mults[: 1 + len(extra)])
        convolution = cp.g_series_convolution(spec, n_max).coeffs
        assert convolution == cp.g_series_euler(spec, n_max).coeffs
        assert convolution == cp.g_series_divisor(spec, n_max).coeffs

    def test_monotone_when_first_color_unrestricted(self):
        rng = random.Random(11)
        for spec in (selftest.random_spec(rng) for _ in range(5)):
            coeffs = cp.g_series_euler(spec, 60).coeffs
            assert all(a <= b for a, b in zip(coeffs, coeffs[1:]))


def direct_product(n, p, colors):
    """The free-color product of ``exact._product``, one (s, lo, hi) color and one term
    at a time."""
    acc = [1] + [0] * n
    for s, lo, hi in colors:
        out = [0] * (n + 1)
        for t, base in enumerate(acc):
            for u in range(lo, hi + 1):
                if t + s * u <= n:
                    out[t + s * u] += base * p[u]
        acc = out
    return acc


# Lengths reach past twice either cutoff; entries run from 0 to over 10^4 bits.
_CUT = max(exact._DIVISOR_LEAF, exact._KRON_TERMS)
_coefficients = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64),
                                   st.integers(2**10000, 2**10100)), max_size=2 * _CUT + 2)


class TestKronecker:
    @settings(max_examples=60, deadline=None)
    @given(_coefficients, _coefficients, st.integers(0, _CUT), st.integers(0, 4 * _CUT + 6))
    @example([], [], 0, 0)
    @example([], [1, 2], 0, 3)
    @example([0] * 60, [0] * 50, 0, 120)
    @example([7], [9], 0, 1)
    @example([7], [9], 0, 0)
    @example([2**10001 + 5], [3, 2**10003], 0, 4)
    @example([2**10000] * (_CUT - 1), [2**10001 - 1] * (_CUT + 1), 0, 2 * _CUT)
    @example([1] * _CUT, [2**64] * _CUT, 0, 2 * _CUT - 1)
    @example([3, 1, 4], [1, 5, 9, 2], 2, 5)
    @example([3, 1, 4], [1, 5, 9, 2], 3, 3)
    @example([3, 1, 4], [1, 5, 9, 2], 4, 10)
    @example([2**10000] * _CUT, [2**64 - 1] * (_CUT + 3), _CUT, 3 * _CUT)
    def test_matches_schoolbook(self, a, b, start, stop):
        assert exact._kron(a, b, start, stop) == convolve(a, b, stop - 1)[start:]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 300),
           st.lists(st.tuples(st.integers(1, 9), st.integers(0, 150), st.integers(0, 150),
                              st.integers(1, 3)), min_size=1, max_size=3))
    @example(120, [(2, 0, 60, 2)])
    @example(300, [(1, 0, 300, 2), (3, 2, 8, 2), (5, 4, 50, 1)])
    def test_product_matches_direct_fold(self, ptable_2000, n, ranges):
        # Ranges with lo > 0 are the region split's boxes; _product picks the
        # fold order itself, so every order of the entries gives one list, and
        # an entry of count c the list of c entries of count 1.
        entries = [(s, lo, lo + width, count) for s, lo, width, count in ranges]
        colors = [(s, lo, hi) for s, lo, hi, count in entries for _ in range(count)]
        expected = direct_product(n, ptable_2000.coeffs, colors)
        for order in itertools.permutations(entries):
            assert exact._product(n, ptable_2000.coeffs, list(order)) == expected
        assert exact._product(n, ptable_2000.coeffs, [(*c, 1) for c in colors]) == expected


def convolve(xs, ys, n_max):
    out = [0] * (n_max + 1)
    for i, x in enumerate(xs[: n_max + 1]):
        for j, y in enumerate(ys[: n_max + 1 - i]):
            out[i + j] += x * y
    return out


class TestStructuralIdentities:
    def test_stacking_identity(self):
        # l unrestricted colors = l-fold self-convolution of the p-series
        p = list(cp.partition_table(60).coeffs)
        acc = [1] + [0] * 60
        for l in range(1, 5):
            acc = convolve(acc, p, 60)
            series = cp.g_series_euler(cp.validate([1], [l]), 60)
            assert list(series.coeffs) == acc

    def test_scaling_identity(self):
        # The factor group for modulus s alone, sampled at multiples of s,
        # is the plain multi-colored series at n/s.  Public specs require
        # s1=1, so build the shifted factor group directly.
        for s, l, n_max in [(3, 2, 60), (5, 1, 60), (2, 3, 40)]:
            coeffs = [0] * (n_max + 1)
            coeffs[0] = 1
            for m in range(s, n_max + 1, s):
                for _ in range(l):
                    for j in range(m, n_max + 1):
                        coeffs[j] += coeffs[j - m]
            base = cp.g_series_euler(cp.validate([1], [l]), n_max // s)
            assert [coeffs[s * t] for t in range(n_max // s + 1)] == list(base.coeffs)
            assert all(c == 0 for i, c in enumerate(coeffs) if i % s)


class TestExport:
    def test_csv(self, remark_spec):
        series = cp.g_series_divisor(remark_spec, 3)
        assert series_to_csv(series) == "n,g\n0,1\n1,2\n2,5\n3,12\n"

    def test_bad_leading_coefficient_rejected(self, classical_spec):
        with pytest.raises(ValueError, match="g\\(0\\)=1, got 2"):
            cp.ExactSeries(classical_spec, (2, 1), "euler")
        with pytest.raises(ValueError, match="g\\(0\\)=1, got 0"):
            cp.ExactSeries(spec=classical_spec, coeffs=(0,), method="euler")
