"""The benchmark's references agree with independent sources."""

import random
from fractions import Fraction

import mpmath
import pytest

import colorpart as cp
import jobs
import oracle


def _specs(count, seed=0):
    return random.Random(seed).sample([spec for spec, _ in jobs.spec_population()], count)


@pytest.mark.parametrize("spec", _specs(12))
def test_reference_series_matches_euler_product(spec):
    want = cp.g_series_euler(cp.validate(*spec), 80).coeffs
    assert tuple(oracle.reference_series(spec, 80)) == want


def test_reference_series_matches_sympy_partition():
    sympy = pytest.importorskip("sympy")
    p = oracle.reference_series(((1,), (1,)), 3000)
    for n in list(range(60)) + [500, 1234, 2999, 3000]:
        assert p[n] == int(sympy.partition(n))


@pytest.mark.parametrize("spec", [((1,), (1,)), ((1, 3), (2, 2)), ((1, 2, 9), (3, 1, 2))])
def test_meinardus_main_term_matches_closed_form(spec):
    consts = cp.constants(cp.validate(*spec), prec=256)
    for n in (1, 9, 1000):
        with mpmath.workprec(256):
            got = oracle.ln_main_term(spec, n)
            want = cp.ln_main_term(consts, n, prec=256)
            assert abs(got - want) < mpmath.mpf(10) ** -60 * abs(want)


@pytest.mark.parametrize("spec,n", [(((1,), (3,)), 40), (((1, 2), (2, 2)), 30),
                                    (((1, 3, 5), (1, 1, 2)), 45)])
def test_box_fold_matches_region_split(spec, n):
    refs = oracle.References()
    report = cp.region_split(cp.validate(*spec), n, Fraction(4, 5), cp.partition_table(n))
    assert oracle.box_main_sum(spec, n, Fraction(4, 5), refs) == report.main_sum
    assert report.main_sum + report.tail_sum == refs.series(spec, n)[n]


def test_box_test_is_strict_at_an_exact_tie():
    # v = 32, eta = 4/5: v^eta = 16 exactly, so u = 48 is on the boundary.
    assert not oracle._in_box(48, Fraction(32), Fraction(4, 5))
    assert oracle._in_box(47, Fraction(32), Fraction(4, 5))
