import inspect
import math
import random
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

import colorpart as cp
from colorpart import errors, quadform, selftest
from colorpart.quadform import random_form

C1 = math.pi * math.sqrt(2 / 3)


def one_trial_at_a_time(trials, k_max, seed):
    """det_trials' rows from random_form, math.prod and sum, and one elimination per trial.

    Every det of k <= 8 and coefficients in [0.1, 10) is finite, so each
    row's rel is the plain relative error, in Python floats.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(trials):
        q = random_form(rng, int(rng.integers(1, k_max + 1)), 0.1, 10)
        coeffs = (q.a0, *q.a_rest)
        closed = math.prod(coeffs) * sum(1.0 / a for a in coeffs)
        assert cp.det_closed_form(q) == closed
        elim = float(np.linalg.det(q.matrix()))
        rel = abs(closed - elim) / abs(elim)
        rows.append((q.k, rel < 1e-9, rel))
    return rows


def judge(closed, elim, coeffs):
    """quadform._judge on one trial: (passed, rel)."""
    [ok], [rel] = quadform._judge(np.array([closed]), np.array([elim]),
                                  [np.array(coeffs, dtype=float)])
    return ok, rel


class TestDetClosedForm:
    def test_two_by_two(self):
        q = cp.QuadFormSpec(1.0, (1.0, 1.0))
        assert cp.det_closed_form(q) == pytest.approx(3.0)
        assert np.linalg.det(q.matrix()) == pytest.approx(3.0)

    def test_one_by_one(self):
        q = cp.QuadFormSpec(2.0, (3.0,))
        assert cp.det_closed_form(q) == pytest.approx(5.0)
        assert np.allclose(q.matrix(), [[5.0]])

    def test_random_k9_vs_elimination(self):
        rng = np.random.default_rng(42)
        q = random_form(rng, 9, 0.1, 10)
        closed = cp.det_closed_form(q)
        elim = float(np.linalg.det(q.matrix()))
        assert abs(closed - elim) <= 1e-9 * abs(elim)

    def test_det_trials_match_one_elimination_per_trial(self):
        assert list(quadform.det_trials(300, 8, 3)) == one_trial_at_a_time(300, 8, 3)

    @pytest.mark.parametrize("k_max", [1, 3, 8])
    def test_det_trials_match_across_a_block_boundary(self, k_max):
        trials = quadform._DET_BLOCK + 5
        assert list(quadform.det_trials(trials, k_max, 4)) == one_trial_at_a_time(trials, k_max, 4)

    def test_det_trials_stream_in_blocks_in_one_draw_order(self):
        many = list(quadform.det_trials(quadform._DET_BLOCK + 300, 8, 3))
        assert len(many) == quadform._DET_BLOCK + 300
        assert many[:300] == list(quadform.det_trials(300, 8, 3))

    @pytest.mark.parametrize("trials,k_max", [(0, 8), (5, 0)])
    def test_det_trials_check_arguments_at_the_call(self, trials, k_max):
        with pytest.raises(ValueError, match="must be >= 1"):
            quadform.det_trials(trials, k_max, 0)  # not iterated

    def test_judge_is_strictly_below_1e_9(self):
        # Both dets finite: rel is |closed - elim| / |elim|, whatever the coefficients.
        assert judge(3.0, 3.0, [1.0, 1.0]) == (True, 0.0)
        assert judge(1e9 + 1, 1e9, [1.0, 1.0]) == (False, 1e-9)
        ok, rel = judge(1e9 - 0.5, -1e9, [1.0, 1.0])
        assert ok is False and rel == pytest.approx(2.0)

    def test_judge_past_the_float_range_needs_the_ln_gap(self):
        # Either det not finite: rel is |expm1(ln gap)| of the coefficients' two ln dets.
        coeffs = [0.5, 3.0, 7.0]
        gap = quadform._ln_det(coeffs) - np.linalg.slogdet(
            cp.QuadFormSpec(0.5, (3.0, 7.0)).matrix())[1]
        for closed, elim in [(math.inf, math.inf), (1e308, math.inf), (math.inf, 1e308)]:
            assert judge(closed, elim, coeffs) == (True, abs(math.expm1(gap)))
        assert abs(gap) < 1e-13

    @pytest.mark.parametrize("shift,passed", [(5e-10, True), (2e-9, False)])
    def test_ln_gap_is_judged_by_its_size(self, monkeypatch, shift, passed):
        # slogdet's ln det moved by shift: rel is |expm1(gap)| of the moved gap,
        # not 0, and past 1e-9 the trial fails.
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (slogdet(a)[0], slogdet(a)[1] + shift))
        coeffs = [0.5, 3.0, 7.0]
        gap = quadform._ln_det(coeffs) - np.linalg.slogdet(
            cp.QuadFormSpec(0.5, (3.0, 7.0)).matrix())[1]
        for closed, elim in [(math.inf, math.inf), (1e308, math.inf), (math.inf, 1e308)]:
            assert judge(closed, elim, coeffs) == (passed, abs(math.expm1(gap)))
        assert abs(math.expm1(gap)) == pytest.approx(shift, rel=1e-3)
        [(_, ok, rel)] = quadform.det_trials(1, 690, 2)
        assert ok is passed and rel == pytest.approx(shift, rel=1e-3)

    def test_det_trials_past_the_float_range(self):
        # Seed 2 draws k = 578, whose det passes 1.8e308 in both methods.
        [(k, ok, rel)] = quadform.det_trials(1, 690, 2)
        rng = np.random.default_rng(2)
        rng.integers(1, 691)
        q = random_form(rng, k, 0.1, 10)
        with np.errstate(over="ignore"):
            assert k == 578 and cp.det_closed_form(q) == np.linalg.det(q.matrix()) == math.inf
        sign, ln_elim = np.linalg.slogdet(q.matrix())
        coeffs = [mpmath.mpf(a) for a in (q.a0, *q.a_rest)]
        ln_closed = mpmath.fsum(map(mpmath.log, coeffs)) + mpmath.log(mpmath.fsum(1 / a for a in coeffs))
        assert sign == 1 and ok is True
        assert rel == pytest.approx(abs(math.expm1(float(ln_closed) - ln_elim)), rel=0, abs=1e-12)

    def test_det_trials_ln_gap_needs_a_positive_elimination(self, monkeypatch):
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (-slogdet(a)[0], slogdet(a)[1]))
        [(_, ok, rel)] = quadform.det_trials(1, 690, 2)
        assert ok is False and math.isnan(rel)
        ok, rel = judge(math.inf, math.inf, [0.5, 3.0, 7.0])
        assert ok is False and math.isnan(rel)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            cp.QuadFormSpec(1.0, (1.0, -2.0))
        with pytest.raises(ValueError):
            cp.QuadFormSpec(0.0, (1.0,))

    @pytest.mark.parametrize("make", [list, np.array, iter], ids=["list", "array", "iterator"])
    def test_a_rest_is_held_as_a_tuple(self, make):
        given = make([1.0, 2.0])
        q, want = cp.QuadFormSpec(1.0, given), cp.QuadFormSpec(1.0, (1.0, 2.0))
        assert type(q.a_rest) is tuple
        assert q == want and hash(q) == hash(want)
        if make is list:
            given.append(3.0)
        with pytest.raises(AttributeError):
            q.a_rest.append(3.0)
        assert q.k == 2 and q == want

    @pytest.mark.parametrize("a0,a_rest", [(1e300, (1e300, 1e300)), (1e-200, (1e-200, 1e-200)),
                                           (1e-160, (1e-160, 1e300)), (1e200, (1e200,)),
                                           (1e200, (1e200, 1e-300, 1e-300))])
    def test_closed_forms_past_the_float_range(self, a0, a_rest):
        # The coefficient product, or a partial product, overflows or goes
        # subnormal, while the integral, and for the last two the det, is a
        # normal float.
        q = cp.QuadFormSpec(a0, a_rest)
        with mpmath.workprec(200):
            coeffs = [mpmath.mpf(a) for a in (a0, *a_rest)]
            det = mpmath.fprod(coeffs) * mpmath.fsum(1 / a for a in coeffs)
            want = float(mpmath.pi ** (mpmath.mpf(q.k) / 2) / mpmath.sqrt(det))
            assert cp.det_closed_form(q) == pytest.approx(float(det), rel=1e-12, abs=0)
        assert cp.gaussian_quadform_integral(q) == pytest.approx(want, rel=1e-12, abs=0)
        if q.k <= 2:
            assert cp.gaussian_integral_quadrature(q) == pytest.approx(want, rel=1e-12, abs=0)

    def test_integer_coefficients(self):
        # Their product, 10**25, is past the int64 range.
        q = cp.QuadFormSpec(10**5, (10**5,) * 4)
        assert cp.det_closed_form(q) == pytest.approx(5e20, rel=1e-12)

    @pytest.mark.parametrize("a0,a_rest", [(math.nan, (1.0,)), (math.inf, (1.0,)),
                                           (1.0, (1.0, math.nan)), (1.0, (math.inf, 1.0)),
                                           (1.0, (-math.inf,))])
    def test_non_finite_coefficients_refused(self, a0, a_rest):
        with pytest.raises(ValueError, match="positive and finite"):
            cp.QuadFormSpec(a0, a_rest)


class TestGaussianIntegral:
    def test_one_dimensional(self):
        # integral of exp(-2x^2) = sqrt(pi/2); det = 2
        q = cp.QuadFormSpec(1.0, (1.0,))
        assert cp.det_closed_form(q) == pytest.approx(2.0)
        assert cp.gaussian_quadform_integral(q) == pytest.approx(math.sqrt(math.pi / 2))

    def test_two_dimensional_closed_form(self):
        q = cp.QuadFormSpec(1.0, (1.0, 1.0))
        assert cp.gaussian_quadform_integral(q) == pytest.approx(math.pi / math.sqrt(3))

    def test_quadrature_cross_check(self):
        rng = np.random.default_rng(3)
        for k in (1, 2):
            for _ in range(3):
                q = random_form(rng, k, 0.1, 10)
                closed = cp.gaussian_quadform_integral(q)
                quad = cp.gaussian_integral_quadrature(q)
                assert abs(closed - quad) < 1e-6
        # The bench's quadrature jobs draw every coefficient from [0.5, 3).
        for k in (1, 2):
            for _ in range(20):
                q = random_form(rng, k, 0.5, 3)
                assert cp.gaussian_integral_quadrature(q) == pytest.approx(
                    cp.gaussian_quadform_integral(q), rel=1e-12)

    def test_quadrature_refuses_a_large_error_estimate(self):
        # On a ridge of width 1e-6 about y = -x, with |x| up to 6e6, x + y
        # keeps few correct bits: the Kronrod and Gauss sums differ by 1e-5.
        with pytest.raises(errors.QuadratureFailure, match="^quadrature error estimate "):
            cp.gaussian_integral_quadrature(cp.QuadFormSpec(1e12, (1e-12, 1e-12)))

    @pytest.mark.parametrize("a_rest", [(1.0,), (1.0, 1.0)])
    def test_quadrature_refuses_a_nan_estimate(self, monkeypatch, a_rest):
        monkeypatch.setattr(quadform, "_GRID", np.append(quadform._GRID[:-1], np.nan))
        with pytest.raises(errors.QuadratureFailure, match="^quadrature error estimate nan "):
            cp.gaussian_integral_quadrature(cp.QuadFormSpec(1.0, a_rest))

    def test_quadrature_exact_on_small_curvature_forms(self):
        # Curvatures near 1e-4, as at the region split's saddle: a fixed
        # [-8, 8]^k box in x would cut off most of the mass.
        forms = [cp.QuadFormSpec(0.1, (0.1, 0.1)), cp.QuadFormSpec(5e-4, (1e-4,)),
                 cp.QuadFormSpec(2e-4, (1e-4, 3e-4)), cp.QuadFormSpec(8.1e-3, (1e-4, 2e-4)),
                 cp.QuadFormSpec(10, (1e-4,)), cp.QuadFormSpec(1, (1, 1))]
        rng = np.random.default_rng(3)
        forms += [random_form(rng, k, 0.1, 10) for k in (1, 2) for _ in range(5)]
        for q in forms:
            closed = cp.gaussian_quadform_integral(q)
            assert cp.gaussian_integral_quadrature(q) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("a0,a_rest", [(1.7e308, (1.7e308,)), (1.7e308, (1.0, 1.7e308))])
    def test_quadrature_past_the_float_range(self, a0, a_rest):
        # a0 + a1, or b = a0 + a2, overflows unless the form is scaled first.
        q = cp.QuadFormSpec(a0, a_rest)
        assert cp.gaussian_integral_quadrature(q) == pytest.approx(
            cp.gaussian_quadform_integral(q), rel=1e-9)

    @pytest.mark.parametrize("a0,a_rest", [(1.5, (2.5,)), (0.7, (2.5, 1.3)), (1e3, (1.0, 1.0))])
    @pytest.mark.parametrize("j", [-100, 100, 505])
    def test_quadrature_scales_exactly(self, a0, a_rest, j):
        # A form 4**j times larger has the integral 2**(j*k) times smaller, bit
        # for bit, also where j = 505 makes the oracle scale the form itself.
        q = cp.QuadFormSpec(a0, a_rest)
        big = cp.QuadFormSpec(a0 * 4.0**j, tuple(a * 4.0**j for a in a_rest))
        want = math.ldexp(cp.gaussian_integral_quadrature(q), -j * q.k)
        assert cp.gaussian_integral_quadrature(big) == want

    def test_quadrature_takes_only_the_form(self):
        assert list(inspect.signature(cp.gaussian_integral_quadrature).parameters) == ["q"]

    def test_monte_carlo_k3(self):
        rng = np.random.default_rng(1)
        q = random_form(rng, 3, 0.1, 10)
        est, se = cp.gaussian_integral_monte_carlo(q, samples=10**6, seed=0)
        closed = cp.gaussian_quadform_integral(q)
        assert abs(est - closed) < 3 * se

    @pytest.mark.parametrize("samples", [1000, quadform._MC_BLOCK, 10**4 + 1])
    def test_monte_carlo_draws_match_one_uniform_call(self, samples):
        rng = np.random.default_rng(11)
        for k in range(1, 9):
            q = random_form(rng, k, 0.1, 10)
            x = np.random.default_rng(k).uniform(-3.0, 3.0, size=(samples, k))
            vals = np.exp(-(q.a0 * x.sum(axis=1) ** 2 + (x * x) @ np.asarray(q.a_rest)))
            mean = vals.mean()
            se = math.sqrt(max((vals * vals).mean() - mean * mean, 0.0) / samples)
            est, got_se = cp.gaussian_integral_monte_carlo(q, samples=samples, radius=3.0, seed=k)
            assert est == pytest.approx(6.0**k * mean, rel=1e-12)
            assert got_se == pytest.approx(6.0**k * se, rel=1e-12)

    def test_monte_carlo_memory_is_blocked(self):
        q = cp.QuadFormSpec(1.0, (1.0,) * 8)
        tracemalloc.start()
        try:
            cp.gaussian_integral_monte_carlo(q, samples=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("samples", [2, 4095, 4096, 4097, 3 * 4096 + 1, 10**5 + 3])
    def test_monte_carlo_bits_do_not_depend_on_the_worker_count(self, monkeypatch, samples):
        # Up to more threads than cores, and a short switch interval, so
        # the threads interleave often.
        rng = np.random.default_rng(12)
        forms = [random_form(rng, k, 0.1, 10) for k in range(1, 9)]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 5):
                monkeypatch.setattr(quadform, "_MC_WORKERS", workers)
                results[workers] = [cp.gaussian_integral_monte_carlo(q, samples, 3.0, seed=k)
                                    for k, q in enumerate(forms)]
        finally:
            sys.setswitchinterval(interval)
        assert results[2] == results[1] and results[3] == results[1] and results[5] == results[1]

    def test_monte_carlo_seed_none_reads_one_stream(self, monkeypatch):
        # Fixed entropy for seed=None: a worker that reseeded would draw from fresh entropy.
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: default_rng(5 if seed is None else seed))
        monkeypatch.setattr(quadform, "_MC_WORKERS", 2)
        q = cp.QuadFormSpec(1.0, (1.0,) * 3)
        assert cp.gaussian_integral_monte_carlo(q, 10**4, 3.0, seed=None) == \
            cp.gaussian_integral_monte_carlo(q, 10**4, 3.0, seed=5)

    def test_monte_carlo_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cp.gaussian_integral_monte_carlo(cp.QuadFormSpec(1.0, (1.0,) * 3), quadform._MC_BLOCK)

    def test_monte_carlo_joins_its_threads(self, monkeypatch):
        monkeypatch.setattr(quadform, "_MC_WORKERS", 3)
        before = threading.active_count()
        cp.gaussian_integral_monte_carlo(cp.QuadFormSpec(1.0, (1.0,) * 3), 10**5)
        assert threading.active_count() == before

    def test_monte_carlo_worker_exception_reaches_the_caller(self, monkeypatch):
        block_sums = quadform._mc_block_sums

        def fails_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise errors.NonFiniteValue("from a worker")
            return block_sums(*args)
        monkeypatch.setattr(quadform, "_MC_WORKERS", 2)
        monkeypatch.setattr(quadform, "_mc_block_sums", fails_off_the_calling_thread)
        before = threading.active_count()
        with pytest.raises(errors.NonFiniteValue, match="from a worker"):
            cp.gaussian_integral_monte_carlo(cp.QuadFormSpec(1.0, (1.0,) * 3), 10**5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_monte_carlo_rejects_too_few_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            cp.gaussian_integral_monte_carlo(cp.QuadFormSpec(1.0, (1.0,)), samples=samples)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_monte_carlo_rejects_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="^radius must be positive and finite"):
            cp.gaussian_integral_monte_carlo(cp.QuadFormSpec(1.0, (1.0,)), samples=10, radius=radius)

    def test_monte_carlo_takes_a_radius_below_one(self):
        est, se = cp.gaussian_integral_monte_carlo(cp.QuadFormSpec(1.0, (1.0,)), samples=10**4,
                                                   radius=0.5, seed=1)
        # exp(-2x^2) over [-0.5, 0.5]: sqrt(pi/2) * erf(1/sqrt(2)).
        assert math.isfinite(est) and math.isfinite(se)
        assert abs(est - math.sqrt(math.pi / 2) * math.erf(math.sqrt(0.5))) < 5 * se

    def test_factorization_identity(self):
        rng = np.random.default_rng(9)
        for k in range(1, 7):
            q = random_form(rng, k, 0.1, 10)
            lhs = cp.gaussian_quadform_integral(q) * math.sqrt(cp.det_closed_form(q))
            assert lhs == pytest.approx(math.pi ** (k / 2), rel=1e-12)


def counted(f):
    """f, and a list that grows by one entry per call of it."""
    calls = []

    def wrapper(x):
        calls.append(len(x))
        return f(x)
    return wrapper, calls


class TestGaussKronrod:
    @pytest.mark.parametrize("a,lo,hi", [(1.0, -8.0, 8.0), (50.0, -1.0, 3.0), (1e-3, 0.0, 40.0),
                                         (2.0, 0.5, 0.75), (400.0, -2.0, 2.0)])
    def test_gaussian_against_erf(self, a, lo, hi):
        want = math.sqrt(math.pi / a) / 2 * (math.erf(math.sqrt(a) * hi) - math.erf(math.sqrt(a) * lo))
        val, err = quadform._gk15(lambda x: np.exp(-a * x * x), lo, hi)
        assert abs(val - want) <= 1e-12 * want
        assert err <= max(1.49e-8, 1.49e-8 * want)

    def test_polynomials_need_one_rule(self):
        # The 7-point Gauss rule is exact to degree 13, so its difference from
        # the Kronrod value is rounding and no interval is bisected.
        rng = np.random.default_rng(4)
        for degree in range(14):
            c = rng.uniform(-1, 1, degree + 1)
            lo, hi = sorted(rng.uniform(-1, 1, 2))
            anti = np.polynomial.Polynomial(c).integ()
            f, calls = counted(np.polynomial.Polynomial(c))
            val, err = quadform._gk15(f, lo, hi)
            assert calls == [15]
            assert val == pytest.approx(anti(hi) - anti(lo), rel=1e-13, abs=1e-13)
            assert err < 1e-12

    def test_k2_forms_against_mpmath(self):
        # mpmath's tanh-sinh quadrature over the whole plane is independent
        # of the Gauss-Kronrod kernel, the box and its scaling.
        rng = np.random.default_rng(8)
        for _ in range(4):
            q = random_form(rng, 2, 0.1, 10)
            a0, (a1, a2) = q.a0, q.a_rest
            want = mpmath.fp.quad(
                lambda x, y: math.exp(-(a0 * (x + y) ** 2 + a1 * x * x + a2 * y * y)),
                [-math.inf, 0, math.inf], [-math.inf, 0, math.inf])
            assert cp.gaussian_integral_quadrature(q) == pytest.approx(want, rel=1e-12)

    def test_strongly_coupled_form(self):
        # A ridge of width about 0.02 along y = -x in the scaled box.
        q = cp.QuadFormSpec(1e3, (1.0, 1.0))
        assert cp.gaussian_integral_quadrature(q) == pytest.approx(
            cp.gaussian_quadform_integral(q), rel=1e-9)

    @pytest.mark.parametrize("a0,a_rest", [(1e6, (1.0, 1.0)), (1.0, (1e6, 1.0)),
                                           (1e9, (1e-3, 2.0)), (1e-4, (1e-4, 3e-4))])
    def test_ridge_forms(self, a0, a_rest):
        # Ridges far narrower than the box: centring y on its conditional mean
        # given x, with the conditional widths, puts the nodes on the mass.
        q = cp.QuadFormSpec(a0, a_rest)
        assert cp.gaussian_integral_quadrature(q) == pytest.approx(
            cp.gaussian_quadform_integral(q), rel=1e-12)

    @pytest.mark.parametrize("f", [lambda x: np.cos(300 * x), lambda x: np.full(x.shape, np.nan),
                                   lambda x: np.abs(x - 1 / 3) ** -0.9],
                             ids=["oscillating", "nan", "singular"])
    def test_exhausted_limit_raises(self, f):
        wrapped, calls = counted(f)
        with pytest.raises(errors.QuadratureFailure, match="^10 subintervals leave"):
            quadform._gk15(wrapped, -1.0, 1.0, limit=10)
        assert len(calls) == 10  # the whole interval, then one bisection per call


def grid_max(f, lo, hi):
    """max|f| on 10^4 evenly spaced points of [lo, hi], the ends included."""
    return max(abs(f(x)) for x in np.linspace(lo, hi, 10**4).tolist())


class TestSumVsIntegral:
    def test_constant(self):
        s, integral, bound = cp.sum_vs_integral(lambda x: 3.0, 0, 10, 0)
        assert s == pytest.approx(33.0)
        assert integral == pytest.approx(30.0)
        assert bound == pytest.approx(6.0)

    def test_monotone_exponential(self):
        f = lambda x: math.exp(C1 * math.sqrt(x))
        s, integral, bound = cp.sum_vs_integral(f, 1, 500, 0)
        assert abs(s - integral) <= bound

    def test_unimodal_two_sided(self):
        n = 100
        f = lambda x: math.exp(C1 * (math.sqrt(x) + math.sqrt(n - x)))
        s, integral, bound = cp.sum_vs_integral(f, 1, n - 1, 1)
        assert abs(s - integral) <= bound

    def test_generated_family(self):
        import random

        rng = random.Random(5)
        for _ in range(100):
            a = rng.uniform(0.1, 2.0)
            b = rng.uniform(5.0, 80.0)
            kind = rng.randrange(3)
            if kind == 0:
                f, lo, hi, m = (lambda x, a=a: math.exp(a * math.sqrt(x))), 1.0, b, 0
            elif kind == 1:
                f, lo, hi, m = (lambda x, a=a, b=b: math.exp(-a * (x - b / 2) ** 2)), 0.0, b, 1
            else:
                f, lo, hi, m = (lambda x, a=a, b=b: math.sin(a * x / b) + 2.0), 0.0, b, 1
            cp.sum_vs_integral(f, lo, hi, m)  # raises on violation

    def test_violation_detected(self):
        # a function resonant with the lattice: every sample is 1 but the
        # integral is ~0, and the claimed m=0 bound cannot absorb that
        f = lambda x: math.cos(2 * math.pi * x)
        with pytest.raises(errors.SumIntegralBoundError):
            cp.sum_vs_integral(f, 0, 50.5, 0)

    def test_max_not_below_a_grid_max_on_the_battery(self):
        for f, lo, hi, m in selftest.sum_vs_integral_cases():
            assert cp.sum_vs_integral(f, lo, hi, m)[2] / (2 * (m + 1)) >= grid_max(f, lo, hi)

    def test_max_on_gaussian_bumps(self):
        # The benchmark's ranges: height 0.5..5, width 5..15 % and centre
        # 25..75 % of an interval [0, hi], hi from 20 to 200.
        rng = random.Random(21)
        for _ in range(50):
            hi = rng.uniform(20.0, 200.0)
            centre, width = rng.uniform(0.25, 0.75) * hi, rng.uniform(0.05, 0.15) * hi
            height = rng.uniform(0.5, 5.0)
            f = lambda x: height * math.exp(-((x - centre) / width) ** 2 / 2)
            fmax = cp.sum_vs_integral(f, 0.0, hi, 1)[2] / 4
            assert grid_max(f, 0.0, hi) <= fmax <= height

    def test_max_costs_few_calls(self):
        calls = []
        f = lambda x: calls.append(x) or 3.0 * math.exp(-((x - 61.3) / 9.0) ** 2 / 2)
        cp.sum_vs_integral(f, 0.0, 150.0, 1)
        assert len(calls) < 1000  # a 10^4-point grid took more than 10^4

    @pytest.mark.parametrize("f,lo,hi,x", [
        (lambda x: math.nan if x == 3 else 1.0, 0, 10, "3"),  # a lattice point
        (lambda x: math.inf if x == 10 else 1.0, 0, 10, "10"),  # the end b, also on the lattice
        (lambda x: math.nan if x == 0.5 else 1.0, 0.5, 10, "0.5"),  # the end a
        (lambda x: -math.inf if x == 5.25 else 1.0, 0, 10.5, "5.25"),  # the kernel's centre node
        # Only the refinement about the peak comes within 1e-6 of 3.3.
        (lambda x: math.inf if abs(x - 3.3) < 1e-6 else math.exp(-(x - 3.3) ** 2), 0, 10.5,
         r"3\.299999|3\.300000"),
    ], ids=["lattice", "b", "a", "node", "refinement"])
    def test_non_finite_f_raises_naming_x(self, f, lo, hi, x):
        message = rf"^f\(({x})[0-9]*\) = -?(nan|inf) is not finite$"
        with pytest.raises(errors.NonFiniteValue, match=message):
            cp.sum_vs_integral(f, lo, hi, 1)

    def test_short_interval_rejected(self):
        with pytest.raises(ValueError):
            cp.sum_vs_integral(lambda x: 1.0, 0, 0.5, 0)

    @pytest.mark.parametrize("lo,hi,name", [(0.0, math.inf, "b"), (math.nan, 5.0, "a"),
                                            (-math.inf, 5.0, "a"), (0.0, math.nan, "b")])
    def test_non_finite_end_refused_before_f_is_called(self, lo, hi, name):
        def f(x):
            raise AssertionError("f called")
        end = lo if name == "a" else hi
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {end}$"):
            cp.sum_vs_integral(f, lo, hi, 0)
