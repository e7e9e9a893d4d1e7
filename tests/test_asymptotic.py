import math

import mpmath
import pytest

import colorpart as cp
from colorpart import cli, errors


class TestLnOfBigint:
    def test_one(self):
        assert cp.ln_of_bigint(1) == 0

    def test_power_of_two(self):
        with mpmath.workprec(128):
            expected = 1000 * mpmath.log(2)
            assert abs(cp.ln_of_bigint(2**1000) - expected) < mpmath.mpf(2) ** -100

    def test_p100_vs_high_precision_oracle(self):
        p100 = cp.partition_table(100)[100]
        val = cp.ln_of_bigint(p100, prec=128)
        with mpmath.workprec(256):
            oracle = mpmath.log(mpmath.mpf(p100))
            assert abs(val - oracle) < mpmath.mpf(10) ** -30 * oracle

    def test_non_positive(self):
        with pytest.raises(errors.NonPositive):
            cp.ln_of_bigint(0)

    def test_precision_range_refused_by_the_library(self):
        # The same range as --precision-bits, without going through the CLI.
        with pytest.raises(ValueError, match="<= 16384 bits, got 16385"):
            cp.ln_of_bigint(2, prec=16385)
        with pytest.raises(ValueError, match=">= 64 bits, got 63"):
            cp.working_precision(63)
        with mpmath.workprec(16384):
            assert cp.ln_of_bigint(2, prec=16384) == mpmath.log(2)


class TestLnMainTerm:
    def test_n_one_kills_power_term(self, classical_spec):
        consts = cp.constants(classical_spec)
        val = cp.ln_main_term(consts, 1)
        with mpmath.workprec(128):
            expected = mpmath.log(consts.c) + consts.exp_coeff
            assert abs(val - expected) < mpmath.mpf(2) ** -100

    def test_remark_formula_at_square(self, remark_spec):
        # n=9: ln(1/(3*sqrt(6))) - (7/4)*ln(9) + 4*pi
        consts = cp.constants(remark_spec)
        val = cp.ln_main_term(consts, 9)
        with mpmath.workprec(128):
            expected = (
                mpmath.log(1 / (3 * mpmath.sqrt(6)))
                - mpmath.mpf(7) / 4 * mpmath.log(9)
                + 4 * mpmath.pi
            )
            assert abs(val - expected) < mpmath.mpf(2) ** -90

    def test_quadrupling_identity(self, remark_spec):
        consts = cp.constants(remark_spec)
        for n in (4, 100, 2500):
            with mpmath.workprec(128):
                lhs = cp.ln_main_term(consts, 4 * n) - cp.ln_main_term(consts, n)
                d = mpmath.mpf(consts.d.numerator) / consts.d.denominator
                rhs = d * mpmath.log(4) + consts.exp_coeff * mpmath.sqrt(n)
                assert abs(lhs - rhs) < mpmath.mpf(2) ** -80 * abs(rhs)

    def test_rejects_n_zero(self, classical_spec):
        with pytest.raises(ValueError):
            cp.ln_main_term(cp.constants(classical_spec), 0)

    @pytest.mark.parametrize("command", ["comparison_table", "cli asymptotic"])
    def test_ln_c_taken_once_per_call(self, remark_spec, monkeypatch, capsys, command):
        # Each row's ln M(n) is the one ln_main_term gives, with ln c taken once.
        consts, ns = cp.constants(remark_spec), [10, 20, 40, 80]
        want = [cp.ln_main_term(consts, n) for n in ns]
        log, logs_of_c = mpmath.log, []

        def counted(x, *args):
            logs_of_c.append(x == consts.c)
            return log(x, *args)
        monkeypatch.setattr(mpmath, "log", counted)
        if command == "comparison_table":
            got = [row.ln_main for row in cp.comparison_table(remark_spec, ns)]
        else:
            cli.main(["asymptotic", "--spec", "s=1,3;l=2,2", "--n-list", "10,20,40,80"])
            lines = capsys.readouterr().out.splitlines()[-4:]
            got, want = [line.split(",")[1] for line in lines], [cli._text(v) for v in want]
        assert (got, sum(logs_of_c)) == (want, 1)


class TestComparisonTable:
    def test_classical_n100_overshoot(self, classical_spec):
        (row,) = cp.comparison_table(classical_spec, [100])
        # The leading term overshoots p(100); magnitude frozen from an
        # independent run: rel_err = -0.04371...
        assert -0.1 < row.rel_err < 0
        assert abs(row.rel_err - mpmath.mpf("-0.043715")) < 1e-5

    def test_remark_n1(self, remark_spec):
        (row,) = cp.comparison_table(remark_spec, [1])
        # g(1) = 2 exactly (one part of size 1 in either unrestricted color)
        assert abs(mpmath.exp(row.ln_exact) - 2) < 1e-30
        assert abs(row.rel_err - mpmath.mpf("-0.777127")) < 1e-5

    def test_decay_trend(self, classical_spec, classical_series_deep):
        rows = cp.comparison_table(
            classical_spec, [256, 4096], series=classical_series_deep
        )
        assert abs(rows[1].rel_err) < abs(rows[0].rel_err)

    def test_rows_positive_ln_exact(self, remark_spec):
        rows = cp.comparison_table(remark_spec, [2, 5, 50])
        assert all(r.ln_exact > 0 for r in rows)
        assert all(r.rel_err > -1 for r in rows)

    def test_determinism(self, remark_spec):
        a = cp.comparison_table(remark_spec, [10, 40])
        b = cp.comparison_table(remark_spec, [10, 40])
        assert a == b

    def test_precision_stability(self, classical_spec, classical_series_deep):
        lo = cp.comparison_table(
            classical_spec, [1000], series=classical_series_deep, prec=128
        )[0].rel_err
        hi = cp.comparison_table(
            classical_spec, [1000], series=classical_series_deep, prec=256
        )[0].rel_err
        with mpmath.workprec(256):
            assert abs(lo - hi) < mpmath.mpf(10) ** -20 * abs(hi)

    def test_budget_checked_before_the_series(self, classical_spec, classical_series_deep,
                                              forbid):
        forbid("g_series_divisor")
        with pytest.raises(errors.TooLarge,
                           match="^estimated 820 divisor steps exceeds budget 10$"):
            cp.comparison_table(classical_spec, [10, 40], budget=10)
        for ns in ([], [0, 40], [-5]):  # worded before the budget is checked
            with pytest.raises(ValueError, match="^need n values >= 1$"):
                cp.comparison_table(classical_spec, ns, budget=0)
        # A given series is not built, so no budget applies to it.
        (row,) = cp.comparison_table(classical_spec, [100], series=classical_series_deep,
                                     budget=0)
        assert row.n == 100 and -0.1 < row.rel_err < 0

    def test_series_of_another_spec_refused(self, classical_spec, remark_spec):
        # (1;1) against the (1,3;2,2) series would read rel_err 50.7 at n = 16.
        series = cp.g_series_euler(remark_spec, 16)
        with pytest.raises(ValueError, match=r"^series is of spec s=1,3;l=2,2, not s=1;l=1$"):
            cp.comparison_table(classical_spec, [16], series=series)
        assert cp.comparison_table(remark_spec, [16], series=series)[0].n == 16

    def test_strict_decrease_beyond_512(self, classical_spec, classical_series_deep):
        ns = cp.geometric_grid(512, 8192)
        rows = cp.comparison_table(classical_spec, ns, series=classical_series_deep)
        mags = [abs(r.rel_err) for r in rows]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_classical_anchor_sqrt_scaling(self, classical_spec, classical_series_deep):
        # |rel_err| * sqrt(n) observed in [0.4405, 0.4426] over this range;
        # bounds frozen with margin from an independent run.
        ns = cp.geometric_grid(512, 8192)
        rows = cp.comparison_table(classical_spec, ns, series=classical_series_deep)
        scaled = [abs(float(r.rel_err)) * math.sqrt(r.n) for r in rows]
        assert min(scaled) > 0.40
        assert max(scaled) < 0.48


class TestExponentFit:
    def _synthetic(self, exponent):
        rows = []
        for n in (8, 16, 32, 64, 128, 256):
            rel = mpmath.mpf(n) ** exponent
            rows.append(cp.ComparisonRow(n=n, ln_exact=mpmath.mpf(1),
                                         ln_main=mpmath.mpf(1), rel_err=rel))
        return rows

    def test_exact_power_law(self):
        fit = cp.fit_error_exponent(self._synthetic(-1))
        assert abs(fit.slope - (-1.0)) < 1e-9
        assert fit.r_squared > 1 - 1e-12
        assert fit.n_range == (8, 256)

    def test_insufficient_rows(self):
        rows = self._synthetic(-1)[:3]
        with pytest.raises(errors.InsufficientData):
            cp.fit_error_exponent(rows)

    def test_narrow_span(self):
        rows = [
            cp.ComparisonRow(n=n, ln_exact=mpmath.mpf(1), ln_main=mpmath.mpf(1),
                             rel_err=mpmath.mpf(n) ** -1)
            for n in (100, 110, 120, 130)
        ]
        with pytest.raises(errors.InsufficientData):
            cp.fit_error_exponent(rows)

    def test_zero_rows_warn_and_drop(self):
        rows = self._synthetic(-1)
        rows.append(cp.ComparisonRow(n=512, ln_exact=mpmath.mpf(1),
                                     ln_main=mpmath.mpf(1), rel_err=mpmath.mpf(0)))
        with pytest.warns(UserWarning):
            fit = cp.fit_error_exponent(rows)
        assert fit.n_range == (8, 256)

    def test_classical_slope(self, classical_spec, classical_series_deep):
        ns = cp.geometric_grid(256, 8192)
        rows = cp.comparison_table(classical_spec, ns, series=classical_series_deep)
        fit = cp.fit_error_exponent(rows)
        assert -0.6 < fit.slope < -0.4


class TestGrids:
    def test_geometric_grid(self):
        assert cp.geometric_grid(256, 8192) == [256, 512, 1024, 2048, 4096, 8192]

    def test_geometric_grid_validation(self):
        with pytest.raises(ValueError):
            cp.geometric_grid(0, 10)
