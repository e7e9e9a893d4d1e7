import copy
import math
import pickle
import re
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colorpart as cp
from colorpart import cli, errors, selftest, specs


def valid_specs():
    """Random valid specs: strictly increasing moduli starting at 1."""
    return st.builds(
        lambda extra, mults: cp.validate(
            [1] + sorted(extra), mults[: 1 + len(extra)]
        ),
        st.sets(st.integers(min_value=2, max_value=12), max_size=3),
        st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
    )


class TestValidate:
    def test_classical_spec(self):
        spec = cp.validate([1], [1])
        assert spec.s == (1,) and spec.l == (1,)

    def test_four_colored_spec(self):
        spec = cp.validate([1, 3], [2, 2])
        assert spec.total_colors() == 4

    def test_first_modulus_not_one(self):
        with pytest.raises(errors.SpecError, match="first modulus must be 1"):
            cp.validate([2, 3], [1, 1])

    def test_non_increasing_moduli(self):
        with pytest.raises(errors.SpecError, match="strictly increasing"):
            cp.validate([1, 3, 3], [1, 1, 1])

    def test_non_positive_multiplicity(self):
        with pytest.raises(errors.SpecError, match="multiplicities must be >= 1"):
            cp.validate([1, 2], [1, 0])

    def test_empty(self):
        with pytest.raises(errors.SpecError, match="at least one"):
            cp.validate([], [])

    def test_length_mismatch(self):
        with pytest.raises(errors.SpecError, match="differ in length"):
            cp.validate([1, 2], [1])

    @pytest.mark.parametrize("s,l", [([1, 2.7], [1, 1]), ([1.0], [1]), ([1], [True]),
                                     ([1, 2], [1, False]), (["1"], [1]), ([1], ["2"])])
    def test_non_integer_entries(self, s, l):
        with pytest.raises(errors.SpecError, match="must be a list of integers"):
            cp.validate(s, l)

    def test_numpy_integers_accepted(self):
        spec = cp.validate(np.array([1, 3]), [np.int64(2), 2])
        assert spec == cp.validate([1, 3], [2, 2])
        assert all(type(x) is int for x in spec.s + spec.l)


class TestSerialization:
    def test_text_round_trip(self):
        spec = cp.validate([1, 3], [2, 2])
        assert spec.to_text() == "s=1,3;l=2,2"
        assert cp.parse_text(spec.to_text()) == spec

    def test_json_round_trip(self):
        spec = cp.validate([1, 2, 5], [3, 1, 2])
        assert cp.parse_json(cli.value_to_json(spec)) == spec

    def test_json_matches_documented_form(self):
        assert cp.parse_json('{"s":[1,3],"l":[2,2]}') == cp.validate([1, 3], [2, 2])

    def test_malformed_text(self):
        with pytest.raises(errors.SpecError, match="exactly s and l"):
            cp.parse_text("s=1,3")

    @pytest.mark.parametrize("text", ["s=1,x;l=1,1", "s=1,2.5;l=1,1"])
    def test_non_integer_text(self, text):
        with pytest.raises(errors.SpecError, match="spec 's' must be a list of integers, got"):
            cp.parse_text(text)

    @pytest.mark.parametrize("text", ["s=1;l=1;l=3", "s=1;s=1;l=2"])
    def test_repeated_text_field(self, text):
        with pytest.raises(errors.SpecError, match="given more than once"):
            cp.parse_text(text)

    def test_repeated_json_field(self):
        with pytest.raises(errors.SpecError, match="spec field 'l' given more than once"):
            cp.parse_json('{"s":[1],"l":[1],"l":[3]}')

    @given(valid_specs())
    def test_round_trip_property(self, spec):
        assert cp.parse_text(spec.to_text()) == spec
        assert cp.parse_json(cli.value_to_json(spec)) == spec


class TestConstants:
    def test_classical_values(self):
        consts = cp.constants(cp.validate([1], [1]), prec=192)
        assert consts.a == 1
        assert consts.d == -1
        with mpmath.workprec(192):
            assert abs(consts.c - 1 / (4 * mpmath.sqrt(3))) < mpmath.mpf(2) ** -180
            expected = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
            assert abs(consts.exp_coeff - expected) < mpmath.mpf(2) ** -180

    def test_four_colored_values(self):
        consts = cp.constants(cp.validate([1, 3], [2, 2]), prec=192)
        assert consts.a == Fraction(8, 3)
        assert consts.d == Fraction(-7, 4)
        with mpmath.workprec(192):
            assert abs(consts.c - 1 / (3 * mpmath.sqrt(6))) < mpmath.mpf(2) ** -180
            assert abs(consts.exp_coeff - 4 * mpmath.pi / 3) < mpmath.mpf(2) ** -180

    def test_two_group_single_colors(self):
        # s=(1,2), l=(1,1): direct substitution in the closed form collapses
        # all irrational factors and the prefactor is exactly 1/8.
        consts = cp.constants(cp.validate([1, 2], [1, 1]), prec=192)
        assert consts.a == Fraction(3, 2)
        assert consts.d == Fraction(-5, 4)
        with mpmath.workprec(192):
            assert abs(consts.c - mpmath.mpf("0.125")) < mpmath.mpf(2) ** -180

    @given(valid_specs())
    def test_growth_rate_exact_rational(self, spec):
        expected = sum(
            (Fraction(li, si) for si, li in zip(spec.s, spec.l)), Fraction(0)
        )
        assert cp.constants(spec).a == expected
        assert expected >= 1

    @settings(deadline=None)
    @given(valid_specs())
    def test_constants_match_meinardus(self, spec):
        # c, d and exp_coeff agree with Meinardus' theorem, derived from zeta values.
        assert selftest.meinardus_gap(spec) < mpmath.mpf(10) ** -60

    @given(valid_specs())
    def test_invariant_signs(self, spec):
        consts = cp.constants(spec)
        assert consts.d <= -1
        assert consts.c > 0
        assert consts.exp_coeff > 0

    def test_exp_coeff_algebraic_identity(self):
        for raw in ([1], [1]), ([1, 3], [2, 2]), ([1, 2, 7], [1, 3, 2]):
            consts = cp.constants(cp.validate(*raw), prec=160)
            with mpmath.workprec(160):
                a = mpmath.mpf(consts.a.numerator) / consts.a.denominator
                lhs = consts.exp_coeff**2
                rhs = mpmath.pi**2 * 2 * a / 3
                assert abs(lhs - rhs) < mpmath.mpf(2) ** -140 * rhs


class TestEtaWindow:
    def test_four_colors(self):
        window = cp.eta_window(cp.validate([1, 3], [2, 2]))
        assert window.lower == Fraction(3, 4)
        assert window.upper == Fraction(5, 6)

    def test_two_colors_convention(self):
        # L=2 reachable under k + l[0] >= 3 only as k=1, l=(2,); the
        # degenerate min argument is treated as +inf.
        window = cp.eta_window(cp.validate([1], [2]))
        assert window.upper == Fraction(5, 6)

    def test_three_colors(self):
        window = cp.eta_window(cp.validate([1], [3]))
        assert window.upper == min(Fraction(5, 6), Fraction(3, 4) * Fraction(2, 1))
        assert window.upper == Fraction(5, 6)

    def test_many_colors_second_arm_binds(self):
        window = cp.eta_window(cp.validate([1], [12]))
        assert window.upper == Fraction(3, 4) * Fraction(11, 10)
        assert window.upper < Fraction(5, 6)

    def test_undefined_for_classical(self):
        with pytest.raises(errors.WindowUndefined):
            cp.eta_window(cp.validate([1], [1]))

    @given(valid_specs())
    def test_window_bounds(self, spec):
        if spec.k + spec.l[0] < 3:
            with pytest.raises(errors.WindowUndefined):
                cp.eta_window(spec)
            return
        window = cp.eta_window(spec)
        assert window.lower == Fraction(3, 4)
        assert window.lower < window.upper <= Fraction(5, 6)


class TestRequireEta:
    SPEC = cp.validate([1], [3])

    def test_text_past_the_digit_limit_is_refused_at_once(self):
        # Fraction would build 10**30000000 before any window check, and its
        # integers past 4300 digits could not be printed in a refusal.
        start = time.monotonic()
        for text in ("1e-4300", ".1e-4299", "1e-0000004300", "0.8" + "1" * 5000,
                     "4" * 3000 + "/" + "5" * 3000, "1e" + "9" * 6000, "1E+30000000",
                     "1e-30000000"):
            with pytest.raises(ValueError, match="^eta text .* could name an integer of "
                                                 "more than 4300 digits$"):
                specs.require_eta(self.SPEC, text)
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("text,value", [
        ("4/5", Fraction(4, 5)), (" 8e-1 ", Fraction(4, 5)), ("0.80001", Fraction(80001, 100000)),
        ("8e-00001", Fraction(4, 5)), ("0.8" + "0" * 4290, Fraction(4, 5)),
        ("8" + "0" * 1998 + "1/1" + "0" * 2000, Fraction(8 * 10**1999 + 1, 10**2000)),
    ], ids=["fraction", "exponent", "decimal", "zero-padded-exponent", "long-decimal",
            "long-fraction"])
    def test_text_within_the_limit_keeps_its_value(self, text, value):
        assert specs.require_eta(self.SPEC, text) == value

    def test_decimal_past_the_digit_limit_is_refused_at_once(self):
        # Decimal("1e-30000000") never returned: Fraction built 5**30000000 first.
        start = time.monotonic()
        for text in ("1e-30000000", "1E+30000000", "1e-4300", "0.8" + "1" * 5000):
            with pytest.raises(ValueError, match=r"^eta Decimal\('.*'\) could name an integer "
                                                 "of more than 4300 digits$"):
                specs.require_eta(self.SPEC, Decimal(text))
        assert time.monotonic() - start < 1

    def test_decimal_within_the_limit_keeps_its_value_and_message(self):
        for text in ("0.8", "8e-1", "0.80001", "0.8" + "0" * 4290):
            assert specs.require_eta(self.SPEC, Decimal(text)) == Fraction(text)
        with pytest.raises(errors.EtaOutOfWindow, match=r"^eta=1/1000 outside \(3/4, 5/6\)$"):
            specs.require_eta(self.SPEC, Decimal("1e-3"))

    def test_refusals_keep_their_messages(self):
        with pytest.raises(errors.EtaOutOfWindow, match=f"^eta=1/1{'0' * 4298} outside "
                                                        r"\(3/4, 5/6\)$"):
            specs.require_eta(self.SPEC, "1e-4298")
        for text in ("abc", "1/0", "1e", "1/2e3"):
            with pytest.raises(ValueError, match=f"^eta must be a rational number, got {text!r}$"):
                specs.require_eta(self.SPEC, text)

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, Decimal("Infinity"),
                                     Decimal("-Infinity"), math.nan, Decimal("NaN")],
                             ids=repr)
    def test_non_finite_numbers_are_not_rational(self, eta):
        # Fraction raises OverflowError for an infinity and ValueError for NaN.
        with pytest.raises(ValueError, match=f"^eta must be a rational number, got "
                                             f"{re.escape(repr(eta))}$"):
            specs.require_eta(self.SPEC, eta)


# The seven value records: (class name, a factory of fresh equal field values,
# the repr those fields print).
RECORDS = [
    ("ColoredSpec", lambda: {"s": (1, 3), "l": (2, 2)}, "ColoredSpec(s=(1, 3), l=(2, 2))"),
    ("AsymptoticConstants",
     lambda: {"a": Fraction(8, 3), "d": Fraction(-7, 4), "c": mpmath.mpf("0.5"),
              "exp_coeff": mpmath.mpf("2.25"), "prec": 53},
     "AsymptoticConstants(a=Fraction(8, 3), d=Fraction(-7, 4), c=mpf('0.5'), "
     "exp_coeff=mpf('2.25'), prec=53)"),
    ("EtaWindow", lambda: {"lower": Fraction(3, 4), "upper": Fraction(5, 6)},
     "EtaWindow(lower=Fraction(3, 4), upper=Fraction(5, 6))"),
    ("ExactSeries",
     lambda: {"spec": cp.validate([1], [1]), "coeffs": (1, 1, 2),
              "method": "euler"},
     "ExactSeries(spec=ColoredSpec(s=(1,), l=(1,)), coeffs=(1, 1, 2), method='euler')"),
    ("ComparisonRow",
     lambda: {"n": 16, "ln_exact": mpmath.mpf(5), "ln_main": mpmath.mpf("5.25"),
              "rel_err": mpmath.mpf("0.25")},
     "ComparisonRow(n=16, ln_exact=mpf('5.0'), ln_main=mpf('5.25'), rel_err=mpf('0.25'))"),
    ("ExponentFit",
     lambda: {"slope": -0.5, "intercept": 1.25, "r_squared": 0.99, "n_range": (64, 1024)},
     "ExponentFit(slope=-0.5, intercept=1.25, r_squared=0.99, n_range=(64, 1024))"),
    ("QuadFormSpec", lambda: {"a0": 0.5, "a_rest": (1.5, 2.0)},
     "QuadFormSpec(a0=0.5, a_rest=(1.5, 2.0))"),
]
# A changed field value for the records that check theirs; None for the rest.
CHANGED = {"a0": 4.0, "a_rest": (1.5,)}


@pytest.mark.parametrize("name,fields,text", RECORDS, ids=[r[0] for r in RECORDS])
def test_value_record(name, fields, text):
    cls = getattr(cp, name)
    rec, twin = cls(**fields()), cls(*fields().values())
    assert rec == twin and hash(rec) == hash(twin) and not rec != twin
    assert repr(rec) == text
    # Never equal to its fields as a tuple, to a subclass with the same
    # fields, or to another record; each field takes part and is read-only.
    values = tuple(fields().values())
    sub = type(name, (cls,), {})(*values)
    other = next(getattr(cp, n)(**f()) for n, f, _ in RECORDS if n != name)
    for stranger in (values, sub, other):
        assert rec != stranger and stranger != rec
    for key in fields():
        assert rec != cls(**{**fields(), key: CHANGED.get(key)})
        with pytest.raises(AttributeError):
            setattr(rec, key, None)
        with pytest.raises(AttributeError):
            delattr(rec, key)
    for copied in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
        assert type(copied) is cls and copied == rec and repr(copied) == text
