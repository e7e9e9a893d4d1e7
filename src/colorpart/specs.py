"""Colored-partition specifications and their closed-form asymptotic constants.

A spec is a pair of integer tuples (s, l): ``l[i]`` colors may only be used
on parts divisible by ``s[i]``.  The moduli must satisfy
``1 = s[0] < s[1] < ... < s[k-1]`` and every multiplicity must be positive.

``json`` and ``fractions`` are imported by the functions that use them, so
that ``colorpart exact`` starts without them.
"""

from __future__ import annotations

import operator

from .errors import EtaOutOfWindow, SpecError, WindowUndefined
from .precision import DEFAULT_BITS, working_precision


class _Record:
    """An immutable record of the fields named in ``__slots__``.

    It compares and hashes by value, as a tuple of its fields, and never
    equals an object of another class; its repr is ``Name(field=value, ...)``.
    It stands in for ``@dataclass(frozen=True)``, whose import (``inspect``,
    ``ast``, ``dis``) and per-class code generation cost the ``exact`` cold
    start more than its work.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        # Spec equality runs on every tuple-fold call, almost always between
        # one object and itself, which the identity test answers at once;
        # otherwise one C-level call reads every field.
        if other.__class__ is self.__class__:
            return other is self or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class ColoredSpec(_Record):
    """Validated (s, l) pair. Construct via :func:`validate` or the parsers."""

    __slots__ = ("s", "l")
    s: tuple[int, ...]
    l: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.s)

    def total_colors(self) -> int:
        return sum(self.l)

    def growth_rate(self) -> Fraction:
        """The exact rational sum of l[i]/s[i] driving the exponential."""
        from fractions import Fraction

        return sum((Fraction(li, si) for si, li in zip(self.s, self.l)), Fraction(0))

    def to_text(self) -> str:
        return "s={};l={}".format(
            ",".join(map(str, self.s)), ",".join(map(str, self.l))
        )

    def __str__(self) -> str:
        return self.to_text()


def _integers(key: str, values) -> tuple[int, ...]:
    """The entries of one spec field as ints, refusing any entry that is not one.

    ``operator.index`` admits numpy integers and refuses floats and strings;
    bools are refused explicitly, since int() would quietly turn True into 1.
    """
    try:
        entries = tuple(values)
        if not any(isinstance(x, bool) for x in entries):
            return tuple(operator.index(x) for x in entries)
    except TypeError:
        pass
    raise SpecError(f"spec {key!r} must be a list of integers, got {values!r}")


def validate(s, l) -> ColoredSpec:
    """Check the spec invariants, returning a ColoredSpec or raising SpecError."""
    s = _integers("s", s)
    l = _integers("l", l)
    if len(s) == 0 or len(l) == 0:
        raise SpecError("spec needs at least one (modulus, multiplicity) pair")
    if len(s) != len(l):
        raise SpecError(f"moduli and multiplicities differ in length: {len(s)} vs {len(l)}")
    if s[0] != 1:
        raise SpecError(f"first modulus must be 1, got {s[0]}")
    if any(a >= b for a, b in zip(s, s[1:])):
        raise SpecError(f"moduli must be strictly increasing: {s}")
    if any(li < 1 for li in l):
        raise SpecError(f"all multiplicities must be >= 1: {l}")
    return ColoredSpec(s, l)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """The (key, value) pairs as a dict, refusing a repeated key.

    Shared by both parsers; ``parse_json`` passes it as ``object_pairs_hook``.
    """
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise SpecError(f"spec field {key!r} given more than once")
        obj[key] = val
    return obj


def parse_text(text: str) -> ColoredSpec:
    """Parse the compact form ``s=1,3;l=2,2``."""
    pairs = []
    for chunk in text.strip().split(";"):
        if "=" not in chunk:
            raise SpecError(f"malformed spec text {text!r}")
        key, _, val = chunk.partition("=")
        key = key.strip()
        try:
            pairs.append((key, [int(x) for x in val.split(",") if x.strip()]))
        except ValueError:
            raise SpecError(f"spec {key!r} must be a list of integers, got {val!r}") from None
    fields = _unique_fields(pairs)
    if set(fields) != {"s", "l"}:
        raise SpecError(f"spec text must define exactly s and l, got {sorted(fields)}")
    return validate(fields["s"], fields["l"])


def parse_json(text: str) -> ColoredSpec:
    """Parse the JSON form ``{"s": [1, 3], "l": [2, 2]}``."""
    import json

    try:
        obj = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid spec JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"s", "l"}:
        raise SpecError("spec JSON must be an object with keys 's' and 'l'")
    for key in ("s", "l"):
        if not isinstance(obj[key], list):
            raise SpecError(f"spec JSON {key!r} must be a list of integers, got {obj[key]!r}")
    return validate(obj["s"], obj["l"])


class AsymptoticConstants(_Record):
    """Closed-form constants of the leading asymptotic term.

    The main term is  M(n) = c * n**d * exp(exp_coeff * sqrt(n)).
    ``a`` and ``d`` are exact rationals; ``c`` and ``exp_coeff`` are mpmath
    floats carrying ``prec`` bits of significand.
    """

    __slots__ = ("a", "d", "c", "exp_coeff", "prec")
    a: Fraction
    d: Fraction
    c: mpmath.mpf
    exp_coeff: mpmath.mpf
    prec: int


def constants(spec: ColoredSpec, prec: int = DEFAULT_BITS) -> AsymptoticConstants:
    """Evaluate the prefactor, power, and exponential coefficient for a spec.

    Exponents are assembled as exact rationals and converted to floats in a
    single powering step each, so no rounding accumulates across the product.
    """
    from fractions import Fraction

    import mpmath  # here, so that the commands that do no mpmath work never load it

    a = spec.growth_rate()
    total = spec.total_colors()
    d = Fraction(-3, 4) - Fraction(total, 4)
    with working_precision(prec):
        mpf = mpmath.mpf
        c = mpf(2) ** (mpf(-(3 * total + 5)) / 4)
        c *= mpf(3) ** (mpf(-(total + 1)) / 4)
        c *= (mpf(a.numerator) / a.denominator) ** (mpf(total + 1) / 4)
        for si, li in zip(spec.s, spec.l):
            c *= mpf(si) ** (mpf(li) / 2)
        exp_coeff = mpmath.pi * mpmath.sqrt(mpf(2 * a.numerator) / (3 * a.denominator))
        return AsymptoticConstants(a=a, d=d, c=+c, exp_coeff=+exp_coeff, prec=prec)


class EtaWindow(_Record):
    """Open interval of admissible box-width exponents eta."""

    __slots__ = ("lower", "upper")
    lower: Fraction
    upper: Fraction


def eta_window(spec: ColoredSpec) -> EtaWindow:
    """Admissible eta interval (3/4, min{5/6, (3/4)(L-1)/(L-2)}) for L colors.

    For L <= 2 the second argument of the min degenerates and is treated as
    +infinity, leaving the cap 5/6.  Requires k + l[0] >= 3.
    """
    if spec.k + spec.l[0] < 3:
        raise WindowUndefined(
            f"eta window needs k + l[0] >= 3, got k={spec.k}, l[0]={spec.l[0]}"
        )
    from fractions import Fraction

    total = spec.total_colors()
    upper = Fraction(5, 6)
    if total > 2:
        upper = min(upper, Fraction(3, 4) * Fraction(total - 1, total - 2))
    return EtaWindow(lower=Fraction(3, 4), upper=upper)


# CPython's default limit on the digits of an int converted from or to text.
_MAX_DIGITS = 4300


def require_eta(spec: ColoredSpec, eta) -> Fraction:
    """Check eta, a number or rational string, against the window; return a Fraction.

    Text that could make an integer past 4300 digits is refused first: Fraction
    would build 10**exponent however long it took, and no refusal could print it.
    A Decimal is held to the same bound through its text, which shows each of
    its digits and its exponent.
    """
    from decimal import Decimal  # fractions imports it
    from fractions import Fraction

    if isinstance(eta, (str, Decimal)):
        mantissa, _, exponent = str(eta).lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
        # Its digits, its exponent and the 1 of 10**exponent; five exponent digits pass 4300.
        if exponent.isdecimal() and (sum(map(str.isdecimal, mantissa)) + int(exponent[:5]) + 1
                                     > _MAX_DIGITS):
            kind = "eta text" if isinstance(eta, str) else "eta"
            raise ValueError(f"{kind} {eta!r} could name an integer of more than "
                             f"{_MAX_DIGITS} digits")
    try:
        eta = Fraction(eta)
    except (ValueError, ZeroDivisionError, OverflowError):  # overflow: an infinity
        raise ValueError(f"eta must be a rational number, got {eta!r}") from None
    window = eta_window(spec)
    if not window.lower < eta < window.upper:
        raise EtaOutOfWindow(f"eta={eta} outside ({window.lower}, {window.upper})")
    return eta
