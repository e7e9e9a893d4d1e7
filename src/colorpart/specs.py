"""Colored-partition specifications and their closed-form asymptotic constants.

A spec is a pair of integer tuples (s, l): ``l[i]`` colors may only be used
on parts divisible by ``s[i]``.  The moduli must satisfy
``1 = s[0] < s[1] < ... < s[k-1]`` and every multiplicity must be positive.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import EtaOutOfWindow, SpecError, WindowUndefined
from .precision import DEFAULT_BITS, working_precision

ETA_LOWER = Fraction(3, 4)
ETA_CAP = Fraction(5, 6)


@dataclass(frozen=True)
class ColoredSpec:
    """Validated (s, l) pair. Construct via :func:`validate` or the parsers."""

    s: tuple[int, ...]
    l: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.s)

    def total_colors(self) -> int:
        return sum(self.l)

    def growth_rate(self) -> Fraction:
        """The exact rational sum of l[i]/s[i] driving the exponential."""
        return sum((Fraction(li, si) for si, li in zip(self.s, self.l)), Fraction(0))

    @property
    def moduli(self) -> tuple[int, ...]:
        """One modulus per color: s[i] repeated l[i] times, in increasing order."""
        return tuple(si for si, li in zip(self.s, self.l) for _ in range(li))

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


@dataclass(frozen=True)
class AsymptoticConstants:
    """Closed-form constants of the leading asymptotic term.

    The main term is  M(n) = c * n**d * exp(exp_coeff * sqrt(n)).
    ``a`` and ``d`` are exact rationals; ``c`` and ``exp_coeff`` are mpmath
    floats carrying ``prec`` bits of significand.
    """

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


@dataclass(frozen=True)
class EtaWindow:
    """Open interval of admissible box-width exponents eta."""

    lower: Fraction
    upper: Fraction

    def contains(self, eta) -> bool:
        eta = Fraction(eta)
        return self.lower < eta < self.upper


def eta_window(spec: ColoredSpec) -> EtaWindow:
    """Admissible eta interval (3/4, min{5/6, (3/4)(L-1)/(L-2)}) for L colors.

    For L <= 2 the second argument of the min degenerates and is treated as
    +infinity, leaving the cap 5/6.  Requires k + l[0] >= 3.
    """
    if spec.k + spec.l[0] < 3:
        raise WindowUndefined(
            f"eta window needs k + l[0] >= 3, got k={spec.k}, l[0]={spec.l[0]}"
        )
    total = spec.total_colors()
    upper = ETA_CAP
    if total > 2:
        upper = min(upper, Fraction(3, 4) * Fraction(total - 1, total - 2))
    return EtaWindow(lower=ETA_LOWER, upper=upper)


def require_eta(spec: ColoredSpec, eta) -> Fraction:
    """Check eta, a number or rational string, against the window; return a Fraction."""
    try:
        eta = Fraction(eta)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"eta must be a rational number, got {eta!r}") from None
    window = eta_window(spec)
    if not window.contains(eta):
        raise EtaOutOfWindow(f"eta={eta} outside ({window.lower}, {window.upper})")
    return eta
