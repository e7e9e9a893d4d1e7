"""Exception hierarchy for the colorpart package."""


class ColorpartError(Exception):
    """Base class for all package-specific errors."""


class SpecError(ColorpartError, ValueError):
    """Spec text or JSON is malformed, or the (s, l) pair violates an invariant."""


class WindowUndefined(ColorpartError, ValueError):
    """The eta window requires k + l[0] >= 3: the spec is invalid input for it."""


class TooLarge(ColorpartError):
    """Estimated work for a series, a fold or a region split exceeds the configured budget."""


class EtaOutOfWindow(ColorpartError, ValueError):
    pass


class NonPositive(ColorpartError, ValueError):
    """Logarithm of a non-positive integer was requested."""


class InsufficientData(ColorpartError, ValueError):
    """Too few (or too narrowly spread) rows for an exponent fit."""


class QuadratureFailure(ColorpartError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class SumIntegralBoundError(ColorpartError):
    """|lattice sum - integral| exceeded the 2*(m+1)*max|f| bound."""


class NonFiniteValue(ColorpartError, ValueError):
    """A function under check returned NaN or an infinity; the message gives x."""


class OracleMismatch(ColorpartError):
    """Two exact methods disagreed on a coefficient."""
