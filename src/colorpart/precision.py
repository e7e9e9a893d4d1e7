"""Working precision for extended-precision arithmetic.

All extended-precision arithmetic goes through mpmath.  Every operation
that needs it takes a ``prec`` argument, the significand size in bits,
defaulting to ``DEFAULT_BITS``; there is no process-wide setting.
"""

from __future__ import annotations

import mpmath

MIN_BITS = 64
DEFAULT_BITS = 128


def working_precision(prec: int = DEFAULT_BITS):
    """Context manager setting mpmath's precision for a computation."""
    if prec < MIN_BITS:
        raise ValueError(f"precision must be >= {MIN_BITS} bits, got {prec}")
    return mpmath.workprec(prec)
