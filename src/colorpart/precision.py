"""Working precision for extended-precision arithmetic.

All extended-precision arithmetic goes through mpmath.  Every operation
that needs it takes a ``prec`` argument, the significand size in bits,
defaulting to ``DEFAULT_BITS``; there is no process-wide setting.
"""

from __future__ import annotations

MIN_BITS = 64
DEFAULT_BITS = 128
MAX_BITS = 2**14  # compare on s=1,3;l=2,2 at n = 64..1024: 0.45 s here, 4.9 s at 2**16


def check_bits(prec: int) -> None:
    """Raise ValueError unless MIN_BITS <= prec <= MAX_BITS."""
    if prec < MIN_BITS:
        raise ValueError(f"precision must be >= {MIN_BITS} bits, got {prec}")
    if prec > MAX_BITS:
        raise ValueError(f"precision must be <= {MAX_BITS} bits, got {prec}")


def working_precision(prec: int = DEFAULT_BITS):
    """Context manager setting mpmath's precision for a computation."""
    check_bits(prec)
    import mpmath  # here, so that the commands that do no mpmath work never load it

    return mpmath.workprec(prec)
