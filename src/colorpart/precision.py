"""Global working-precision configuration.

All extended-precision arithmetic goes through mpmath.  The significand
size defaults to 128 bits and can be overridden globally with
:func:`set_default_bits` or the ``COLORPART_PRECISION_BITS`` environment
variable; individual operations accept a ``prec`` keyword that wins over
both.
"""

from __future__ import annotations

import os

import mpmath

MIN_BITS = 64
_default_bits: int | None = None


def default_bits() -> int:
    if _default_bits is not None:
        return _default_bits
    env = os.environ.get("COLORPART_PRECISION_BITS")
    if env:
        try:
            bits = int(env)
        except ValueError:
            raise ValueError(f"COLORPART_PRECISION_BITS must be an integer, got {env!r}") from None
        if bits < MIN_BITS:
            raise ValueError(f"COLORPART_PRECISION_BITS must be >= {MIN_BITS}, got {bits}")
        return bits
    return 128


def set_default_bits(bits: int | None) -> None:
    """Override the default precision (None restores env/128 behaviour)."""
    global _default_bits
    if bits is not None and bits < MIN_BITS:
        raise ValueError(f"precision must be >= {MIN_BITS} bits, got {bits}")
    _default_bits = bits


def working_precision(prec: int | None = None):
    """Context manager setting mpmath's precision for a computation."""
    bits = prec if prec is not None else default_bits()
    if bits < MIN_BITS:
        raise ValueError(f"precision must be >= {MIN_BITS} bits, got {bits}")
    return mpmath.workprec(bits)
