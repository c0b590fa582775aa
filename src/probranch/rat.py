"""Exact rational arithmetic backend.

Every probability, weight and mass in the package is an exact rational;
no float ever enters a computation.  `rat` is the backend type itself:
gmpy2's mpq when the optional `gmpy2` extra is installed, with
Fraction as a drop-in fallback.  Both types hash and compare
consistently, are always stored in lowest terms and keep a positive
denominator.  The LP engine pivots on Python ints under either backend.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as rat

    RAT_BACKEND = "gmpy2"
except ImportError:
    from fractions import Fraction as rat

    RAT_BACKEND = "fractions"

ZERO = rat(0)
ONE = rat(1)


def is_rat(value) -> bool:
    return isinstance(value, rat)


def format_rat(q) -> str:
    """Render as "p/q"; the denominator is always printed."""
    return f"{q.numerator}/{q.denominator}"
