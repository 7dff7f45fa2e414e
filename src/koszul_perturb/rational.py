"""Exact rational scalars and their string form.

All arithmetic in this package runs over Q via fractions.Fraction; the
wire format for a coefficient is the reduced string "p/q" with q >= 1.
"""

import re
from fractions import Fraction

# Optional sign, digits, optional "/digits"; no exponent, point or underscore.
_LITERAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or a bare integer string / int) into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string or int, got {type(s).__name__}")
    match = _LITERAL.fullmatch(s)
    if match is None or match[2] is not None and not int(match[2]):
        raise ValueError(f"bad rational literal {s!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def format_rational(x: Fraction) -> str:
    """Canonical wire form: always "p/q", denominator positive, reduced."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
