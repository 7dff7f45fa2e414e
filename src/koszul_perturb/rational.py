"""Exact rational scalars and their string form.

All arithmetic in this package runs over Q via fractions.Fraction; the
wire format for a coefficient is the reduced string "p/q" with q >= 1.
"""

from fractions import Fraction


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or a bare integer string / int) into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string or int, got {type(s).__name__}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {s!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical wire form: always "p/q", denominator positive, reduced."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
