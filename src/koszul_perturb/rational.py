"""Exact rationals and the JSON wire format: the one place input is read.

Arithmetic runs over Q via fractions.Fraction; a coefficient is written as the
reduced "p/q".  `load_json` makes bad or too deeply nested JSON a ValueError,
`wire_field` names a missing or mistyped field, a wire integer is a JSON int
(never a bool), and a wire rational is a JSON int or a string "p/q" or "p".
"""

import json
import re
from fractions import Fraction

# Optional sign, digits, optional "/digits"; no exponent, point or underscore.
_LITERAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def load_json(text: str):
    """One JSON document; a decode error or too-deep nesting is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nesting too deep to decode") from None


def wire_field(obj: dict, what: str, key: str, rule=None):
    """obj[key], read by rule(value, name) if given; a missing one is named."""
    if key not in obj:
        raise ValueError(f"{what} is missing field {key!r}")
    return obj[key] if rule is None else rule(obj[key], f"{what} field {key!r}")


def wire_int(value, name: str) -> int:
    """A JSON int; a bool is rejected, although Python counts it as an int."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def parse_rational(s) -> Fraction:
    """Parse "p/q" (q >= 1), a bare integer string or a JSON int into a Fraction."""
    if not isinstance(s, str):
        return Fraction(wire_int(s, "a rational that is not a string"))
    match = _LITERAL.fullmatch(s)
    if match is None or match[2] is not None and not int(match[2]):
        raise ValueError(f"bad rational literal {s!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def format_rational(x: Fraction) -> str:
    """Canonical wire form: always "p/q", denominator positive, reduced."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
