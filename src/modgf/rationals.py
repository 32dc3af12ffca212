"""Canonical string form for exact rationals: "p" or "p/q" with q > 0, gcd = 1.

str(Fraction) already produces exactly this form; the helpers exist so every
JSON writer and reader in the package shares one validated code path.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_to_str(value: Fraction) -> str:
    return str(value)


def rat_from_str(text: str) -> Fraction:
    """Parse "p" or "p/q" in ASCII digits, optional leading "-" on p.

    Rejects floats, whitespace padding, underscores, a "+" sign, non-ASCII
    digits and q = 0.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}", 0)
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"bad rational literal {text!r}", 0)
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        raise ParseError("division by zero in rational literal", 0)
    return Fraction(int(num), int(den))
