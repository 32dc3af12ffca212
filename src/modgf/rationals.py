"""Canonical string form for exact rationals: "p" or "p/q" with q > 0, gcd = 1.

str(Fraction) already produces exactly this form; the helpers exist so every
JSON writer and reader in the package shares one validated code path. CPython
refuses int <-> decimal str conversions past 4300 digits by default (a
process-wide setting this module leaves alone), so larger values are split
divide-and-conquer at powers 10**(1000 * 2**j) into pieces that stay far
below that limit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


# Pieces of at most this many bits (about 2400 decimal digits) go through
# int/str directly; splits happen at 10**(_SPLIT_DIGITS * 2**j).
_LEAF_BITS = 8000
_SPLIT_DIGITS = 1000
_pow10_cache: dict[int, int] = {}


def _pow10(e: int) -> int:
    if e not in _pow10_cache:
        _pow10_cache[e] = 10**e
    return _pow10_cache[e]


def _digits(n: int, width: int = 0) -> str:
    """Decimal digits of n >= 0, zero-padded on the left to width."""
    if n.bit_length() <= _LEAF_BITS:
        return str(n).zfill(width)
    # 10**e <= n < 10**(2e): the high half is nonzero and both halves shrink.
    e = _SPLIT_DIGITS
    while _pow10(2 * e) <= n:
        e *= 2
    hi, lo = divmod(n, _pow10(e))
    return _digits(hi, width - e) + _digits(lo, e)


def _int_from_digits(text: str) -> int:
    """int(text) for a string of ASCII digits of any length."""
    if len(text) <= 2 * _SPLIT_DIGITS:
        return int(text)
    e = _SPLIT_DIGITS
    while 2 * e < len(text):
        e *= 2
    return _int_from_digits(text[:-e]) * _pow10(e) + _int_from_digits(text[-e:])


def _int_to_str(n: int) -> str:
    return "-" + _digits(-n) if n < 0 else _digits(n)


def rat_to_str(value: Fraction) -> str:
    num, den = value.numerator, value.denominator
    if num.bit_length() <= _LEAF_BITS and den.bit_length() <= _LEAF_BITS:
        return str(value)
    return _int_to_str(num) if den == 1 else f"{_int_to_str(num)}/{_digits(den)}"


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
    sign, num, den = match.groups()
    p = _int_from_digits(num)
    if sign:
        p = -p
    if den is None:
        return Fraction(p)
    q = _int_from_digits(den)
    if q == 0:
        raise ParseError("division by zero in rational literal", 0)
    return Fraction(p, q)
