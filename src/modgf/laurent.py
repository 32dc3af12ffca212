"""Laurent polynomials in one variable x over exact rationals.

A Laurent polynomial is stored densely: `min_exp` is the exponent of the
first stored coefficient and `coeffs` holds the coefficients of
x^min_exp, x^(min_exp+1), ... in order. The representation is canonical:
leading and trailing zero coefficients are trimmed on construction, so the
first and last stored coefficients are nonzero and equality of values is
equality of representations. The zero polynomial is `min_exp == 0` with an
empty coefficient tuple. Values are immutable after construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InternalConsistencyError, ParseError
from .rationals import rat_from_str, rat_to_str

RationalLike = Fraction | int

# Powers are refused when the estimated size of P^n exceeds this many bits:
# one machine word per coefficient slot plus the bound n*log2(|q|_1 * D) on
# each coefficient's numerator and denominator. The trinomial reaches it
# near n = 16000.
MAX_POWER_BITS = 1 << 30

# The power self-check works modulo this Mersenne prime.
_CHECK_PRIME = (1 << 61) - 1


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class LaurentPoly:
    """A Laurent polynomial sum(coeffs[i] * x**(min_exp + i)).

    >>> p = LaurentPoly(-1, [1, 1, 1])
    >>> p
    LaurentPoly('x^-1+1+x')
    >>> p.min_exp, p.max_exp
    (-1, 1)
    >>> LaurentPoly(3, [0, 5, 0])            # canonicalized
    LaurentPoly('5*x^4')
    """

    min_exp: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, min_exp: int, coeffs: object) -> None:
        self._store(min_exp, [Fraction(c) for c in coeffs])  # type: ignore[union-attr]

    def _store(self, min_exp: int, cs: Sequence[Fraction]) -> None:
        lo = 0
        hi = len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.min_exp = 0
            self.coeffs = ()
        else:
            self.min_exp = min_exp + lo
            self.coeffs = tuple(cs[lo:hi])

    @classmethod
    def _trusted(cls, min_exp: int, cs: Sequence[Fraction]) -> LaurentPoly:
        """Canonical value from coefficients that are already Fractions.

        Arithmetic results come through here, skipping the per-coefficient
        Fraction conversion of the public constructor.
        """
        self = object.__new__(cls)
        self._store(min_exp, cs)
        return self

    @classmethod
    def _from_ints(cls, min_exp: int, nums: Sequence[int], den: int) -> LaurentPoly:
        """The value sum(nums[i] / den * x**(min_exp + i)); den > 0."""
        if den == 1:
            return cls._trusted(min_exp, [Fraction(c) for c in nums])
        return cls._trusted(min_exp, [Fraction(c, den) for c in nums])

    # --- constructors ---

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly(0, (Fraction(1),))

    @staticmethod
    def x(exp: int = 1) -> LaurentPoly:
        return LaurentPoly(exp, (Fraction(1),))

    @staticmethod
    def from_coeff_map(terms: dict[int, Fraction]) -> LaurentPoly:
        live = {e: c for e, c in terms.items() if c != 0}
        if not live:
            return LaurentPoly.zero()
        lo = min(live)
        hi = max(live)
        return LaurentPoly(lo, [live.get(e, Fraction(0)) for e in range(lo, hi + 1)])

    # --- basic queries ---

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        """Largest exponent with nonzero coefficient (min_exp for zero)."""
        if not self.coeffs:
            return self.min_exp
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, j: int) -> Fraction:
        """Coefficient of x^j; zero outside the stored support.

        >>> (LaurentPoly(-1, [1, 1, 1]) ** 2).coeff(0)
        Fraction(3, 1)
        """
        i = j - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def support(self) -> list[int]:
        return [self.min_exp + i for i, c in enumerate(self.coeffs) if c != 0]

    def is_symmetric(self) -> bool:
        """True when coeff(j) == coeff(-j) for every j. Zero is symmetric."""
        if not self.coeffs:
            return True
        if self.min_exp != -self.max_exp:
            return False
        return self.coeffs == tuple(reversed(self.coeffs))

    # --- arithmetic ---

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._trusted(self.min_exp, [-c for c in self.coeffs])

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [Fraction(0)] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp + i - lo] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp + i - lo] += c
        return LaurentPoly._trusted(lo, out)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        """Convolution product, in integers over the cleared denominators.

        The outer loop runs over the nonzero terms of the sparser factor.

        >>> t = LaurentPoly(-1, [1, 1, 1])
        >>> (t * t).coeffs
        (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(2, 1), Fraction(1, 1))
        """
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return LaurentPoly.zero()
        da, qa = clear_denominators(self.coeffs)
        db, qb = clear_denominators(other.coeffs)
        if len(qa) - qa.count(0) > len(qb) - qb.count(0):
            qa, qb = qb, qa
        width = len(qb)
        out = [0] * (len(qa) + width - 1)
        for i, a in enumerate(qa):
            if a:
                out[i : i + width] = [o + a * b for o, b in zip(out[i : i + width], qb)]
        return LaurentPoly._from_ints(self.min_exp + other.min_exp, out, da * db)

    def scale(self, factor: RationalLike) -> LaurentPoly:
        f = Fraction(factor)
        return LaurentPoly._trusted(self.min_exp, [c * f for c in self.coeffs])

    def __pow__(self, n: int) -> LaurentPoly:
        """n-th power by J.C.P. Miller's recurrence; p**0 == 1 even for p == 0.

        With D the lcm of the denominators, Q = D * x**-min_exp * P has
        integer coefficients q_0 != 0, ..., q_d, and the coefficients r_m of
        Q**n follow from r_0 = q_0**n and

            m * q_0 * r_m = sum over i >= 1 of ((n + 1) * i - m) * q_i * r_(m-i)

        (Knuth, TAOCP vol. 2, section 4.7), with every division checked
        exact. That is O(n * d) big-integer steps per nonzero q_i instead of
        n full products. Before P**n = x**(n * min_exp) * Q**n / D**n is
        returned, sum r_m t0**m is checked against Q(t0)**n modulo 2**61 - 1,
        at a t0 derived from SHA-256 of (Q, D, n). Powers whose estimated
        size exceeds MAX_POWER_BITS are refused before anything is expanded.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise DomainError("negative power of a Laurent polynomial is not supported")
        if n == 0:
            return LaurentPoly.one()
        if not self.coeffs:
            return LaurentPoly.zero()
        check_power_size(self, n)
        d, q = clear_denominators(self.coeffs)
        r = _miller_pow(q, n)
        _check_power(q, d, n, r)
        return LaurentPoly._from_ints(n * self.min_exp, r, d**n)

    def eval_at(self, v: RationalLike) -> Fraction:
        """Evaluate at a rational point; v == 0 is rejected when min_exp < 0.

        >>> LaurentPoly(-1, [1, 1, 1]).eval_at(1)
        Fraction(3, 1)
        """
        value = Fraction(v)
        if value == 0:
            if self.min_exp < 0:
                raise DomainError("cannot evaluate at 0: negative exponents present")
            return self.coeff(0)
        # Horner from the top, then shift by the lowest exponent once.
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc * value**self.min_exp

    # --- rendering and serialization ---

    def text(self) -> str:
        """Canonical text form, re-parseable by parse_laurent.

        >>> LaurentPoly(-1, [1, 1, 1]).text()
        'x^-1+1+x'
        """
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            mag = abs(c)
            if e == 0:
                body = rat_to_str(mag)
            else:
                xpart = "x" if e == 1 else f"x^{e}"
                body = xpart if mag == 1 else f"{rat_to_str(mag)}*{xpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.text()}')"

    def to_json_dict(self) -> dict:
        return {
            "min_exp": self.min_exp,
            "coeffs": [rat_to_str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> LaurentPoly:
        if not isinstance(data, dict) or "min_exp" not in data or "coeffs" not in data:
            raise ParseError("Laurent polynomial JSON needs min_exp and coeffs", 0)
        min_exp = data["min_exp"]
        if not isinstance(min_exp, int) or isinstance(min_exp, bool):
            raise ParseError("min_exp must be an integer", 0)
        return LaurentPoly(min_exp, [rat_from_str(c) for c in data["coeffs"]])


def clear_denominators(cs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [D * c for c in cs]) with D the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in cs))
    if d == 1:
        return 1, [c.numerator for c in cs]
    return d, [c.numerator * (d // c.denominator) for c in cs]


def check_power_size(p: LaurentPoly, n: int) -> None:
    """Raise DomainError when p**n would pass MAX_POWER_BITS; expands nothing.

    The estimate is one machine word per coefficient slot plus
    n * log2(|q|_1 * D) bits per coefficient, with D and q as in __pow__.
    """
    if n <= 0 or not p.coeffs:
        return
    d, q = clear_denominators(p.coeffs)
    bits_per_coeff = n * ((sum(map(abs, q)) - 1).bit_length() + (d - 1).bit_length())
    size = (n * (len(q) - 1) + 1) * (64 + bits_per_coeff)
    if size > MAX_POWER_BITS:
        raise DomainError(
            f"power n = {n} of a polynomial with {len(q)} coefficient slots "
            f"would need about {size} bits, over the ceiling {MAX_POWER_BITS}"
        )


def _miller_pow(q: Sequence[int], n: int) -> list[int]:
    """Coefficients of (sum q[i] x**i)**n by Miller's recurrence; q[0] != 0."""
    q0 = q[0]
    terms = [(i, c) for i, c in enumerate(q) if i and c]
    top = n * (len(q) - 1)
    r = [0] * (top + 1)
    r[0] = q0**n
    for m in range(1, top + 1):
        acc = 0
        for i, c in terms:
            if i > m:
                break
            acc += ((n + 1) * i - m) * c * r[m - i]
        r[m], rem = divmod(acc, m * q0)
        if rem:
            raise InternalConsistencyError("Miller recurrence division was not exact")
    return r


def _eval_mod(cs: Sequence[int], t0: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * t0 + c) % _CHECK_PRIME
    return acc


def _check_power(q: Sequence[int], d: int, n: int, r: Sequence[int]) -> None:
    """Check r == q**n at one point modulo 2**61 - 1; t0 hashes (q, d, n).

    Hex keeps the key linear in the size of q, with no decimal digit limit.
    """
    key = f"{n};{d:x};" + ",".join(f"{c:x}" for c in q)
    digest = hashlib.sha256(key.encode()).digest()
    t0 = 2 + int.from_bytes(digest[:8], "big") % (_CHECK_PRIME - 2)
    if _eval_mod(r, t0) != pow(_eval_mod(q, t0), n, _CHECK_PRIME):
        raise InternalConsistencyError("power failed the point check")


TRINOMIAL = LaurentPoly(-1, (1, 1, 1))


def parse_laurent(text: str) -> LaurentPoly:
    """Parse expressions like "x^-1+1+x", "3*x^2-1/2", "0*x^5".

    Grammar: terms joined by "+"/"-" (one optional leading sign); a term is a
    rational coefficient, an x-part with optional integer exponent, or a
    coefficient times an x-part with the "*" optional. Whitespace is ignored.

    >>> parse_laurent("x^-1 + 1 + x")
    LaurentPoly('x^-1+1+x')
    >>> parse_laurent("0*x^5")
    LaurentPoly('0')
    >>> parse_laurent("x + x")
    LaurentPoly('2*x')
    """
    terms: dict[int, Fraction] = {}
    n = len(text)
    i = 0

    def skip_ws(pos: int) -> int:
        while pos < n and text[pos].isspace():
            pos += 1
        return pos

    def read_uint(pos: int, what: str) -> tuple[int, int]:
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError(f"expected {what}", start)
        return int(text[start:pos]), pos

    i = skip_ws(i)
    if i >= n:
        raise ParseError("empty polynomial", i)

    sign = 1
    if text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i = skip_ws(i + 1)

    while True:
        # one term: [coefficient] [["*"] x ["^" int]]
        term_start = i
        coeff: Fraction | None = None
        if i < n and text[i].isdigit():
            num, i = read_uint(i, "an integer")
            coeff = Fraction(num)
            j = skip_ws(i)
            if j < n and text[j] == "/":
                den_pos = skip_ws(j + 1)
                den, i = read_uint(den_pos, "an integer after '/'")
                if den == 0:
                    raise ParseError("division by zero in coefficient", den_pos)
                coeff = Fraction(num, den)
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or text[i] != "x":
                    raise ParseError("expected 'x' after '*'", i)
        exp = 0
        if i < n and text[i] == "x":
            exp = 1
            i = skip_ws(i + 1)
            if i < n and text[i] == "^":
                i = skip_ws(i + 1)
                esign = 1
                if i < n and text[i] in "+-":
                    esign = -1 if text[i] == "-" else 1
                    i = skip_ws(i + 1)
                mag, i = read_uint(i, "an integer exponent")
                if i < n and text[i] in "./":
                    raise ParseError("exponent must be an integer", i)
                exp = esign * mag
            if coeff is None:
                coeff = Fraction(1)
        if coeff is None:
            raise ParseError("expected a term", term_start)
        if i < n and text[i] == ".":
            raise ParseError("coefficients must be integers or p/q rationals", i)
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff

        i = skip_ws(i)
        if i >= n:
            break
        if text[i] == "+":
            sign = 1
        elif text[i] == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        i = skip_ws(i + 1)
        if i >= n:
            raise ParseError("dangling sign at end of input", i)

    return LaurentPoly.from_coeff_map(terms)
