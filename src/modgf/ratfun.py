"""Dense univariate polynomials and reduced rational functions in t.

Poly stores coefficients ascending from t^0 over exact rationals, trailing
zeros trimmed; the zero polynomial is the empty tuple and has degree -1.
RationalFunction is always stored reduced (coprime num/den) and normalized:
den(0) == 1 when the denominator does not vanish at 0, otherwise den monic.

solve_linear_system performs fraction-free (Bareiss) elimination over Poly
entries for a general square system. The residue families do not use it
(residues solves their circulant system directly); it is the independent
cross-check those families are tested against. Internally every polynomial
entry is packed into a single big integer (its value at 2^B with balanced
base-2^B digits, B chosen from a Hadamard-style bound on minor
coefficients), so the convolutions and exact divisions of the elimination
run as native big-int operations. Entries stay exactly the classical
Bareiss minors throughout; the packing is faithful by the digit bound, every
division is checked for zero remainder, and each solved system is
re-verified in integers at a point of at least 2^61 derived from a hash of
the system before returning.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    ParseError,
    SingularMatrixError,
)
from .rationals import rat_from_str, rat_to_str

RationalLike = Fraction | int


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class Poly:
    """A dense polynomial sum(coeffs[i] * t**i).

    >>> Poly([1, -2, -3])
    Poly('1-2*t-3*t^2')
    >>> Poly([1, 2, 0, 0]).deg()
    1
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: object = ()) -> None:
        cs = [Fraction(c) for c in coeffs]  # type: ignore[union-attr]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> Poly:
        return Poly(())

    @staticmethod
    def one() -> Poly:
        return Poly((Fraction(1),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def deg(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def constant(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[0]

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, factor: RationalLike) -> Poly:
        f = Fraction(factor)
        return Poly([c * f for c in self.coeffs])

    def __call__(self, v: RationalLike) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(v) + c
        return acc

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact field long division: self == q * other + r with deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        db = other.deg()
        lb = other.coeffs[-1]
        r = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(r) - db)
        while len(r) - 1 >= db:
            top = r[-1]
            if top == 0:
                r.pop()
                continue
            pos = len(r) - 1 - db
            f = top / lb
            q[pos] = f
            for i in range(db):
                r[pos + i] -= f * other.coeffs[i]
            r.pop()
        return Poly(q), Poly(r)

    def exact_div(self, other: Poly) -> Poly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InternalConsistencyError("polynomial division expected to be exact was not")
        return q

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def text(self, var: str = "t") -> str:
        return _poly_text(self.coeffs, var)

    def __repr__(self) -> str:
        return f"Poly('{self.text()}')"

    def to_json_list(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_json_list(data: object) -> Poly:
        if not isinstance(data, list):
            raise ParseError("polynomial JSON must be a list of rational strings", 0)
        return Poly([rat_from_str(c) for c in data])


def _poly_text(coeffs: Sequence[Fraction], var: str) -> str:
    if not coeffs:
        return "0"
    parts: list[str] = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = rat_to_str(mag)
        else:
            vpart = var if e == 1 else f"{var}^{e}"
            body = vpart if mag == 1 else f"{rat_to_str(mag)}*{vpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


# --- integer-level polynomial kernels ---
#
# Integer polynomials are plain lists of ints, ascending, no trailing zeros.
# All heavy algebra (gcd, elimination) runs here; Fraction coefficients are
# cleared to a common denominator at the boundary.


def _itrim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _int_coeffs(p: Poly, scale: int = 1) -> list[int]:
    """Coefficients of scale*p, which must all be integral."""
    out = []
    for c in p.coeffs:
        v = c * scale
        if v.denominator != 1:
            raise InternalConsistencyError("scaling did not clear a denominator")
        out.append(v.numerator)
    return _itrim(out)


def _int_content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _int_primitive(cs: list[int]) -> list[int]:
    g = _int_content(cs)
    if g in (0, 1):
        return list(cs)
    return [c // g for c in cs]


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b.

    The loop skips multiplying by lc(b) on steps whose top coefficient is
    already zero, so the missing powers are restored at the end; the
    subresultant divisors assume exactly the classical power.
    """
    db = len(b) - 1
    if db == 0:
        return []
    lb = b[-1]
    full_steps = len(a) - db
    steps = 0
    r = list(a)
    while len(r) - 1 >= db:
        top = r[-1]
        if top == 0:
            r.pop()
            continue
        steps += 1
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i in range(db):
            r[shift + i] -= top * b[i]
        r.pop()
        _itrim(r)
    if r and steps < full_steps:
        m = lb ** (full_steps - steps)
        r = [m * c for c in r]
    return r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials via the subresultant PRS.

    The subresultant scheme divides each pseudo-remainder by a known exact
    factor, so coefficient growth stays polynomial and no gcd chains run in
    the loop.
    """
    a = _int_primitive(_itrim(list(a)))
    b = _int_primitive(_itrim(list(b)))
    if not a:
        return b if not b or b[-1] > 0 else [-c for c in b]
    if not b:
        return a if a[-1] > 0 else [-c for c in a]
    if len(a) < len(b):
        a, b = b, a
    g = 1
    h = 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _int_prem(a, b)
        if not r:
            break
        if len(r) == 1:
            return [1]
        divisor = g * h**delta
        nxt = []
        for c in r:
            q, rem = divmod(c, divisor)
            if rem:
                raise InternalConsistencyError("subresultant division was not exact")
            nxt.append(q)
        a, b = b, nxt
        g = a[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            num = g**delta
            q, rem = divmod(num, h ** (delta - 1))
            if rem:
                raise InternalConsistencyError("subresultant h-update was not exact")
            h = q
    out = _int_primitive(b)
    return out if out[-1] > 0 else [-c for c in out]


_CERT_PRIMES = ((1 << 61) - 1, 1000000000000000009, 999999999999999989)


def _mod_rem(a: list[int], b: list[int], p: int) -> list[int]:
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db:
        top = r[-1]
        if top == 0:
            r.pop()
            continue
        f = top * inv % p
        off = len(r) - 1 - db
        for i in range(db):
            r[off + i] = (r[off + i] - f * b[i]) % p
        r.pop()
    return _itrim(r)


def _coprime_mod_cert(a: list[int], b: list[int]) -> bool:
    """True only when a and b are provably coprime.

    deg gcd(a mod p, b mod p) >= deg gcd(a, b) whenever p preserves both
    leading coefficients, so one prime showing a constant modular gcd is a
    proof of coprimality. False means "unknown": fall through to the PRS.
    """
    for p in _CERT_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        fa = [c % p for c in a]
        fb = [c % p for c in b]
        while fb:
            fa, fb = fb, _mod_rem(fa, fb, p)
        return len(fa) == 1
    return False


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials (quotient known to be integral)."""
    if not b:
        raise DomainError("polynomial division by zero")
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db:
        top = r[-1]
        if top == 0:
            r.pop()
            continue
        f, rem = divmod(top, lb)
        if rem:
            raise InternalConsistencyError("integer polynomial division was not exact")
        pos = len(r) - 1 - db
        q[pos] = f
        for i in range(db):
            r[pos + i] -= f * b[i]
        r.pop()
    if _itrim(r):
        raise InternalConsistencyError("integer polynomial division left a remainder")
    return _itrim(q)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals; gcd(0, 0) == 0.

    >>> poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1]))
    Poly('-1+t')
    """
    if a.is_zero() and b.is_zero():
        return Poly.zero()
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ia = _int_coeffs(a, math.lcm(*(c.denominator for c in a.coeffs)))
    ib = _int_coeffs(b, math.lcm(*(c.denominator for c in b.coeffs)))
    if min(len(ia), len(ib)) == 1:
        return Poly.one()
    if len(ia) >= 8 and len(ib) >= 8 and _coprime_mod_cert(ia, ib):
        return Poly.one()
    g = _int_gcd(ia, ib)
    return Poly(g).monic()


# --- rational functions ---


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class RationalFunction:
    """A reduced rational function num/den in t.

    Construction reduces to lowest terms and normalizes: den(0) == 1 when
    possible, otherwise den is made monic. Zero is 0/1.

    >>> RationalFunction(Poly([2, -2]), Poly([2, -6]))
    RationalFunction('(1-t)/(1-3*t)')
    """

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: Poly) -> None:
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.one()
            return
        g = poly_gcd(num, den)
        if g.deg() >= 1:
            num = num.exact_div(g)
            den = den.exact_div(g)
        self.num, self.den = _den_normalized(num, den)

    @classmethod
    def _reduced_unchecked(cls, num: Poly, den: Poly) -> RationalFunction:
        """Build from a pair already known coprime; only rescales."""
        self = object.__new__(cls)
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.one()
            return self
        self.num, self.den = _den_normalized(num, den)
        return self

    @staticmethod
    def from_const(c: RationalLike) -> RationalFunction:
        return RationalFunction(Poly([Fraction(c)]), Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._reduced_unchecked(-self.num, self.den)

    def series(self, n_last: int) -> list[Fraction]:
        """Taylor coefficients a_0 .. a_{n_last} at t = 0.

        >>> RationalFunction(Poly([1]), Poly([1, -2])).series(4)
        [Fraction(1, 1), Fraction(2, 1), Fraction(4, 1), Fraction(8, 1), Fraction(16, 1)]
        """
        return poly_series(self.num, self.den, n_last)

    def text(self) -> str:
        if self.num.is_zero():
            return "0"
        if self.den == Poly.one():
            return self.num.text()
        numtext = self.num.text()
        if sum(1 for c in self.num.coeffs if c != 0) > 1:
            numtext = f"({numtext})"
        return f"{numtext}/({self.den.text()})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self.text()}')"

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_json_list(), "den": self.den.to_json_list()}

    @staticmethod
    def from_json_dict(data: dict) -> RationalFunction:
        if not isinstance(data, dict) or "num" not in data or "den" not in data:
            raise ParseError("rational function JSON needs num and den", 0)
        return RationalFunction(
            Poly.from_json_list(data["num"]), Poly.from_json_list(data["den"])
        )


def _den_normalized(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    c0 = den.constant()
    scale = 1 / c0 if c0 != 0 else 1 / den.leading()
    return num.scale(scale), den.scale(scale)


def rf_normalize(num: Poly, den: Poly) -> RationalFunction:
    """Reduce num/den to the canonical representative."""
    return RationalFunction(num, den)


def poly_series(num: Poly, den: Poly, n_last: int) -> list[Fraction]:
    """Taylor coefficients of num/den up to t^n_last; num and den need not be coprime.

    Runs the denominator-driven recurrence, O(n_last * deg den).
    """
    if n_last < 0:
        raise DomainError("series needs a nonnegative term count")
    d = den.coeffs
    if not d or d[0] == 0:
        raise DomainError("not a power series: denominator vanishes at t = 0")
    nc = num.coeffs
    out: list[Fraction] = []
    for n in range(n_last + 1):
        v = nc[n] if n < len(nc) else Fraction(0)
        for j in range(1, min(n, len(d) - 1) + 1):
            v -= d[j] * out[n - j]
        out.append(v / d[0])
    return out


# --- linear system solving ---


class SystemSolution(NamedTuple):
    solutions: list[RationalFunction]
    det: Poly


def _pack(cs: Sequence[int], bits: int) -> int:
    """Pack integer coefficients as balanced base-2^bits digits of one int."""
    if not cs:
        return 0
    nbytes = bits // 8
    buf = bytearray(nbytes * len(cs))
    mask = (1 << bits) - 1
    carry = 0
    for idx, c in enumerate(cs):
        v = c + carry
        low = v & mask
        carry = (v - low) >> bits
        buf[idx * nbytes : (idx + 1) * nbytes] = low.to_bytes(nbytes, "little")
    out = int.from_bytes(buf, "little")
    if carry:
        out += carry << (bits * len(cs))
    return out


def _unpack(v: int, bits: int) -> list[int]:
    """Inverse of _pack, valid while every digit stays below 2^(bits-1)."""
    if v == 0:
        return []
    neg = v < 0
    if neg:
        v = -v
    nbytes = bits // 8
    ndigits = (v.bit_length() + 7) // 8 // nbytes + 2
    raw = v.to_bytes(ndigits * nbytes, "little")
    half = 1 << (bits - 1)
    full = 1 << bits
    out: list[int] = []
    carry = 0
    for idx in range(ndigits):
        c = int.from_bytes(raw[idx * nbytes : (idx + 1) * nbytes], "little") + carry
        if c >= half:
            c -= full
            carry = 1
        else:
            carry = 0
        out.append(c)
    if carry:
        raise InternalConsistencyError("digit carry escaped the packed integer")
    while out and out[-1] == 0:
        out.pop()
    if neg:
        out = [-c for c in out]
    return out


def _ieval(cs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def solve_linear_system(
    matrix: Sequence[Sequence[Poly]],
    rhs: Sequence[Poly],
    max_degree: int | None = None,
) -> SystemSolution:
    """Solve matrix * x = rhs exactly over rational functions.

    Returns the solution vector together with det(matrix). Fraction-free
    Bareiss elimination over the polynomial entries; the determinant is the
    final pivot. `max_degree` is a consistency guard: when the caller knows a
    Cramer bound on the degrees of the determinant and the solution
    numerators, exceeding it raises InternalConsistencyError instead of
    silently returning wrong algebra.

    >>> s = solve_linear_system([[Poly([1, -1]), Poly([0, -2])],
    ...                          [Poly([0, -2]), Poly([1, -1])]],
    ...                         [Poly.one(), Poly.zero()])
    >>> s.det
    Poly('1-2*t-3*t^2')
    >>> s.solutions[0]
    RationalFunction('(1-t)/(1-2*t-3*t^2)')
    """
    k = len(matrix)
    if k == 0:
        raise DimensionMismatchError("empty system")
    if any(len(row) != k for row in matrix):
        raise DimensionMismatchError("matrix is not square")
    if len(rhs) != k:
        raise DimensionMismatchError("right-hand side length does not match the matrix")

    dens = [c.denominator for row in matrix for e in row for c in e.coeffs]
    dens += [c.denominator for e in rhs for c in e.coeffs]
    lcm_den = math.lcm(*dens) if dens else 1

    aug = [
        [_int_coeffs(e, lcm_den) for e in row] + [_int_coeffs(rhs[r], lcm_den)]
        for r, row in enumerate(matrix)
    ]

    # Digit width: every entry the elimination or back substitution ever
    # produces is (up to sign) a minor of this augmented matrix, whose
    # coefficient 1-norm is bounded by the product of row 1-norms. Before an
    # exact division two such minors get multiplied and accumulated over at
    # most k+1 convolution terms, hence the doubled bound below.
    row_norm_product = 1
    max_deg_in = 1
    for row in aug:
        norm = sum(sum(abs(c) for c in e) for e in row)
        row_norm_product *= max(norm, 2)
        for e in row:
            max_deg_in = max(max_deg_in, len(e) - 1)
    conv_len = k * max_deg_in + 2
    bits = 2 * row_norm_product.bit_length() + conv_len.bit_length() + (k + 2).bit_length() + 8
    bits = (bits + 7) // 8 * 8

    packed = [[_pack(e, bits) for e in row] for row in aug]

    sign = 1
    prev = 1
    for i in range(k):
        if packed[i][i] == 0:
            for j in range(i + 1, k):
                if packed[j][i] != 0:
                    packed[i], packed[j] = packed[j], packed[i]
                    sign = -sign
                    break
            else:
                raise SingularMatrixError("matrix determinant is zero")
        piv = packed[i][i]
        row_i = packed[i]
        for r in range(i + 1, k):
            row_r = packed[r]
            t = row_r[i]
            for c in range(i + 1, k + 1):
                q, rem = divmod(row_r[c] * piv - t * row_i[c], prev)
                if rem:
                    raise InternalConsistencyError("Bareiss division was not exact")
                row_r[c] = q
            row_r[i] = 0
        prev = piv

    det_packed = packed[k - 1][k - 1]
    # Back substitution in the fraction-free frame: every solution is
    # numerator/det with a polynomial numerator, so each division is exact.
    nsol: list[int] = [0] * k
    nsol[k - 1] = packed[k - 1][k]
    for i in range(k - 2, -1, -1):
        acc = det_packed * packed[i][k]
        row_i = packed[i]
        for j in range(i + 1, k):
            acc -= row_i[j] * nsol[j]
        q, rem = divmod(acc, row_i[i])
        if rem:
            raise InternalConsistencyError("back substitution division was not exact")
        nsol[i] = q

    den_int = _unpack(det_packed, bits)
    num_ints = [_unpack(v, bits) for v in nsol]

    if max_degree is not None:
        if len(den_int) - 1 > max_degree:
            raise InternalConsistencyError(
                f"determinant degree {len(den_int) - 1} exceeds the cap {max_degree}"
            )
        for nc in num_ints:
            if len(nc) - 1 > max_degree:
                raise InternalConsistencyError(
                    f"solution numerator degree {len(nc) - 1} exceeds the cap {max_degree}"
                )

    _verify_at_point(aug, num_ints, den_int)

    scale = Fraction(sign, lcm_den**k)
    det_poly = Poly([c * scale for c in den_int])
    return SystemSolution([_reduce_int_pair(nc, den_int) for nc in num_ints], det_poly)


def _reduce_int_pair(num: list[int], den: list[int]) -> RationalFunction:
    """num/den over the integers -> canonical reduced RationalFunction."""
    if not num:
        return RationalFunction._reduced_unchecked(Poly.zero(), Poly.one())
    if min(len(num), len(den)) > 1 and not _coprime_mod_cert(num, den):
        g = _int_gcd(num, den)
        if len(g) > 1:
            num = _int_exact_div(num, g)
            den = _int_exact_div(den, g)
    return RationalFunction._reduced_unchecked(Poly(num), Poly(den))


def _check_point(key: str, den: Sequence[int]) -> int:
    """Integer check point t0 >= 2^61, derived from SHA-256 of key.

    The point is deterministic, so runs are reproducible, yet it is no small
    integer: an error polynomial that vanishes at t = 1 or another small
    value still shows. t0 steps past any root of den.
    """
    digest = hashlib.sha256(key.encode()).digest()
    t0 = (1 << 61) + int.from_bytes(digest[:8], "big")
    while _ieval(den, t0) == 0:
        t0 += 1
    return t0


def _verify_at_point(
    aug: Sequence[Sequence[list[int]]],
    num_ints: Sequence[list[int]],
    den_int: Sequence[int],
) -> None:
    """Exact integer check M(t0) * n(t0) == rhs(t0) * det(t0).

    aug holds the integer rows [M | rhs]; t0 comes from a hash of them.
    """
    k = len(aug)
    t0 = _check_point(repr(aug), den_int)
    dv = _ieval(den_int, t0)
    nv = [_ieval(nc, t0) for nc in num_ints]
    for row in aug:
        lhs = sum(_ieval(row[j], t0) * nv[j] for j in range(k))
        if lhs != _ieval(row[k], t0) * dv:
            raise InternalConsistencyError("solved system failed the point check")
