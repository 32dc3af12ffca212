"""Dense univariate polynomials and reduced rational functions in t.

Poly stores coefficients ascending from t^0 over exact rationals, trailing
zeros trimmed; the zero polynomial is the empty tuple and has degree -1.
RationalFunction is always stored reduced (coprime num/den) and normalized:
den(0) == 1 when the denominator does not vanish at 0, otherwise den monic.

All reduction goes through one integer gcd, _modular_gcd: Brown's
multi-modular algorithm over primes above 2^59, whose answer is certified by
exact trial division of both operands (the quotients are the reduced pair),
and whose loop is bounded by a prime count derived from the Hadamard and
Landau-Mignotte bounds. A constant gcd modulo one prime that keeps both
leading coefficients proves coprimality at once.

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


def _int_primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


# Primes for the modular gcd: three fixed ones first (2^61 - 1 and the primes
# next to 10^18), then more on demand, descending from 2^62. Every one
# exceeds 2^59, which the prime-count bound of _modular_gcd relies on.
_CERT_PRIMES = ((1 << 61) - 1, 1000000000000000009, 999999999999999989)
_PRIME_BITS = 59
_gcd_primes = list(_CERT_PRIMES)

# Miller-Rabin with these bases is exact for every n < 3.18 * 10^23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gcd_prime(i: int) -> int:
    """The i-th prime the modular gcd tries; deterministic and cached."""
    while len(_gcd_primes) <= i:
        n = _gcd_primes[-1] - 1 if len(_gcd_primes) > len(_CERT_PRIMES) else 1 << 62
        while not _is_prime(n):
            n -= 1
        _gcd_primes.append(n)
    return _gcd_primes[i]


def _mod_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over GF(p); coefficients in [0, p), b[-1] != 0."""
    inv = pow(b[-1], -1, p)
    r = list(a)
    db = len(b) - 1
    while len(r) > db:
        top = r.pop()
        if top:
            f = top * inv % p
            off = len(r) - db
            r[off:] = [(x - f * y) % p for x, y in zip(r[off:], b)]
    return _itrim(r)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of a and b, given reduced mod p and nonzero."""
    while b:
        a, b = b, _mod_rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _exact_quotient(a: list[int], g: list[int]) -> list[int] | None:
    """a / g when g divides a over the integers, otherwise None."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(a)
    q = [0] * (len(a) - dg)
    for pos in range(len(q) - 1, -1, -1):
        f, rem = divmod(r[pos + dg], lg)
        if rem:
            return None
        q[pos] = f
        if f:
            r[pos : pos + dg] = [x - f * y for x, y in zip(r[pos : pos + dg], g)]
    if any(r[:dg]):
        return None
    return q


def _modular_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) for nonzero integer polynomials a and b.

    g is the primitive gcd with positive leading coefficient. Brown's
    multi-modular algorithm (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 6.7): for each prime p dividing neither leading
    coefficient, the monic gcd of a and b mod p has degree >= deg g, so a
    constant one proves a and b coprime. Otherwise the images, scaled by
    gamma = gcd(lc a, lc b), are combined by CRT. A higher-degree image comes
    from an unlucky prime and is dropped; a lower-degree one restarts the
    CRT. After each prime the symmetric lift's primitive part is
    trial-divided into a and b, and once it divides both it is the gcd: it
    divides g and its degree is at least deg g.

    At most (bits of the leading coefficients + Hadamard bound on the
    subresultants + Landau-Mignotte bound on the lifted gcd) / 59 primes can
    be needed; past that count the loop raises InternalConsistencyError.
    """
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    gamma = math.gcd(a[-1], b[-1])
    na = sum(c * c for c in a).bit_length() // 2 + 1  # log2 of the 2-norms
    nb = sum(c * c for c in b).bit_length() // 2 + 1
    da, db = len(a) - 1, len(b) - 1
    skipped_bits = a[-1].bit_length() + b[-1].bit_length()
    unlucky_bits = db * na + da * nb
    lift_bits = gamma.bit_length() + min(da + na, db + nb) + 1
    limit = (skipped_bits + unlucky_bits + lift_bits) // _PRIME_BITS + 3

    deg = len(a) + len(b)  # above any image degree
    image: list[int] = []
    modulus = 1
    for i in range(limit):
        p = _gcd_prime(i)
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        g = _gcd_mod([c % p for c in a], [c % p for c in b], p)
        if len(g) == 1:
            return [1], a, b
        if len(g) > deg:
            continue
        gp = gamma % p
        g = [c * gp % p for c in g]
        if len(g) < deg:
            deg, image, modulus = len(g), g, p
        else:
            inv = pow(modulus, -1, p)
            image = [
                h + modulus * ((c - h) * inv % p) for h, c in zip(image, g)
            ]
            modulus *= p
        half = modulus // 2
        cand = _int_primitive([h - modulus if h > half else h for h in image])
        if cand[-1] < 0:
            cand = [-c for c in cand]
        qa = _exact_quotient(a, cand)
        if qa is None:
            continue
        qb = _exact_quotient(b, cand)
        if qb is not None:
            return cand, qa, qb
    raise InternalConsistencyError(f"modular gcd found no divisor within {limit} primes")


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
    return Poly(_modular_gcd(ia, ib)[0]).monic()


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
    _, num, den = _modular_gcd(num, den)
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
