"""Independent oracle for the benchmark: plain int/Fraction, no modgf import.

Every check here recomputes what modgf returns by a different route:

* residue-class sums A(n, k, a) by cyclic convolution of the folded P in
  Z[x]/(x^k - 1), after clearing P's denominators;
* single coefficients of P^n by Kronecker substitution and big-int pow;
* reducedness of a returned fraction by a gcd modulo large primes.

A generating-function family is accepted only when num_a = den_a * S_a
(mod t^(2k+1)) for every class a, where S_a is the oracle's series. Both
sides have numerator and denominator degree <= k (Cramer's bound for the
true family), so agreement to order 2k proves equality instead of sampling it.

Polynomials are dicts {exponent: Fraction} (Laurent, in x) or coefficient
lists, constant term first (in t).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_PRIMES = ((1 << 61) - 1, 1000000000000000009, 999999999999999989)


# --- Laurent polynomials as {exponent: Fraction} ---


def clean(terms: dict[int, Fraction]) -> dict[int, Fraction]:
    return {e: Fraction(c) for e, c in terms.items() if c != 0}


def is_symmetric(terms: dict[int, Fraction]) -> bool:
    t = clean(terms)
    return all(t.get(-e, 0) == c for e, c in t.items())


def cleared(terms: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """(integer terms, D) with terms = integer terms / D."""
    t = clean(terms)
    d = math.lcm(*(c.denominator for c in t.values())) if t else 1
    return {e: int(c * d) for e, c in t.items()}, d


def laurent_text(terms: dict[int, Fraction]) -> str:
    """Render like "x^-1+1+x" or "1/2*x^-2-2/3*x^3"; parse_text reads it back."""
    parts = []
    for e in sorted(clean(terms)):
        c = terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xpart = "x" if e == 1 else f"x^{e}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*)?(?:([xt])(?:\^(-?\d+))?)?")


def parse_text(text: str) -> dict[int, Fraction]:
    """Parse the rendering of a polynomial in x or t into {exponent: Fraction}."""
    out: dict[int, Fraction] = {}
    pos = 0
    if text == "0":
        return out
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or (pos > 0 and not m.group(1)):
            raise ValueError(f"cannot parse polynomial text {text!r} at {pos}")
        sign, coeff, star, var, exp = m.groups()
        if coeff is None and var is None or star and var is None:
            raise ValueError(f"cannot parse polynomial text {text!r} at {pos}")
        c = Fraction(coeff) if coeff else Fraction(1)
        e = (int(exp) if exp else 1) if var else 0
        out[e] = out.get(e, Fraction(0)) + (-c if sign == "-" else c)
        pos = m.end()
    return clean(out)


def as_list(terms: dict[int, Fraction]) -> list[Fraction]:
    """Dense coefficient list of a polynomial with no negative exponents."""
    t = clean(terms)
    if not t:
        return []
    if min(t) < 0:
        raise ValueError("negative exponent in a polynomial in t")
    return [t.get(i, Fraction(0)) for i in range(max(t) + 1)]


def parse_ratfun(text: str) -> tuple[list[Fraction], list[Fraction]]:
    """"(num)/(den)", "num/(den)" or "num" -> (num, den) coefficient lists."""
    cut = text.find("/(")
    if cut < 0:
        return as_list(parse_text(text)), [Fraction(1)]
    if not text.endswith(")"):
        raise ValueError(f"bad rational function text {text!r}")
    num = text[:cut]
    if num.startswith("(") and num.endswith(")"):
        num = num[1:-1]
    return as_list(parse_text(num)), as_list(parse_text(text[cut + 2 : -1]))


def rat_list(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def trim(cs: list) -> list:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


# --- residue-class sums by cyclic convolution ---


def folded_powers(terms: dict[int, Fraction], k: int, n_last: int) -> tuple[list[list[int]], int]:
    """(B, D): B[n][a] = D^n * A(n, k, a) for n = 0..n_last, all integers."""
    ints, d = cleared(terms)
    w = [0] * k
    for e, c in ints.items():
        w[e % k] += c
    taps = [(r, c) for r, c in enumerate(w) if c]
    row = [0] * k
    row[0] = 1
    rows = [row]
    for _ in range(n_last):
        nxt = [0] * k
        for r, c in taps:
            for b, v in enumerate(row):
                if v:
                    nxt[(b + r) % k] += c * v
        row = nxt
        rows.append(row)
    return rows, d


def class_values(terms: dict[int, Fraction], k: int, a: int, n_last: int) -> list[Fraction]:
    rows, d = folded_powers(terms, k, n_last)
    return [Fraction(rows[n][a], d**n) for n in range(n_last + 1)]


def _lcm_cleared(*polys: list[Fraction]) -> list[list[int]]:
    lcm = math.lcm(*(c.denominator for p in polys for c in p)) if any(polys) else 1
    return [[int(c * lcm) for c in p] for p in polys]


def _times_series(den: list[int], rows: list[list[int]], a: int, d: int, n: int) -> int:
    """D^n * coefficient of t^n in den(t) * S_a(t), given rows = D^m * A(m)."""
    return sum(den[j] * d**j * rows[n - j][a] for j in range(min(n, len(den) - 1) + 1))


def modular_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over Q, through a prime keeping both leading terms.

    Reduction mod p can only raise the gcd degree, so the smallest degree
    seen over a few primes that keep both degrees is the true one unless
    every prime was unlucky.
    """
    best = None
    for p in _PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        x, y = [c % p for c in a], [c % p for c in b]
        while trim(y):
            y = trim(y)
            inv = pow(y[-1], -1, p)
            x = trim(x)
            while len(x) >= len(y):
                f = x[-1] * inv % p
                off = len(x) - len(y)
                for i, c in enumerate(y):
                    x[off + i] = (x[off + i] - f * c) % p
                x = trim(x)
            x, y = y, x
        g = len(trim(x)) - 1
        best = g if best is None else min(best, g)
        if best == 0:
            break
    if best is None:
        raise ValueError("no usable prime for the coprimality check")
    return best


def check_family(
    terms: dict[int, Fraction],
    k: int,
    common_den: list[Fraction],
    gfs: list[tuple[list[Fraction], list[Fraction]]],
    mirrored: bool = False,
) -> tuple[list[str], int]:
    """Errors in a residue generating-function family, and its gcd degree sum.

    The gcd degree of class a is deg(common_den) - deg(den_a): the degree of
    the factor the reduction cancelled from the unreduced pair. A mirrored
    family (from the symmetric path) copies class k - a into each class
    a > k // 2 without reducing it again; those copies are checked but left
    out of the sum.
    """
    errs: list[str] = []
    common_den = trim(common_den)
    if len(gfs) != k:
        return [f"expected {k} classes, got {len(gfs)}"], 0
    if not common_den or common_den[0] != 1 or len(common_den) - 1 > k:
        return [f"common_den {common_den} is not 1 + O(t) of degree <= {k}"], 0
    rows, d = folded_powers(terms, k, 2 * k)
    (cden,) = _lcm_cleared(common_den)
    gcd_sum = 0
    for a, (num, den) in enumerate(gfs):
        num, den = trim(num), trim(den)
        if not den or den[0] != 1 or len(num) - 1 > k or len(den) - 1 > k:
            errs.append(f"class {a}: num/den not a normalized pair of degree <= {k}")
            continue
        inum, iden = _lcm_cleared(num, den)
        for n in range(2 * k + 1):
            want = inum[n] * d**n if n < len(inum) else 0
            if _times_series(iden, rows, a, d, n) != want:
                errs.append(f"class {a}: num != den * series at t^{n}")
                break
        for n in range(k + 1, 2 * k + 1):
            if _times_series(cden, rows, a, d, n) != 0:
                errs.append(f"class {a}: common_den * series has a t^{n} term")
                break
        if len(inum) > 1 and len(iden) > 1 and modular_gcd_degree(inum, iden) > 0:
            errs.append(f"class {a}: returned fraction is not reduced")
        if not mirrored or a <= k // 2:
            gcd_sum += len(common_den) - len(den)
    return errs, gcd_sum


# --- single coefficients by Kronecker substitution ---


def power_coeffs(terms: dict[int, Fraction], n: int) -> tuple[dict[int, int], int]:
    """(C, D^n) with coeff(P^n, j) = C[j] / D^n, by one big-int pow."""
    ints, d = cleared(terms)
    lo = min(ints)
    q = [0] * (max(ints) - lo + 1)
    for e, c in ints.items():
        q[e - lo] = c
    bound = sum(abs(c) for c in q) ** n
    bits = (bound.bit_length() + 2 + 7) // 8 * 8
    x = sum(c << (bits * i) for i, c in enumerate(q))
    v = x**n
    neg = v < 0
    raw = (-v if neg else v).to_bytes(((-v if neg else v).bit_length() + 7) // 8 + bits // 8, "little")
    nb = bits // 8
    half, full = 1 << (bits - 1), 1 << bits
    out: dict[int, int] = {}
    carry = 0
    for i in range(n * (len(q) - 1) + 1):
        c = int.from_bytes(raw[i * nb : (i + 1) * nb], "little") + carry
        carry = 1 if c >= half else 0
        c -= full * carry
        if c:
            out[n * lo + i] = -c if neg else c
    return out, d**n


def coeff_of_power(terms: dict[int, Fraction], n: int, j: int) -> Fraction:
    coeffs, scale = power_coeffs(terms, n)
    return Fraction(coeffs.get(j, 0), scale)


def residue_sum(terms: dict[int, Fraction], k: int, a: int, n: int) -> Fraction:
    coeffs, scale = power_coeffs(terms, n)
    return Fraction(sum(c for e, c in coeffs.items() if e % k == a), scale)


# --- tales and the repaired identity ---


def fibonacci(n: int) -> int:
    """F(-1) = 1, F(0) = 0, F(n) = F(n-1) + F(n-2)."""
    prev, cur = 1, 0
    for _ in range(n):
        prev, cur = cur, prev + cur
    return prev if n == -1 else cur


def extend_recurrence(rec_coeffs: list[Fraction], initials: list[Fraction], n_last: int) -> list[Fraction]:
    vals = list(initials[: n_last + 1])
    order = len(rec_coeffs)
    for n in range(order, n_last + 1):
        vals.append(sum(rec_coeffs[j] * vals[n - 1 - j] for j in range(order)))
    return vals


def euler_terms(count: int) -> list[int]:
    """3*c(m) - c(m+1) for central trinomial coefficients c, m = 0..count-1."""
    c = [coeff_of_power({-1: Fraction(1), 0: Fraction(1), 1: Fraction(1)}, m, 0) for m in range(count + 1)]
    return [int(3 * c[m] - c[m + 1]) for m in range(count)]
