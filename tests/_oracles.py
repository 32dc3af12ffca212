"""Brute-force reference computations shared by the test modules.

Everything here goes through direct polynomial expansion only: no generating
functions, no linear algebra. The folding is done with plain dict/list
arithmetic so the oracle does not share code with the paths under test. The
integer gcd oracle is the subresultant polynomial remainder sequence, which
shares nothing with the package's multi-modular gcd.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from modgf.laurent import LaurentPoly


def schoolbook_mul(
    a: dict[int, Fraction], b: dict[int, Fraction]
) -> dict[int, Fraction]:
    """Product of two {exponent: coefficient} maps, term by term in Fractions."""
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return out


def power_rows(p: LaurentPoly, n_last: int) -> list[LaurentPoly]:
    """[p**0, p**1, ..., p**n_last] built incrementally by schoolbook_mul.

    Neither LaurentPoly.__mul__ nor __pow__ is used, so the rows stay an
    oracle for both.
    """
    base = {e: p.coeff(e) for e in p.support()}
    row = {0: Fraction(1)}
    rows = [LaurentPoly.one()]
    for _ in range(n_last):
        row = schoolbook_mul(row, base)
        rows.append(LaurentPoly.from_coeff_map(row))
    return rows


def fold_row(row: LaurentPoly, k: int) -> list[Fraction]:
    """Coefficient sums of one polynomial grouped by exponent residue mod k."""
    sums = [Fraction(0)] * k
    for off, c in enumerate(row.coeffs):
        sums[(row.min_exp + off) % k] += c
    return sums


def residue_table(p: LaurentPoly, k: int, n_last: int) -> list[list[Fraction]]:
    """residue_table(p, k, N)[n][a] == sum of coeff(p**n, j) over j = a mod k."""
    return [fold_row(r, k) for r in power_rows(p, n_last)]


def central_coefficients(n_last: int) -> list[Fraction]:
    """Constant coefficients of (x^-1 + 1 + x)**n for n = 0 .. n_last."""
    tri = LaurentPoly(-1, (1, 1, 1))
    return [row.coeff(0) for row in power_rows(tri, n_last)]


def random_laurent(
    rng: random.Random, max_width: int = 6, coeff_bound: int = 3
) -> LaurentPoly:
    """Nonzero integer-coefficient Laurent polynomial, support width <= max_width."""
    while True:
        width = rng.randint(1, max_width)
        lo = rng.randint(-4, 3)
        cs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(width)]
        if any(cs):
            return LaurentPoly(lo, cs)


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b.

    Steps whose top coefficient is already zero skip the multiplication by
    lc(b), so the missing powers are restored at the end; the subresultant
    divisors assume exactly the classical power.
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
        _trim(r)
    if r and steps < full_steps:
        m = lb ** (full_steps - steps)
        r = [m * c for c in r]
    return r


def int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient, by the subresultant PRS.

    Integer polynomials are ascending lists of ints. No modular arithmetic,
    so it is an independent oracle for the package's multi-modular gcd.
    """
    a = _trim(list(a))
    b = _trim(list(b))
    a = _primitive(a) if a else a
    b = _primitive(b) if b else b
    if not a:
        return b if not b or b[-1] > 0 else [-c for c in b]
    if not b:
        return a if a[-1] > 0 else [-c for c in a]
    if len(a) < len(b):
        a, b = b, a
    g = 1
    h = 1
    while True:
        delta = len(a) - len(b)
        r = int_prem(a, b)
        if not r:
            break
        if len(r) == 1:
            return [1]
        divisor = g * h**delta
        nxt = []
        for c in r:
            q, rem = divmod(c, divisor)
            assert rem == 0, "subresultant division was not exact"
            nxt.append(q)
        a, b = b, nxt
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            q, rem = divmod(g**delta, h ** (delta - 1))
            assert rem == 0, "subresultant h-update was not exact"
            h = q
    out = _primitive(b)
    return out if out[-1] > 0 else [-c for c in out]
