"""Brute-force reference computations shared by the test modules.

Everything here goes through direct polynomial expansion only: no generating
functions, no linear algebra. The folding is done with plain dict/list
arithmetic so the oracle does not share code with the paths under test.
"""

from __future__ import annotations

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
