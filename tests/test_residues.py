"""Residue-class sums: brute-force oracle, generating functions, recurrences.

The structural invariants checked on random inputs:
  - series of f_a == brute-force residue sums, every class
  - sum over a of f_a == 1/(1 - P(1) t) (or the constant 1 when P(1) == 0)
  - Cramer bounds: deg common_den <= k, deg num <= k-1 before reduction
  - every reduced denominator divides common_den
  - symmetric P: the mirrored classes share one object, and both entry
    points match the brute-force sums
  - recurrence_of reproduces the sums from initial values alone
  - the circulant solver agrees with general Bareiss elimination on the
    explicitly built transfer matrix
"""

import random
from fractions import Fraction

import pytest

import modgf.residues
from modgf.errors import (
    DomainError,
    InternalConsistencyError,
    NotSymmetricError,
    ParseError,
)
from modgf.laurent import TRINOMIAL, LaurentPoly, parse_laurent
from modgf.ratfun import Poly, RationalFunction, solve_linear_system
from modgf.residues import (
    ResidueSolution,
    fold_residues,
    recurrence_of,
    residue_gfs,
    residue_gfs_symmetric,
    residue_sum,
)

from _oracles import random_laurent, residue_table


def test_fold_residues_hand_values():
    p = parse_laurent("x^-3+2*x^-1+3+5*x^2")
    # exponents mod 2: -3 -> 1, -1 -> 1, 0 -> 0, 2 -> 0
    assert fold_residues(p, 2) == [3 + 5, 1 + 2]
    # exponents mod 5: -3 -> 2, -1 -> 4, 0 -> 0, 2 -> 2
    assert fold_residues(p, 5) == [3, 0, 5 + 1, 0, 2]
    with pytest.raises(DomainError):
        fold_residues(p, 0)


def test_fold_residues_floored_negative_exponents():
    p = LaurentPoly(-3, [1])
    assert fold_residues(p, 5) == [0, 0, 1, 0, 0]


def test_residue_sum_trinomial_values():
    # k=1 folds everything: 3^n
    assert [residue_sum(TRINOMIAL, 1, 0, n) for n in range(6)] == [1, 3, 9, 27, 81, 243]
    assert residue_sum(TRINOMIAL, 2, 0, 3) == 13
    assert residue_sum(TRINOMIAL, 2, 1, 3) == 14
    assert residue_sum(TRINOMIAL, 10, 0, 4) == 19
    assert residue_sum(TRINOMIAL, 10, 1, 4) == 16


def test_residue_sum_parameter_checks():
    with pytest.raises(DomainError):
        residue_sum(TRINOMIAL, 0, 0, 1)
    with pytest.raises(DomainError):
        residue_sum(TRINOMIAL, 3, 3, 1)
    with pytest.raises(DomainError):
        residue_sum(TRINOMIAL, 3, -1, 1)
    with pytest.raises(DomainError):
        residue_sum(TRINOMIAL, 3, 0, -1)


def test_residue_gfs_trinomial_k1():
    sol = residue_gfs(TRINOMIAL, 1)
    assert sol.common_den == Poly([1, -3])
    assert sol.gfs == [RationalFunction(Poly([1]), Poly([1, -3]))]


def test_residue_gfs_trinomial_k2():
    sol = residue_gfs(TRINOMIAL, 2)
    assert sol.k == 2
    assert sol.symmetric
    assert sol.common_den == Poly([1, -2, -3])
    assert sol.gfs[0] == RationalFunction(Poly([1, -1]), Poly([1, -2, -3]))
    assert sol.gfs[1] == RationalFunction(Poly([0, 2]), Poly([1, -2, -3]))
    # closed form by the parity split: A(n,2,0) = (3^n + (-1)^n) / 2
    series = sol.gfs[0].series(20)
    for n in range(21):
        assert series[n] == Fraction(3**n + (-1) ** n, 2)


def test_residue_gfs_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        residue_gfs(LaurentPoly.zero(), 3)
    with pytest.raises(DomainError):
        residue_gfs(TRINOMIAL, 0)


def test_residue_gfs_degenerate_binomial():
    # P = 1 + x vanishes at x = -1, the primitive square root of unity,
    # so the common denominator degree drops below k
    sol = residue_gfs(parse_laurent("1+x"), 2)
    assert sol.common_den == Poly([1, -2])
    assert sol.common_den.deg() == 1
    assert sol.gfs[0].series(5) == [1, 1, 2, 4, 8, 16]
    assert sol.gfs[1].series(5) == [0, 1, 2, 4, 8, 16]


def test_residue_gfs_transient_class():
    # P = x - x^5 mod 4: both exponents sit in class 1 and cancel, so the
    # folded transfer matrix is zero and every sum vanishes past n = 0
    sol = residue_gfs(parse_laurent("x-x^5"), 4)
    assert sol.common_den == Poly.one()
    assert sol.gfs[0].series(4) == [1, 0, 0, 0, 0]
    for a in range(1, 4):
        assert sol.gfs[a].is_zero()
    # cross-check one row against direct expansion: P^2 = x^2 - 2x^6 + x^10
    assert residue_sum(parse_laurent("x-x^5"), 4, 2, 2) == 0


def test_common_den_constant_term_one():
    rng = random.Random(701)
    for _ in range(20):
        p = random_laurent(rng)
        k = rng.randint(1, 8)
        sol = residue_gfs(p, k)
        assert sol.common_den.constant() == 1
        assert sol.common_den.deg() <= k
        for f in sol.gfs:
            assert f.num.deg() <= k - 1 or f.is_zero()
            assert f.den.deg() <= sol.common_den.deg()
            # reduced denominator divides the common one
            assert sol.common_den.exact_div(f.den) * f.den == sol.common_den


def test_series_matches_brute_force():
    rng = random.Random(702)
    for _ in range(15):
        p = random_laurent(rng)
        k = rng.randint(1, 8)
        n_last = 14
        table = residue_table(p, k, n_last)
        sol = residue_gfs(p, k)
        for a in range(k):
            series = sol.gfs[a].series(n_last)
            assert series == [table[n][a] for n in range(n_last + 1)]


def test_partition_of_total_coefficient_sum():
    rng = random.Random(703)
    for _ in range(15):
        p = random_laurent(rng)
        k = rng.randint(1, 8)
        sol = residue_gfs(p, k)
        total = RationalFunction(Poly.zero(), Poly.one())
        for f in sol.gfs:
            total = total + f
        p1 = p.eval_at(1)
        if p1 == 0:
            assert total == RationalFunction(Poly.one(), Poly.one())
        else:
            assert total == RationalFunction(Poly.one(), Poly([1, -p1]))


def test_shift_identity():
    # A(n, k, a) = sum_i c_i A(n-1, k, (a-i) mod k)
    rng = random.Random(704)
    for _ in range(10):
        p = random_laurent(rng)
        k = rng.randint(2, 7)
        table = residue_table(p, k, 12)
        for n in range(1, 13):
            for a in range(k):
                want = sum(
                    (p.coeff(i) * table[n - 1][(a - i) % k] for i in p.support()),
                    Fraction(0),
                )
                assert table[n][a] == want


def test_symmetric_path_equals_general_path():
    rng = random.Random(705)
    cases = 0
    while cases < 12:
        p = random_laurent(rng)
        sym = p + LaurentPoly(-p.max_exp, tuple(reversed(p.coeffs)))
        if sym.is_zero():
            continue
        assert sym.is_symmetric()
        k = rng.randint(1, 9)
        a_sol = residue_gfs(sym, k)
        s_sol = residue_gfs_symmetric(sym, k)
        assert a_sol.gfs == s_sol.gfs
        assert a_sol.common_den == s_sol.common_den
        # residue_gfs mirrors symmetric P itself, so check it against the
        # brute-force sums too, not only against residue_gfs_symmetric
        table = residue_table(sym, k, 2 * k + 2)
        for a in range(k):
            assert a_sol.gfs[a].series(2 * k + 2) == [row[a] for row in table]
            assert a_sol.gfs[a] is a_sol.gfs[(k - a) % k]
        cases += 1


def test_symmetric_path_mirror_sharing():
    sol = residue_gfs_symmetric(TRINOMIAL, 10)
    for a in range(1, 10):
        assert sol.gfs[a] == sol.gfs[10 - a]
    # mirrored entries are the same reduced object, not re-reduced copies
    assert sol.gfs[1] is sol.gfs[9]


def test_symmetric_path_rejects_lopsided():
    with pytest.raises(NotSymmetricError):
        residue_gfs_symmetric(parse_laurent("1+x"), 2)


def test_trinomial_k10_structure():
    sol = residue_gfs(TRINOMIAL, 10)
    assert sol.common_den.deg() == 10
    assert len(set(sol.gfs)) == 6
    assert sol.symmetric


def test_recurrence_of_trinomial_k2():
    sol = residue_gfs(TRINOMIAL, 2)
    rec = recurrence_of(sol)
    assert rec.order == 2
    assert rec.rec_coeffs == (2, 3)
    assert rec.initials == (1, 1)
    rec1 = recurrence_of(sol, 1)
    assert rec1.rec_coeffs == (2, 3)
    assert rec1.initials == (0, 2)


def test_recurrence_of_padded_for_transients():
    sol = residue_gfs(parse_laurent("1+x"), 2)
    rec = recurrence_of(sol, 0)
    assert rec.rec_coeffs == (2, 0)
    assert rec.extend(6) == [1, 1, 2, 4, 8, 16, 32]
    # trinomial mod 3: A(n,3,0) = 1, 1, 3, 9, 27, ... needs the zero pad too
    sol = residue_gfs(TRINOMIAL, 3)
    assert sol.common_den == Poly([1, -3])
    rec = recurrence_of(sol, 0)
    assert rec.rec_coeffs == (3, 0)
    assert rec.extend(6) == [1, 1, 3, 9, 27, 81, 243]
    # all-zero fold: order stays 1 and the constants reproduce
    sol = residue_gfs(parse_laurent("x-x^5"), 4)
    rec = recurrence_of(sol, 0)
    assert rec.extend(5) == [1, 0, 0, 0, 0, 0]
    rec2 = recurrence_of(sol, 2)
    assert rec2.extend(5) == [0, 0, 0, 0, 0, 0]


def test_recurrence_of_reproduces_brute_force():
    rng = random.Random(706)
    for _ in range(10):
        p = random_laurent(rng)
        k = rng.randint(1, 6)
        sol = residue_gfs(p, k)
        table = residue_table(p, k, 3 * k)
        for a in range(k):
            rec = recurrence_of(sol, a)
            assert rec.order <= k
            assert rec.extend(3 * k) == [table[n][a] for n in range(3 * k + 1)]
    with pytest.raises(DomainError):
        recurrence_of(residue_gfs(TRINOMIAL, 2), 2)


def test_rec_coeffs_shared_across_classes():
    rng = random.Random(707)
    p = random_laurent(rng)
    k = 5
    sol = residue_gfs(p, k)
    recs = [recurrence_of(sol, a) for a in range(k)]
    assert len({r.rec_coeffs for r in recs}) == 1
    assert len({r.order for r in recs}) == 1


def test_solution_json_round_trip():
    sol = residue_gfs(TRINOMIAL, 4)
    data = sol.to_json_dict()
    assert list(data) == ["P", "k", "common_den", "common_den_degree", "gfs", "symmetric"]
    assert data["common_den_degree"] == sol.common_den.deg()
    back = ResidueSolution.from_json_dict(data)
    assert back.p == sol.p
    assert back.k == sol.k
    assert back.common_den == sol.common_den
    assert back.gfs == sol.gfs
    assert back.symmetric == sol.symmetric
    with pytest.raises(ParseError):
        ResidueSolution.from_json_dict({"P": sol.p.to_json_dict(), "k": 4})


def test_fractional_coefficients_supported():
    p = parse_laurent("1/3*x^-1+1/3+1/3*x")
    sol = residue_gfs(p, 2)
    assert sol.common_den.constant() == 1
    table = residue_table(p, 2, 10)
    for a in range(2):
        assert sol.gfs[a].series(10) == [table[n][a] for n in range(11)]


def _rational_laurent(rng):
    """random_laurent's shape with rational coefficients and exponents down to -5."""
    while True:
        width = rng.randint(1, 6)
        lo = rng.randint(-5, 3)
        cs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 4))) for _ in range(width)]
        if any(cs):
            return LaurentPoly(lo, cs)


def _bareiss_family(p, k):
    """common_den and gfs from general elimination on (I - tM) f = e_0."""
    folded = residue_table(p, k, 1)[1]
    matrix = [
        [Poly([int(a == b), -folded[(a - b) % k]]) for b in range(k)] for a in range(k)
    ]
    rhs = [Poly.one()] + [Poly.zero()] * (k - 1)
    solved = solve_linear_system(matrix, rhs, max_degree=k)
    return solved.det.scale(1 / solved.det.constant()), solved.solutions


def test_circulant_solver_matches_bareiss_oracle():
    rng = random.Random(708)
    cases = [(_rational_laurent(rng), rng.randint(1, 12)) for _ in range(25)]
    cases += [
        (parse_laurent("1+x"), 2),
        (parse_laurent("1+x"), 6),
        (parse_laurent("x-x^5"), 4),
    ]
    for p, k in cases:
        sol = residue_gfs(p, k)
        common_den, gfs = _bareiss_family(p, k)
        assert sol.common_den == common_den, (p, k)
        assert sol.gfs == gfs, (p, k)
    # the degenerate cases really are degenerate: deg det < k, zero fold
    assert residue_gfs(parse_laurent("1+x"), 6).common_den.deg() < 6
    assert residue_gfs(parse_laurent("x-x^5"), 4).common_den == Poly.one()


def test_point_check_catches_error_vanishing_at_one(monkeypatch):
    # An error that is a multiple of (t - 1) leaves the residual zero at
    # t = 1, so a check point of 1 would let it through. Integer P keeps the
    # t -> t/D rescaling out of the way (D = 1).
    solve = modgf.residues._circulant_family

    def perturbed(q, classes):
        det, nums = solve(q, classes)
        bad = list(nums[1]) + [0] * (2 - len(nums[1]))
        bad[0] -= 7
        bad[1] += 7
        return det, [nums[0], bad] + nums[2:]

    monkeypatch.setattr(modgf.residues, "_circulant_family", perturbed)
    with pytest.raises(InternalConsistencyError):
        residue_gfs(parse_laurent("2*x^-1-1+x^3"), 5)
    with pytest.raises(InternalConsistencyError):
        residue_gfs_symmetric(TRINOMIAL, 4)


@pytest.mark.parametrize(
    "change",
    [
        {"k": "4"},
        {"k": 4.0},
        {"k": True},
        {"k": 0},
        {"k": 5},
        {"k": 3},
        {"gfs": "abc"},
        {"symmetric": "false"},
        {"symmetric": 1},
        {"symmetric": None},
    ],
)
def test_solution_json_loader_is_strict(change, monkeypatch):
    data = residue_gfs(TRINOMIAL, 4).to_json_dict()
    data.update(change)

    def no_build(*args):
        raise AssertionError("a RationalFunction was built before validation")

    monkeypatch.setattr(RationalFunction, "from_json_dict", no_build)
    with pytest.raises(ParseError):
        ResidueSolution.from_json_dict(data)
