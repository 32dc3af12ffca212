"""Laurent polynomial representation, arithmetic, parsing, and serialization."""

import math
import random
from fractions import Fraction

import pytest

import modgf.laurent
from modgf.errors import DomainError, InternalConsistencyError, ParseError
from modgf.laurent import TRINOMIAL, LaurentPoly, parse_laurent

from _oracles import power_rows, random_laurent, schoolbook_mul


def random_rational_laurent(rng: random.Random) -> LaurentPoly:
    """Mixed denominators, interior zeros, negative exponents, monomials."""
    width = rng.choice((1, 1, 2, 3, 4, 5, 6))
    lo = rng.randint(-5, 3)
    cs = [
        Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6, 9)))
        if rng.random() < 0.7
        else Fraction(0)
        for _ in range(width)
    ]
    cs[0] = cs[0] or Fraction(-1, 3)
    cs[-1] = cs[-1] or Fraction(5, 2)
    return LaurentPoly(lo, cs)


def as_map(p: LaurentPoly) -> dict[int, Fraction]:
    return {e: p.coeff(e) for e in p.support()}


def test_canonical_form_trims_zeros():
    p = LaurentPoly(3, [0, 5, 0])
    assert p.min_exp == 4
    assert p.coeffs == (Fraction(5),)
    assert LaurentPoly(7, [0, 0]).is_zero()
    z = LaurentPoly.zero()
    assert z.min_exp == 0 and z.coeffs == ()


def test_equality_is_value_equality():
    assert LaurentPoly(-1, [0, 1, 2]) == LaurentPoly(0, [1, 2, 0])
    assert hash(LaurentPoly(-1, [0, 1, 2])) == hash(LaurentPoly(0, [1, 2]))
    assert LaurentPoly(0, [1]) != LaurentPoly(1, [1])


def test_trinomial_constant():
    assert TRINOMIAL.min_exp == -1
    assert TRINOMIAL.coeffs == (1, 1, 1)
    assert TRINOMIAL.is_symmetric()


def test_coeff_and_support():
    p = LaurentPoly(-2, [1, 0, 3])
    assert p.coeff(-2) == 1
    assert p.coeff(-1) == 0
    assert p.coeff(0) == 3
    assert p.coeff(5) == 0
    assert p.support() == [-2, 0]
    assert p.max_exp == 0


def test_trinomial_square_by_hand():
    sq = TRINOMIAL * TRINOMIAL
    assert sq.min_exp == -2
    assert sq.coeffs == (1, 2, 3, 2, 1)


def test_mul_against_schoolbook():
    rng = random.Random(401)
    for _ in range(60):
        p = random_laurent(rng)
        q = random_laurent(rng)
        prod = p * q
        lo = min(p.min_exp + q.min_exp, 0)
        hi = max(p.max_exp + q.max_exp, 0)
        for e in range(lo, hi + 1):
            want = sum(
                (p.coeff(i) * q.coeff(e - i) for i in range(p.min_exp, p.max_exp + 1)),
                Fraction(0),
            )
            assert prod.coeff(e) == want
    rng = random.Random(411)
    for _ in range(150):
        p = random_rational_laurent(rng)
        q = random_rational_laurent(rng)
        want = LaurentPoly.from_coeff_map(schoolbook_mul(as_map(p), as_map(q)))
        assert p * q == want
        assert q * p == want


def test_ring_identities():
    rng = random.Random(402)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    for _ in range(40):
        p = random_laurent(rng)
        q = random_laurent(rng)
        r = random_laurent(rng)
        assert p * one == p
        assert p * zero == zero
        assert p + zero == p
        assert p - p == zero
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_pow_small_cases():
    p = parse_laurent("1+x")
    assert (p**4).coeffs == (1, 4, 6, 4, 1)
    assert (p**0) == LaurentPoly.one()
    assert (LaurentPoly.zero() ** 0) == LaurentPoly.one()
    for n in (1, 2, 3, 300):
        assert (LaurentPoly.zero() ** n).is_zero()
    q = parse_laurent("-1/3*x^-2+5/2*x")
    assert q**1 == q
    assert q**2 == q * q
    assert parse_laurent("-2/3*x^-4") ** 3 == LaurentPoly(-12, [Fraction(-8, 27)])
    with pytest.raises(DomainError):
        TRINOMIAL ** (-1)


def test_pow_matches_oracle_on_rational_inputs():
    rng = random.Random(412)
    for _ in range(60):
        p = random_rational_laurent(rng)
        n_last = rng.randint(2, 12)
        rows = power_rows(p, n_last)
        for n in (0, 1, 2, n_last):
            assert p**n == rows[n], (p, n)


def binomial_power(a: Fraction, b: Fraction, lo: int, gap: int, n: int) -> LaurentPoly:
    """(a*x^lo + b*x^(lo+gap))**n from the binomial theorem."""
    terms = {n * lo + gap * j: math.comb(n, j) * a ** (n - j) * b**j for j in range(n + 1)}
    return LaurentPoly.from_coeff_map(terms)


def test_pow_300_against_binomial_theorem():
    cases = [
        (Fraction(-1, 2), Fraction(2, 3), -2, 1),
        (Fraction(3), Fraction(-5, 4), 0, 3),  # interior zeros
        (Fraction(-2), Fraction(-1), 0, 1),  # (-2-x)**n, every term one sign
        (Fraction(1, 6), Fraction(1, 6), -1, 2),
    ]
    for a, b, lo, gap in cases:
        p = LaurentPoly(lo, [a] + [0] * (gap - 1) + [b])
        for n in (0, 1, 2, 7, 300):
            assert p**n == binomial_power(a, b, lo, gap, n), (p, n)


def test_pow_same_sign_trinomial():
    p = parse_laurent("-2-x-3*x^2")
    rows = power_rows(p, 25)
    assert p**25 == rows[25]
    assert all(c < 0 for c in (p**25).coeffs)
    assert all(c > 0 for c in (p**24).coeffs)


def test_pow_point_check_catches_a_corrupted_coefficient(monkeypatch):
    honest = modgf.laurent._miller_pow

    def off_by_one(q, n):
        r = honest(q, n)
        r[len(r) // 2] += 1
        return r

    monkeypatch.setattr(modgf.laurent, "_miller_pow", off_by_one)
    with pytest.raises(InternalConsistencyError, match="point check"):
        TRINOMIAL**40
    with pytest.raises(InternalConsistencyError, match="point check"):
        parse_laurent("1/2*x^-3-2/3+x^2") ** 9


def test_pow_refuses_oversize_before_expanding(monkeypatch):
    def no_expand(q, n):
        raise AssertionError("expanded past the size ceiling")

    # a monomial power is one coefficient, so only its size counts
    assert LaurentPoly.x() ** 10**9 == LaurentPoly.x(10**9)
    monkeypatch.setattr(modgf.laurent, "_miller_pow", no_expand)
    for p, n in ((TRINOMIAL, 10**9), (parse_laurent("1+x^100000"), 20000)):
        with pytest.raises(DomainError, match="ceiling"):
            p**n


def test_pow_addition_law():
    rng = random.Random(403)
    for _ in range(15):
        p = random_laurent(rng, max_width=4, coeff_bound=2)
        a = rng.randint(0, 4)
        b = rng.randint(0, 4)
        assert p ** (a + b) == (p**a) * (p**b)


def test_pow_support_bounds():
    p = LaurentPoly(-2, [1, 0, 0, 0, 2])
    pn = p**5
    assert pn.min_exp == -10
    assert pn.max_exp == 10
    assert pn.coeff(-10) == 1
    assert pn.coeff(10) == 2**5


def test_eval_at_points():
    assert TRINOMIAL.eval_at(1) == 3
    assert TRINOMIAL.eval_at(-1) == -1
    assert TRINOMIAL.eval_at(2) == Fraction(7, 2)
    assert LaurentPoly.zero().eval_at(7) == 0
    assert parse_laurent("1+x").eval_at(0) == 1
    with pytest.raises(DomainError):
        TRINOMIAL.eval_at(0)


def test_eval_is_multiplicative():
    rng = random.Random(404)
    for _ in range(30):
        p = random_laurent(rng)
        q = random_laurent(rng)
        v = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            v = -v
        assert (p * q).eval_at(v) == p.eval_at(v) * q.eval_at(v)
        assert (p + q).eval_at(v) == p.eval_at(v) + q.eval_at(v)


def test_coefficient_sum_of_powers():
    # sum of all coefficients of p**n is p(1)**n
    rng = random.Random(405)
    for _ in range(10):
        p = random_laurent(rng, max_width=4)
        n = rng.randint(0, 5)
        pn = p**n
        total = sum((pn.coeff(e) for e in pn.support()), Fraction(0))
        assert total == p.eval_at(1) ** n


def test_is_symmetric():
    assert LaurentPoly.zero().is_symmetric()
    assert LaurentPoly.one().is_symmetric()
    assert parse_laurent("x^-2+x^2").is_symmetric()
    assert parse_laurent("x^-2+3+x^2").is_symmetric()
    assert not parse_laurent("1+x").is_symmetric()
    assert not parse_laurent("x^-1+1+2*x").is_symmetric()
    assert not parse_laurent("x^-2+x").is_symmetric()


def test_parse_basic_forms():
    assert parse_laurent("x^-1+1+x") == TRINOMIAL
    assert parse_laurent(" x ^ -1 + 1 + x ") == TRINOMIAL
    assert parse_laurent("0*x^5").is_zero()
    assert parse_laurent("x + x") == LaurentPoly(1, [2])
    assert parse_laurent("3x") == LaurentPoly(1, [3])
    assert parse_laurent("3*x^2-1/2") == LaurentPoly(0, [Fraction(-1, 2), 0, 3])
    assert parse_laurent("-x") == LaurentPoly(1, [-1])
    assert parse_laurent("5") == LaurentPoly(0, [5])
    assert parse_laurent("1/2") == LaurentPoly(0, [Fraction(1, 2)])
    assert parse_laurent("x^2 - x^2").is_zero()
    assert parse_laurent("2/4*x") == LaurentPoly(1, [Fraction(1, 2)])


def test_parse_errors_carry_positions():
    for text in ("", "  ", "x^", "x^1.5", "1/0", "2.5", "x+", "x$", "*x", "1+"):
        with pytest.raises(ParseError) as info:
            parse_laurent(text)
        assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_laurent("x^2/3")


def test_text_round_trip():
    rng = random.Random(406)
    for _ in range(80):
        p = random_laurent(rng)
        if rng.random() < 0.3:
            p = p.scale(Fraction(1, rng.randint(2, 5)))
        assert parse_laurent(p.text()) == p
    assert LaurentPoly.zero().text() == "0"
    assert TRINOMIAL.text() == "x^-1+1+x"
    assert LaurentPoly(-2, [Fraction(-1, 2), 0, 1]).text() == "-1/2*x^-2+1"


def test_json_round_trip():
    rng = random.Random(407)
    for _ in range(40):
        p = random_laurent(rng)
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p
    d = TRINOMIAL.to_json_dict()
    assert d == {"min_exp": -1, "coeffs": ["1", "1", "1"]}
    with pytest.raises(ParseError):
        LaurentPoly.from_json_dict({"coeffs": ["1"]})
    with pytest.raises(ParseError):
        LaurentPoly.from_json_dict({"min_exp": "0", "coeffs": ["1"]})
    with pytest.raises(ParseError):
        LaurentPoly.from_json_dict({"min_exp": True, "coeffs": ["1"]})


def test_scale_and_neg():
    p = parse_laurent("x^-1+2*x")
    assert p.scale(Fraction(1, 2)) == parse_laurent("1/2*x^-1+x")
    assert p.scale(0).is_zero()
    assert -p == parse_laurent("-x^-1-2*x")
