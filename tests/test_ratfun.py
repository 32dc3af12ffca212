"""Polynomials in t, rational functions, gcd, series, and the exact solver.

The solver oracle here is deliberately naive: Cramer's rule with Laplace
expansion determinants over Fraction-coefficient polynomials. It shares no
code with the packed Bareiss path, so agreement is meaningful. The Bareiss
solver in turn is the cross-check oracle of the circulant residue solver
(tests/test_residues.py). The multi-modular gcd is checked against the
subresultant PRS in tests/_oracles.py.
"""

import math
import random
from fractions import Fraction

import pytest

import modgf.ratfun
from _oracles import int_gcd
from modgf.errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    ParseError,
    SingularMatrixError,
)
from modgf.ratfun import (
    Poly,
    RationalFunction,
    _CERT_PRIMES,
    _check_point,
    _gcd_prime,
    _is_prime,
    _modular_gcd,
    _pack,
    _unpack,
    _verify_at_point,
    poly_gcd,
    poly_series,
    rf_normalize,
    solve_linear_system,
)


def random_poly(rng, max_deg=3, bound=3, fractional=False):
    cs = [Fraction(rng.randint(-bound, bound)) for _ in range(rng.randint(0, max_deg) + 1)]
    if fractional:
        cs = [c / rng.randint(1, 3) for c in cs]
    return Poly(cs)


def random_nonzero_poly(rng, max_deg=3, bound=3):
    while True:
        p = random_poly(rng, max_deg, bound)
        if not p.is_zero():
            return p


# --- Poly basics ---


def test_poly_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).is_zero()
    assert Poly().deg() == -1
    assert Poly([5]).deg() == 0
    assert Poly([0, 0, 7]).deg() == 2


def test_poly_arithmetic_hand_values():
    a = Poly([1, 2])
    b = Poly([3, 0, 1])
    assert (a + b).coeffs == (4, 2, 1)
    assert (a - b).coeffs == (-2, 2, -1)
    assert (a * b).coeffs == (3, 6, 1, 2)
    assert (-a).coeffs == (-1, -2)
    assert a.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)
    assert a(3) == 7
    assert b(Fraction(1, 2)) == Fraction(13, 4)


def test_poly_divmod():
    a = Poly([-1, 0, 0, 1])  # t^3 - 1
    b = Poly([-1, 1])  # t - 1
    q, r = divmod(a, b)
    assert q.coeffs == (1, 1, 1)
    assert r.is_zero()
    q, r = divmod(Poly([1, 1]), Poly([0, 0, 1]))
    assert q.is_zero()
    assert r.coeffs == (1, 1)
    with pytest.raises(DomainError):
        divmod(a, Poly.zero())


def test_poly_divmod_reconstructs():
    rng = random.Random(501)
    for _ in range(60):
        a = random_poly(rng, max_deg=5, fractional=True)
        b = random_nonzero_poly(rng, max_deg=3)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.deg() < b.deg()


def test_exact_div_raises_on_remainder():
    with pytest.raises(InternalConsistencyError):
        Poly([1, 1]).exact_div(Poly([0, 1]))
    assert Poly([0, 1, 1]).exact_div(Poly([0, 1])).coeffs == (1, 1)


def test_poly_text_and_json():
    assert Poly([1, -2, -3]).text() == "1-2*t-3*t^2"
    assert Poly([0, 1]).text() == "t"
    assert Poly([0, -1, 0, Fraction(1, 2)]).text() == "-t+1/2*t^3"
    assert Poly.zero().text() == "0"
    assert Poly([7]).text() == "7"
    p = Poly([Fraction(1, 3), 0, -2])
    assert Poly.from_json_list(p.to_json_list()) == p
    with pytest.raises(ParseError):
        Poly.from_json_list("nope")
    with pytest.raises(ParseError):
        Poly.from_json_list(["1.5"])


# --- gcd ---


def test_poly_gcd_hand_cases():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()
    assert poly_gcd(Poly.zero(), Poly([2, 4])) == Poly([Fraction(1, 2), 1])
    assert poly_gcd(Poly([3]), Poly([0, 1])) == Poly.one()
    assert poly_gcd(Poly([1, 1]), Poly([2, 1])) == Poly.one()


def test_poly_gcd_is_monic_common_divisor():
    rng = random.Random(502)
    for _ in range(50):
        g = random_nonzero_poly(rng, max_deg=3)
        a = random_nonzero_poly(rng, max_deg=3)
        b = random_nonzero_poly(rng, max_deg=3)
        gg = poly_gcd(a * g, b * g)
        assert gg.leading() == 1
        # divides both products, and the common factor divides it
        assert (a * g).exact_div(gg) * gg == a * g
        assert (b * g).exact_div(gg) * gg == b * g
        assert gg.exact_div(poly_gcd(g, gg)) * poly_gcd(g, gg) == gg
        assert poly_gcd(g, gg).deg() == g.deg()


def test_poly_gcd_fractional_inputs():
    a = Poly([Fraction(1, 2), Fraction(1, 2)])  # (1+t)/2
    b = Poly([Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)])  # (1+t)^2/3
    assert poly_gcd(a, b) == Poly([1, 1])


def test_poly_gcd_regression_sparse_tops():
    # once broke the pseudo-remainder bookkeeping: zero coefficients at the
    # top of intermediate remainders skipped leading-coefficient powers
    a = Poly([-5967, -29442, 19858, 68286, 7056, -34800, 35073, 31482,
              -148680, -126063, 78408, 99144, -2430, 13851, 69984, 0,
              -52488, -19683])
    b = Poly([13689, -2340, -40616, -21792, 39456, 36984, -11412, 13554,
              37026, -18144, -48924, -12636, 7776, -8748, -2187, 13122, 6561])
    g = poly_gcd(a, b)
    assert g.deg() == 8
    assert g.leading() == 1
    assert a.exact_div(g) * g == a
    assert b.exact_div(g) * g == b


def test_poly_gcd_euclid_cross_check():
    # monic Euclidean remainder chain over Fractions, as an independent oracle
    def euclid_gcd(x, y):
        while not y.is_zero():
            x, y = y, divmod(x, y)[1]
        return x.monic() if not x.is_zero() else x

    rng = random.Random(512)
    for _ in range(60):
        a = random_poly(rng, max_deg=6, bound=9)
        b = random_poly(rng, max_deg=6, bound=9)
        if rng.random() < 0.5:
            common = random_nonzero_poly(rng, max_deg=3)
            a, b = a * common, b * common
        assert poly_gcd(a, b) == euclid_gcd(a, b)


def test_poly_gcd_large_degree_coprime():
    a = Poly([1] * 9 + [3])
    b = Poly([2, -1] * 5 + [1])
    g = poly_gcd(a, b)
    assert g == Poly.one()
    ab = a * b
    assert poly_gcd(ab, a).deg() == a.deg()


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_int_poly(rng, deg, bound):
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    return cs + [rng.choice([-1, 1]) * rng.randint(1, bound)]


def test_modular_gcd_matches_prs_oracle_with_planted_factors():
    rng = random.Random(4101)
    for k in (4, 10, 24):
        for g_deg in range(k // 2 + 1):
            for _ in range(4):
                bound = rng.choice([3, 1000, 10**30])
                g = random_int_poly(rng, g_deg, bound)
                a = int_mul(random_int_poly(rng, k - g_deg, bound), g)
                b = int_mul(random_int_poly(rng, rng.randint(0, k - g_deg), bound), g)
                if rng.random() < 0.3:
                    a = [c * rng.randint(2, 50) for c in a]
                got, qa, qb = _modular_gcd(a, b)
                assert got == int_gcd(a, b), (a, b)
                assert int_mul(got, qa) == a and int_mul(got, qb) == b


def test_poly_gcd_rational_inputs_match_oracle():
    rng = random.Random(4102)
    for _ in range(80):
        common = random_nonzero_poly(rng, max_deg=4, bound=7)
        a = random_poly(rng, max_deg=6, bound=9, fractional=True) * common
        b = random_poly(rng, max_deg=6, bound=9, fractional=True) * common
        if a.is_zero() or b.is_zero():
            continue
        ia = [c * math.lcm(*(x.denominator for x in a.coeffs)) for c in a.coeffs]
        ib = [c * math.lcm(*(x.denominator for x in b.coeffs)) for c in b.coeffs]
        want = Poly(int_gcd([int(c) for c in ia], [int(c) for c in ib])).monic()
        assert poly_gcd(a, b) == want


def test_modular_gcd_skips_a_prime_dividing_a_leading_coefficient():
    p0 = _CERT_PRIMES[0]
    common = [2, 1]  # t + 2
    a = int_mul([1, p0], common)  # (p0*t + 1)(t + 2)
    b = int_mul([-3, 1], common)
    got, qa, qb = _modular_gcd(a, b)
    assert (got, qa, qb) == (common, [1, p0], [-3, 1])
    assert _modular_gcd(b, a)[0] == common


def test_modular_gcd_returns_a_positive_leading_coefficient():
    # gamma = p0 - 1 lifts to -1 mod p0, so the first candidate is -(t + 1)
    p0 = _CERT_PRIMES[0]
    a = int_mul([1, 1], [5, p0 - 1])
    b = int_mul([1, 1], [7, p0 - 1])
    assert _modular_gcd(a, b) == ([1, 1], [5, p0 - 1], [7, p0 - 1])


def test_modular_gcd_recovers_from_unlucky_primes():
    p0 = _CERT_PRIMES[0]
    # t and t + p0 agree mod p0, so the first image has degree 1
    assert _modular_gcd([0, 1], [p0, 1]) == ([1], [0, 1], [p0, 1])
    a = int_mul([0, 1], [-1, 1])  # t * (t - 1)
    b = int_mul([p0, 1], [-1, 1])  # (t + p0) * (t - 1)
    assert _modular_gcd(a, b) == ([-1, 1], [0, 1], [p0, 1])


def test_modular_gcd_drops_an_unlucky_prime_after_a_lucky_one(monkeypatch):
    p1 = _gcd_prime(1)
    g = [-(2**100 + 1), 1]  # needs two lucky primes to lift
    a = int_mul(g, [0, 1])
    b = int_mul(g, [p1, 1])  # mod p1 the gcd picks up the factor t
    seen = []
    real = modgf.ratfun._gcd_mod

    def spy(x, y, p):
        out = real(x, y, p)
        seen.append((p, len(out) - 1))
        return out

    monkeypatch.setattr(modgf.ratfun, "_gcd_mod", spy)
    assert _modular_gcd(a, b) == (g, [0, 1], [p1, 1])
    assert seen == [(_gcd_prime(0), 1), (p1, 2), (_gcd_prime(2), 1)]


def test_modular_gcd_gives_up_at_the_prime_bound(monkeypatch):
    calls = []

    def junk(a, b, p):
        calls.append(p)
        return [p // 3, 1]

    monkeypatch.setattr(modgf.ratfun, "_gcd_mod", junk)
    a = int_mul([1, 2, 3], [5, -1, 4])
    b = int_mul([7, 1], [5, -1, 4])
    with pytest.raises(InternalConsistencyError, match="within"):
        _modular_gcd(a, b)
    assert 1 <= len(calls) < 20
    with pytest.raises(InternalConsistencyError):
        poly_gcd(Poly(a), Poly(b))


def test_gcd_primes_are_distinct_primes_above_2_59():
    assert _gcd_prime(3) == 2**62 - 57  # the largest prime below 2^62
    primes = [_gcd_prime(i) for i in range(12)]
    assert primes[:3] == list(_CERT_PRIMES)
    assert len(set(primes)) == 12
    assert all(p > 2**59 and pow(3, p - 1, p) == 1 for p in primes)
    assert primes[3:] == sorted(primes[3:], reverse=True)


def test_miller_rabin_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to base 2, to bases 2..7 and to bases 2..23
    for n in (2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(10**18 + 9)


# --- rational functions ---


def test_rf_reduction_and_normalization():
    r = RationalFunction(Poly([2, -2]), Poly([2, -6]))
    assert r.num == Poly([1, -1])
    assert r.den == Poly([1, -3])
    r = RationalFunction(Poly([0, -1, 1]), Poly([-1, 1]))  # (t^2-t)/(t-1)
    assert r.num == Poly([0, 1])
    assert r.den == Poly.one()
    assert r.text() == "t"
    z = RationalFunction(Poly.zero(), Poly([3, 1]))
    assert z.is_zero()
    assert z.den == Poly.one()
    with pytest.raises(DomainError):
        RationalFunction(Poly.one(), Poly.zero())


def test_rf_den_vanishing_at_zero_goes_monic():
    r = RationalFunction(Poly([0, 1]), Poly([0, 0, 2]))  # t/(2t^2)
    assert r.num == Poly([Fraction(1, 2)])
    assert r.den == Poly([0, 1])
    assert r.text() == "1/2/(t)"


def test_rf_normalize_idempotent():
    rng = random.Random(503)
    for _ in range(60):
        num = random_poly(rng, max_deg=4, fractional=True)
        den = random_nonzero_poly(rng, max_deg=4)
        r = rf_normalize(num, den)
        again = rf_normalize(r.num, r.den)
        assert again == r
        assert poly_gcd(r.num, r.den).deg() <= 0
        # cross-multiplied value equality with the input pair
        assert r.num * den == num * r.den


def test_rf_arithmetic_cross_multiplication():
    rng = random.Random(504)
    for _ in range(40):
        a = rf_normalize(random_poly(rng), random_nonzero_poly(rng))
        b = rf_normalize(random_poly(rng), random_nonzero_poly(rng))
        s = a + b
        assert s.num * (a.den * b.den) == (a.num * b.den + b.num * a.den) * s.den
        d = a - b
        assert d.num * (a.den * b.den) == (a.num * b.den - b.num * a.den) * d.den
        m = a * b
        assert m.num * (a.den * b.den) == (a.num * b.num) * m.den
        assert (a - a).is_zero()
        assert a + b == b + a


def test_rf_text_forms():
    assert RationalFunction(Poly([1, -1]), Poly([1, -2, -3])).text() == "(1-t)/(1-2*t-3*t^2)"
    assert RationalFunction(Poly([0, 2]), Poly([1, -2, -3])).text() == "2*t/(1-2*t-3*t^2)"
    assert RationalFunction(Poly([5]), Poly.one()).text() == "5"
    assert RationalFunction(Poly.zero(), Poly.one()).text() == "0"
    assert RationalFunction(Poly([1, 1]), Poly.one()).text() == "1+t"


def test_rf_json_round_trip():
    rng = random.Random(505)
    for _ in range(30):
        r = rf_normalize(random_poly(rng, fractional=True), random_nonzero_poly(rng))
        assert RationalFunction.from_json_dict(r.to_json_dict()) == r
    with pytest.raises(ParseError):
        RationalFunction.from_json_dict({"num": ["1"]})


# --- series ---


def test_series_hand_values():
    assert RationalFunction(Poly([1]), Poly([1, -2])).series(4) == [1, 2, 4, 8, 16]
    assert RationalFunction(Poly([1, -1]), Poly([1, -2, -3])).series(4) == [1, 1, 5, 13, 41]
    assert RationalFunction(Poly.zero(), Poly.one()).series(3) == [0, 0, 0, 0]
    with pytest.raises(DomainError):
        RationalFunction(Poly([1]), Poly([0, 1])).series(2)
    with pytest.raises(DomainError):
        poly_series(Poly([1]), Poly([1]), -1)


def test_series_of_polynomial_is_its_coefficients():
    p = Poly([3, 0, Fraction(-1, 2)])
    assert poly_series(p, Poly.one(), 4) == [3, 0, Fraction(-1, 2), 0, 0]


def test_series_respects_ring_operations():
    rng = random.Random(506)
    n = 12
    for _ in range(25):
        a = rf_normalize(random_poly(rng), Poly([1] + [rng.randint(-2, 2) for _ in range(3)]))
        b = rf_normalize(random_poly(rng), Poly([1] + [rng.randint(-2, 2) for _ in range(3)]))
        sa, sb = a.series(n), b.series(n)
        assert (a + b).series(n) == [x + y for x, y in zip(sa, sb)]
        prod = (a * b).series(n)
        cauchy = [
            sum((sa[i] * sb[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(n + 1)
        ]
        assert prod == cauchy


def test_series_non_coprime_input_allowed():
    # poly_series must not require reduced input
    num = Poly([1, 1])
    den = Poly([1, 1]) * Poly([1, -1])
    assert poly_series(num, den, 5) == RationalFunction(num, den).series(5)


# --- packing ---


def test_pack_unpack_round_trip():
    rng = random.Random(507)
    for bits in (8, 16, 32, 64):
        half = 1 << (bits - 1)
        for _ in range(50):
            cs = [rng.randint(-(half // 2), half // 2 - 1) for _ in range(rng.randint(1, 12))]
            while cs and cs[-1] == 0:
                cs.pop()
            assert _unpack(_pack(cs, bits), bits) == cs
    assert _pack([], 16) == 0
    assert _unpack(0, 16) == []


def test_pack_is_evaluation_at_radix():
    # packing equals evaluating the polynomial at 2^bits
    rng = random.Random(508)
    for _ in range(40):
        bits = rng.choice((16, 24, 32))
        cs = [rng.randint(-100, 100) for _ in range(rng.randint(1, 8))]
        acc = 0
        for c in reversed(cs):
            acc = acc * (1 << bits) + c
        assert _pack(cs, bits) == acc


def test_pack_multiplication_is_convolution():
    rng = random.Random(509)
    bits = 64
    for _ in range(30):
        a = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 6))]
        b = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 6))]
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        while conv and conv[-1] == 0:
            conv.pop()
        assert _unpack(_pack(a, bits) * _pack(b, bits), bits) == conv


# --- the solver, against a naive Cramer oracle ---


def laplace_det(matrix):
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    total = Poly.zero()
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * laplace_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def cramer_solve(matrix, rhs):
    k = len(matrix)
    det = laplace_det(matrix)
    sols = []
    for j in range(k):
        replaced = [
            [rhs[i] if c == j else matrix[i][c] for c in range(k)] for i in range(k)
        ]
        sols.append(rf_normalize(laplace_det(replaced), det))
    return sols, det


def test_solver_doc_example():
    s = solve_linear_system(
        [[Poly([1, -1]), Poly([0, -2])], [Poly([0, -2]), Poly([1, -1])]],
        [Poly.one(), Poly.zero()],
    )
    assert s.det == Poly([1, -2, -3])
    assert s.solutions[0] == RationalFunction(Poly([1, -1]), Poly([1, -2, -3]))
    assert s.solutions[1] == RationalFunction(Poly([0, 2]), Poly([1, -2, -3]))


def test_solver_identity_matrix():
    k = 5
    matrix = [[Poly.one() if i == j else Poly.zero() for j in range(k)] for i in range(k)]
    rhs = [Poly([i + 1]) for i in range(k)]
    s = solve_linear_system(matrix, rhs)
    assert s.det == Poly.one()
    assert [f.num.constant() for f in s.solutions] == [1, 2, 3, 4, 5]


def test_solver_one_by_one():
    s = solve_linear_system([[Poly([1, -3])]], [Poly.one()])
    assert s.det == Poly([1, -3])
    assert s.solutions[0].series(3) == [1, 3, 9, 27]


def test_solver_matches_cramer_oracle():
    rng = random.Random(510)
    solved = 0
    while solved < 40:
        k = rng.randint(1, 4)
        matrix = [
            [random_poly(rng, max_deg=2, bound=3, fractional=rng.random() < 0.2) for _ in range(k)]
            for _ in range(k)
        ]
        rhs = [random_poly(rng, max_deg=2, bound=3) for _ in range(k)]
        det = laplace_det(matrix)
        if det.is_zero():
            with pytest.raises(SingularMatrixError):
                solve_linear_system(matrix, rhs)
            continue
        s = solve_linear_system(matrix, rhs)
        assert s.det.monic() == det.monic()
        want, _ = cramer_solve(matrix, rhs)
        assert s.solutions == want
        solved += 1


def test_solver_residual_property():
    # M x - rhs == 0 checked with exact rational function arithmetic
    rng = random.Random(511)
    done = 0
    while done < 15:
        k = rng.randint(2, 4)
        matrix = [[random_poly(rng, max_deg=2) for _ in range(k)] for _ in range(k)]
        rhs = [random_poly(rng, max_deg=1) for _ in range(k)]
        try:
            s = solve_linear_system(matrix, rhs)
        except SingularMatrixError:
            continue
        for i in range(k):
            acc = RationalFunction(Poly.zero(), Poly.one())
            for j in range(k):
                acc = acc + RationalFunction(matrix[i][j], Poly.one()) * s.solutions[j]
            assert acc == RationalFunction(rhs[i], Poly.one())
        done += 1


def test_solver_pivoting_path():
    # zero in the (0,0) slot forces a row swap; det sign must survive it
    matrix = [[Poly.zero(), Poly.one()], [Poly.one(), Poly.zero()]]
    rhs = [Poly([2]), Poly([3])]
    s = solve_linear_system(matrix, rhs)
    assert s.det == Poly([-1])
    assert s.solutions[0].num.constant() == 3
    assert s.solutions[1].num.constant() == 2


def test_solver_errors():
    with pytest.raises(DimensionMismatchError):
        solve_linear_system([], [])
    with pytest.raises(DimensionMismatchError):
        solve_linear_system([[Poly.one(), Poly.one()]], [Poly.one()])
    with pytest.raises(DimensionMismatchError):
        solve_linear_system([[Poly.one()]], [Poly.one(), Poly.one()])
    with pytest.raises(SingularMatrixError):
        solve_linear_system([[Poly([1]), Poly([1])], [Poly([1]), Poly([1])]], [Poly.one(), Poly.zero()])
    with pytest.raises(SingularMatrixError):
        solve_linear_system([[Poly.zero()]], [Poly.one()])


def test_solver_max_degree_guard():
    with pytest.raises(InternalConsistencyError):
        solve_linear_system([[Poly([1, -1])]], [Poly.one()], max_degree=0)
    s = solve_linear_system([[Poly([1, -1])]], [Poly.one()], max_degree=1)
    assert s.det == Poly([1, -1])


def test_solver_point_check_catches_error_vanishing_at_one():
    # (1-t) x0 - 2t x1 = 1, -2t x0 + (1-t) x1 = 0 has det 1-2t-3t^2 and
    # numerators 1-t, 2t. Adding c*(t-1) to a numerator leaves the residual
    # zero at t = 1, so a check point of 1 would accept it.
    aug = [[[1, -1], [0, -2], [1]], [[0, -2], [1, -1], []]]
    den = [1, -2, -3]
    _verify_at_point(aug, [[1, -1], [0, 2]], den)
    with pytest.raises(InternalConsistencyError):
        _verify_at_point(aug, [[1, -1], [-5, 7]], den)


def test_check_point_is_large_deterministic_and_skips_roots():
    t0 = _check_point("key", [1])
    assert t0 >= 1 << 61
    assert _check_point("key", [1]) == t0
    assert _check_point("other key", [1]) != t0
    # den = t - t0 vanishes at the hashed point, which must be stepped past
    assert _check_point("key", [-t0, 1]) == t0 + 1
