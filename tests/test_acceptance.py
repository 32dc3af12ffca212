"""End-to-end acceptance gate: one test per advertised behavior.

Each test drives the artifact the way a user would (the CLI where the
behavior is a command, the library otherwise), cross-checks the output
against the brute-force expansion oracles, and enforces the stated runtime
budget where one is advertised. Budgets are wall-clock and deliberately
generous; the point is catching complexity regressions, not benchmarking.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from _oracles import central_coefficients, power_rows, random_laurent, residue_table
from modgf import (
    TRINOMIAL,
    DieSpec,
    LinearRecurrence,
    Poly,
    RationalFunction,
    ResidueSolution,
    die_poly,
    fibonacci,
    fit_recurrence,
    growth_rate_estimate,
    modular_prob_gf,
    recurrence_of,
    residue_gfs,
)
from modgf.cli import run

PHI_SQUARED = (3 + math.sqrt(5)) / 2


def run_json(argv: list[str]) -> tuple[int, float, dict]:
    """Run the CLI in-process; return (exit code, seconds, parsed envelope)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = run([*argv, "--format", "json"])
    elapsed = time.perf_counter() - start
    return code, elapsed, json.loads(buf.getvalue())


def test_criterion_1_euler_tale_reproduction():
    code, elapsed, env = run_json(["euler-tale"])
    assert code == 0
    tale = env["result"]

    # Nine agreeing values at n = -1 .. 7, first failure at n = 8.
    assert tale["index_base"] == -1
    assert tale["prefix_len"] == 9
    assert tale["first_failure_n"] == 8
    assert tale["true_terms"][:9] == tale["candidate_terms"][:9]
    assert tale["actual"] == "464"
    assert tale["expected"] == "462"
    assert tale["true_terms"][9] == "464"
    assert tale["candidate_terms"][9] == "462"

    # The reported true terms match a fresh expansion of 3*c(n+1) - c(n+2).
    rows = power_rows(TRINOMIAL, 11)
    lhs = [3 * rows[n + 1].coeff(0) - rows[n + 2].coeff(0) for n in range(-1, 9)]
    assert [Fraction(v) for v in tale["true_terms"][:10]] == lhs

    assert elapsed < 1.0


def test_criterion_2_george_verification():
    code, elapsed, env = run_json(["verify-george"])
    assert code == 0
    report = env["result"]

    assert report["window_ok"] is True
    assert report["window_checked_to"] == 20
    assert report["oracle_ok"] is True
    assert report["oracle_checked_to"] == 200
    assert report["all_ok"] is True

    # The verdict is rigorous: equality proven on a window at least as long
    # as the sum of the two recurrence orders.
    verdict = report["verdict"]
    assert verdict["equal"] is True
    order_sum = report["lhs_recurrence"]["order"] + report["rhs_recurrence"]["order"]
    assert verdict["window"] >= order_sum

    assert elapsed < 5.0


def test_criterion_3_six_distinct_generating_functions():
    code, elapsed, env = run_json(["gas", "-P", "x^-1+1+x", "-k", "10"])
    assert code == 0
    sol = ResidueSolution.from_json_dict(env["result"])
    assert sol.k == 10

    for a in range(10):
        assert sol.gfs[a] == sol.gfs[(10 - a) % 10]
    assert len({g.text() for g in sol.gfs}) == 6
    assert all(g.num.deg() <= 9 for g in sol.gfs)
    assert sol.common_den.deg() <= 10

    table = residue_table(TRINOMIAL, 10, 50)
    for a in range(10):
        assert sol.gfs[a].series(50) == [table[n][a] for n in range(51)]

    assert elapsed < 5.0


def test_criterion_4_scale_claim():
    sol = residue_gfs(TRINOMIAL, 25)
    table = residue_table(TRINOMIAL, 25, 60)
    for a in range(25):
        assert sol.gfs[a].series(60) == [table[n][a] for n in range(61)]

    start = time.perf_counter()
    residue_gfs(TRINOMIAL, 50)
    assert time.perf_counter() - start < 60.0

    start = time.perf_counter()
    residue_gfs(TRINOMIAL, 100)
    assert time.perf_counter() - start < 600.0


def test_criterion_5_partition_invariant_suite():
    rng = random.Random(20260819)
    start = time.perf_counter()
    one = Poly([Fraction(1)])
    for _ in range(25):
        p = random_laurent(rng)
        rows = power_rows(p, 37)
        total_weight = p.eval_at(Fraction(1))
        partition_target = RationalFunction(one, Poly([Fraction(1), -total_weight]))
        for k in range(1, 13):
            sol = residue_gfs(p, k)

            total = sol.gfs[0]
            for a in range(1, k):
                total = total + sol.gfs[a]
            assert total == partition_target

            # Shift identity on the computed series: advancing one power
            # convolves with the folded coefficients of p itself.
            fold = [Fraction(0)] * k
            for off, c in enumerate(p.coeffs):
                fold[(p.min_exp + off) % k] += c
            series = [sol.gfs[a].series(21) for a in range(k)]
            for n in range(21):
                for a in range(k):
                    assert series[a][n + 1] == sum(
                        fold[(a - b) % k] * series[b][n] for b in range(k)
                    )

            # Every residue sequence is reproduced by its recurrence.
            for a in range(k):
                want = [
                    sum(
                        c
                        for off, c in enumerate(rows[n].coeffs)
                        if (rows[n].min_exp + off) % k == a
                    )
                    for n in range(3 * k + 1)
                ]
                assert recurrence_of(sol, a).extend(3 * k) == want
    assert time.perf_counter() - start < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the left side grows like 3^n / n^(3/2), so its consecutive-term "
    "ratio at n = 40 is 2.8932, still 3.6% below 3; the ratio first enters "
    "the 1% band near n = 150. The right-side ratio does sit within 1% of "
    "phi^2 (it is off by 6e-9). Checked exactly; the stated bound cannot hold.",
)
def test_criterion_6_asymptotic_sanity():
    rows = power_rows(TRINOMIAL, 42)
    lhs = [3 * rows[n + 1].coeff(0) - rows[n + 2].coeff(0) for n in range(41)]
    rhs = [Fraction(fibonacci(n) * (fibonacci(n) + 1)) for n in range(41)]

    rhs_ratio = growth_rate_estimate(rhs)
    assert abs(float(rhs_ratio) - PHI_SQUARED) <= 0.01 * PHI_SQUARED

    lhs_ratio = growth_rate_estimate(lhs)
    assert abs(lhs_ratio - 3) <= Fraction(3, 100), (
        f"left-side ratio at n = 40 is {float(lhs_ratio):.6f}"
    )


def test_criterion_7_dice_suite():
    die = DieSpec.fair([-1, 0, 1])
    dp = die_poly(die)
    rows = power_rows(dp, 30)
    a_vals = [rows[n].coeff(0) for n in range(31)]

    # Clearing the 3^-n weight recovers the central trinomial coefficients.
    centrals = central_coefficients(25)
    for n in range(26):
        assert a_vals[n] * 3**n == centrals[n]

    for k in range(1, 13):
        sol = modular_prob_gf(die, k)
        series = [sol.gfs[a].series(30) for a in range(k)]
        for n in range(31):
            assert sum(series[a][n] for a in range(k)) == 1
        # No wrap-around while n * max|face| < k.
        for n in range(min(k, 31)):
            assert series[0][n] == a_vals[n]

    # One modulus past the whole window: the class-0 track is exactly a(n).
    sol = modular_prob_gf(die, 31)
    assert sol.gfs[0].series(30) == a_vals

    # The cleared sequence admits no low-order constant-coefficient recurrence.
    cleared = [a_vals[n] * 3**n for n in range(26)]
    assert fit_recurrence(cleared, 6) is None


def test_criterion_8_fitter_soundness():
    rec = fit_recurrence([fibonacci(n) for n in range(12)], 5)
    assert rec is not None
    assert rec.order == 2
    assert rec.rec_coeffs == (Fraction(1), Fraction(1))
    assert rec.initials == (Fraction(0), Fraction(1))

    rng = random.Random(8128)
    for _ in range(50):
        order = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(order - 1)]
        coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
        initials = [Fraction(rng.randint(-5, 5)) for _ in range(order)]
        planted = LinearRecurrence(
            order=order, rec_coeffs=tuple(coeffs), initials=tuple(initials)
        )
        terms = planted.extend(21)
        fitted = fit_recurrence(terms, 5)
        assert fitted is not None
        assert fitted.order <= order
        assert fitted.extend(21) == terms
        # Stability: the fit describes the whole sequence, so refitting a
        # longer stretch of its own extension returns the same description.
        assert fit_recurrence(fitted.extend(31), 5) == fitted


def test_criterion_9_exact_powers_at_scale():
    code, elapsed, env = run_json(["coeff", "-P", "x^-1+1+x", "-n", "2000", "-j", "0"])
    assert code == 0
    # The central trinomial coefficient: choose the 2i steps that move, then
    # which i of them go up.
    want = sum(math.comb(2000, 2 * i) * math.comb(2 * i, i) for i in range(1001))
    assert env["result"]["value"] == str(want)

    assert elapsed < 2.0


def test_criterion_10_reduce_at_scale():
    # symmetric P gives every class a gcd of degree about k/2 with the
    # denominator; the multi-modular gcd and the mirrored classes keep this fast
    start = time.perf_counter()
    sol = residue_gfs(TRINOMIAL, 100)
    assert time.perf_counter() - start < 2.0

    table = residue_table(TRINOMIAL, 100, 200)
    for a in range(51):
        assert sol.gfs[a].series(200) == [row[a] for row in table]
    for a in range(51, 100):
        # a mirrored class is the very object of class 100 - a, checked above
        assert sol.gfs[a] is sol.gfs[100 - a]
        assert [row[a] for row in table] == [row[100 - a] for row in table]
