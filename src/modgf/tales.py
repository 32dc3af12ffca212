"""Misleading-induction tales: candidate laws that hold for a while, then fail.

The canonical story: with central coefficients c(n) = coeff((x^-1+1+x)**n, 0),
the combination L(n) = 3*c(n+1) - c(n+2) equals F(n)*(F(n)+1) for the nine
values n = -1 .. 7 and then fails at n = 8, where L(8) = 464 but the Fibonacci
formula gives 462. The repaired identity replaces central coefficients by
residue-class sums mod 10: A(n+1, 10, 0) - A(n+1, 10, 1) = F(n)*(F(n)+1)/2
holds for all n, and because both sides are C-finite the equality is proved
rigorously by checking finitely many terms. george_check reproduces that
proof; find_tale hunts for new tales for arbitrary P, k, a.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .cfinite import (
    EqualityVerdict,
    LinearRecurrence,
    fibonacci,
    fit_recurrence,
    recurrence_from_gf,
    verify_equal,
)
from .errors import DomainError, InternalConsistencyError
from .laurent import TRINOMIAL, LaurentPoly
from .ratfun import Poly
from .rationals import rat_to_str
from .residues import (
    _check_class,
    fold_residues,
    recurrence_of,
    residue_gfs,
    residue_gfs_symmetric,
)

_SAMPLE_TERMS = 12


@dataclasses.dataclass
class Tale:
    """A recorded misleading induction.

    Term index m = 0, 1, 2, ... maps to the story's n = index_base + m
    (index_base is -1 for the classical tale, which starts at n = -1, and 0
    for searched tales). candidate reproduces the first prefix_len true terms
    and differs at the next one, so first_failure_n = index_base + prefix_len;
    expected is the candidate's value there, actual the true one.
    """

    p: LaurentPoly
    k: int
    a: int
    candidate: LinearRecurrence
    prefix_len: int
    first_failure_n: int
    expected: Fraction
    actual: Fraction
    label: str
    index_base: int
    true_terms: list[Fraction]
    candidate_terms: list[Fraction]

    def __post_init__(self) -> None:
        if self.expected == self.actual:
            raise InternalConsistencyError("tale failure values do not differ")
        if self.first_failure_n != self.index_base + self.prefix_len:
            raise InternalConsistencyError(
                "tale failure index does not follow its agreement prefix"
            )

    def to_json_dict(self) -> dict:
        return {
            "P": self.p.to_json_dict(),
            "k": self.k,
            "a": self.a,
            "candidate": self.candidate.to_json_dict(),
            "prefix_len": self.prefix_len,
            "first_failure_n": self.first_failure_n,
            "expected": rat_to_str(self.expected),
            "actual": rat_to_str(self.actual),
            "label": self.label,
            "index_base": self.index_base,
            "true_terms": [rat_to_str(v) for v in self.true_terms],
            "candidate_terms": [rat_to_str(v) for v in self.candidate_terms],
        }


def search_tale(
    p: LaurentPoly, k: int, a: int, fit_window: int, horizon: int
) -> tuple[Tale | None, str]:
    """find_tale plus a human-readable reason when nothing is returned.

    Search policy (the tool's own choice, echoed in every result): fit a
    minimal C-finite candidate of order at most fit_window//2 - 1 to the
    first fit_window true terms, so the fit always has at least two
    validation points inside its window; a candidate only counts as a tale
    when it survives strictly past the window (prefix_len >= fit_window + 2)
    and then fails by the horizon.
    """
    if fit_window < 4:
        raise DomainError(f"fit_window must be at least 4, got {fit_window}")
    if horizon <= fit_window:
        raise DomainError(
            f"horizon must exceed fit_window ({fit_window}), got {horizon}"
        )
    _check_class(k, a)
    sol = residue_gfs(p, k)
    truth = sol.gfs[a].series(horizon)
    max_order = fit_window // 2 - 1
    policy = (
        f"policy: order <= {max_order} fit to the first {fit_window} terms, "
        f"tale threshold prefix >= {fit_window + 2}, horizon {horizon}"
    )
    candidate = fit_recurrence(truth[:fit_window], max_order)
    if candidate is None:
        return None, f"no C-finite candidate fits ({policy})"
    cand_terms = candidate.extend(horizon)
    prefix = next(
        (n for n in range(horizon + 1) if cand_terms[n] != truth[n]), None
    )
    if prefix is None:
        verdict = verify_equal(candidate, recurrence_of(sol, a))
        if verdict.equal:
            return None, f"not a tale - a theorem: the candidate is exactly right ({policy})"
        prefix = verdict.first_difference_n
        expected = verdict.left_value
        actual = verdict.right_value
    else:
        expected = cand_terms[prefix]
        actual = truth[prefix]
    if prefix < fit_window + 2:
        return None, (
            f"candidate fails at n={prefix}, too close to its fitting window ({policy})"
        )
    tale = Tale(
        p=p,
        k=k,
        a=a,
        candidate=candidate,
        prefix_len=prefix,
        first_failure_n=prefix,
        expected=expected,
        actual=actual,
        label=(
            f"A(n,{k},{a}) for P = {p.text()} looks order-{candidate.order} "
            f"C-finite for {prefix} terms, then breaks at n={prefix} ({policy})"
        ),
        index_base=0,
        true_terms=truth[:_SAMPLE_TERMS],
        candidate_terms=cand_terms[:_SAMPLE_TERMS],
    )
    return tale, "tale found"


def find_tale(
    p: LaurentPoly, k: int, a: int, fit_window: int, horizon: int
) -> Tale | None:
    """Hunt for a misleading induction in A(n, k, a); None when there is none.

    >>> from .laurent import parse_laurent
    >>> tale = find_tale(parse_laurent("1+x"), 12, 0, 8, 30)
    >>> tale.first_failure_n, tale.expected, tale.actual
    (12, Fraction(1, 1), Fraction(2, 1))
    """
    tale, _ = search_tale(p, k, a, fit_window, horizon)
    return tale


def _central_row_coeffs(n_rows: int) -> list[LaurentPoly]:
    rows = [LaurentPoly.one()]
    for _ in range(n_rows):
        rows.append(rows[-1] * TRINOMIAL)
    return rows


def euler_tale() -> Tale:
    """The classical story, reconstructed and re-verified from scratch.

    True sequence (term index m, story index n = m - 1):
    L(n) = 3*c(n+1) - c(n+2) with c the central coefficient of the trinomial
    power. Candidate: the C-finite law fitted to F(n)*(F(n)+1). They agree
    for the nine values n = -1 .. 7; at n = 8 the truth is 464, the candidate
    says 462. Any deviation from that script raises, since this tale is a
    fixed historical fact.
    """
    horizon = 33
    rows = _central_row_coeffs(horizon + 1)
    # Term index m is the story's n = m - 1, so L(n) = 3*c(n+1) - c(n+2)
    # reads 3*c(m) - c(m+1) here.
    true_terms = [
        3 * rows[m].coeff(0) - rows[m + 1].coeff(0) for m in range(horizon + 1)
    ]
    fib_terms = [
        Fraction(fibonacci(m - 1) * (fibonacci(m - 1) + 1)) for m in range(horizon + 1)
    ]
    candidate = fit_recurrence(fib_terms, 5)
    if candidate is None or candidate.extend(horizon) != fib_terms:
        raise InternalConsistencyError("Fibonacci product law did not fit as C-finite")
    if true_terms[:9] != fib_terms[:9]:
        raise InternalConsistencyError("classical tale prefix did not reproduce")
    if true_terms[9] != 464 or fib_terms[9] != 462:
        raise InternalConsistencyError("classical tale failure did not reproduce")
    return Tale(
        p=TRINOMIAL,
        k=1,
        a=0,
        candidate=candidate,
        prefix_len=9,
        first_failure_n=8,
        expected=fib_terms[9],
        actual=true_terms[9],
        label=(
            "3*c(n+1) - c(n+2) for central trinomial coefficients c looks like "
            "F(n)*(F(n)+1) for the nine values n = -1..7, then fails at n = 8 "
            "(464 vs 462); term index m corresponds to n = m - 1"
        ),
        index_base=-1,
        true_terms=true_terms[:_SAMPLE_TERMS],
        candidate_terms=fib_terms[:_SAMPLE_TERMS],
    )


@dataclasses.dataclass
class GeorgeReport:
    """Everything checked while proving the repaired identity.

    rewrite_ok: c(n+2) = s(n+1,-1) + s(n+1,0) + s(n+1,1) termwise, where
    s(m, j) = coeff(P**m, j); this turns the classical combination into
    central-minus-neighbor form. single_term_ok: below n = 8 the mod-10 sums
    have a single nonzero summand each, so the repaired left side coincides
    with the naive one there; correction_at_8 is the extreme coefficient
    (exponent -9 of the 9th power) that makes them differ from n = 8 on.
    window_ok covers the reassurance window 0 <= n <= 20, oracle_ok the
    brute-force range 0 <= n <= oracle_checked_to, and verdict is the finite
    check that proves equality outright.
    """

    rewrite_ok: bool
    rewrite_checked_to: int
    single_term_ok: bool
    correction_at_8: Fraction
    window_ok: bool
    window_checked_to: int
    oracle_ok: bool
    oracle_checked_to: int
    lhs_recurrence: LinearRecurrence
    rhs_recurrence: LinearRecurrence
    verdict: EqualityVerdict

    @property
    def all_ok(self) -> bool:
        return (
            self.rewrite_ok
            and self.single_term_ok
            and self.window_ok
            and self.oracle_ok
            and self.verdict.equal
        )

    def to_json_dict(self) -> dict:
        return {
            "rewrite_ok": self.rewrite_ok,
            "rewrite_checked_to": self.rewrite_checked_to,
            "single_term_ok": self.single_term_ok,
            "correction_at_8": rat_to_str(self.correction_at_8),
            "window_ok": self.window_ok,
            "window_checked_to": self.window_checked_to,
            "oracle_ok": self.oracle_ok,
            "oracle_checked_to": self.oracle_checked_to,
            "lhs_recurrence": self.lhs_recurrence.to_json_dict(),
            "rhs_recurrence": self.rhs_recurrence.to_json_dict(),
            "verdict": self.verdict.to_json_dict(),
            "all_ok": self.all_ok,
        }


def george_check(oracle_to: int = 200) -> GeorgeReport:
    """Verify A(n+1, 10, 0) - A(n+1, 10, 1) = F(n)*(F(n)+1)/2, rigorously.

    The left side comes from the symmetric generating-function path, the
    right side is fitted as a C-finite sequence, and verify_equal settles
    equality by a finite check whose window honors the traditional
    0 <= n <= 20 reassurance range. A brute-force expansion oracle
    additionally rechecks 0 <= n <= oracle_to term by term.
    """
    if oracle_to < 30:
        raise DomainError(f"oracle range must cover at least n = 30, got {oracle_to}")
    rows = _central_row_coeffs(oracle_to + 2)

    rewrite_checked_to = 30
    rewrite_ok = all(
        rows[n + 2].coeff(0)
        == rows[n + 1].coeff(-1) + rows[n + 1].coeff(0) + rows[n + 1].coeff(1)
        for n in range(rewrite_checked_to + 1)
    )

    folds = [fold_residues(rows[n + 1], 10) for n in range(oracle_to + 1)]
    single_term_ok = all(
        folds[n][0] == rows[n + 1].coeff(0) and folds[n][1] == rows[n + 1].coeff(1)
        for n in range(8)
    )
    correction_at_8 = folds[8][1] - rows[9].coeff(1)

    lhs_vals = [folds[n][0] - folds[n][1] for n in range(oracle_to + 1)]
    rhs_vals = [
        Fraction(fibonacci(n) * (fibonacci(n) + 1), 2) for n in range(oracle_to + 1)
    ]
    window_checked_to = 20
    window_ok = lhs_vals[: window_checked_to + 1] == rhs_vals[: window_checked_to + 1]
    oracle_ok = lhs_vals == rhs_vals

    sol = residue_gfs_symmetric(TRINOMIAL, 10)
    diff = sol.gfs[0] - sol.gfs[1]
    # The sums start at power n+1, so shift the series one step down:
    # num/den -> (num - diff(0)*den)/(t*den) stays polynomial over den.
    shifted = diff.num - diff.den.scale(diff.series(0)[0])
    if not shifted.is_zero() and shifted.coeffs[0] != 0:
        raise InternalConsistencyError("shifted numerator kept a constant term")
    lhs_rec = recurrence_from_gf(Poly(shifted.coeffs[1:]), diff.den)
    rhs_rec = fit_recurrence(rhs_vals[:30], 6)
    if rhs_rec is None:
        raise InternalConsistencyError("Fibonacci right side did not fit as C-finite")
    verdict = verify_equal(lhs_rec, rhs_rec, min_window=window_checked_to + 1)

    return GeorgeReport(
        rewrite_ok=rewrite_ok,
        rewrite_checked_to=rewrite_checked_to,
        single_term_ok=single_term_ok,
        correction_at_8=correction_at_8,
        window_ok=window_ok,
        window_checked_to=window_checked_to,
        oracle_ok=oracle_ok,
        oracle_checked_to=oracle_to,
        lhs_recurrence=lhs_rec,
        rhs_recurrence=rhs_rec,
        verdict=verdict,
    )
