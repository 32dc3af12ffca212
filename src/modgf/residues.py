"""Residue-class coefficient sums of powers of a Laurent polynomial.

For P and a modulus k, the quantity of interest is

    A(n, k, a) = sum of coeff(P**n, j) over all j with j = a (mod k).

residue_sum computes single values by brute-force expansion (the oracle
path). residue_gfs computes, for all classes at once, the generating
functions f_a(t) = sum_n A(n, k, a) t^n, which are rational: the shift
identity A(n, k, a) = sum_i c_i A(n-1, k, (a-i) mod k) turns the family into
the linear system (I - t M) f = e_0 with the circulant fold
M[a][b] = sum of c_i over i = a-b (mod k). Cramer's rule bounds both the
shared denominator degree and the numerator degrees by k.

The system is never built as a matrix. M is multiplication by the folded P
in Q[x]/(x^k - 1), so after clearing denominators k steps of cyclic
convolution give A(n, k, .) for n <= k, Newton's identities give
det(I - tM) from the traces k * A(j, k, 0), and each numerator is
det * f_a mod t^k. All of it runs in integers with exact divisions; the
result is checked against the system at a hash-derived point before the
classes are reduced to lowest terms by a multi-modular gcd. For symmetric P
only the classes a <= k//2 are solved and reduced; the others mirror them.

Residues are always floored into [0, k): (-3) mod 5 is 2 regardless of sign.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

from .cfinite import LinearRecurrence, recurrence_from_gf
from .errors import (
    DomainError,
    InternalConsistencyError,
    NotSymmetricError,
    ParseError,
)
from .laurent import LaurentPoly, clear_denominators
from .ratfun import (
    Poly,
    RationalFunction,
    _check_point,
    _ieval,
    _itrim,
    _reduce_int_pair,
)


def fold_residues(p: LaurentPoly, k: int) -> list[Fraction]:
    """Sums of the coefficients of p grouped by exponent residue mod k.

    The integer-cleared numerators are summed per class, then each class is
    divided once.
    """
    if k < 1:
        raise DomainError(f"modulus k must be positive, got {k}")
    d, q = clear_denominators(p.coeffs)
    # Slot i holds exponent min_exp + i, so class a starts at (a - min_exp) % k.
    return [Fraction(sum(q[(a - p.min_exp) % k :: k]), d) for a in range(k)]


def residue_sum(p: LaurentPoly, k: int, a: int, n: int) -> Fraction:
    """A(n, k, a) by direct expansion of p**n; reference implementation.

    p**n comes from Miller's recurrence on the integer-cleared coefficients
    and is checked at a hashed point before it is folded (LaurentPoly.__pow__).

    >>> from .laurent import TRINOMIAL
    >>> residue_sum(TRINOMIAL, 2, 0, 3)
    Fraction(13, 1)
    """
    _check_class(k, a)
    if n < 0:
        raise DomainError(f"power n must be nonnegative, got {n}")
    return fold_residues(p**n, k)[a]


def _check_class(k: int, a: int) -> None:
    if k < 1:
        raise DomainError(f"modulus k must be positive, got {k}")
    if not 0 <= a < k:
        raise DomainError(f"residue class a must lie in [0, {k}), got {a}")


@dataclasses.dataclass
class ResidueSolution:
    """The family of generating functions f_a for fixed P and k.

    common_den is det(I - t M) normalized to constant term 1, kept
    unreduced; the per-class gfs are fully reduced, and every reduced
    denominator divides common_den. deg(common_den) can drop below k when
    P vanishes at a k-th root of unity, so the degree is reported alongside.
    """

    p: LaurentPoly
    k: int
    symmetric: bool
    common_den: Poly
    gfs: list[RationalFunction]

    def to_json_dict(self) -> dict:
        return {
            "P": self.p.to_json_dict(),
            "k": self.k,
            "common_den": self.common_den.to_json_list(),
            "common_den_degree": self.common_den.deg(),
            "gfs": [f.to_json_dict() for f in self.gfs],
            "symmetric": self.symmetric,
        }

    @staticmethod
    def from_json_dict(data: dict) -> ResidueSolution:
        for key in ("P", "k", "common_den", "gfs", "symmetric"):
            if not isinstance(data, dict) or key not in data:
                raise ParseError(f"residue solution JSON needs the key {key!r}", 0)
        k = data["k"]
        if type(k) is not int or k < 1:
            raise ParseError(f"residue solution k must be a positive integer, got {k!r}", 0)
        if not isinstance(data["gfs"], list) or len(data["gfs"]) != k:
            raise ParseError(f"residue solution needs a list of k = {k} gfs", 0)
        if not isinstance(data["symmetric"], bool):
            raise ParseError("residue solution symmetric must be true or false", 0)
        return ResidueSolution(
            p=LaurentPoly.from_json_dict(data["P"]),
            k=k,
            symmetric=data["symmetric"],
            common_den=Poly.from_json_list(data["common_den"]),
            gfs=[RationalFunction.from_json_dict(d) for d in data["gfs"]],
        )


def _circulant_family(
    q: list[int], classes: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """det(I - tQ) and the numerators of the requested classes, over the integers.

    Q is the k x k integer circulant with Q[a][b] = q[(a - b) % k], so Q v is
    the cyclic convolution q * v. Power iteration v_n = Q v_(n-1) from
    v_0 = e_0 gives the series G_a(t) = sum_n v_n[a] t^n of the solution of
    (I - tQ) G = e_0. Q^j is circulant too, so tr(Q^j) = k * v_j[0], and
    Newton's identities turn those traces into det(I - tQ) with exact integer
    divisions. By Cramer's rule det * G_a is a polynomial of degree <= k - 1,
    so the numerators are det * G_a mod t^k; the vanishing t^k coefficient
    (Cayley-Hamilton for e_0) is checked as the degree cap.
    """
    k = len(q)
    terms = [(i, c) for i, c in enumerate(q) if c]
    vs = [[1] + [0] * (k - 1)]
    for _ in range(k):
        prev = vs[-1]
        nxt = [0] * k
        for i, c in terms:
            rotated = prev[k - i :] + prev[: k - i]
            nxt = [x + c * y for x, y in zip(nxt, rotated)]
        vs.append(nxt)

    traces = [k * v[0] for v in vs]
    det = [1]
    for i in range(1, k + 1):
        acc = sum(det[i - j] * traces[j] for j in range(1, i + 1))
        c, rem = divmod(-acc, i)
        if rem:
            raise InternalConsistencyError("Newton identity division was not exact")
        det.append(c)
    while det[-1] == 0:
        det.pop()

    cols = [[v[a] for a in classes] for v in vs]
    nums: list[list[int]] = [[] for _ in classes]
    for i in range(k + 1):
        row = [0] * len(classes)
        for j in range(min(i, len(det) - 1) + 1):
            d = det[j]
            if d:
                row = [x + d * y for x, y in zip(row, cols[i - j])]
        if i == k:
            if any(row):
                raise InternalConsistencyError(
                    f"numerator degree exceeds the Cramer cap {k - 1}"
                )
        else:
            for num, c in zip(nums, row):
                num.append(c)
    return det, [_itrim(num) for num in nums]


def _check_at_point(
    p: LaurentPoly, folded: list[Fraction], den: list[int], nums: list[list[int]]
) -> None:
    """Exact check of (I - tM) n = den * e_0 at one point, in integers.

    M[a][b] = folded[(a - b) % k] is applied straight from the folded
    coefficients, row by row; the point comes from a hash of (P, k).
    """
    k = len(folded)
    scale, cleared = clear_denominators(folded)
    row = [(i, c) for i, c in enumerate(cleared) if c]
    t0 = _check_point(f"{p.text()}\n{k}", den)
    nv = [_ieval(num, t0) for num in nums]
    dv = _ieval(den, t0)
    for a in range(k):
        lhs = scale * nv[a] - t0 * sum(c * nv[(a - i) % k] for i, c in row)
        if lhs != (scale * dv if a == 0 else 0):
            raise InternalConsistencyError("solved family failed the point check")


def residue_gfs(p: LaurentPoly, k: int) -> ResidueSolution:
    """Generating functions of A(n, k, a) for every class a at once.

    For symmetric P (P(x) = P(1/x)), A(n, k, a) = A(n, k, k - a), so only
    the classes a <= k//2 are solved and reduced; the rest share those
    objects.

    >>> from .laurent import TRINOMIAL
    >>> residue_gfs(TRINOMIAL, 2).gfs
    [RationalFunction('(1-t)/(1-2*t-3*t^2)'), RationalFunction('2*t/(1-2*t-3*t^2)')]
    """
    if p.is_zero():
        raise DomainError("residue generating functions need a nonzero polynomial")
    symmetric = p.is_symmetric()
    folded = fold_residues(p, k)
    d, q = clear_denominators(folded)
    classes = range(k // 2 + 1) if symmetric else range(k)
    det, nums = _circulant_family(q, classes)
    # Q = d*M, so t -> t/d maps the Q-system back to M; multiplying through
    # by d^k keeps every coefficient integral.
    powers = [d ** (k - i) for i in range(k + 1)]
    den = [c * w for c, w in zip(det, powers)]
    nums = [[c * w for c, w in zip(num, powers)] for num in nums]
    mirror = [min(a, k - a) if symmetric else a for a in range(k)]
    _check_at_point(p, folded, den, [nums[b] for b in mirror])
    reduced = [_reduce_int_pair(num, den) for num in nums]
    gfs = [reduced[b] for b in mirror]
    common_den = Poly([Fraction(c, d**i) for i, c in enumerate(det)])
    if common_den.constant() != 1:
        raise InternalConsistencyError("det(I - tM) lost its constant term 1")
    return ResidueSolution(p=p, k=k, symmetric=symmetric, common_den=common_den, gfs=gfs)


def residue_gfs_symmetric(p: LaurentPoly, k: int) -> ResidueSolution:
    """residue_gfs for P known to be symmetric; raises NotSymmetricError otherwise.

    residue_gfs already mirrors the classes of a symmetric P, so this only
    adds the precondition.
    """
    if not p.is_symmetric():
        raise NotSymmetricError(
            "polynomial is not symmetric; use the general residue_gfs path"
        )
    return residue_gfs(p, k)


def recurrence_of(sol: ResidueSolution, a: int = 0) -> LinearRecurrence:
    """The constant-coefficient recurrence shared by all residue classes.

    If common_den = 1 - d_1 t - ... - d_r t^r then every class satisfies
    A(n) = d_1 A(n-1) + ... + d_r A(n-r) once n clears the numerator degrees.
    The order is padded with zero coefficients up to
    max(r, 1 + max unreduced numerator degree), which by Cramer's bound never
    exceeds k; the padding makes the returned description reproduce the
    sequence from its initial values even when a class has a transient start
    (possible exactly when deg(common_den) < k). rec_coeffs are identical for
    every a; only the initial values differ.

    >>> from .laurent import TRINOMIAL
    >>> rec = recurrence_of(residue_gfs(TRINOMIAL, 2))
    >>> rec.order, rec.rec_coeffs
    (2, (Fraction(2, 1), Fraction(3, 1)))
    """
    _check_class(sol.k, a)
    r = sol.common_den.deg()
    m = max(r, 1)
    for f in sol.gfs:
        if f.is_zero():
            continue
        unreduced_num_deg = f.num.deg() + (r - f.den.deg())
        m = max(m, unreduced_num_deg + 1)
    f = sol.gfs[a]
    unreduced_num = f.num * sol.common_den.exact_div(f.den)
    return recurrence_from_gf(unreduced_num, sol.common_den, min_order=m)
