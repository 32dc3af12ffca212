"""Loaded dice with integer dollar faces: exact modular-sum probabilities.

Encode a die as the Laurent polynomial P(x) = sum p_i x^(v_i). The
coefficient of x^s in P**n is the exact probability that n throws total s,
so the probability of the running total being = a (mod k) after n throws is
the residue-class sum A(n, k, a), and the whole generating-function and
recurrence toolkit applies verbatim: the mod-k probabilities are C-finite of
order at most k. The break-even probability a(n) = coeff(P**n, 0) is the lone
exception: it is computed by direct expansion, and no constant-coefficient
recurrence for it is expected to exist.

Everything here is exact rational arithmetic; no floats.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .errors import DomainError, ParseError
from .laurent import LaurentPoly, check_power_size
from .rationals import rat_from_str, rat_to_str
from .residues import ResidueSolution, residue_gfs

DEFAULT_MAX_K = 2000


@dataclasses.dataclass(frozen=True)
class DieSpec:
    """Faces of a die: (value, probability) pairs.

    Duplicate values are merged by summing their probabilities; faces are
    kept sorted by value. Probabilities must be positive after merging and
    sum to exactly 1.

    >>> DieSpec([(1, Fraction(1, 2)), (1, Fraction(1, 4)), (-1, Fraction(1, 4))]).faces
    ((-1, Fraction(1, 4)), (1, Fraction(3, 4)))
    """

    faces: tuple[tuple[int, Fraction], ...]

    def __init__(self, faces: object) -> None:
        merged: dict[int, Fraction] = {}
        for value, prob in faces:  # type: ignore[union-attr]
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"face value must be an integer, got {value!r}")
            merged[value] = merged.get(value, Fraction(0)) + Fraction(prob)
        if not merged:
            raise DomainError("a die needs at least one face")
        for value, prob in merged.items():
            if prob <= 0:
                raise DomainError(
                    f"face {value} has nonpositive probability {prob}"
                )
        total = sum(merged.values())
        if total != 1:
            raise DomainError(f"face probabilities must sum to 1, got {total}")
        object.__setattr__(
            self, "faces", tuple(sorted(merged.items()))
        )

    @staticmethod
    def fair(values: list[int]) -> DieSpec:
        """Equal weight on each listed value (duplicates add up)."""
        if not values:
            raise DomainError("a die needs at least one face")
        w = Fraction(1, len(values))
        return DieSpec([(v, w) for v in values])

    def to_json_dict(self) -> dict:
        return {
            "faces": [
                {"value": v, "prob": rat_to_str(p)} for v, p in self.faces
            ]
        }

    @staticmethod
    def from_json_dict(data: object) -> DieSpec:
        if not isinstance(data, dict) or "faces" not in data:
            raise ParseError("die JSON needs a top-level \"faces\" list", 0)
        faces = data["faces"]
        if not isinstance(faces, list):
            raise ParseError("die \"faces\" must be a list", 0)
        pairs = []
        for face in faces:
            if not isinstance(face, dict) or "value" not in face or "prob" not in face:
                raise ParseError("each face needs \"value\" and \"prob\"", 0)
            value = face["value"]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"face value must be an integer, got {value!r}", 0)
            pairs.append((value, rat_from_str(face["prob"])))
        return DieSpec(pairs)


def die_poly(die: DieSpec) -> LaurentPoly:
    """P(x) = sum p_i x^(v_i); always satisfies P(1) = 1.

    >>> die_poly(DieSpec.fair([-1, 0, 1])).text()
    '1/3*x^-1+1/3+1/3*x'
    """
    return LaurentPoly.from_coeff_map({v: p for v, p in die.faces})


def modular_prob_gf(die: DieSpec, k: int, max_k: int = DEFAULT_MAX_K) -> ResidueSolution:
    """Generating functions of the mod-k residue probabilities of the total.

    series(gfs[a], n)[n] is the exact probability that the running total is
    = a (mod k) after n throws. Cost grows like k**3 and worse, so k is
    capped (configurable) instead of pretending astronomically large moduli
    are tractable.
    """
    if k < 1:
        raise DomainError(f"modulus k must be positive, got {k}")
    if k > max_k:
        raise DomainError(f"modulus k = {k} exceeds the ceiling {max_k}")
    return residue_gfs(die_poly(die), k)


def break_even_prob(die: DieSpec, n: int) -> Fraction:
    """Exact probability that n throws total exactly zero.

    Direct expansion of the n-th power; unlike the mod-k probabilities this
    sequence has no constant-coefficient recurrence to exploit. The power
    comes from Miller's recurrence on the integer-cleared face weights and
    is checked at a hashed point (LaurentPoly.__pow__).

    >>> break_even_prob(DieSpec.fair([-1, 0, 1]), 2)
    Fraction(1, 3)
    """
    check_throw_count(die, n)
    return (die_poly(die) ** n).coeff(0)


def check_throw_count(die: DieSpec, n: int) -> None:
    """The checks break_even_prob makes before expanding: n >= 0 and the power ceiling."""
    if n < 0:
        raise DomainError(f"throw count must be nonnegative, got {n}")
    check_power_size(die_poly(die), n)
