"""Seeded inputs and ops for the four benchmark workloads.

An op is one closed-loop request: a zero-argument call into modgf (timed),
plus an oracle check and a canonical rendering of its output (untimed). Op i
of a workload depends only on the seed and i, so a run can stop at any
point and the first ``prefix`` ops are the same in every run of a seed.

Sizes follow a fixed per-workload schedule and the seed draws the values,
so each run mixes the same shapes whatever the seed: that keeps the cost of
a run steady across seeds while every input stays distinct.

modgf names are looked up at call time (``modgf.residues.residue_gfs``,
``modgf.cli.run``), so the traced run's wrappers see the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Callable, Iterator

import modgf
import modgf.cli

import oracle
import verify


@dataclasses.dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], verify.Check]
    canon: Callable[[object], str]
    k: int | None = None
    n: int | None = None
    symmetric: bool = False
    repeat: bool = False


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prefix: int  # ops always run, digested and traced
    ops: Callable[[int], Iterator[Op]]


# --- input generators (plain data; modgf objects are built from them) ---


def fixed_norm_terms(rng: random.Random, width: int, norm: int, den: int, lo: int) -> dict[int, Fraction]:
    """width consecutive nonzero terms from x^lo, numerators' |.| summing to norm, over den.

    Fixing the norm and denominator fixes the coefficient growth the solvers
    see, so the seed changes the input but hardly its cost.
    """
    cuts = sorted(rng.sample(range(1, norm), width - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, norm])]
    return {lo + i: Fraction(p * rng.choice((1, -1)), den) for i, p in enumerate(parts)}


def palindrome(rng: random.Random, half: int, norm: int) -> dict[int, Fraction]:
    """Integer P with P(x) = P(1/x), support -half..half, fixed coefficient norm."""
    side = fixed_norm_terms(rng, half + 1, norm, 1, 0)
    return {e: c for i, c in side.items() for e in {i, -i}}


def laurent(terms: dict[int, Fraction]):
    t = oracle.clean(terms)
    lo = min(t)
    return modgf.LaurentPoly(lo, [t.get(e, Fraction(0)) for e in range(lo, max(t) + 1)])


def die_json(faces: dict[int, Fraction]) -> str:
    return json.dumps({"faces": [{"value": v, "prob": str(p)} for v, p in sorted(faces.items())]})


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = modgf.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_canon(out: tuple[int, str, str]) -> str:
    return f"exit {out[0]}\n{out[1]}{out[2]}"


def _cli_op(label, argv, check, **info) -> Op:
    return Op(label, lambda: run_cli(argv), check, cli_canon, **info)


# --- gf_dense ---

# (support width, k, denominator, coefficient norm), paired so that every op
# costs about the same: the median and the tail then sit inside one cluster
# of op costs instead of between two.
#
# k is prime: the transfer matrix is circulant, its eigenvalues are the
# values of the folded P at k-th roots of unity, and for prime k and an
# asymmetric P narrower than k/2 no two nonzero ones coincide, so every gcd
# is trivial and elimination is what costs. (With a composite k, small
# coefficients often make two eigenvalues equal and the op several times
# dearer; gf_symmetric is where nontrivial gcds live.)
DENSE_SHAPES = (
    (5, 37, 2, 15), (7, 31, 6, 35), (4, 41, 2, 12), (4, 37, 6, 12),
    (5, 37, 3, 15), (7, 29, 6, 35), (5, 37, 6, 15), (7, 31, 6, 35),
    (4, 43, 2, 12), (4, 37, 6, 12), (5, 37, 2, 15), (6, 31, 6, 30),
)


def dense_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    for i in itertools.count():
        width, k, den, norm = DENSE_SHAPES[i % len(DENSE_SHAPES)]
        terms = fixed_norm_terms(rng, width, norm, den, -rng.randrange(width))
        if oracle.is_symmetric(terms):
            terms[max(terms)] = -terms[max(terms)]
        yield _dense_op(terms, k)


def _dense_op(terms, k) -> Op:
    p = laurent(terms)

    def call():
        sol = modgf.residues.residue_gfs(p, k)
        text = json.dumps(sol.to_json_dict())
        return text, modgf.residues.ResidueSolution.from_json_dict(json.loads(text))

    def check(out) -> verify.Check:
        text, reloaded = out
        data = json.loads(text)
        errs, info = verify.check_family(terms, k, verify.family_from_json(data))
        if reloaded.to_json_dict() != data:
            errs.append("JSON round trip changed the solution")
        return errs, info

    return Op(f"residue_gfs k={k}", call, check, lambda out: out[0], k=k)


# --- gf_symmetric ---

# Symmetric families as {exponent >= 0: magnitude}. The seed draws the signs
# of palindrome terms (and of the trinomial as a whole); die probabilities
# are fixed. Coefficient sizes drive the cost of exact elimination far more
# than k does, so each family keeps its magnitudes and only its signs and k
# vary: that keeps a run's cost steady across seeds.
SYMMETRIC_FAMILIES = {
    "tri": {0: Fraction(1), 1: Fraction(1)},
    "pal1": {0: Fraction(2), 1: Fraction(1)},
    "pal2": {0: Fraction(2), 1: Fraction(1), 2: Fraction(1)},
    "die3": {0: Fraction(1, 3), 1: Fraction(1, 3)},  # fair die labelled -1, -1, 0, 0, 1, 1
    "die2": {1: Fraction(1, 2)},  # fair die labelled -1, -1, -1, 1, 1, 1
    "die5": {0: Fraction(1, 3), 1: Fraction(1, 6), 2: Fraction(1, 6)},  # -2, -1, 0, 0, 1, 2
}
# (call, family, k); each op draws k within +-2 of the listed value. Calls
# alternate residue_gfs, residue_gfs_symmetric and modular_prob_gf.
SYMMETRIC_SHAPES = (
    ("gfs", "tri", 50), ("gfs_sym", "pal1", 50), ("die", "die5", 38),
    ("gfs", "pal2", 40), ("gfs_sym", "tri", 52), ("die", "die3", 44),
    ("gfs", "pal1", 46), ("gfs_sym", "pal2", 42), ("die", "die2", 54),
    ("gfs", "tri", 48), ("gfs_sym", "tri", 58), ("die", "die2", 48),
)


def symmetric_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    seen = set()
    for i in itertools.count():
        call, family, base_k = SYMMETRIC_SHAPES[i % len(SYMMETRIC_SHAPES)]
        mags = SYMMETRIC_FAMILIES[family]
        for _ in range(100):  # distinct inputs while the family has unused variants
            k = base_k + rng.randint(-2, 2)
            if call == "die":
                signs = {e: 1 for e in mags}
            elif family == "tri":
                signs = dict.fromkeys(mags, rng.choice((1, -1)))
            else:
                signs = {e: rng.choice((1, -1)) for e in mags}
            terms = {x: signs[e] * c for e, c in mags.items() for x in {e, -e}}
            key = (call, k, tuple(sorted(terms.items())))
            if key not in seen:
                break
        seen.add(key)
        yield _symmetric_op(call, terms, k)


def _symmetric_op(call_name: str, terms, k) -> Op:
    p = laurent(terms)
    if call_name == "die":
        die = modgf.DieSpec(sorted(terms.items()))
        call = lambda: modgf.dice.modular_prob_gf(die, k)  # noqa: E731
    elif call_name == "gfs_sym":
        call = lambda: modgf.residues.residue_gfs_symmetric(p, k)  # noqa: E731
    else:
        call = lambda: modgf.residues.residue_gfs(p, k)  # noqa: E731

    def check(sol) -> verify.Check:
        family = verify.family_from_json(sol.to_json_dict())
        return verify.check_family(terms, k, family, mirrored=call_name == "gfs_sym")

    return Op(f"{call_name} k={k}", call, check,
              lambda sol: json.dumps(sol.to_json_dict()), k=k, symmetric=True)


# --- expand ---

# (command, n, support width). coeff and sum expand an integer P with the
# width's magnitudes below and seeded signs and shift; dice -n a loaded die
# whose faces 1/6, 1/3, 1/2 land on seeded values; verify-george has no
# inputs and expands the trinomial up to its 202nd power. The magnitudes fix
# the size of the coefficients of P^n, which sets the cost, so the seed
# varies the input but hardly the cost.
EXPAND_MAGNITUDES = {3: (1, 2, 1), 4: (1, 1, 1, 1)}
EXPAND_SHAPES = (
    ("coeff", 200, 3), ("sum", 150, 4), ("dice", 170, 3), ("george", 200, 3),
    ("coeff", 150, 4), ("sum", 180, 3), ("dice", 140, 4), ("coeff", 210, 3),
)


def expand_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    for i in itertools.count():
        cmd, n, width = EXPAND_SHAPES[i % len(EXPAND_SHAPES)]
        fmt = ("text", "json")[(i // len(EXPAND_SHAPES)) % 2]
        if cmd == "george":
            yield _cli_op("verify-george", ["verify-george", "--format", fmt],
                          lambda out, fmt=fmt: verify.cli_george(out, fmt), n=n)
            continue
        if cmd == "dice":
            lo = -rng.randrange(width)
            values = [lo, *sorted(rng.sample(range(lo + 1, lo + width - 1), 1)), lo + width - 1]
            probs = rng.sample([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], 3)
            terms = dict(zip(values, probs))
            k = rng.randint(3, 8)
            argv = ["dice", "--faces", die_json(terms), "-k", str(k), "-n", str(n), "--format", fmt]
            yield _cli_op(f"dice -n {n}", argv,
                          lambda out, fmt=fmt, t=terms, k=k, n=n: verify.cli_dice(out, fmt, t, k, n), k=k, n=n)
            continue
        lo = -rng.randrange(width)
        terms = {lo + i: Fraction(m * rng.choice((1, -1))) for i, m in enumerate(EXPAND_MAGNITUDES[width])}
        ptext = oracle.laurent_text(terms)
        if cmd == "coeff":
            j = rng.randint(-n // 8, n // 8)
            argv = ["coeff", "-P" + ptext, "-n", str(n), "-j", str(j), "--format", fmt]
            want = lambda t=terms, n=n, j=j: oracle.coeff_of_power(t, n, j)  # noqa: E731
            info = {}
        else:
            k = rng.randint(3, 9)
            a = rng.randrange(k)
            argv = ["sum", "-P" + ptext, "-k", str(k), "-a", str(a), "-n", str(n), "--format", fmt]
            want = lambda t=terms, k=k, a=a, n=n: oracle.residue_sum(t, k, a, n)  # noqa: E731
            info = {"k": k}
        yield _cli_op(f"{cmd} -n {n}", argv,
                      lambda out, cmd=cmd, fmt=fmt, want=want: verify.cli_value(out, cmd, fmt, want()),
                      n=n, **info)


# --- cli_small ---

# (command, format, k, family, size). Each slot fixes k, the input family and
# the size knob (N for series, the fit window for tale), so the mix of
# per-call costs is the same for every seed, with half the slots costing
# 12-16 ms so that the median sits inside that cluster; formats alternate so
# both renderings are exercised. Families: "dense<w>" is a rational P of width w,
# "pal<h>" an integer palindrome reaching +-h, "die<f>" a fair die with f
# faces, "sparse" two terms c + d*x: for n < k their class-a sums are
# C(n, a) c^(n-a) d^a, C-finite of order a + 1, and the pattern breaks at
# n = k + a, which is where misleading inductions come from.
SMALL_CYCLE = (
    ("ga", "json", 11, "dense3", None), ("series", "text", 7, "dense4", 200),
    ("tale", "json", 12, "sparse", 8), ("gas", "text", 10, "pal1", None),
    ("dice", "json", 12, "die3", None), ("ga", "text", 11, "dense4", None),
    ("series", "json", 5, "dense3", 300), ("tale", "text", 9, "dense3", 24),
    ("euler", "json", None, None, None), ("gas", "json", 12, "pal2", None),
    ("dice", "text", 6, "die4", None), ("tale", "json", 12, "sparse", 10),
)


def _small_terms(rng: random.Random, family: str) -> dict[int, Fraction]:
    if family == "sparse":
        return {0: Fraction(rng.randint(1, 5)), 1: Fraction(rng.randint(1, 5))}
    if family.startswith("pal"):
        half = int(family[3:])
        return palindrome(rng, half, 2 * half + 2)
    if family.startswith("die"):
        values = rng.sample(range(-3, 4), int(family[3:]))
        return {v: Fraction(1, len(values)) for v in values}
    width = int(family[5:])
    return fixed_norm_terms(rng, width, width + 2, 2, -rng.randrange(width))


def small_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    pools: dict[int, list] = {}
    for i in itertools.count():
        slot = i % len(SMALL_CYCLE)
        cmd, fmt, k, family, size = SMALL_CYCLE[slot]
        if cmd == "euler":
            yield _cli_op("euler-tale", ["euler-tale", "--format", fmt],
                          lambda out, fmt=fmt: verify.cli_euler(out, fmt))
            continue
        # About half the draws repeat an earlier input of the same slot.
        pool = pools.setdefault(slot, [])
        repeat = bool(pool) and rng.random() < 0.5
        terms = rng.choice(pool) if repeat else _small_terms(rng, family)
        if not repeat:
            pool.append(terms)
        info = {"k": k, "symmetric": oracle.is_symmetric(terms), "repeat": repeat}
        if cmd == "dice":
            argv = ["dice", "--faces", die_json(terms), "-k", str(k), "--format", fmt]
            yield _cli_op("dice", argv,
                          lambda out, fmt=fmt, t=terms, k=k: verify.cli_dice(out, fmt, t, k, None), **info)
            continue
        base = ["-P" + oracle.laurent_text(terms), "-k", str(k), "--format", fmt]
        if cmd in ("ga", "gas"):
            yield _cli_op(cmd, [cmd, *base],
                          lambda out, c=cmd, fmt=fmt, t=terms, k=k: verify.cli_family(out, c, fmt, t, k),
                          **info)
        elif cmd == "series":
            a = rng.randrange(k)
            yield _cli_op("series", ["series", *base, "-a", str(a), "-N", str(size)],
                          lambda out, fmt=fmt, t=terms, k=k, a=a, n=size: verify.cli_series(out, fmt, t, k, a, n),
                          n=size, **info)
        else:
            # Sparse slots search classes a <= 2, whose pattern outlives the window.
            a, horizon = rng.randrange(3 if family == "sparse" else k), size + 16
            argv = ["tale", *base, "-a", str(a), "--fit-window", str(size), "--horizon", str(horizon)]
            yield _cli_op("tale", argv,
                          lambda out, fmt=fmt, t=terms, k=k, a=a, w=size, h=horizon:
                          verify.cli_tale(out, fmt, t, k, a, w, h),
                          n=horizon, **info)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gf_dense", "asymmetric rational P, prime k 29-43: elimination dominates, gcds mostly "
                 "trivial; JSON reload re-reduces every class", len(DENSE_SHAPES), dense_ops),
        Workload("gf_symmetric", "symmetric P, k 36-60: every class has a gcd of degree about k/2, so "
                 "reduce is a third of each solve", len(SYMMETRIC_SHAPES), symmetric_ops),
        Workload("expand", "brute-force powers through cli.run (coeff, sum, dice -n, verify-george), "
                 "n 140-210", len(EXPAND_SHAPES), expand_ops),
        Workload("cli_small", "hundreds of small cli.run requests, json and text, half repeating an "
                 "earlier (P, k): fixed per-call costs", 20 * len(SMALL_CYCLE), small_ops),
    )
}
