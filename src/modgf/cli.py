"""Command-line front-end: every library capability behind one binary.

Output contract: with --format json the envelope is
{"command", "inputs", "result"} plus "timing_ms" when --timing is given, and
is byte-identical across runs for identical inputs (fixed key order,
canonical rational strings, timing opt-in for that reason). --format text
prints human-readable "key = value" lines, with generating functions
rendered like (1-t)/(1-2*t-3*t^2).

Exit codes: 0 success; 1 usage or input parse error; 2 domain error
(precondition violated); 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Sequence

from .dice import DieSpec, break_even_prob, check_throw_count, modular_prob_gf
from .errors import DomainError, InternalConsistencyError, ParseError
from .laurent import LaurentPoly, parse_laurent
from .rationals import rat_to_str
from .residues import (
    ResidueSolution,
    residue_gfs,
    residue_gfs_symmetric,
    residue_sum,
)
from .tales import Tale, euler_tale, george_check, search_tale


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # type: ignore[override]
        raise _UsageError(message)


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--timing", action="store_true",
        help="include wall-clock timing in the output",
    )

    parser = _Parser(
        prog="modgf",
        description="Exact generating functions for residue-class coefficient "
        "sums of powers of Laurent polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_ga = sub.add_parser(
        "ga", parents=[common],
        help="generating functions of A(n,k,a) for every class a",
    )
    p_ga.add_argument("-P", required=True, metavar="POLY", help="Laurent polynomial, e.g. \"x^-1+1+x\"")
    p_ga.add_argument("-k", required=True, type=int, help="modulus")

    p_gas = sub.add_parser(
        "gas", parents=[common],
        help="same as ga; refuses P with P(x) ≠ P(1/x)",
    )
    p_gas.add_argument("-P", required=True, metavar="POLY")
    p_gas.add_argument("-k", required=True, type=int)

    p_coeff = sub.add_parser(
        "coeff", parents=[common], help="coefficient of x^j in P^n",
    )
    p_coeff.add_argument("-P", required=True, metavar="POLY")
    p_coeff.add_argument("-n", required=True, type=int, help="power")
    p_coeff.add_argument("-j", required=True, type=int, help="exponent")

    p_sum = sub.add_parser(
        "sum", parents=[common],
        help="A(n,k,a) by brute-force expansion (oracle path)",
    )
    p_sum.add_argument("-P", required=True, metavar="POLY")
    p_sum.add_argument("-k", required=True, type=int)
    p_sum.add_argument("-a", required=True, type=int, help="residue class")
    p_sum.add_argument("-n", required=True, type=int, help="power")

    p_series = sub.add_parser(
        "series", parents=[common],
        help="A(0..N, k, a) from the generating-function path",
    )
    p_series.add_argument("-P", required=True, metavar="POLY")
    p_series.add_argument("-k", required=True, type=int)
    p_series.add_argument("-a", required=True, type=int)
    p_series.add_argument("-N", required=True, type=int, help="last index")

    sub.add_parser(
        "verify-george", parents=[common],
        help="verify the repaired mod-10 identity, rigorously",
    )

    sub.add_parser(
        "euler-tale", parents=[common],
        help="reproduce the classical misleading-induction story",
    )

    p_tale = sub.add_parser(
        "tale", parents=[common],
        help="search for a misleading induction in A(n,k,a)",
    )
    p_tale.add_argument("-P", required=True, metavar="POLY")
    p_tale.add_argument("-k", required=True, type=int)
    p_tale.add_argument("-a", required=True, type=int)
    p_tale.add_argument("--fit-window", required=True, type=int, dest="fit_window")
    p_tale.add_argument("--horizon", required=True, type=int)

    p_dice = sub.add_parser(
        "dice", parents=[common],
        help="modular-sum probabilities of a loaded die; -n adds break-even",
    )
    p_dice.add_argument(
        "--faces", required=True,
        help='die JSON, e.g. \'{"faces":[{"value":-1,"prob":"1/3"}, ...]}\'',
    )
    p_dice.add_argument("-k", required=True, type=int)
    p_dice.add_argument("-n", type=int, default=None, help="throw count for break-even probability")

    return parser


def _poly_flag(text: str) -> LaurentPoly:
    try:
        return parse_laurent(text)
    except ParseError as e:
        raise _UsageError(f"-P: {e}") from e


def _die_flag(text: str) -> DieSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise _UsageError(f"--faces: invalid JSON: {e}") from e
    try:
        return DieSpec.from_json_dict(data)
    except ParseError as e:
        raise _UsageError(f"--faces: {e}") from e


def _check_class_flag(k: int, a: int) -> None:
    if k < 1:
        raise DomainError(f"modulus k must be positive, got {k}")
    if not 0 <= a < k:
        raise DomainError(f"-a: residue class must lie in [0, {k}), got {a}")


def _solution_lines(sol: ResidueSolution) -> list[str]:
    lines = [
        f"P = {sol.p.text()}",
        f"k = {sol.k}",
        f"symmetric = {_bool_text(sol.symmetric)}",
        f"common_den = {sol.common_den.text()}",
        f"common_den_degree = {sol.common_den.deg()}",
    ]
    lines.extend(f"gfs[{a}] = {f.text()}" for a, f in enumerate(sol.gfs))
    return lines


def _tale_lines(tale: Tale | None, reason: str) -> list[str]:
    if tale is None:
        return ["tale: none", f"reason = {reason}"]
    first_n = tale.index_base
    last_n = tale.index_base + tale.prefix_len - 1
    return [
        "tale: found",
        f"P = {tale.p.text()}",
        f"k = {tale.k}",
        f"a = {tale.a}",
        f"candidate_order = {tale.candidate.order}",
        f"agreement = n = {first_n} .. {last_n} ({tale.prefix_len} values)",
        f"first_failure_n = {tale.first_failure_n}",
        f"expected = {rat_to_str(tale.expected)}",
        f"actual = {rat_to_str(tale.actual)}",
        f"true_terms = {' '.join(rat_to_str(v) for v in tale.true_terms)}",
        f"candidate_terms = {' '.join(rat_to_str(v) for v in tale.candidate_terms)}",
        f"label = {tale.label}",
    ]


def _cmd_ga(ns) -> tuple[dict, object, list[str], int]:
    p = _poly_flag(ns.P)
    sol = residue_gfs(p, ns.k)
    inputs = {"P": p.to_json_dict(), "k": ns.k}
    return inputs, sol.to_json_dict(), _solution_lines(sol), 0


def _cmd_gas(ns) -> tuple[dict, object, list[str], int]:
    p = _poly_flag(ns.P)
    sol = residue_gfs_symmetric(p, ns.k)
    inputs = {"P": p.to_json_dict(), "k": ns.k}
    return inputs, sol.to_json_dict(), _solution_lines(sol), 0


def _cmd_coeff(ns) -> tuple[dict, object, list[str], int]:
    p = _poly_flag(ns.P)
    value = (p**ns.n).coeff(ns.j)
    inputs = {"P": p.to_json_dict(), "n": ns.n, "j": ns.j}
    return inputs, {"value": rat_to_str(value)}, [rat_to_str(value)], 0


def _cmd_sum(ns) -> tuple[dict, object, list[str], int]:
    p = _poly_flag(ns.P)
    value = residue_sum(p, ns.k, ns.a, ns.n)
    inputs = {"P": p.to_json_dict(), "k": ns.k, "a": ns.a, "n": ns.n}
    return inputs, {"value": rat_to_str(value)}, [rat_to_str(value)], 0


def _cmd_series(ns) -> tuple[dict, object, list[str], int]:
    p = _poly_flag(ns.P)
    _check_class_flag(ns.k, ns.a)
    if ns.N < 0:
        raise DomainError("series needs a nonnegative term count")
    sol = residue_gfs(p, ns.k)
    values = sol.gfs[ns.a].series(ns.N)
    inputs = {"P": p.to_json_dict(), "k": ns.k, "a": ns.a, "N": ns.N}
    result = {"values": [rat_to_str(v) for v in values]}
    return inputs, result, [" ".join(result["values"])], 0


def _cmd_verify_george(ns) -> tuple[dict, object, list[str], int]:
    report = george_check()
    lines = [
        f"rewrite_ok = {_bool_text(report.rewrite_ok)}",
        f"rewrite_checked_to = {report.rewrite_checked_to}",
        f"single_term_ok = {_bool_text(report.single_term_ok)}",
        f"correction_at_8 = {rat_to_str(report.correction_at_8)}",
        f"window_ok = {_bool_text(report.window_ok)}",
        f"window_checked_to = {report.window_checked_to}",
        f"oracle_ok = {_bool_text(report.oracle_ok)}",
        f"oracle_checked_to = {report.oracle_checked_to}",
        f"lhs_order = {report.lhs_recurrence.order}",
        f"rhs_order = {report.rhs_recurrence.order}",
        f"verdict = {'equal' if report.verdict.equal else 'not equal'}",
        f"verdict_window = {report.verdict.window}",
        f"all_ok = {_bool_text(report.all_ok)}",
    ]
    return {}, report.to_json_dict(), lines, 0 if report.all_ok else 3


def _cmd_euler_tale(ns) -> tuple[dict, object, list[str], int]:
    tale = euler_tale()
    return {}, tale.to_json_dict(), _tale_lines(tale, "tale found"), 0


def _cmd_tale(ns) -> tuple[dict, object, list[str], int]:
    p = _poly_flag(ns.P)
    tale, reason = search_tale(p, ns.k, ns.a, ns.fit_window, ns.horizon)
    inputs = {
        "P": p.to_json_dict(),
        "k": ns.k,
        "a": ns.a,
        "fit_window": ns.fit_window,
        "horizon": ns.horizon,
    }
    result = {
        "tale": tale.to_json_dict() if tale is not None else None,
        "reason": reason,
    }
    return inputs, result, _tale_lines(tale, reason), 0


def _cmd_dice(ns) -> tuple[dict, object, list[str], int]:
    die = _die_flag(ns.faces)
    if ns.n is not None:
        check_throw_count(die, ns.n)
    sol = modular_prob_gf(die, ns.k)
    inputs: dict = {"faces": die.to_json_dict()["faces"], "k": ns.k}
    result: dict = {"modular_gf": sol.to_json_dict()}
    lines = _solution_lines(sol)
    if ns.n is not None:
        prob = break_even_prob(die, ns.n)
        inputs["n"] = ns.n
        result["n"] = ns.n
        result["break_even_prob"] = rat_to_str(prob)
        lines.append(f"break_even_prob(n={ns.n}) = {rat_to_str(prob)}")
    return inputs, result, lines, 0


_COMMANDS = {
    "ga": _cmd_ga,
    "gas": _cmd_gas,
    "coeff": _cmd_coeff,
    "sum": _cmd_sum,
    "series": _cmd_series,
    "verify-george": _cmd_verify_george,
    "euler-tale": _cmd_euler_tale,
    "tale": _cmd_tale,
    "dice": _cmd_dice,
}


_LEADING_MINUS_POLY = re.compile(r"-[\sx0-9]")


def _attach_poly_values(argv: Sequence[str]) -> list[str]:
    """Rewrite "-P", "-x+1" as "-P-x+1".

    argparse reads a separate token that starts with "-" as an option, so a
    polynomial with a leading minus only parses when attached to its flag.
    A token is attached when it can only be a polynomial: after the "-"
    comes a digit, "x" or whitespace, which no option of this parser starts
    with.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "-P" and _LEADING_MINUS_POLY.match(tok):
            out[-1] = "-P" + tok
        else:
            out.append(tok)
    return out


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_attach_poly_values(argv))
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)

    started = time.perf_counter()
    try:
        inputs, result, lines, code = _COMMANDS[ns.command](ns)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalConsistencyError as e:
        print(f"error: internal consistency failure: {e}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    if ns.format == "json":
        envelope: dict = {"command": ns.command, "inputs": inputs, "result": result}
        if ns.timing:
            envelope["timing_ms"] = elapsed_ms
        print(json.dumps(envelope, indent=2))
    else:
        for line in lines:
            print(line)
        if ns.timing:
            print(f"timing_ms = {elapsed_ms}")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
