"""Check each benchmark op's output against the oracle; no modgf import.

Every check returns (errors, info): a list of readable mismatches (empty when
the output is right) and a dict of exact facts about the output that feed the
input summary, such as the gcd degree sum of a generating-function family.
CLI outputs are read back from their JSON envelope or their text lines, so
both renderings are checked, not only the library objects behind them.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle

Check = tuple[list[str], dict]


def _json_poly(data: dict) -> dict[int, Fraction]:
    return {data["min_exp"] + i: Fraction(c) for i, c in enumerate(data["coeffs"])}


def family_from_json(result: dict):
    """(P terms, k, symmetric, common_den, gfs) from a ResidueSolution JSON dict."""
    gfs = [(oracle.rat_list(g["num"]), oracle.rat_list(g["den"])) for g in result["gfs"]]
    common_den = oracle.rat_list(result["common_den"])
    if result["common_den_degree"] != len(oracle.trim(common_den)) - 1:
        raise ValueError("common_den_degree does not match common_den")
    return _json_poly(result["P"]), result["k"], result["symmetric"], common_den, gfs


def _text_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def family_from_text(stdout: str):
    f = _text_fields(stdout)
    k = int(f["k"])
    common_den = oracle.as_list(oracle.parse_text(f["common_den"]))
    if int(f["common_den_degree"]) != len(common_den) - 1:
        raise ValueError("common_den_degree does not match common_den")
    gfs = [oracle.parse_ratfun(f[f"gfs[{a}]"]) for a in range(k)]
    return oracle.parse_text(f["P"]), k, f["symmetric"] == "true", common_den, gfs


def check_family(terms: dict[int, Fraction], k: int, family, mirrored: bool = False) -> Check:
    got_terms, got_k, symmetric, common_den, gfs = family
    errs = []
    if oracle.clean(got_terms) != oracle.clean(terms) or got_k != k:
        errs.append("echoed P or k differs from the input")
    if symmetric != oracle.is_symmetric(terms):
        errs.append("symmetric flag is wrong")
    fam_errs, gcd_sum = oracle.check_family(terms, k, common_den, gfs, mirrored)
    return errs + fam_errs, {"gcd_degree_sum": gcd_sum}


def _cli_envelope(out, command: str, fmt: str) -> tuple[list[str], object]:
    """Exit code and envelope checks; returns (errors, JSON result or text)."""
    code, stdout, stderr = out
    if code != 0:
        return [f"{command}: exit code {code}: {stderr.strip()[:200]}"], None
    if fmt == "text":
        return [], stdout
    env = json.loads(stdout)
    if env.get("command") != command or set(env) != {"command", "inputs", "result"}:
        return [f"{command}: malformed JSON envelope"], None
    return [], env["result"]


def _guard(fn):
    """Turn a parse failure of the output into a recorded mismatch."""

    def checked(*args) -> Check:
        try:
            return fn(*args)
        except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"], {}

    return checked


@_guard
def cli_family(out, command: str, fmt: str, terms, k) -> Check:
    errs, res = _cli_envelope(out, command, fmt)
    if errs:
        return errs, {}
    fam = family_from_text(res) if fmt == "text" else family_from_json(res)
    return check_family(terms, k, fam, mirrored=command == "gas")


@_guard
def cli_dice(out, fmt: str, terms, k, n) -> Check:
    errs, res = _cli_envelope(out, "dice", fmt)
    if errs:
        return errs, {}
    if fmt == "text":
        fam = family_from_text(res)
        prob = _text_fields(res).get(f"break_even_prob(n={n})") if n is not None else None
    else:
        fam = family_from_json(res["modular_gf"])
        prob = res.get("break_even_prob")
    errs, info = check_family(terms, k, fam)
    if n is not None and (prob is None or Fraction(prob) != oracle.coeff_of_power(terms, n, 0)):
        errs.append(f"break_even_prob(n={n}) differs from the oracle")
    return errs, info


@_guard
def cli_value(out, command: str, fmt: str, want: Fraction) -> Check:
    errs, res = _cli_envelope(out, command, fmt)
    if errs:
        return errs, {}
    got = Fraction(res.strip() if fmt == "text" else res["value"])
    return ([] if got == want else [f"{command}: {got} != oracle {want}"]), {}


@_guard
def cli_series(out, fmt: str, terms, k, a, n_last) -> Check:
    errs, res = _cli_envelope(out, "series", fmt)
    if errs:
        return errs, {}
    got = res.split() if fmt == "text" else res["values"]
    if oracle.rat_list(got) != oracle.class_values(terms, k, a, n_last):
        return ["series values differ from the oracle"], {}
    return [], {}


def _tale_fields(res, fmt: str) -> dict | None:
    """Common view of a found tale in either rendering; None when none was found."""
    if fmt == "json":
        t = res["tale"]
        if t is None:
            return None
        return {
            "k": t["k"], "a": t["a"],
            "first_failure_n": t["first_failure_n"],
            "expected": Fraction(t["expected"]), "actual": Fraction(t["actual"]),
            "true_terms": oracle.rat_list(t["true_terms"]),
            "candidate_terms": oracle.rat_list(t["candidate_terms"]),
            "candidate": (oracle.rat_list(t["candidate"]["rec_coeffs"]),
                          oracle.rat_list(t["candidate"]["initials"])),
        }
    f = _text_fields(res)
    if res.splitlines()[0] != "tale: found":
        return None
    return {
        "k": int(f["k"]), "a": int(f["a"]),
        "first_failure_n": int(f["first_failure_n"]),
        "expected": Fraction(f["expected"]), "actual": Fraction(f["actual"]),
        "true_terms": oracle.rat_list(f["true_terms"].split()),
        "candidate_terms": oracle.rat_list(f["candidate_terms"].split()),
        "candidate": None,
    }


@_guard
def cli_tale(out, fmt: str, terms, k, a, window, horizon) -> Check:
    """A found tale must match the oracle's terms, and fail where it says it does."""
    errs, res = _cli_envelope(out, "tale", fmt)
    if errs:
        return errs, {}
    t = _tale_fields(res, fmt)
    if t is None:
        reason = res["reason"] if fmt == "json" else _text_fields(res)["reason"]
        return ([] if reason else ["tale: none without a reason"]), {"tale_found": 0}
    fail = t["first_failure_n"]
    truth = oracle.class_values(terms, k, a, max(fail, horizon, 11))
    errs = []
    if (t["k"], t["a"]) != (k, a):
        errs.append("tale echoes the wrong k or a")
    if t["true_terms"] != truth[:12]:
        errs.append("tale true_terms differ from the oracle")
    if t["actual"] != truth[fail] or t["expected"] == t["actual"] or fail < window + 2:
        errs.append(f"tale failure at n={fail} is not a failure of the oracle's terms")
    cand = t["candidate_terms"]
    if cand[: min(fail, 12)] != truth[: min(fail, 12)]:
        errs.append("tale candidate_terms disagree with the truth before the failure")
    if t["candidate"] is not None:
        ext = oracle.extend_recurrence(*t["candidate"], max(fail, 11))
        first = next((n for n in range(fail + 1) if ext[n] != truth[n]), None)
        if first != fail or ext[fail] != t["expected"] or ext[:12] != cand:
            errs.append("tale candidate recurrence does not fail first at the stated index")
    return errs, {"tale_found": 1}


@_guard
def cli_euler(out, fmt: str) -> Check:
    errs, res = _cli_envelope(out, "euler-tale", fmt)
    if errs:
        return errs, {}
    t = _tale_fields({"tale": res} if fmt == "json" else res, fmt)
    truth = oracle.euler_terms(12)
    fib = [oracle.fibonacci(m - 1) * (oracle.fibonacci(m - 1) + 1) for m in range(12)]
    if t is None or t["first_failure_n"] != 8 or (t["expected"], t["actual"]) != (462, 464):
        return ["euler-tale: not the 464 vs 462 failure at n = 8"], {}
    if t["true_terms"] != truth or t["candidate_terms"] != fib:
        return ["euler-tale: sample terms differ from the oracle"], {}
    return [], {}


@_guard
def cli_george(out, fmt: str) -> Check:
    """all_ok, the n = 8 correction, and (JSON) the proved recurrence's terms."""
    errs, res = _cli_envelope(out, "verify-george", fmt)
    if errs:
        return errs, {}
    if fmt == "text":
        f = _text_fields(res)
        ok = f["all_ok"] == "true" and f["verdict"] == "equal" and Fraction(f["correction_at_8"]) == 1
        return ([] if ok else ["verify-george: invariants not all true"]), {}
    if not (res["all_ok"] and res["verdict"]["equal"] and Fraction(res["correction_at_8"]) == 1):
        return ["verify-george: invariants not all true"], {}
    lhs = res["lhs_recurrence"]
    vals = oracle.extend_recurrence(oracle.rat_list(lhs["rec_coeffs"]), oracle.rat_list(lhs["initials"]), 40)
    rows, _ = oracle.folded_powers({-1: Fraction(1), 0: Fraction(1), 1: Fraction(1)}, 10, 41)
    for n, v in enumerate(vals):
        fib = oracle.fibonacci(n)
        if v != Fraction(fib * (fib + 1), 2) or v != rows[n + 1][0] - rows[n + 1][1]:
            return [f"verify-george: lhs recurrence is wrong at n = {n}"], {}
    return [], {}
