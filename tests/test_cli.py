"""Command-line behavior: exit codes, output formats, determinism, golden files."""

import decimal
import json
import math
import pathlib

import pytest

import modgf.cli
import modgf.laurent
import modgf.tales
from modgf.cli import run
from modgf.laurent import parse_laurent
from modgf.residues import ResidueSolution, residue_sum

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(capsys, name, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text()


# --- golden outputs ---


def test_golden_ga_text(capsys):
    check_golden(capsys, "ga_trinomial_k2.txt", "ga", "-P", "x^-1+1+x", "-k", "2")


def test_golden_ga_json(capsys):
    check_golden(
        capsys, "ga_trinomial_k2.json", "ga", "-P", "x^-1+1+x", "-k", "2",
        "--format", "json",
    )


def test_golden_euler_tale(capsys):
    check_golden(capsys, "euler_tale.txt", "euler-tale")


def test_golden_tale_none(capsys):
    check_golden(
        capsys, "tale_none_trinomial_k10.txt", "tale", "-P", "x^-1+1+x",
        "-k", "10", "-a", "0", "--fit-window", "8", "--horizon", "40",
    )


def test_golden_verify_george(capsys):
    check_golden(capsys, "verify_george.txt", "verify-george")


def test_golden_dice(capsys):
    check_golden(
        capsys, "dice_fair3_k2.txt", "dice", "--faces",
        '{"faces":[{"value":-1,"prob":"1/3"},{"value":0,"prob":"1/3"},{"value":1,"prob":"1/3"}]}',
        "-k", "2", "-n", "2",
    )


def test_golden_series(capsys):
    check_golden(
        capsys, "series_trinomial_k2_a0.txt", "series", "-P", "x^-1+1+x",
        "-k", "2", "-a", "0", "-N", "8",
    )


# --- single-value commands ---


def test_coeff_command(capsys):
    code, out, err = run_cli(capsys, "coeff", "-P", "x^-1+1+x", "-n", "2", "-j", "0")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run_cli(capsys, "coeff", "-P", "x^-1+1+x", "-n", "9", "-j", "-9")
    assert out == "1\n"
    code, out, _ = run_cli(
        capsys, "coeff", "-P", "x^-1+1+x", "-n", "2", "-j", "0", "--format", "json"
    )
    env = json.loads(out)
    assert env["command"] == "coeff"
    assert env["result"] == {"value": "3"}
    assert env["inputs"]["n"] == 2


def test_sum_command(capsys):
    code, out, _ = run_cli(capsys, "sum", "-P", "x^-1+1+x", "-k", "2", "-a", "0", "-n", "3")
    assert code == 0
    assert out == "13\n"


def test_fractional_sum(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "-P", "1/3*x^-1+1/3+1/3*x", "-k", "2", "-a", "0", "-n", "2"
    )
    assert code == 0
    assert out == "5/9\n"


# --- exit codes ---


def test_exit_code_usage_errors(capsys):
    for argv in (
        ["ga", "-P", "x^", "-k", "2"],
        ["ga", "-P", "x", "-k", "two"],
        ["ga", "-P", "x"],
        ["nonsense"],
        [],
        ["dice", "--faces", "not json", "-k", "2"],
        ["dice", "--faces", '{"faces": "x"}', "-k", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv


def test_exit_code_domain_errors(capsys):
    for argv in (
        ["ga", "-P", "x", "-k", "0"],
        ["ga", "-P", "0*x", "-k", "2"],
        ["gas", "-P", "1+x", "-k", "2"],
        ["sum", "-P", "x", "-k", "2", "-a", "5", "-n", "1"],
        ["series", "-P", "x", "-k", "2", "-a", "0", "-N", "-1"],
        ["tale", "-P", "x", "-k", "2", "-a", "0", "--fit-window", "3", "--horizon", "30"],
        ["tale", "-P", "x", "-k", "2", "-a", "0", "--fit-window", "8", "--horizon", "8"],
        ["dice", "--faces", '{"faces":[{"value":1,"prob":"1/2"}]}', "-k", "2"],
        ["dice", "--faces", '{"faces":[{"value":0,"prob":"1"}]}', "-k", "3000"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_error_messages_name_the_flag(capsys):
    _, _, err = run_cli(capsys, "ga", "-P", "x^", "-k", "2")
    assert "-P" in err and "position" in err
    _, _, err = run_cli(capsys, "series", "-P", "x", "-k", "2", "-a", "7", "-N", "3")
    assert "-a" in err
    _, _, err = run_cli(capsys, "dice", "--faces", "zzz", "-k", "2")
    assert "--faces" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "modgf" in out
    code, _, _ = run_cli(capsys, "ga", "--help")
    assert code == 0


def test_verify_george_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-george", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["all_ok"] is True


# --- determinism and envelope structure ---


def test_json_output_is_byte_deterministic(capsys):
    argv = ["ga", "-P", "x^-1+1+x", "-k", "7", "--format", "json"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    env = json.loads(first)
    assert list(env) == ["command", "inputs", "result"]


def test_timing_flag_adds_field(capsys):
    _, out, _ = run_cli(capsys, "ga", "-P", "x", "-k", "2", "--format", "json", "--timing")
    env = json.loads(out)
    assert list(env) == ["command", "inputs", "result", "timing_ms"]
    assert isinstance(env["timing_ms"], int)
    _, out, _ = run_cli(capsys, "ga", "-P", "x", "-k", "2", "--timing")
    assert out.splitlines()[-1].startswith("timing_ms = ")


def test_ga_and_gas_agree_via_cli(capsys):
    a1 = ["ga", "-P", "x^-2+3+x^2", "-k", "8", "--format", "json"]
    a2 = ["gas", "-P", "x^-2+3+x^2", "-k", "8", "--format", "json"]
    _, out1, _ = run_cli(capsys, *a1)
    _, out2, _ = run_cli(capsys, *a2)
    env1, env2 = json.loads(out1), json.loads(out2)
    assert env1["command"] == "ga" and env2["command"] == "gas"
    assert env1["result"] == env2["result"]
    assert json.dumps(env1["result"]) == json.dumps(env2["result"])


def test_ga_json_round_trips_through_library(capsys):
    _, out, _ = run_cli(capsys, "ga", "-P", "2*x^-1-1+x^3", "-k", "5", "--format", "json")
    env = json.loads(out)
    sol = ResidueSolution.from_json_dict(env["result"])
    p = parse_laurent("2*x^-1-1+x^3")
    assert sol.p == p
    for a in range(5):
        series = sol.gfs[a].series(12)
        for n in range(13):
            assert series[n] == residue_sum(p, 5, a, n)


def test_series_matches_sum_command(capsys):
    _, series_out, _ = run_cli(capsys, "series", "-P", "1+x", "-k", "3", "-a", "1", "-N", "9")
    values = series_out.split()
    for n in range(10):
        _, sum_out, _ = run_cli(capsys, "sum", "-P", "1+x", "-k", "3", "-a", "1", "-n", str(n))
        assert sum_out.strip() == values[n]


def test_tale_found_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "tale", "-P", "1+x", "-k", "12", "-a", "0",
        "--fit-window", "8", "--horizon", "30", "--format", "json",
    )
    assert code == 0
    env = json.loads(out)
    tale = env["result"]["tale"]
    assert env["result"]["reason"] == "tale found"
    assert tale["first_failure_n"] == 12
    assert tale["prefix_len"] == 12
    assert tale["index_base"] == 0
    assert tale["expected"] == "1"
    assert tale["actual"] == "2"
    assert tale["candidate"]["order"] == 1


def test_euler_tale_json_fields(capsys):
    code, out, _ = run_cli(capsys, "euler-tale", "--format", "json")
    assert code == 0
    env = json.loads(out)
    tale = env["result"]
    assert tale["prefix_len"] == 9
    assert tale["first_failure_n"] == 8
    assert tale["index_base"] == -1
    assert tale["expected"] == "462"
    assert tale["actual"] == "464"


def test_dice_json_with_break_even(capsys):
    code, out, _ = run_cli(
        capsys, "dice", "--faces",
        '{"faces":[{"value":-1,"prob":"1/2"},{"value":1,"prob":"1/2"}]}',
        "-k", "4", "-n", "6", "--format", "json",
    )
    assert code == 0
    env = json.loads(out)
    assert env["result"]["n"] == 6
    assert env["result"]["break_even_prob"] == "5/16"
    assert env["result"]["modular_gf"]["k"] == 4
    assert env["inputs"]["faces"][0] == {"value": -1, "prob": "1/2"}


def test_dice_without_n_omits_break_even(capsys):
    _, out, _ = run_cli(
        capsys, "dice", "--faces", '{"faces":[{"value":0,"prob":"1"}]}',
        "-k", "2", "--format", "json",
    )
    env = json.loads(out)
    assert "break_even_prob" not in env["result"]
    assert "n" not in env["result"]


def test_leading_minus_polynomial_in_either_spelling(capsys):
    attached = run_cli(capsys, "ga", "-P-x+1", "-k", "3", "--format", "json")
    separate = run_cli(capsys, "ga", "-P", "-x+1", "-k", "3", "--format", "json")
    assert attached[0] == 0
    assert separate == attached
    assert json.loads(separate[1])["inputs"]["P"] == parse_laurent("1-x").to_json_dict()
    code, out, _ = run_cli(capsys, "sum", "-P", "-2+x", "-k", "2", "-a", "0", "-n", "2")
    assert (code, out) == (0, "5\n")  # (x-2)^2 = 4 - 4x + x^2
    # a missing value is still a usage error, not a polynomial "-k"
    code, _, err = run_cli(capsys, "ga", "-P", "-k", "3")
    assert code == 1 and err.startswith("error:")


def test_class_checked_before_any_solve(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("residue_gfs ran before the class check")

    monkeypatch.setattr(modgf.cli, "residue_gfs", no_solve)
    monkeypatch.setattr(modgf.tales, "residue_gfs", no_solve)
    for argv, message in (
        (["series", "-P", "x^-1+1+x", "-k", "60", "-a", "99", "-N", "3"],
         "error: -a: residue class must lie in [0, 60), got 99\n"),
        (["series", "-P", "x", "-k", "0", "-a", "0", "-N", "3"],
         "error: modulus k must be positive, got 0\n"),
        (["tale", "-P", "x", "-k", "5", "-a", "9", "--fit-window", "8", "--horizon", "30"],
         "error: residue class a must lie in [0, 5), got 9\n"),
        (["tale", "-P", "x", "-k", "0", "-a", "0", "--fit-window", "8", "--horizon", "30"],
         "error: modulus k must be positive, got 0\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", message), argv


def test_series_term_count_checked_before_any_solve(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("residue_gfs ran before the -N check")

    monkeypatch.setattr(modgf.cli, "residue_gfs", no_solve)
    code, out, err = run_cli(capsys, "series", "-P", "x^-1+1+x", "-k", "60", "-a", "0", "-N", "-1")
    assert (code, out, err) == (2, "", "error: series needs a nonnegative term count\n")


def test_dice_throw_count_checked_before_any_solve(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("modular_prob_gf ran before the power ceiling check")

    monkeypatch.setattr(modgf.cli, "modular_prob_gf", no_solve)
    faces = '{"faces":[{"value":-1,"prob":"1/3"},{"value":0,"prob":"1/3"},{"value":1,"prob":"1/3"}]}'
    code, out, err = run_cli(capsys, "dice", "--faces", faces, "-k", "60", "-n", "1000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: power n = 1000000000") and "ceiling" in err
    code, out, err = run_cli(capsys, "dice", "--faces", faces, "-k", "60", "-n", "-1")
    assert (code, out, err) == (2, "", "error: throw count must be nonnegative, got -1\n")


def test_coeff_past_the_int_str_limit(capsys):
    code, out, err = run_cli(capsys, "coeff", "-P", "x^-1+1+x", "-n", "10000", "-j", "0",
                             "--format", "json")
    assert (code, err) == (0, "")
    value = json.loads(out)["result"]["value"]
    # sum over i of C(n, 2i) * C(2i, i), term by term: t_(i+1) / t_i is
    # (n - 2i)(n - 2i - 1) / (i + 1)^2; math.comb on every term takes 13 s
    n = 10000
    term, want = 1, 0
    for i in range(n // 2 + 1):
        if i in (1, 2500, 5000):
            assert term == math.comb(n, 2 * i) * math.comb(2 * i, i)
        want += term
        term = term * (n - 2 * i) * (n - 2 * i - 1) // (i + 1) ** 2
    # decimal parses without CPython's int-str digit limit
    assert len(value) > 4300 and int(decimal.Decimal(value)) == want


def test_oversize_power_refused_before_expanding(capsys, monkeypatch):
    def no_expand(*args):
        raise AssertionError("the power was expanded past the size ceiling")

    monkeypatch.setattr(modgf.laurent, "_miller_pow", no_expand)
    code, out, err = run_cli(capsys, "coeff", "-P", "x^-1+1+x", "-n", "1000000000", "-j", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: power n = 1000000000") and "ceiling" in err
