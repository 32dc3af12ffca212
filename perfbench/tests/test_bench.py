"""Tests of the benchmark itself: span arithmetic and the oracle.

Run with: python3 -m pytest perfbench/tests -q
"""

import itertools
import json
from fractions import Fraction

import modgf
import oracle
import spans
import verify
import workloads

TRINOMIAL_TERMS = {-1: Fraction(1), 0: Fraction(1), 1: Fraction(1)}


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] has children a [10, 40] and b [50, 70]; a has child c
    # [20, 30]; b has children d [55, 65] and e [60, 75], which overlap
    # each other and run past b's end.
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("c", 20, 30, 1),
        ("b", 50, 70, 0),
        ("d", 55, 65, 3),
        ("e", 60, 75, 3),
        ("a", 80, 90, 0),
    ]
    got = {name: round(v * 1e9) for name, v in spans.self_times(tree).items()}
    assert got == {"root": 100 - 30 - 20 - 10, "a": (30 - 10) + 10, "c": 10, "b": 20 - 15, "d": 10, "e": 15}


def _trinomial_k2():
    data = modgf.residue_gfs(modgf.TRINOMIAL, 2).to_json_dict()
    return json.loads(json.dumps(data))


def test_oracle_accepts_trinomial_k2():
    errs, info = verify.check_family(TRINOMIAL_TERMS, 2, verify.family_from_json(_trinomial_k2()))
    assert errs == []
    assert info == {"gcd_degree_sum": 0}


def test_oracle_counts_one_altered_numerator_coefficient_as_a_failure():
    data = _trinomial_k2()
    num = data["gfs"][1]["num"]
    num[-1] = str(Fraction(num[-1]) + 1)
    errs, _ = verify.check_family(TRINOMIAL_TERMS, 2, verify.family_from_json(data))
    assert errs and all("class 1" in e for e in errs)


def test_oracle_counts_an_altered_cli_text_output_as_a_failure():
    argv = ["ga", "-P" + oracle.laurent_text(TRINOMIAL_TERMS), "-k", "3"]
    code, out, err = workloads.run_cli(argv)
    assert verify.cli_family((code, out, err), "ga", "text", TRINOMIAL_TERMS, 3) == ([], {"gcd_degree_sum": 0})
    bad = out.replace("gfs[1] = t/", "gfs[1] = 2*t/", 1)
    assert bad != out
    errs, _ = verify.cli_family((code, bad, err), "ga", "text", TRINOMIAL_TERMS, 3)
    assert errs


def test_kronecker_coefficients_match_schoolbook_expansion():
    terms = {-2: Fraction(1, 2), 0: Fraction(3), 1: Fraction(1), 3: Fraction(-2, 3)}
    power = {0: Fraction(1)}
    for n in range(1, 7):
        nxt = {}
        for (e1, c1), (e2, c2) in itertools.product(power.items(), terms.items()):
            nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        power = nxt
        for j in range(-2 * n, 3 * n + 1):
            assert oracle.coeff_of_power(terms, n, j) == power.get(j, 0)


def test_text_parser_reads_rendered_polynomials():
    terms = {-2: Fraction(1, 2), 0: Fraction(3), 1: Fraction(-1), 3: Fraction(-2, 3)}
    assert oracle.laurent_text(terms) == "1/2*x^-2+3-x-2/3*x^3"
    assert oracle.parse_text(oracle.laurent_text(terms)) == terms
    assert oracle.parse_ratfun("2/3*t/(1-2/3*t-1/3*t^2)") == (
        [0, Fraction(2, 3)], [1, Fraction(-2, 3), Fraction(-1, 3)]
    )


def test_workload_ops_depend_only_on_seed_and_index():
    for wl in workloads.WORKLOADS.values():
        first = [op.label + repr(op.k) + repr(op.n) for op in itertools.islice(wl.ops(7), 30)]
        again = [op.label + repr(op.k) + repr(op.n) for op in itertools.islice(wl.ops(7), 30)]
        assert first == again


def test_recorder_wraps_only_while_installed():
    original = modgf.residues.residue_gfs
    rec = spans.Recorder()
    rec.install()
    try:
        assert modgf.residues.residue_gfs is not original
        assert modgf.residue_gfs is modgf.residues.residue_gfs
        modgf.cli.run(["ga", "-Px^-1+1+x", "-k", "2"])
    finally:
        rec.uninstall()
    assert modgf.residues.residue_gfs is original
    names = {s[0] for s in rec.spans}
    assert {"cli.run", "laurent.parse", "residues.gfs", "ratfun.solve"} <= names
    m = rec.metrics()
    assert m["residues.gfs_calls"] == 1 and m["ratfun.solve_s"] > 0


def test_reduce_probe_replays_each_mirrored_class_once():
    sol = modgf.residue_gfs_symmetric(modgf.TRINOMIAL, 6)
    probe = spans.ReduceProbe(modgf.ratfun.poly_gcd)
    probe.add([sol])
    assert probe.classes == 6 // 2 + 1
    _, info = verify.check_family(
        TRINOMIAL_TERMS, 6, verify.family_from_json(sol.to_json_dict()), mirrored=True
    )
    assert probe.metrics()["ratfun.gcd_degree_sum"] == info["gcd_degree_sum"] > 0
