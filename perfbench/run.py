"""modgf benchmark: a closed loop with one client, one thread, no workers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep

Run from the repository root; modgf is imported from ./src. With --trace 0
the run issues the workload's ops back to back until S seconds of op time
have passed (and at least the workload's fixed prefix has run), checks every
output against the oracle outside the timed region, and reports the
end-to-end metrics. With --trace 1 it runs the fixed prefix untraced in a
fresh child interpreter and then traced in this one, and reports per-layer
self times and counts plus the tracing overhead. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it repeat the
metrics by name and unit with the run's provenance, input summary and the
SHA-256 digest of the prefix's canonical outputs. Result and span files go
to .bench_out/.

--sweep is opt-in and not a workload: it times residue_gfs on the trinomial
and on P = 1/2*x^-2+3+x-2/3*x^3 at k = 25, 50 and 100 with the same per-layer split,
next to the baseline times recorded in ROADMAP.md. k = 100 on the second
input takes minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("gf_dense", "gf_symmetric", "expand", "cli_small")
MIN_OPS = 20  # enough latencies for a tail with 10 samples beyond it
SETUP_RUNS = 7
SWEEP_K = (25, 50, 100)

# Interpreter start to first op ready: import modgf and warm argparse and
# the solver with one small request. Run in fresh interpreters for setup_s
# and once in this process before the loop.
WARM_UP = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
import modgf, modgf.cli
with contextlib.redirect_stdout(io.StringIO()):
    modgf.cli.run(["ga", "-P", "x^-1+1+x", "-k", "3", "--format", "json"])
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--sweep", action="store_true", help="opt-in scale sweep (not a workload)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup() -> float:
    """Median seconds from spawning a fresh interpreter to its first op being ready."""
    # perf_counter is CLOCK_MONOTONIC, shared by all processes, so the child
    # reports the instant it is ready and interpreter exit is not counted.
    code = WARM_UP.format(src=str(SRC)) + "import time; print(time.perf_counter())\n"
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)  # bytecode cache
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout) - start)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with >= 10 beyond it."""
    s = sorted(latencies)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def run_op(op):
    """Time one op; returns (seconds, output, error text or None)."""
    start = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception as e:  # an op that raises is a failed op, not a crashed run
        out, err = None, f"{op.label}: raised {type(e).__name__}: {e}"
    return time.perf_counter() - start, out, err


def check_op(op, out, err) -> tuple[list[str], dict]:
    if err is not None:
        return [err], {}
    try:
        return op.check(out)
    except Exception as e:  # a checker crash must count against the run, not end it
        return [f"{op.label}: check raised {type(e).__name__}: {e}"], {}


class Tally:
    """Failures, digest and input summary over a run's ops."""

    def __init__(self, prefix: int) -> None:
        self.prefix = prefix
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.ks: list[int] = []
        self.ns: list[int] = []
        self.symmetric = self.repeats = self.gcd_degree_sum = self.tales_found = 0

    def add(self, op, out, errs: list[str], info: dict) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(f"op {self.attempted - 1}: {e}" for e in errs[:2])
        if self.attempted > self.prefix:
            return
        self.digest.update(f"op {self.attempted - 1}\n".encode())
        self.digest.update(op.canon(out).encode() if out is not None else b"<none>")
        self.ks += [op.k] if op.k is not None else []
        self.ns += [op.n] if op.n is not None else []
        self.symmetric += op.symmetric
        self.repeats += op.repeat
        self.gcd_degree_sum += info.get("gcd_degree_sum", 0)
        self.tales_found += info.get("tale_found", 0)

    def summary(self) -> dict:
        n = min(self.attempted, self.prefix)
        return {
            "prefix_ops": n,
            "k_range": [min(self.ks), max(self.ks)] if self.ks else None,
            "n_range": [min(self.ns), max(self.ns)] if self.ns else None,
            "symmetric_share": self.symmetric / n if n else 0.0,
            "repeat_share": self.repeats / n if n else 0.0,
            "ratfun.gcd_degree_sum": self.gcd_degree_sum,
            "tales_found": self.tales_found,
        }


def timed_run(workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    setup_s = measure_setup()
    tally = Tally(workload.prefix)
    latencies: list[float] = []
    busy = 0.0
    ops = workload.ops(seed)
    while busy < seconds or tally.attempted < max(workload.prefix, MIN_OPS):
        op = next(ops)
        dt, out, err = run_op(op)
        latencies.append(dt)
        busy += dt
        tally.add(op, out, *check_op(op, out, err))
    value, pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": ((tally.attempted - tally.failed) / busy, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {
        "op_tail_percentile": pct,
        "op_tail_samples": len(latencies),
        "op_tail_beyond": beyond,
        "busy_s": busy,
    }
    return tally, metrics, extra


def untraced_prefix(name: str, seed: int) -> None:
    """Child side of the traced run: print each prefix op's seconds and output digest."""
    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.ops(seed)
    rows = []
    for _ in range(workload.prefix):
        op = next(ops)
        dt, out, _ = run_op(op)
        rows.append([dt, None if out is None else hashlib.sha256(op.canon(out).encode()).hexdigest()])
    print(json.dumps(rows))


def traced_run(workload, seed: int) -> tuple[Tally, dict, dict, object]:
    """Time the prefix untraced in a fresh interpreter, then traced in this one.

    Neither pass inherits state (a cache, say) from the other, so the layer
    split describes the same cold ops that the untraced time measures.
    """
    import modgf.ratfun
    import spans

    code = WARM_UP.format(src=str(SRC)) + (
        f"sys.path.insert(0, {str(HERE)!r})\nimport run\nrun.untraced_prefix({workload.name!r}, {seed})\n"
    )
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                           check=True, timeout=120)
    untraced = json.loads(child.stdout.splitlines()[-1])
    rec = spans.Recorder()
    poly_gcd = getattr(modgf.ratfun, "poly_gcd", None)
    probe = spans.ReduceProbe(poly_gcd) if poly_gcd is not None else None
    tally = Tally(workload.prefix)
    traced = 0.0
    ops = workload.ops(seed)
    for i, (_, plain_digest) in enumerate(untraced):
        op = next(ops)
        rec.op_id = i
        rec.install()
        try:
            dt, out, err = run_op(op)
        finally:
            rec.uninstall()
        traced += dt
        errs, info = check_op(op, out, err)
        digest = None if out is None else hashlib.sha256(op.canon(out).encode()).hexdigest()
        if digest != plain_digest:
            errs.append("traced output differs from the untraced one")
        tally.add(op, out, errs, info)
        if probe is not None:
            probe.add(rec.solutions)
        rec.solutions.clear()
    plain = sum(dt for dt, _ in untraced)
    metrics = rec.metrics()
    if probe is not None:
        metrics.update(probe.metrics())
    metrics["trace.overhead_ratio"] = traced / plain
    units = {m: _layer_unit(m) for m in metrics}
    return tally, {m: (v, units[m]) for m, v in metrics.items()}, {"untraced_s": plain, "traced_s": traced}, rec


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share") or metric.endswith("_ratio"):
        return "ratio"
    return "bits" if metric.endswith("_bits_max") else "count"


def sweep() -> int:
    """Opt-in scale sweep: residue_gfs at each k in SWEEP_K, traced, with the oracle check."""
    import modgf
    import modgf.ratfun
    import spans
    import verify
    import workloads

    inputs = {
        "trinomial": {-1: Fraction(1), 0: Fraction(1), 1: Fraction(1)},
        "asym": {-2: Fraction(1, 2), 0: Fraction(3), 1: Fraction(1), 3: Fraction(-2, 3)},
    }
    # Totals measured in-process when ROADMAP.md's baseline table was written.
    baseline = {("trinomial", 50): 0.60, ("trinomial", 100): 16.7, ("asym", 50): 3.3, ("asym", 100): 131.9}
    ok = True
    for name, terms in inputs.items():
        p = workloads.laurent(terms)
        for k in SWEEP_K:
            rec = spans.Recorder()
            probe = spans.ReduceProbe(modgf.ratfun.poly_gcd)
            rec.install()
            try:
                start = time.perf_counter()
                sol = modgf.residues.residue_gfs(p, k)
                total = time.perf_counter() - start
            finally:
                rec.uninstall()
            probe.add(rec.solutions)
            errs, info = verify.check_family(terms, k, verify.family_from_json(sol.to_json_dict()))
            ok = ok and not errs
            row = {"input": name, "k": k, "total_s": total, "baseline_s": baseline.get((name, k)),
                   **rec.metrics(), **probe.metrics(), "oracle_ok": not errs}
            print(json.dumps(row), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modgf" / "__init__.py").is_file():
        print(f"error: modgf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.sweep:
        return sweep()
    exec(WARM_UP.format(src=str(SRC)), {})

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, extra, rec = traced_run(workload, args.seed)
    else:
        tally, metrics, extra = timed_run(workload, args.seed, args.seconds)
        rec = None
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "client": "closed loop, 1 client, 1 thread",
        "digest": "sha256:" + tally.digest.hexdigest(),
        "summary": tally.summary(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "errors": tally.errors[:20],
        **extra,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if rec is not None:
        rec.dump(OUT / f"{stem}.spans.jsonl")
    for key in ("workload", "seed", "git_sha", "python", "nproc", "client", "digest"):
        print(f"{key} = {report[key]}")
    print(f"summary = {json.dumps(report['summary'])}")
    for m, (v, u) in metrics.items():
        print(f"{m} = {v} {u}")
    for key, v in extra.items():
        print(f"{key} = {v}")
    print(f"error_rate = {report['error_rate']} ({tally.failed} of {tally.attempted})")
    for e in tally.errors[:20]:
        print(f"error: {e}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
