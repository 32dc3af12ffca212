"""Span recorder for the traced benchmark run, kept in the benchmark's files.

The recorder wraps the public names that modgf modules look up when they
call each other (module globals such as ``modgf.residues.solve_linear_system``
and the ``LaurentPoly`` arithmetic methods). Each call becomes a span with a
name, a start, an end, a parent and the id of the op that caused it. Spans
stay in memory and are written out when the run ends.

Wrappers exist only between ``install()`` and ``uninstall()``, so untraced
ops run the unmodified code. A name that does not exist in the code under
test is skipped, and the metrics built from it are dropped, instead of
failing the run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name). A dotted attribute is a method on a class.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("laurent", "parse_laurent", "laurent.parse"),
    ("laurent", "LaurentPoly.__pow__", "laurent.pow"),
    ("residues", "fold_residues", "residues.fold"),
    ("residues", "residue_gfs", "residues.gfs"),
    ("residues", "residue_gfs_symmetric", "residues.gfs"),
    ("ratfun", "solve_linear_system", "ratfun.solve"),
    ("ratfun", "poly_gcd", "ratfun.gcd"),
    ("ratfun", "poly_series", "ratfun.series"),
    ("cfinite", "fit_recurrence", "cfinite.fit"),
    ("cfinite", "verify_equal", "cfinite.verify_equal"),
    ("cfinite", "recurrence_from_gf", "cfinite.rec_from_gf"),
    ("tales", "search_tale", "tales.search"),
    ("tales", "euler_tale", "tales.euler"),
    ("tales", "george_check", "tales.george"),
    ("dice", "modular_prob_gf", "dice.prob_gf"),
    ("dice", "break_even_prob", "dice.break_even"),
)
# Counted but not timed: a span per product would dwarf the products it times.
COUNTED = (("laurent", "LaurentPoly.__mul__", "laurent.mul"),)

# Per-layer metric -> span name whose self time it reports.
SELF_TIME_METRICS = {
    "cli.run_self_s": "cli.run",
    "laurent.parse_s": "laurent.parse",
    "laurent.pow_s": "laurent.pow",
    "residues.fold_s": "residues.fold",
    "residues.gfs_self_s": "residues.gfs",
    "ratfun.solve_s": "ratfun.solve",
    "ratfun.gcd_s": "ratfun.gcd",
    "ratfun.series_s": "ratfun.series",
    "cfinite.fit_s": "cfinite.fit",
    "cfinite.verify_equal_s": "cfinite.verify_equal",
    "cfinite.rec_from_gf_s": "cfinite.rec_from_gf",
    "tales.search_s": "tales.search",
    "tales.euler_s": "tales.euler",
    "tales.george_s": "tales.george",
    "dice.prob_gf_s": "dice.prob_gf",
    "dice.break_even_s": "dice.break_even",
}
CALL_METRICS = {
    "laurent.mul_calls": "laurent.mul",
    "residues.gfs_calls": "residues.gfs",
    "ratfun.gcd_calls": "ratfun.gcd",
    "cfinite.fit_calls": "cfinite.fit",
}


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name.

    spans: sequence of (name, start_ns, end_ns, parent_index). A span's self
    time is its duration minus the part of it that its direct children
    cover; overlapping children are counted once.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[name] += (end - start - covered) / 1e9
    return dict(out)


def _resolve(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, name, None)


class Recorder:
    """Spans, call counts and returned values of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.series_terms = 0
        self.tales_found = 0
        self.solutions: list = []
        self.op_id = -1
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ---

    def _span(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            calls[name] += 1
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "residues.gfs":
            self.solutions.append(result)
        elif name == "ratfun.series":
            self.series_terms += (args[2] if len(args) > 2 else kwargs["n_last"]) + 1
        elif name == "tales.search":
            self.tales_found += result[0] is not None

    # --- installation ---

    def install(self) -> None:
        """Wrap every target that exists, wherever a modgf module binds it."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "modgf" or name.startswith("modgf."))
        }
        for targets, make in ((TARGETS, self._span), (COUNTED, self._counter)):
            for mod_name, attr, span in targets:
                home = modules.get(f"modgf.{mod_name}")
                owner, original = _resolve(home, attr) if home else (None, None)
                if original is None:
                    continue
                self.present.add(span)
                wrapped = make(span, original)
                if "." in attr:
                    self._patch(owner, attr.rsplit(".", 1)[1], wrapped)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- results ---

    def metrics(self) -> dict[str, float]:
        """Self times and call counts for every target that exists."""
        selfs = self_times([s[:4] for s in self.spans])
        out = {
            m: selfs.get(span, 0.0) for m, span in SELF_TIME_METRICS.items() if span in self.present
        }
        out.update(
            {m: self.calls.get(span, 0) for m, span in CALL_METRICS.items() if span in self.present}
        )
        if "ratfun.series" in self.present:
            out["ratfun.series_terms"] = self.series_terms
        if "tales.search" in self.present:
            searches = self.calls.get("tales.search", 0)
            out["tales.found_share"] = self.tales_found / searches if searches else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class ReduceProbe:
    """Replays the reduce stage on every class of every returned solution.

    Each class's unreduced pair (num * common_den / den, common_den) is
    rebuilt outside the timed region; only the poly_gcd calls are timed.
    Classes that share one object (the mirrored classes of
    residue_gfs_symmetric, which modgf reduces once) are replayed once.
    The gcd degrees and the coefficient size of common_den are exact counts
    that explain what the reduction costs.
    """

    def __init__(self, poly_gcd) -> None:
        self.poly_gcd = poly_gcd
        self.probe_ns = self.deg_sum = self.nontrivial = self.classes = 0
        self.den_deg_sum = self.bits = 0

    def add(self, solutions) -> None:
        for sol in solutions:
            den = sol.common_den
            self.den_deg_sum += den.deg()
            scale = math.lcm(*(c.denominator for c in den.coeffs))
            self.bits = max(self.bits, *(abs(int(c * scale)).bit_length() for c in den.coeffs))
            distinct = {id(f): f for f in sol.gfs}.values()
            pairs = [(f.num * den.exact_div(f.den), den) for f in distinct]
            for num, d in pairs:
                start = time.perf_counter_ns()
                g = self.poly_gcd(num, d)
                self.probe_ns += time.perf_counter_ns() - start
                self.classes += 1
                self.deg_sum += max(g.deg(), 0)
                self.nontrivial += g.deg() >= 1

    def metrics(self) -> dict[str, float]:
        return {
            "ratfun.reduce_probe_s": self.probe_ns / 1e9,
            "ratfun.gcd_degree_sum": self.deg_sum,
            "ratfun.gcd_nontrivial_share": self.nontrivial / self.classes if self.classes else 0.0,
            "ratfun.den_bits_max": self.bits,
            "residues.den_degree_sum": self.den_deg_sum,
        }
