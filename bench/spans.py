"""Per-layer tracing from outside the program.

A layer's public function is wrapped at every name its callers look up (for
example ``lp.solve_lp`` where ``mok``, ``synth`` and ``hbl`` bind it), so no
program file changes.  Spans are kept in memory as
``[id, parent, name, start_ns, end_ns, count]`` and written to a side file
at the end.  A function that no longer exists leaves its layer absent; the
layer's metrics then read 0 and the layer is listed under ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

# span name -> (bindings as "module:attr" or "module:Class.attr", counter)
# A counter maps (args, result) to the span's work count.


def _pairs(k: int) -> int:
    return k * (k + 1) // 2


def _lp_size(args, kwargs):
    c = args[0]
    rows = 0
    for i, key in ((1, "A_ub"), (3, "A_eq")):
        a = args[i] if len(args) > i else kwargs.get(key)
        if a is not None:
            rows += len(a)
    return rows, len(c)


LAYERS: Dict[str, Tuple[List[str], Optional[Callable]]] = {
    "lp.solve_lp": (["minorant.mok:solve_lp", "minorant.synth:solve_lp", "minorant.hbl:solve_lp"],
                    lambda a, kw, out: _lp_size(a, kw)),
    "mok.solve_mok": (["minorant.mok:solve_mok", "minorant.cli:solve_mok"], None),
    "mok.check_midpoint": (["minorant.mok:check_midpoint"],
                           lambda a, kw, out: _pairs(len(a[1]))),
    "synth.synth_tight_minorant": (["minorant.synth:synth_tight_minorant",
                                    "minorant.cli:synth_tight_minorant"], None),
    "synth.synth_affine_from_scored_set": (["minorant.synth:synth_affine_from_scored_set",
                                            "minorant.cli:synth_affine_from_scored_set"], None),
    "synth.synth_composed_minorant": (["minorant.synth:synth_composed_minorant",
                                       "minorant.cli:synth_composed_minorant"], None),
    "synth.min_over_scored_set": (["minorant.synth:min_over_scored_set"], None),
    "synth.min_convex_over_polytope": (["minorant.synth:min_convex_over_polytope"], None),
    "synth.check_scored_midpoint": (["minorant.synth:check_scored_midpoint"],
                                    lambda a, kw, out: _pairs(a[1].size)),
    "synth.domination": (["minorant.synth:_domination_report"], None),
    "harness.rng": (["minorant.harness:SplitMix64.uniform_matrix"],
                    lambda a, kw, out: int(a[1]) * int(a[2])),
    "hbl.solve_hbl_n": (["minorant.hbl:solve_hbl_n", "minorant.cli:solve_hbl_n"], None),
    "hbl.solve_hbl_jk": (["minorant.hbl:solve_hbl_jk", "minorant.cli:solve_hbl_jk"], None),
    "hbl.check_midpoint_hbl": (["minorant.hbl:check_midpoint_hbl"],
                               lambda a, kw, out: _pairs(a[0].nkeys)),
    "gauge.eval_gauge": (["minorant.gauge:eval_gauge", "minorant.cli:eval_gauge"], None),
    "cli.run_command": (["minorant.cli:run_command"], None),
    "cli.parse_problem": (["minorant.cli:parse_problem"], None),
    "cli.emit_report": (["minorant.cli:emit_report"],
                        lambda a, kw, out: len(out.encode("utf-8"))),
}

ROOT = "bench.problem"

# Spans whose time is reported under their own metric and so is not part of
# the self time of the module they live in.
_SCANS = {"synth.check_scored_midpoint", "hbl.check_midpoint_hbl"}


def _resolve(binding: str):
    mod_name, attr = binding.split(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, name):
        return None, None
    return owner, name


class Tracer:
    """In-memory span recorder that wraps the layer functions while
    installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self.absent: List[str] = []

    def span(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0, 0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        wrapped: Dict[int, Callable] = {}
        for name, (bindings, counter) in LAYERS.items():
            found = False
            for binding in bindings:
                owner, attr = _resolve(binding)
                if owner is None:
                    continue
                found = True
                orig = getattr(owner, attr)
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self.span(name, orig, counter)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped[id(orig)])
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "count"],
                       "absent": self.absent, "spans": self.spans}, fh)


def layer_metrics(spans: List[list], rounds: int) -> Dict[str, float]:
    """Per-round totals of the per-layer metrics from a span list."""
    by_id = {s[0]: s for s in spans}
    child_ns: Dict[int, int] = {}
    for s in spans:
        if s[1] >= 0:
            child_ns[s[1]] = child_ns.get(s[1], 0) + (s[4] - s[3])

    def in_synth(s) -> bool:
        while s[1] >= 0:
            s = by_id[s[1]]
            if s[2].startswith("synth."):
                return True
        return False

    ms: Dict[str, float] = {}
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    count: Dict[str, float] = {}
    lp_rows = lp_cols = 0
    rng_draws = 0
    rng_ms = 0.0
    for s in spans:
        name, dur = s[2], s[4] - s[3]
        if name == "harness.rng":
            if in_synth(s):
                rng_draws += s[5]
                rng_ms += dur / 1e6
            continue
        ms[name] = ms.get(name, 0.0) + dur / 1e6
        self_ms[name] = self_ms.get(name, 0.0) + (dur - child_ns.get(s[0], 0)) / 1e6
        calls[name] = calls.get(name, 0) + 1
        if name == "lp.solve_lp":
            lp_rows += s[5][0]
            lp_cols += s[5][1]
        elif s[5] is not None:
            count[name] = count.get(name, 0) + s[5]

    def self_of(prefix: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(prefix) and k not in _SCANS)

    out = {
        "mok.check_midpoint.ms": ms.get("mok.check_midpoint", 0.0),
        "mok.check_midpoint.pairs": count.get("mok.check_midpoint", 0),
        "synth.check_scored_midpoint.ms": ms.get("synth.check_scored_midpoint", 0.0),
        "synth.check_scored_midpoint.calls": calls.get("synth.check_scored_midpoint", 0),
        "synth.check_scored_midpoint.pairs": count.get("synth.check_scored_midpoint", 0),
        "hbl.check_midpoint_hbl.ms": ms.get("hbl.check_midpoint_hbl", 0.0),
        "hbl.check_midpoint_hbl.pairs": count.get("hbl.check_midpoint_hbl", 0),
        "lp.solve_lp.ms": ms.get("lp.solve_lp", 0.0),
        "lp.solve_lp.calls": calls.get("lp.solve_lp", 0),
        "lp.rows": lp_rows,
        "lp.cols": lp_cols,
        "synth.min_convex_over_polytope.ms": ms.get("synth.min_convex_over_polytope", 0.0),
        "harness.rng.draws": rng_draws,
        "harness.rng.ms": rng_ms,
        "synth.self_ms": self_of("synth."),
        "mok.solve_mok.self_ms": self_ms.get("mok.solve_mok", 0.0),
        "hbl.self_ms": self_of("hbl."),
        "cli.parse_problem.calls": calls.get("cli.parse_problem", 0),
        "cli.parse_problem.ms": ms.get("cli.parse_problem", 0.0),
        "cli.emit_report.ms": ms.get("cli.emit_report", 0.0),
        "cli.report_bytes": count.get("cli.emit_report", 0),
        "cli.run_command.self_ms": self_ms.get("cli.run_command", 0.0),
        "gauge.eval_gauge.calls": calls.get("gauge.eval_gauge", 0),
        "gauge.eval_gauge.ms": ms.get("gauge.eval_gauge", 0.0),
    }
    return {k: v / rounds for k, v in out.items()}
