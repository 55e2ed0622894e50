"""Tests of the benchmark's checker and span aggregation.

    python3 -m pytest bench/test_checker.py

Genuine outputs of the program must pass the checker, and each mutated
certificate must be rejected.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checker  # noqa: E402
import solver  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from minorant import cli  # noqa: E402


def solve(problem):
    kind, payload = problem
    call, to_output = solver.library_call(kind, payload)
    return kind, payload, to_output(call())


def rng(seed=7):
    return np.random.default_rng(seed)


PROBLEMS = {
    "mok-satisfied": lambda: W.mok_satisfied(rng(), 12),
    "mok-random": lambda: W.mok_random(rng(), 12),
    "sun-finite": lambda: W.sun_finite(rng(), 12),
    "affine-finite": lambda: W.affine_finite(rng(), 12),
    "sun-polytope": lambda: W.sun_polytope(rng(), 24, d=3, p=6),
    "affine-polytope": lambda: W.affine_polytope(rng(), 24, d=3, p=6),
    "cahbl-polytope": lambda: W.cahbl_polytope(rng(), 24, d=3, dz=2, p=6),
    "hbl-product": lambda: W.hbl_product(rng(), 12),
    "hbl-payload": lambda: W.hbl_payload(rng(), 12),
    "min-convex": lambda: W.min_convex(rng(), 24, d=3, p=6),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_genuine_output_passes(name):
    kind, payload, out = solve(PROBLEMS[name]())
    assert checker.check(kind, payload, out) == []


def test_random_mok_is_a_confirmed_violation():
    kind, payload, out = solve(PROBLEMS["mok-random"]())
    assert out["midpoint"]["status"] == "violated"
    assert checker.check(kind, payload, out) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_genuine_cli_reports_pass(seed):
    for kind, payload in W.cli_docs(np.random.default_rng(seed)):
        doc = W.document(kind, payload)
        report, code = cli.run_problem_text(doc)
        assert code == 0
        assert checker.check_report(doc, report) == [], kind


def test_gauge_both_branches_pass():
    branches = set()
    r = rng(3)
    for _ in range(40):
        kind, payload = W.eval_gauge(r)
        doc = W.document(kind, payload)
        report, _ = cli.run_problem_text(doc)
        branches.add(json.loads(report)["certificate"]["branch"])
        assert checker.check_report(doc, report) == []
    assert branches == {"zero", "root"}


# ---------------------------------------------------------------------------
# Mutated certificates


def mutated(name, change):
    kind, payload, out = solve(PROBLEMS[name]())
    out = copy.deepcopy(out)
    change(out, payload)
    return checker.check(kind, payload, out)


@pytest.mark.parametrize("name", ["affine-finite", "sun-polytope", "cahbl-polytope"])
def test_rejects_raised_c(name):
    def raise_c(out, _):
        out["affine"]["c"] += 1e-4

    errs = mutated(name, raise_c)
    assert any("A <= f fails" in e for e in errs)


@pytest.mark.parametrize("name", ["affine-finite", "affine-polytope"])
def test_rejects_shifted_delta(name):
    def shift(out, _):
        out["delta"] += 1e-5

    assert any("delta" in e for e in mutated(name, shift))


def test_rejects_raised_lp_level():
    def raise_t(out, _):
        out["t_star"] += 1e-5

    assert any("LP level" in e for e in mutated("sun-polytope", raise_t))


def _scored_values(payload, i, j):
    pts = np.array(payload["b"]["points"])
    sc = np.array(payload["b"]["scores"])
    G = pts @ checker._fn(payload["f"])[0].T
    return np.max(G - 0.5 * (G[i] + G[j]), axis=1) + sc - 0.5 * (sc[i] + sc[j])


def test_rejects_false_witness():
    def falsify(out, payload):
        for w in out["condition"]["witnesses"]:
            vals = _scored_values(payload, w[0], w[1])
            if vals.max() > 1e-3:
                w[2] = int(np.argmax(vals))
                return
        raise AssertionError("no pair with a non-witness")

    errs = mutated("affine-finite", falsify)
    assert any("is no witness" in e for e in errs)


def test_accepts_another_true_witness():
    """Witness indices are not pinned: any real witness passes."""
    def swap(out, payload):
        for w in out["condition"]["witnesses"]:
            vals = _scored_values(payload, w[0], w[1])
            others = [c for c in np.flatnonzero(vals <= 0.0) if c != w[2]]
            if others:
                w[2] = int(others[-1])
                return
        raise AssertionError("no pair with two witnesses")

    assert mutated("affine-finite", swap) == []


def test_rejects_violation_pair_with_a_candidate():
    def diagonal(out, _):
        i = out["midpoint"]["violation"]["pair"][0]
        out["midpoint"]["violation"]["pair"] = [i, i]   # c = i gives S(0) = 0

    errs = mutated("mok-random", diagonal)
    assert any("has a candidate" in e for e in errs)


def test_rejects_satisfied_claim_on_violated_set():
    def claim(out, _):
        out["midpoint"].update(status="satisfied", violation=None)

    errs = mutated("mok-random", claim)
    assert any("reported satisfied" in e for e in errs)


def test_rejects_weights_off_the_simplex():
    def scale(out, _):
        out["weights"] = [2.0 * w for w in out["weights"]]

    assert any("sum to" in e for e in mutated("mok-satisfied", scale))


def test_rejects_value_below_the_lp_optimum():
    def lower(out, _):
        out["linear"] = [0.5 * x for x in out["linear"]]
        out["weights"] = [0.5 * x for x in out["weights"]]

    assert mutated("mok-satisfied", lower) != []


def test_rejects_hbl_gap():
    def shift(out, _):
        out["target"] += 1e-6
        out["gap"] += 1e-6

    assert any("target" in e for e in mutated("hbl-product", shift))


def test_rejects_point_outside_polytope():
    def move(out, payload):
        out["x"] = (np.array(out["x"]) + 10.0).tolist()

    errs = mutated("min-convex", move)
    assert any("outside the polytope" in e for e in errs)


def test_rejects_wrong_digest():
    kind, payload = W.sun_finite(rng(), 8)
    doc = W.document(kind, payload)
    report, _ = cli.run_problem_text(doc)
    r = json.loads(report)
    r["input_sha256"] = "0" * 64
    assert "input_sha256 does not match the document" in checker.check_report(doc, json.dumps(r))


def test_rejects_wrong_gauge_value():
    r = rng(3)
    for _ in range(40):
        kind, payload = W.eval_gauge(r)
        doc = W.document(kind, payload)
        rep = json.loads(cli.run_problem_text(doc)[0])
        if rep["certificate"]["branch"] == "root":
            rep["certificate"]["value"] *= 1.0 + 1e-6
            assert any("defining equation" in e
                       for e in checker.check_report(doc, json.dumps(rep)))
            return
    raise AssertionError("no root-branch gauge value drawn")


# ---------------------------------------------------------------------------
# Span aggregation


def test_missing_function_reads_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", {
        "gone.layer": (["minorant.synth:no_such_function", "no_such_module:f"], None),
        "lp.solve_lp": spans.LAYERS["lp.solve_lp"],
    })
    tracer = spans.Tracer()
    tracer.install()
    try:
        solve(PROBLEMS["mok-satisfied"]())
    finally:
        tracer.uninstall()
    assert tracer.absent == ["gone.layer"]
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["lp.solve_lp.calls"] == 1
    assert metrics["synth.check_scored_midpoint.calls"] == 0


def test_self_time_subtracts_children():
    ms = 1_000_000
    recs = [
        [0, -1, spans.ROOT, 0, 100 * ms, None],
        [1, 0, "mok.solve_mok", 0, 90 * ms, None],
        [2, 1, "lp.solve_lp", 10 * ms, 30 * ms, (5, 7)],
        [3, 1, "mok.check_midpoint", 40 * ms, 80 * ms, 55],
    ]
    m = spans.layer_metrics(recs, 2)
    assert m["mok.solve_mok.self_ms"] == pytest.approx(15.0)
    assert m["lp.solve_lp.ms"] == pytest.approx(10.0)
    assert m["mok.check_midpoint.pairs"] == pytest.approx(27.5)
    assert m["lp.rows"] == pytest.approx(2.5)
