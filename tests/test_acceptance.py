"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every criterion is checked at its stated tolerance against values computed
independently of the implementation under test (closed forms, scipy-free
oracles, expanded brute-force formulations, hand-solved instances).
"""

import json
import math

import numpy as np
import pytest

from minorant.cli import EXIT_HYPOTHESIS, EXIT_OK, emit_report, run_problem_text
from minorant.core import (
    AffineMap,
    AffineTransform,
    ConvexOracle,
    MaxAffineFn,
    PolyhedralSublinear,
)
from minorant.gauge import eval_gauge, eval_gauge_batch, shift
from minorant.harness import (
    SplitMix64,
    domination_oracle,
    gen_instance,
    gen_line_constrained_set,
    gen_mok_satisfied,
    grid_min_oracle,
)
from minorant.hbl import HblInstance, solve_hbl_jk, solve_hbl_n
from minorant.mok import solve_mok
from minorant.synth import (
    min_convex_over_polytope,
    synth_composed_minorant,
    synth_tight_minorant,
)


def _report(capsys, name: str, passed: bool, detail: str) -> None:
    # Emit outside pytest's capture so the line always reaches the terminal.
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def test_c1_gauge_closed_form_abs(capsys):
    F = MaxAffineFn(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    rng = SplitMix64(101)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-10.0, 10.0)
        a = rng.uniform(-10.0, 10.0)
        got = eval_gauge(F, [x], a).value
        worst = max(worst, abs(got - max(abs(x) - a, 0.0)))
    passed = worst <= 1e-8
    _report(capsys, "C1 gauge closed form (|.|)", passed, f"worst={worst:.3e}, n=1000")
    assert passed


def test_c2_gauge_quadratic_oracle(capsys):
    q = ConvexOracle(evaluator=lambda x: float(x[0]) ** 2, dim=1)
    rng = SplitMix64(102)
    worst = 0.0
    for _ in range(500):
        x = rng.uniform(-10.0, 10.0)
        a = rng.uniform(-10.0, 10.0)
        want = (-a + math.sqrt(a * a + 4.0 * x * x)) / 2.0
        got = eval_gauge(q, [x], a).value
        worst = max(worst, abs(got - want))
    passed = worst <= 1e-6
    _report(capsys, "C2 gauge quadratic oracle", passed, f"worst={worst:.3e}, n=500")
    assert passed


def _structural_samples():
    """Shared instance/point stream for criteria 3 and 4."""
    for t in range(200):
        d = 1 + t % 4
        p = 1 + t % 6
        F = gen_instance("max_affine", {"d": d, "p": p}, 7000 + t)
        rng = SplitMix64(900 + t)
        X = rng.uniform_matrix(200, d, -5.0, 5.0)
        alphas = rng.uniform_vector(200, -5.0, 5.0)
        yield F, X, alphas, rng


def test_c3_gauge_structural_properties(capsys):
    worst = {"axis": 0.0, "graph": 0.0, "hypograph": 0.0,
             "homogeneity": 0.0, "subadditivity": 0.0}
    for F, X, alphas, rng in _structural_samples():
        fsh = shift(F)
        vals = eval_gauge_batch(F, X, alphas)

        # Axis: S(0, a) = max(-a, 0).
        axis = eval_gauge_batch(F, np.zeros_like(X), alphas)
        worst["axis"] = max(worst["axis"],
                            float(np.max(np.abs(axis - np.maximum(-alphas, 0.0)))))

        # Graph: S(x, fshift(x)) = 1.
        fvals = fsh.batch(X) if hasattr(fsh, "batch") else np.array([fsh(x) for x in X])
        graph = eval_gauge_batch(F, X, fvals)
        worst["graph"] = max(worst["graph"], float(np.max(np.abs(graph - 1.0))))

        # Hypograph: alpha <= fshift(x) implies S >= 1.
        below = alphas <= fvals
        if np.any(below):
            worst["hypograph"] = max(
                worst["hypograph"], float(np.max(1.0 - vals[below])))

        # Positive homogeneity, relative error.
        lam = rng.uniform(0.1, 10.0)
        scaled = eval_gauge_batch(F, lam * X, lam * alphas)
        denom = np.maximum(1.0, lam * vals)
        worst["homogeneity"] = max(
            worst["homogeneity"],
            float(np.max(np.abs(scaled - lam * vals) / denom)))

        # Subadditivity against a reversed pairing of the same samples.
        Y, betas = X[::-1], alphas[::-1]
        wv = eval_gauge_batch(F, Y, betas)
        sums = eval_gauge_batch(F, X + Y, alphas + betas)
        worst["subadditivity"] = max(
            worst["subadditivity"], float(np.max(sums - vals - wv)))

    passed = (worst["axis"] <= 1e-8 and worst["graph"] <= 1e-8
              and worst["hypograph"] <= 1e-8
              and worst["homogeneity"] <= 1e-9
              and worst["subadditivity"] <= 1e-9)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(capsys, "C3 gauge structural suite", passed, detail)
    assert passed


def test_c4_implicit_equation_residual(capsys):
    worst = 0.0
    checked = 0
    for F, X, alphas, _ in _structural_samples():
        fsh = shift(F)
        vals = eval_gauge_batch(F, X, alphas)
        root = vals > 0.0
        for x, a, mu in zip(X[root], alphas[root], vals[root]):
            worst = max(worst, abs(mu * fsh(x / mu) - a))
            checked += 1
    passed = worst <= 1e-8
    _report(capsys, "C4 implicit-equation residual", passed,
            f"worst={worst:.3e}, roots={checked}")
    assert passed


def test_c5_mok_guarantee(capsys):
    worst_gap = 0.0
    worst_duality = 0.0
    for t in range(100):
        S, D = gen_mok_satisfied(t, d=1 + t % 4, p=2 + t % 4, npts=3 + t % 3)
        cert = solve_mok(S, D)
        assert cert.midpoint.satisfied
        worst_gap = max(worst_gap, abs(cert.gap))
    rng = SplitMix64(505)
    for _ in range(100):
        S = PolyhedralSublinear(rng.uniform_matrix(rng.randint(1, 5),
                                                   rng.randint(1, 4), -2.0, 2.0))
        D = [rng.uniform_vector(S.dim, -2.0, 2.0) for _ in range(rng.randint(1, 5))]
        worst_duality = min(worst_duality, solve_mok(S, D).gap)

    abs1 = solve_mok(PolyhedralSublinear(np.array([[1.0], [-1.0]])),
                     [np.array([1.0])])
    relu = solve_mok(PolyhedralSublinear(np.array([[1.0], [0.0]])),
                     [np.array([0.0]), np.array([1.0])])
    hand_ok = abs1.value == 1.0 and relu.value == 0.0

    passed = worst_gap <= 1e-8 and worst_duality >= -1e-9 and hand_ok
    _report(capsys, "C5 linear-minorant guarantee", passed,
            f"worst_gap={worst_gap:.3e}, weak_duality={worst_duality:.3e}, "
            f"hand={'ok' if hand_ok else 'BAD'}")
    assert passed


def _c6_instances():
    """100 synthesis runs whose hypotheses hold by construction, each as
    (f, certificate)."""
    for t in range(40):  # polytope-tight minorants (condition automatic)
        d = 1 + t % 3
        F = gen_instance("max_affine", {"d": d, "p": 2 + t % 4}, 6000 + t)
        C = gen_instance("polytope", {"d": d, "v": 2 + t % 3}, 6100 + t)
        yield F, synth_tight_minorant(F, C)
    for t in range(30):  # finite sets constant along a slack direction
        F, Z = gen_line_constrained_set(6200 + t, d=1 + t % 4, p=2 + t % 4)
        yield F, synth_tight_minorant(F, Z)
    for t in range(30):  # composed affine payload over a polytope (exact)
        rng = SplitMix64(6300 + t)
        dz = 1 + t % 2
        d = 1 + t % 3
        F = gen_instance("max_affine", {"d": d, "p": 2 + t % 4}, 6400 + t)
        C = gen_instance("polytope", {"d": dz, "v": 2 + t % 3}, 6500 + t)
        jt = AffineTransform(rng.uniform_matrix(d, dz, -2.0, 2.0),
                             rng.uniform_vector(d, -2.0, 2.0))
        kk = AffineMap(rng.uniform_vector(dz, -2.0, 2.0), rng.uniform(-2.0, 2.0))
        yield F, synth_composed_minorant(F, jt, kk, C)


def test_c6_synthesis_pipelines(capsys):
    worst_deficit = 0.0
    worst_slope = 0.0
    worst_sampled = 0.0
    worst_gap = 0.0
    min_lam = float("inf")
    min_t = float("inf")
    n = 0
    for F, cert in _c6_instances():
        assert cert.condition.satisfied and cert.fallback is None
        dom = cert.domination
        worst_deficit = min(worst_deficit, dom.worst_deficit)
        worst_slope = max(worst_slope, dom.slope_residual)
        # The sampled oracle never falls below the exact bound
        # f(x) - A(x) >= worst_deficit - slope_residual * ||x||_1, up to the
        # rounding of f(x) - A(x) on [-10, 10]^d.
        sampled, x = domination_oracle(F, cert.affine)
        assert sampled >= dom.worst_deficit - dom.slope_residual * np.abs(x).sum() - 1e-12
        worst_sampled = min(worst_sampled, sampled)
        worst_gap = max(worst_gap, abs(cert.gap))
        min_lam = min(min_lam, cert.lifted.lam)
        min_t = min(min_t, cert.t_star)
        n += 1
    passed = (n == 100 and worst_deficit >= -1e-7 and worst_slope <= 1e-7
              and worst_sampled >= -1e-7 and worst_gap <= 1e-6
              and min_lam > 1e-12 and min_t >= 1.0 - 1e-8)
    _report(capsys, "C6 affine-minorant pipelines", passed,
            f"n={n}, deficit={worst_deficit:.2e}, slope={worst_slope:.2e}, "
            f"sampled={worst_sampled:.2e}, gap={worst_gap:.2e}, "
            f"lam_min={min_lam:.2e}, t_min={min_t:.9f}")
    assert passed


def test_c7_polytope_min_vs_grid_oracle(capsys):
    worst_a = 0.0
    worst_lp = 0.0
    for t in range(50):
        d = 1 + t % 2
        v = 2 + t % 2
        F = gen_instance("max_affine", {"d": d, "p": 2 + t % 4}, 7700 + t)
        C = gen_instance("polytope", {"d": d, "v": v}, 7800 + t)
        ref = grid_min_oracle(F, C.vertices, resolution=1.0 / 1024)
        cert = synth_tight_minorant(F, C)
        _, lp_val = min_convex_over_polytope(F, C.vertices)
        worst_a = max(worst_a, abs(cert.lhs - ref))
        worst_lp = max(worst_lp, abs(lp_val - ref))
    passed = worst_a <= 2e-3 and worst_lp <= 2e-3
    _report(capsys, "C7 polytope minimum vs grid oracle", passed,
            f"worst_affine={worst_a:.3e}, worst_lp={worst_lp:.3e}, n=50")
    assert passed


def _expanded_product_value(inst: HblInstance) -> float:
    """Brute-force reference: solve the flat problem on the concatenated
    space whose sublinear pieces are all cross-space combinations."""
    import itertools

    dims = [S.dim for S in inst.sublinears]
    pieces = []
    for combo in itertools.product(*[S.pieces for S in inst.sublinears]):
        pieces.append(np.concatenate(combo))
    S_prod = PolyhedralSublinear(np.vstack(pieces))
    D = [np.concatenate([tab[z] for tab in inst.tables])
         for z in range(inst.nkeys)]
    return solve_mok(S_prod, D).value


def test_c8_hbl_product_consistency(capsys):
    worst = 0.0
    for t in range(30):
        inst = gen_instance("hbl", {"n": 3, "d": 3, "p": 3, "nz": 2 + t % 11},
                            8800 + t)
        cert = solve_hbl_n(inst)
        ref = _expanded_product_value(inst)
        worst = max(worst, abs(cert.value - ref))

    abs_s = PolyhedralSublinear(np.array([[1.0], [-1.0]]))
    slack = solve_hbl_jk(abs_s, np.array([[0.0], [1.0]]), np.array([0.0, -10.0]))
    identity_exact = (slack.weights[1][0] == 1.0 and slack.maps[1].w[0] == 1.0)
    slack_ok = abs(slack.value - (-9.0)) <= 1e-8

    passed = worst <= 1e-8 and identity_exact and slack_ok
    _report(capsys, "C8 multi-space product consistency", passed,
            f"worst={worst:.3e}, identity={'exact' if identity_exact else 'BAD'}, "
            f"k_slack={slack.value:.12g}")
    assert passed


def test_c9_cli_contract(capsys):
    checks = []

    # Worked example 1: tight minorant of |.| over conv{1, 3}.
    sun = json.dumps({"version": 1, "kind": "synth-sun", "payload": {
        "f": {"pieces": [{"a": [1.0], "b": 0.0}, {"a": [-1.0], "b": 0.0}]},
        "z": {"vertices": [[1.0], [3.0]]}}})
    text, code = run_problem_text(sun)
    cert = json.loads(text)["certificate"]
    checks.append(code == EXIT_OK and cert["affine"]["w"] == [1.0]
                  and abs(cert["gap"]) <= 1e-6)

    # Worked example 2: |.| over {-1, 1} violates the hypothesis, gap 1.
    mok = json.dumps({"version": 1, "kind": "solve-mok", "payload": {
        "s": {"pieces": [[1.0], [-1.0]]}, "d": [[-1.0], [1.0]]}})
    text2, code2 = run_problem_text(mok)
    cert2 = json.loads(text2)["certificate"]
    checks.append(code2 == EXIT_HYPOTHESIS and cert2["gap"] == 1.0
                  and cert2["midpoint"]["violation"]["pair"] == [0, 1])

    # Worked example 3: the default verification sweep passes.
    verify = json.dumps({"version": 1, "kind": "verify", "payload": {}})
    _, code3 = run_problem_text(verify)
    checks.append(code3 == EXIT_OK)

    # Round-trip and determinism.
    checks.append(emit_report(json.loads(text)) == text)
    checks.append(run_problem_text(sun) == (text, code))

    # Exit-code table.
    with pytest.raises(Exception):
        run_problem_text("{not json")
    bad = json.dumps({"version": 1, "kind": "eval-gauge",
                      "payload": {"f": {"pieces": [{"a": [1.0], "b": 0.0}]},
                                  "x": [1.0, 2.0], "alpha": 0.0}})
    schema_raised = False
    try:
        run_problem_text(bad)
    except Exception:
        schema_raised = True
    checks.append(schema_raised)

    passed = all(checks)
    _report(capsys, "C9 CLI contract", passed,
            "examples+roundtrip+determinism+exit-codes: "
            + "/".join("ok" if c else "BAD" for c in checks))
    assert passed
