"""The benchmark's in-process adapter (`bench/solver.py`) reads certificate
attributes directly.  Run `library_call` and its output builder on one tiny
problem of each in-process kind, so that a certificate attribute the
benchmark reads cannot be removed without failing here.  The benchmark's
independent checker (`bench/checker.py`) must also accept the CLI report of
each golden document of a form it covers."""

import importlib.util
import json
import pathlib

import pytest
from minorant.cli import EXIT_OK, run_problem_text
from test_cli import _golden_documents

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

F = {"pieces": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [-1.0, 0.5], "b": 0.2}]}
S = {"pieces": [[1.0, 0.0], [-1.0, 0.5]]}
J = {"matrix": [[1.0], [0.5]], "offset": [0.0, 0.1]}
POINTS = [[0.0, 1.0], [0.0, 2.0]]
VERTICES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

PROBLEMS = [
    ("solve-mok", {"s": S, "d": [[1.0, 0.0]]}),
    ("synth-sun", {"f": F, "z": {"points": POINTS}}),
    ("synth-sun", {"f": F, "z": {"vertices": VERTICES}}),
    ("synth-affine", {"f": F, "b": {"points": POINTS, "scores": [0.0, -0.5]}}),
    ("synth-affine", {"f": F, "b": {"vertices": VERTICES, "score_lin": [0.5, 0.0],
                                    "score_off": 0.25}}),
    ("synth-cahbl", {"f": F, "z": {"vertices": [[0.0], [1.0]], "j": J,
                                   "k": {"lin": [0.5], "off": 0.0}}}),
    ("solve-hbl", {"sublinears": [S, S], "tables": [[[1.0, 0.0]], [[0.0, 1.0]]]}),
    ("solve-hbl", {"s": S, "j": [[1.0, 0.0]], "k": [0.0]}),
    ("min-convex", {"f": F, "vertices": VERTICES}),
]


@pytest.fixture(scope="module")
def solver(request):
    # solver.py imports its sibling `spans` by plain name.
    mp = pytest.MonkeyPatch()
    request.addfinalizer(mp.undo)
    mp.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_solver", BENCH / "solver.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind,payload", PROBLEMS,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(PROBLEMS)])
def test_library_call_output(solver, kind, payload):
    call, to_output = solver.library_call(kind, payload)
    out = to_output(call())
    assert "error" not in out
    json.dumps(out)  # the benchmark writes every output as JSON


# The exit-0 golden documents of the forms the checker covers.
CHECKED = ["affine-points", "affine-polytope", "cahbl-finite", "cahbl-polytope-affine",
           "gauge-root", "gauge-zero", "gen-hbl", "gen-max-affine", "hbl-finite",
           "hbl-product", "hbl-product-payload", "mok-satisfied", "sun-points", "sun-vertices"]


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("bench_checker", BENCH / "checker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", CHECKED)
def test_checker_accepts_cli_report(checker, name):
    _, text, flags = _golden_documents()[name]
    assert flags == []
    report, code = run_problem_text(text)
    assert code == EXIT_OK
    assert checker.check_report(text, report) == []


# The trace layers whose function is gone from src/, and the bindings of
# `lp.solve_lp` in modules that reach it only through `synth._min_lp`, whose
# binding sees every call.  Deleting them is a change to the benchmark.
GONE_LAYERS = {"synth.min_over_scored_set"}
UNUSED_BINDINGS = {"minorant.synth:min_over_scored_set", "minorant.mok:solve_lp",
                   "minorant.hbl:solve_lp"}


def test_every_trace_binding_resolves(solver):
    # A binding that does not resolve leaves its layer's metrics at 0.
    spans = solver.spans
    unresolved = {b for bindings, _ in spans.LAYERS.values() for b in bindings
                  if spans._resolve(b)[0] is None}
    assert unresolved <= UNUSED_BINDINGS


def test_every_trace_layer_is_reached(solver, tmp_path):
    # One tiny problem of each in-process kind and three CLI documents reach
    # every layer but the gone ones, so a call moved off a traced path
    # fails here instead of reading 0.
    tracer = solver.spans.Tracer()
    tracer.install()
    try:
        for kind, payload in PROBLEMS:
            call, _ = solver.library_call(kind, payload)
            call()
        for name in ("gauge-root", "gen-polytope", "sun-vertices"):
            kind, text, flags = _golden_documents()[name]
            src = tmp_path / "in.json"
            src.write_text(text)
            solver.cli.run_command([kind, "--input", str(src), "--output",
                                    str(tmp_path / "out.json"), *flags])
    finally:
        tracer.uninstall()
    assert set(tracer.absent) <= GONE_LAYERS
    assert set(solver.spans.LAYERS) - {s[2] for s in tracer.spans} <= GONE_LAYERS
