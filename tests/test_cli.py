import json
import math
import re
import sys
from types import SimpleNamespace

import pytest

from minorant.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    SchemaError,
    emit_report,
    parse_problem,
    run_command,
    run_problem_text,
)


def doc(kind, payload, **extra):
    return json.dumps({"version": 1, "kind": kind, "payload": payload, **extra})


def strict_loads(text):
    """json.loads that refuses the NaN and Infinity tokens strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


ABS_F = {"pieces": [{"a": [1.0], "b": 0.0}, {"a": [-1.0], "b": 0.0}]}
ABS_S = {"pieces": [[1.0], [-1.0]]}

GAUGE_DOC = doc("eval-gauge", {"f": ABS_F, "x": [2.0], "alpha": 1.0})
MOK_BAD_DOC = doc("solve-mok", {"s": ABS_S, "d": [[-1.0], [1.0]]})
# For |.| the midpoint condition needs the literal midpoint in the set, so
# the satisfied example is a singleton.
MOK_OK_DOC = doc("solve-mok", {"s": ABS_S, "d": [[1.0]]})
SUN_DOC = doc("synth-sun", {"f": ABS_F, "z": {"vertices": [[1.0], [3.0]]}})
CAHBL_MAXAFFINE_DOC = doc("synth-cahbl", {
    "f": ABS_F,
    "z": {
        "vertices": [[0.0], [1.0]],
        "j": {"matrix": [[1.0]], "offset": [0.0]},
        "k": {"pieces": [{"a": [1.0], "b": -0.5}, {"a": [-1.0], "b": 0.5}]},
    },
})
VERIFY_DOC = doc("verify", {"trials": {
    "gauge_closed_form": 10, "gauge_oracle_agreement": 2,
    "gauge_sublinearity": 2, "mok": 2, "synth": 2,
    "hbl_product": 2, "polytope_min": 2,
}})


class TestParse:
    def test_minimal_gauge_doc(self):
        p = parse_problem(GAUGE_DOC)
        assert p.kind == "eval-gauge"
        assert p.seed is None

    def test_invalid_json(self):
        with pytest.raises(SchemaError, match=r"\$: invalid JSON"):
            parse_problem("{nope")

    def test_wrong_version(self):
        bad = json.dumps({"version": 2, "kind": "eval-gauge", "payload": {}})
        with pytest.raises(SchemaError, match=r"\$\.version"):
            parse_problem(bad)

    def test_unknown_kind(self):
        bad = json.dumps({"version": 1, "kind": "nope", "payload": {}})
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            parse_problem(bad)

    def test_unknown_field_rejected_with_path(self):
        bad = doc("eval-gauge", {"f": ABS_F, "x": [2.0], "alpha": 1.0, "bogus": 1})
        with pytest.raises(SchemaError, match=r"\$\.payload\.bogus"):
            parse_problem(bad)

    def test_dimension_mismatch_names_field(self):
        bad = doc("eval-gauge", {"f": ABS_F, "x": [2.0, 3.0], "alpha": 1.0})
        with pytest.raises(SchemaError, match=r"\$\.payload\.x"):
            parse_problem(bad)

    def test_nonfinite_number_rejected(self):
        bad = GAUGE_DOC.replace('"alpha": 1.0', '"alpha": NaN')
        with pytest.raises(SchemaError):
            parse_problem(bad)

    def test_missing_required_field(self):
        bad = doc("solve-mok", {"s": ABS_S})
        with pytest.raises(SchemaError, match=r"\$\.payload\.d"):
            parse_problem(bad)

    def test_tolerances_accepted(self):
        p = parse_problem(doc("eval-gauge",
                              {"f": ABS_F, "x": [2.0], "alpha": 1.0},
                              tolerances={"tol_gap": 1e-5}))
        assert p.tolerances.tol_gap == 1e-5
        assert p.tolerances.tol_lp == 1e-8

    def test_unknown_tolerance_rejected(self):
        bad = doc("eval-gauge", {"f": ABS_F, "x": [2.0], "alpha": 1.0},
                  tolerances={"tol_nope": 1.0})
        with pytest.raises(SchemaError, match=r"\$\.tolerances\.tol_nope"):
            parse_problem(bad)


class TestReports:
    def test_gauge_report_value(self):
        text, code = run_problem_text(GAUGE_DOC)
        assert code == EXIT_OK
        rep = json.loads(text)
        assert rep["status"] == "ok"
        assert rep["certificate"]["value"] == 1.0
        assert rep["certificate"]["branch"] == "root"
        assert len(rep["input_sha256"]) == 64

    def test_sun_report(self):
        text, code = run_problem_text(SUN_DOC)
        assert code == EXIT_OK
        cert = json.loads(text)["certificate"]
        assert cert["affine"]["w"] == [1.0]
        assert cert["lhs"] == pytest.approx(1.0)
        assert cert["t_star"] >= 1.0 - 1e-8

    def test_mok_violation_report(self):
        text, code = run_problem_text(MOK_BAD_DOC)
        assert code == EXIT_HYPOTHESIS
        rep = json.loads(text)
        assert rep["status"] == "hypothesis-violated"
        mid = rep["certificate"]["midpoint"]
        assert mid["status"] == "violated"
        assert mid["violation"]["pair"] == [0, 1]
        assert mid["violation"]["value"] == pytest.approx(1.0)
        assert rep["certificate"]["gap"] == pytest.approx(1.0)

    def test_roundtrip_floats_bit_exact(self):
        text, _ = run_problem_text(SUN_DOC)
        rep = json.loads(text)
        # Serializing the parsed report again must reproduce the bytes.
        from minorant.cli import emit_report

        assert emit_report(rep) == text

    @pytest.mark.parametrize("x", [-0.0, 5e-324, 0.1, 1 / 3, 2.0**53 + 2, 1e16, 1e16 + 2,
                                   sys.float_info.max])
    def test_float_bits_round_trip(self, x):
        got = json.loads(emit_report({"x": x}))["x"]
        assert (type(got), got.hex()) == (float, x.hex())

    def test_nonfinite_certificate_is_numerical_failure(self, monkeypatch):
        import minorant.cli

        monkeypatch.setattr(minorant.cli, "eval_gauge", lambda *args: SimpleNamespace(
            value=math.nan, branch=SimpleNamespace(value="root"), residual=0.0,
            iterations=1, within=lambda tol: True))
        text, code = run_problem_text(GAUGE_DOC)
        rep = strict_loads(text)
        assert code == EXIT_NUMERICAL
        assert rep["status"] == "numerical-failure"
        assert rep["certificate"]["error"] == "ValueError"

    def test_byte_identical_determinism(self):
        t1, c1 = run_problem_text(SUN_DOC)
        t2, c2 = run_problem_text(SUN_DOC)
        assert (t1, c1) == (t2, c2)


class TestExitCodes:
    CASES = [
        (GAUGE_DOC, "eval-gauge", [], EXIT_OK),
        (MOK_OK_DOC, "solve-mok", [], EXIT_OK),
        (MOK_BAD_DOC, "solve-mok", [], EXIT_HYPOTHESIS),
        (SUN_DOC, "synth-sun", [], EXIT_OK),
        (CAHBL_MAXAFFINE_DOC, "synth-cahbl", [], EXIT_OK),
        (CAHBL_MAXAFFINE_DOC, "synth-cahbl", ["--approximate-ok"], EXIT_SCHEMA),
        ("{bad json", "eval-gauge", [], EXIT_SCHEMA),
        (GAUGE_DOC, "solve-mok", [], EXIT_SCHEMA),  # kind/subcommand mismatch
    ]

    @pytest.mark.parametrize("text,command,flags,expected", CASES)
    def test_exit_code(self, tmp_path, capsys, text, command, flags, expected):
        path = tmp_path / "in.json"
        path.write_text(text)
        code = run_command([command, "--input", str(path), *flags])
        assert code == expected
        out = capsys.readouterr().out
        if expected in (EXIT_OK, EXIT_HYPOTHESIS):
            assert json.loads(out)["kind"] == command

    def test_missing_input_file(self, capsys):
        assert run_command(["eval-gauge", "--input", "/no/such/file"]) == EXIT_SCHEMA

    def test_max_affine_payload_is_exact(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(CAHBL_MAXAFFINE_DOC)
        code = run_command(["synth-cahbl", "--input", str(path)])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        cert = rep["certificate"]
        assert rep["status"] == "ok" and "error" not in cert
        assert not {"approximate", "fallback", "rhs"} & cert.keys()
        # inf over [0, 1] of |z| + |z - 1/2| is 1/2.
        assert cert["delta"] == pytest.approx(0.5, abs=1e-12)
        assert cert["lhs"] == pytest.approx(0.5, abs=1e-12)

    def test_output_file(self, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(GAUGE_DOC)
        code = run_command(["eval-gauge", "--input", str(src),
                            "--output", str(dst)])
        assert code == EXIT_OK
        assert json.loads(dst.read_text())["certificate"]["value"] == 1.0


class TestVerifyAndGen:
    def test_verify_small_suites(self):
        text, code = run_problem_text(VERIFY_DOC)
        assert code == EXIT_OK
        rep = json.loads(text)
        assert rep["certificate"]["passed"] is True
        assert len(rep["certificate"]["suites"]) == 7

    def test_verify_unknown_suite_is_schema_error(self):
        bad = doc("verify", {"suites": ["bogus"]})
        with pytest.raises(SchemaError):
            run_problem_text(bad)

    def test_gen_deterministic(self):
        g = doc("gen", {"instance": "max_affine", "dims": {"d": 2, "p": 3}}, seed=5)
        t1, c1 = run_problem_text(g)
        t2, c2 = run_problem_text(g)
        assert c1 == EXIT_OK and t1 == t2
        rep = json.loads(t1)
        assert len(rep["certificate"]["generated"]["pieces"]) == 3
        assert rep["certificate"]["seed"] == 5

    def test_gen_seed_override(self):
        g = doc("gen", {"instance": "max_affine", "dims": {"d": 2, "p": 3}}, seed=5)
        t1, _ = run_problem_text(g)
        t2, _ = run_problem_text(g, seed_override=6)
        assert t1 != t2

    def test_gen_output_reusable_as_problem_input(self):
        g = doc("gen", {"instance": "scored_set", "dims": {"d": 1, "k": 1}}, seed=3)
        text, _ = run_problem_text(g)
        gen = json.loads(text)["certificate"]["generated"]
        synth = doc("synth-affine", {"f": ABS_F, "b": gen})
        _, code = run_problem_text(synth)
        assert code == EXIT_OK


class TestRegressions:
    # A convex polytope satisfies the midpoint condition through its literal
    # midpoints, even when its vertex list as a finite set does not.
    HBL_POLYTOPE_DOC = doc("solve-hbl", {
        "s": ABS_S, "vertices": [[0.0], [1.0]],
        "j": {"matrix": [[1.0]], "offset": [0.0]}, "k": {"lin": [0.0], "off": 0.0},
    })
    # A scored infimum far below zero is still finite and exact.
    LOW_SCORE_DOC = doc("synth-affine", {
        "f": ABS_F, "b": {"points": [[0.0]], "scores": [-2e12]},
    })

    def _run(self, tmp_path, capsys, text, command):
        path = tmp_path / "in.json"
        path.write_text(text)
        code = run_command([command, "--input", str(path)])
        return code, json.loads(capsys.readouterr().out)

    def test_cli_import_skips_the_harness(self):
        # Only `verify` and `gen` use minorant.harness; importing the CLI
        # must not load it.
        import os
        import subprocess

        import minorant

        src = os.path.dirname(os.path.dirname(os.path.abspath(minorant.__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import minorant.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('minorant')))")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert "'minorant.cli'" in out and "'minorant.harness'" not in out

    def test_hbl_polytope_form_satisfied(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, self.HBL_POLYTOPE_DOC, "solve-hbl")
        assert code == EXIT_OK
        cert = rep["certificate"]
        assert cert["midpoint"]["status"] == "satisfied"
        assert cert["midpoint"]["violation"] is None
        assert cert["gap"] == 0.0

    def test_violated_affine_points_report_the_witness(self, tmp_path, capsys):
        # Its hypothesis fails, so the report names the violated pair,
        # whatever an LP on the set would give.
        text = doc("synth-affine", {
            "f": {"pieces": [{"a": [-370.0], "b": -40.0}, {"a": [270.0], "b": 40.0}]},
            "b": {"points": [[-70.0], [-60.0], [150.0]], "scores": [20.0, 140.0, 10.0]},
        })
        code, rep = self._run(tmp_path, capsys, text, "synth-affine")
        assert code == EXIT_HYPOTHESIS and rep["status"] == "hypothesis-violated"
        assert rep["certificate"]["error"] == "condition-violated"
        assert rep["certificate"]["condition"]["violation"] == {"pair": [0, 2], "value": 29695.0}

    def test_low_score_synth_affine_is_finite(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, self.LOW_SCORE_DOC, "synth-affine")
        assert code == EXIT_OK
        cert = rep["certificate"]
        assert cert["delta"] == -2e12 and cert["lhs"] == -2e12 and cert["gap"] == 0.0
        assert "fallback" not in cert


class TestToleranceExitCodes:
    """Exit 0 means the certificate is within the document's tolerances; a
    certificate outside them exits 2 even when the hypothesis holds."""

    # Its synthesized minorant misses the infimum by about 1.7e-16.
    SUN_GAP_DOC = doc("synth-sun", {
        "f": {"pieces": [{"a": [0.1, 1.0], "b": 0.1}, {"a": [-1.0, 0.1], "b": 0.1},
                         {"a": [0.5, -0.5], "b": 0.0}]},
        "z": {"vertices": [[0.1, 0.2], [0.7, -0.3], [-0.4, 0.9]]},
    })

    def _run(self, tmp_path, capsys, text, command, *flags):
        path = tmp_path / "in.json"
        path.write_text(text)
        code = run_command([command, "--input", str(path), *flags])
        return code, json.loads(capsys.readouterr().out)

    def test_synth_gap_within_default_tolerance(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, self.SUN_GAP_DOC, "synth-sun")
        gap = rep["certificate"]["gap"]
        assert 0.0 < abs(gap) < 1e-15
        assert code == EXIT_OK and rep["status"] == "ok"

    def test_tol_gap_below_gap_exits_numerical(self, tmp_path, capsys):
        payload = json.loads(self.SUN_GAP_DOC)["payload"]
        code, rep = self._run(tmp_path, capsys,
                              doc("synth-sun", payload, tolerances={"tol_gap": 1e-16}),
                              "synth-sun")
        assert code == EXIT_NUMERICAL and rep["status"] == "numerical-failure"
        assert abs(rep["certificate"]["gap"]) > 1e-16
        code, _ = self._run(tmp_path, capsys,
                            doc("synth-sun", payload, tolerances={"tol_gap": 1e-15}),
                            "synth-sun")
        assert code == EXIT_OK

    def test_document_tolerances_are_read(self, tmp_path, capsys):
        payload = json.loads(self.SUN_GAP_DOC)["payload"]
        for tols in ({"tol_gap": 1e-16}, {"tol_lp": 1e-17}):
            text = doc("synth-sun", payload, tolerances=tols)
            code, rep = self._run(tmp_path, capsys, text, "synth-sun")
            assert code == EXIT_NUMERICAL, tols
            assert rep["status"] == "numerical-failure"

    def test_polytope_gap_against_tightest_tol_gap(self, tmp_path, capsys):
        # A seeded 3-d polytope whose gap is nonzero but within 1e-15: the
        # tightest tol_gap fails it, and 1e-15 passes it.
        payload = _edge_payload("synth-sun", 1)
        runs = []
        for tol_gap in (1e-300, 1e-15):
            text = doc("synth-sun", payload, tolerances={"tol_gap": tol_gap, "tol_mid": 1e-6})
            runs.append(self._run(tmp_path, capsys, text, "synth-sun"))
        assert 1e-300 < abs(runs[0][1]["certificate"]["gap"]) <= 1e-15
        assert [code for code, _ in runs] == [EXIT_NUMERICAL, EXIT_OK]
        assert runs[0][1]["status"] == "numerical-failure"
        assert runs[1][1]["certificate"] == runs[0][1]["certificate"]

    def test_zero_gap_passes_any_tol_gap(self, tmp_path, capsys):
        text = doc("synth-sun", json.loads(SUN_DOC)["payload"], tolerances={"tol_gap": 1e-300})
        code, rep = self._run(tmp_path, capsys, text, "synth-sun")
        assert rep["certificate"]["gap"] == 0.0
        assert code == EXIT_OK

    def test_lambda_against_lambda_min(self, tmp_path, capsys):
        # A satisfied finite synthesis whose vertical multiplier is about
        # 0.495: lambda_min just above it exits 2 with the full certificate,
        # just below it exits 0.
        kind, text, _ = _golden_documents()["cahbl-finite"]
        payload = json.loads(text)["payload"]
        code, rep = self._run(tmp_path, capsys, text, kind)
        lam = rep["certificate"]["lifted"]["lam"]
        assert code == EXIT_OK and 0.0 < lam < 1.0
        runs = []
        for lambda_min in (math.nextafter(lam, math.inf), math.nextafter(lam, 0.0)):
            text = doc(kind, payload, tolerances={"lambda_min": lambda_min})
            runs.append(self._run(tmp_path, capsys, text, kind))
        assert [code for code, _ in runs] == [EXIT_NUMERICAL, EXIT_OK]
        assert runs[0][1]["status"] == "numerical-failure"
        assert runs[0][1]["certificate"] == runs[1][1]["certificate"] == rep["certificate"]

    def test_mok_gap_against_tol_lp(self, tmp_path, capsys):
        from minorant.harness import gen_mok_satisfied

        S, D = gen_mok_satisfied(0)
        payload = {"s": {"pieces": S.pieces.tolist()}, "d": [d.tolist() for d in D]}
        code, rep = self._run(tmp_path, capsys, doc("solve-mok", payload), "solve-mok")
        gap = rep["certificate"]["gap"]
        assert code == EXIT_OK and gap != 0.0
        text = doc("solve-mok", payload, tolerances={"tol_lp": abs(gap) / 2})
        code, rep = self._run(tmp_path, capsys, text, "solve-mok")
        assert code == EXIT_NUMERICAL and rep["status"] == "numerical-failure"

    def test_hbl_gap_against_tol_lp(self, tmp_path, capsys):
        from minorant.harness import gen_instance

        def payload(seed):
            H = gen_instance("hbl", {"n": 2, "d": 2, "p": 3, "nz": 3}, seed)
            return {"sublinears": [{"pieces": S.pieces.tolist()} for S in H.sublinears],
                    "tables": [t.tolist() for t in H.tables]}

        code, rep = self._run(tmp_path, capsys, doc("solve-hbl", payload(5)), "solve-hbl")
        gap = rep["certificate"]["gap"]
        assert code == EXIT_OK and gap != 0.0
        tight = {"tol_lp": abs(gap) / 2}
        code, _ = self._run(tmp_path, capsys, doc("solve-hbl", payload(5), tolerances=tight),
                            "solve-hbl")
        assert code == EXIT_NUMERICAL
        # A violated hypothesis is reported as such, whatever the tolerances.
        code, _ = self._run(tmp_path, capsys, doc("solve-hbl", payload(1), tolerances=tight),
                            "solve-hbl")
        assert code == EXIT_HYPOTHESIS


def _malformed(kind, payload, **extra):
    return doc(kind, payload, **extra)


F1 = {"pieces": [{"a": [1.0], "b": 0.0}]}
J1 = {"matrix": [[1.0]], "offset": [0.0]}
K1 = {"lin": [0.0], "off": 0.0}
HBL_SUB = {"sublinears": [ABS_S, ABS_S], "tables": [[[0.0], [1.0]], [[1.0], [0.0]]]}

# One malformed document per place the schema raises, with the full message.
SCHEMA_CASES = [
    ("json", "{nope",
     "$: invalid JSON (Expecting property name enclosed in double quotes at line 1)"),
    ("root-not-object", "[]", "$: expected an object"),
    ("root-unknown", json.dumps({"version": 1, "kind": "gen", "payload": {}, "x": 1}),
     "$.x: unknown field"),
    ("root-unknown-before-missing", json.dumps({"x": 1}), "$.x: unknown field"),
    ("root-missing", json.dumps({"version": 1, "kind": "gen"}),
     "$.payload: missing required field"),
    ("version", json.dumps({"version": 2, "kind": "gen", "payload": {}}),
     "$.version: unsupported version (expected 1)"),
    ("kind", json.dumps({"version": 1, "kind": "nope", "payload": {}}),
     "$.kind: unknown problem kind 'nope'"),
    ("tolerances-object", _malformed("gen", {}, tolerances=[]),
     "$.tolerances: expected an object"),
    ("tolerances-unknown", _malformed("gen", {}, tolerances={"tol_nope": 1.0}),
     "$.tolerances.tol_nope: unknown field"),
    ("tolerance-number", _malformed("gen", {}, tolerances={"tol_gap": "1"}),
     "$.tolerances.tol_gap: expected a number"),
    ("tolerance-bool", _malformed("gen", {}, tolerances={"tol_lp": True}),
     "$.tolerances.tol_lp: expected a number"),
    ("tolerance-negative", _malformed("gen", {}, tolerances={"tol_mid": -1}),
     "$.tolerances.tol_mid: must be >= 0"),
    ("tolerance-finite", GAUGE_DOC.replace("}}", '}, "tolerances": {"tol_gauge": NaN}}'),
     "$.tolerances.tol_gauge: number must be finite"),
    ("number-overflow", GAUGE_DOC.replace('"alpha": 1.0', '"alpha": 1' + "0" * 400),
     "$.payload.alpha: number must be finite"),
    ("seed-integer", _malformed("gen", {}, seed=1.5), "$.seed: expected an integer"),
    ("seed-bool", _malformed("gen", {}, seed=True), "$.seed: expected an integer"),
    ("payload-object", json.dumps({"version": 1, "kind": "gen", "payload": []}),
     "$.payload: expected an object"),
    # eval-gauge, and the max-affine parser through its f
    ("gauge-unknown", _malformed("eval-gauge", {"f": F1, "x": [1.0], "alpha": 1.0, "y": 0}),
     "$.payload.y: unknown field"),
    ("gauge-missing", _malformed("eval-gauge", {"f": F1, "x": [1.0]}),
     "$.payload.alpha: missing required field"),
    ("f-object", _malformed("eval-gauge", {"f": [], "x": [1.0], "alpha": 1.0}),
     "$.payload.f: expected an object"),
    ("f-missing-pieces", _malformed("eval-gauge", {"f": {}, "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces: missing required field"),
    ("f-pieces-empty", _malformed("eval-gauge", {"f": {"pieces": []}, "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces: expected a nonempty array"),
    ("f-piece-object", _malformed("eval-gauge", {"f": {"pieces": [1]}, "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0]: expected an object"),
    ("f-piece-unknown", _malformed("eval-gauge", {"f": {"pieces": [{"a": [1.0], "b": 0.0, "c": 0}]},
                                                  "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0].c: unknown field"),
    ("f-piece-missing", _malformed("eval-gauge", {"f": {"pieces": [{"a": [1.0]}]},
                                                  "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0].b: missing required field"),
    ("f-slope-array", _malformed("eval-gauge", {"f": {"pieces": [{"a": 1.0, "b": 0.0}]},
                                                "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0].a: expected a nonempty array of numbers"),
    ("f-slope-empty", _malformed("eval-gauge", {"f": {"pieces": [{"a": [], "b": 0.0}]},
                                                "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0].a: expected a nonempty array of numbers"),
    ("f-slope-length", _malformed("eval-gauge", {"f": {"pieces": [{"a": [1.0], "b": 0.0},
                                                                  {"a": [1.0, 2.0], "b": 0.0}]},
                                                 "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[1].a: expected length 1, got 2"),
    ("f-slope-number", _malformed("eval-gauge", {"f": {"pieces": [{"a": ["1"], "b": 0.0}]},
                                                 "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0].a[0]: expected a number"),
    ("f-offset-number", _malformed("eval-gauge", {"f": {"pieces": [{"a": [1.0], "b": None}]},
                                                  "x": [1.0], "alpha": 1.0}),
     "$.payload.f.pieces[0].b: expected a number"),
    ("gauge-x-length", _malformed("eval-gauge", {"f": F1, "x": [1.0, 2.0], "alpha": 1.0}),
     "$.payload.x: expected length 1, got 2"),
    ("gauge-alpha", _malformed("eval-gauge", {"f": F1, "x": [1.0], "alpha": "1"}),
     "$.payload.alpha: expected a number"),
    # solve-mok, and the sublinear parser through its s
    ("s-object", _malformed("solve-mok", {"s": 1, "d": [[1.0]]}), "$.payload.s: expected an object"),
    ("s-missing", _malformed("solve-mok", {"s": {}, "d": [[1.0]]}),
     "$.payload.s.pieces: missing required field"),
    ("s-rows", _malformed("solve-mok", {"s": {"pieces": []}, "d": [[1.0]]}),
     "$.payload.s.pieces: expected a nonempty array of rows"),
    ("s-row-length", _malformed("solve-mok", {"s": {"pieces": [[1.0], [1.0, 2.0]]}, "d": [[1.0]]}),
     "$.payload.s.pieces[1]: expected length 1, got 2"),
    ("mok-d-rows", _malformed("solve-mok", {"s": ABS_S, "d": {}}),
     "$.payload.d: expected a nonempty array of rows"),
    ("mok-d-length", _malformed("solve-mok", {"s": ABS_S, "d": [[1.0, 2.0]]}),
     "$.payload.d[0]: expected length 1, got 2"),
    # synth-affine
    ("affine-b-object", _malformed("synth-affine", {"f": F1, "b": []}),
     "$.payload.b: expected an object"),
    ("affine-points-missing", _malformed("synth-affine", {"f": F1, "b": {"points": [[1.0]]}}),
     "$.payload.b.scores: missing required field"),
    ("affine-points-length", _malformed("synth-affine", {"f": F1, "b": {"points": [[1.0, 2.0]],
                                                                        "scores": [0.0]}}),
     "$.payload.b.points[0]: expected length 1, got 2"),
    ("affine-scores-length", _malformed("synth-affine", {"f": F1, "b": {"points": [[1.0]],
                                                                        "scores": [0.0, 1.0]}}),
     "$.payload.b.scores: expected length 1, got 2"),
    ("affine-polytope-missing", _malformed("synth-affine", {"f": F1, "b": {}}),
     "$.payload.b.vertices: missing required field"),
    ("affine-polytope-unknown", _malformed("synth-affine", {"f": F1, "b": {
        "vertices": [[1.0]], "score_lin": [0.0], "score_off": 0.0, "scores": [0.0]}}),
     "$.payload.b.scores: unknown field"),
    ("affine-score-lin", _malformed("synth-affine", {"f": F1, "b": {
        "vertices": [[1.0]], "score_lin": [0.0, 1.0], "score_off": 0.0}}),
     "$.payload.b.score_lin: expected length 1, got 2"),
    ("affine-score-off", _malformed("synth-affine", {"f": F1, "b": {
        "vertices": [[1.0]], "score_lin": [0.0], "score_off": False}}),
     "$.payload.b.score_off: expected a number"),
    # synth-sun
    ("sun-z-object", _malformed("synth-sun", {"f": F1, "z": "z"}), "$.payload.z: expected an object"),
    ("sun-points-unknown", _malformed("synth-sun", {"f": F1, "z": {"points": [[1.0]], "k": 1}}),
     "$.payload.z.k: unknown field"),
    ("sun-points-length", _malformed("synth-sun", {"f": F1, "z": {"points": [[1.0, 2.0]]}}),
     "$.payload.z.points[0]: expected length 1, got 2"),
    ("sun-vertices-missing", _malformed("synth-sun", {"f": F1, "z": {}}),
     "$.payload.z.vertices: missing required field"),
    ("sun-vertices-length", _malformed("synth-sun", {"f": F1, "z": {"vertices": [[1.0], [2.0, 3.0]]}}),
     "$.payload.z.vertices[1]: expected length 1, got 2"),
    # synth-cahbl
    ("cahbl-z-object", _malformed("synth-cahbl", {"f": F1, "z": None}),
     "$.payload.z: expected an object"),
    ("cahbl-finite-unknown", _malformed("synth-cahbl", {"f": F1, "z": {"j": [[1.0]], "k": [0.0],
                                                                       "vertices": [[1.0]]}}),
     "$.payload.z.vertices: unknown field"),
    ("cahbl-finite-j-length", _malformed("synth-cahbl", {"f": F1, "z": {"j": [[1.0, 2.0]], "k": [0.0]}}),
     "$.payload.z.j[0]: expected length 1, got 2"),
    ("cahbl-finite-k-length", _malformed("synth-cahbl", {"f": F1, "z": {"j": [[1.0]], "k": [0.0, 1.0]}}),
     "$.payload.z.k: expected length 1, got 2"),
    ("cahbl-polytope-missing", _malformed("synth-cahbl", {"f": F1, "z": {"j": J1, "k": K1}}),
     "$.payload.z.vertices: missing required field"),
    ("cahbl-vertices-rows", _malformed("synth-cahbl", {"f": F1, "z": {"vertices": [], "j": J1, "k": K1}}),
     "$.payload.z.vertices: expected a nonempty array of rows"),
    ("cahbl-j-object", _malformed("synth-cahbl", {"f": F1, "z": {"vertices": [[0.0]], "j": "j", "k": K1}}),
     "$.payload.z.j: expected an object"),
    ("cahbl-j-missing", _malformed("synth-cahbl", {"f": F1, "z": {"vertices": [[0.0]],
                                                                  "j": {"matrix": [[1.0]]}, "k": K1}}),
     "$.payload.z.j.offset: missing required field"),
    ("cahbl-j-matrix-cols", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": {"matrix": [[1.0, 2.0]], "offset": [0.0]}, "k": K1}}),
     "$.payload.z.j.matrix[0]: expected length 1, got 2"),
    ("cahbl-j-matrix-rows", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": {"matrix": [[1.0], [2.0]], "offset": [0.0]}, "k": K1}}),
     "$.payload.z.j.matrix: expected 1 rows"),
    ("cahbl-j-offset", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": {"matrix": [[1.0]], "offset": [0.0, 1.0]}, "k": K1}}),
     "$.payload.z.j.offset: expected length 1, got 2"),
    ("cahbl-k-object", _malformed("synth-cahbl", {"f": F1, "z": {"vertices": [[0.0]], "j": J1, "k": []}}),
     "$.payload.z.k: expected an object"),
    ("cahbl-k-unknown", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"pieces": F1["pieces"], "off": 0.0}}}),
     "$.payload.z.k.off: unknown field"),
    ("cahbl-k-pieces", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"pieces": []}}}),
     "$.payload.z.k.pieces: expected a nonempty array"),
    ("cahbl-k-piece", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"pieces": [{"a": [1.0]}]}}}),
     "$.payload.z.k.pieces[0].b: missing required field"),
    ("cahbl-k-slope-length", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"pieces": [{"a": [1.0, 2.0], "b": 0.0}]}}}),
     "$.payload.z.k.pieces: expected slope length 1"),
    ("cahbl-k-affine-missing", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"lin": [0.0]}}}),
     "$.payload.z.k.off: missing required field"),
    ("cahbl-k-lin", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"lin": [0.0, 1.0], "off": 0.0}}}),
     "$.payload.z.k.lin: expected length 1, got 2"),
    ("cahbl-k-off", _malformed("synth-cahbl", {"f": F1, "z": {
        "vertices": [[0.0]], "j": J1, "k": {"lin": [0.0], "off": [0.0]}}}),
     "$.payload.z.k.off: expected a number"),
    # solve-hbl, product form
    ("hbl-form", _malformed("solve-hbl", {"tables": []}),
     "$.payload: expected either 'sublinears' or 's'"),
    ("hbl-unknown", _malformed("solve-hbl", dict(HBL_SUB, s=ABS_S)), "$.payload.s: unknown field"),
    ("hbl-missing", _malformed("solve-hbl", {"sublinears": [ABS_S]}),
     "$.payload.tables: missing required field"),
    ("hbl-sublinears", _malformed("solve-hbl", {"sublinears": [], "tables": []}),
     "$.payload.sublinears: expected a nonempty array"),
    ("hbl-tables", _malformed("solve-hbl", {"sublinears": [ABS_S], "tables": {}}),
     "$.payload.tables: expected one table per sublinear"),
    ("hbl-tables-count", _malformed("solve-hbl", {"sublinears": [ABS_S], "tables": [[[0.0]], [[0.0]]]}),
     "$.payload.tables: expected one table per sublinear"),
    ("hbl-sublinear", _malformed("solve-hbl", {"sublinears": [{"pieces": [[1.0]], "x": 0}],
                                               "tables": [[[0.0]]]}),
     "$.payload.sublinears[0].x: unknown field"),
    ("hbl-table-length", _malformed("solve-hbl", {"sublinears": [ABS_S], "tables": [[[0.0, 1.0]]]}),
     "$.payload.tables[0][0]: expected length 1, got 2"),
    ("hbl-key-sets", _malformed("solve-hbl", {"sublinears": [ABS_S, ABS_S],
                                              "tables": [[[0.0], [1.0]], [[0.0]]]}),
     "$.payload.tables[1]: key-set size mismatch"),
    ("hbl-payload", _malformed("solve-hbl", dict(HBL_SUB, payload=[0.0])),
     "$.payload.payload: expected length 2, got 1"),
    # solve-hbl, scalar-payload forms
    ("hbl-s-unknown", _malformed("solve-hbl", {"s": ABS_S, "j": [[0.0]], "k": [0.0], "x": 0}),
     "$.payload.x: unknown field"),
    ("hbl-s-j-length", _malformed("solve-hbl", {"s": ABS_S, "j": [[0.0, 1.0]], "k": [0.0]}),
     "$.payload.j[0]: expected length 1, got 2"),
    ("hbl-s-k-length", _malformed("solve-hbl", {"s": ABS_S, "j": [[0.0], [1.0]], "k": [0.0]}),
     "$.payload.k: expected length 2, got 1"),
    ("hbl-polytope-missing", _malformed("solve-hbl", {"s": ABS_S, "vertices": [[0.0]], "j": J1}),
     "$.payload.k: missing required field"),
    ("hbl-polytope-vertices", _malformed("solve-hbl", {"s": ABS_S, "vertices": [[]], "j": J1, "k": K1}),
     "$.payload.vertices[0]: expected a nonempty array of numbers"),
    ("hbl-polytope-j-object", _malformed("solve-hbl", {"s": ABS_S, "vertices": [[0.0]], "j": [[1.0]],
                                                       "k": K1}),
     "$.payload.j: expected an object"),
    ("hbl-polytope-j-matrix-rows", _malformed("solve-hbl", {
        "s": ABS_S, "vertices": [[0.0]], "j": {"matrix": [[1.0], [1.0]], "offset": [0.0]}, "k": K1}),
     "$.payload.j.matrix: expected 1 rows"),
    ("hbl-polytope-j-offset", _malformed("solve-hbl", {
        "s": ABS_S, "vertices": [[0.0]], "j": {"matrix": [[1.0]], "offset": []}, "k": K1}),
     "$.payload.j.offset: expected a nonempty array of numbers"),
    ("hbl-polytope-k", _malformed("solve-hbl", {
        "s": ABS_S, "vertices": [[0.0]], "j": J1, "k": {"lin": [0.0, 1.0], "off": 0.0}}),
     "$.payload.k.lin: expected length 1, got 2"),
    # verify
    ("verify-unknown", _malformed("verify", {"suite": []}), "$.payload.suite: unknown field"),
    ("verify-suites", _malformed("verify", {"suites": "mok"}),
     "$.payload.suites: expected an array of names"),
    ("verify-suite-name", _malformed("verify", {"suites": ["mok", 1]}),
     "$.payload.suites[1]: expected a string"),
    ("verify-suite-repeated", _malformed("verify", {"suites": ["mok", "synth", "mok"]}),
     "$.payload.suites[2]: duplicate suite"),
    ("verify-trials", _malformed("verify", {"trials": [1]}), "$.payload.trials: expected an object"),
    ("verify-trial-count", _malformed("verify", {"trials": {"mok": 1.0}}),
     "$.payload.trials.mok: expected an integer"),
    ("verify-trials-suite", _malformed("verify", {"trials": {"nosuch": 5}}),
     "$.payload.trials.nosuch: unknown field"),
    ("verify-trials-cap", _malformed("verify", {"trials": {"polytope_min": 1001}}),
     "$.payload.trials.polytope_min: 1001 trials exceed the cap 1000"),
    ("verify-trials-zero", _malformed("verify", {"trials": {"mok": 0}}),
     "$.payload.trials.mok: must be >= 1"),
    # gen
    ("gen-missing", _malformed("gen", {"instance": "polytope"}), "$.payload.dims: missing required field"),
    ("gen-instance", _malformed("gen", {"instance": "nope", "dims": {}}),
     "$.payload.instance: unknown instance kind"),
    ("gen-instance-type", _malformed("gen", {"instance": [], "dims": {}}),
     "$.payload.instance: unknown instance kind"),
    ("gen-dims", _malformed("gen", {"instance": "polytope", "dims": [3]}),
     "$.payload.dims: expected an object"),
    ("gen-dim-integer", _malformed("gen", {"instance": "polytope", "dims": {"d": "3"}}),
     "$.payload.dims.d: expected an integer"),
    ("gen-dim-positive", _malformed("gen", {"instance": "polytope", "dims": {"d": 3, "v": 0}}),
     "$.payload.dims.v: must be >= 1"),
    ("gen-max-affine-dims", _malformed("gen", {"instance": "max_affine", "dims": {"d": 3}}),
     "$.payload.dims.p: missing required field"),
    ("gen-polytope-dims", _malformed("gen", {"instance": "polytope", "dims": {"d": 2, "v": 3,
                                                                              "k": 1}}),
     "$.payload.dims.k: unknown field"),
    ("gen-scored-set-dims", _malformed("gen", {"instance": "scored_set", "dims": {"d": 2}}),
     "$.payload.dims.k: missing required field"),
    ("gen-hbl-dims", _malformed("gen", {"instance": "hbl", "dims": {"n": 2, "d": 2, "p": 3}}),
     "$.payload.dims.nz: missing required field"),
]


class TestSchemaContract:
    """Every schema error names its JSON path; the messages are pinned."""

    @pytest.mark.parametrize("text,message", [c[1:] for c in SCHEMA_CASES],
                             ids=[c[0] for c in SCHEMA_CASES])
    def test_message(self, text, message):
        with pytest.raises(SchemaError) as err:
            parse_problem(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [c[1:] for c in SCHEMA_CASES[:6]],
                             ids=[c[0] for c in SCHEMA_CASES[:6]])
    def test_cli_prints_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert run_command(["gen", "--input", str(path)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error: {message}\n"

    @pytest.mark.parametrize("bad,message", [
        (True, "[1234][2]: expected a number"),
        ("1.0", "[1234][2]: expected a number"),
        (None, "[1234][2]: expected a number"),
        (10 ** 400, "[1234][2]: number must be finite"),
        (float("nan"), "[1234][2]: number must be finite"),
        ([0.5], "[1234][2]: expected a number"),
    ], ids=["bool", "string", "null", "int-overflow", "nan", "nested"])
    def test_bad_element_deep_in_a_large_matrix(self, bad, message):
        # A large matrix is checked whole, and the error still names the
        # element that fails.
        rows = [[0.25 * i, -1.0, 2] for i in range(2000)]
        rows[1234][2] = bad
        text = doc("synth-sun", {"f": {"pieces": [{"a": [1.0, 0.0, 0.0], "b": 0.0}]},
                                 "z": {"vertices": rows}})
        with pytest.raises(SchemaError) as err:
            parse_problem(text)
        assert str(err.value) == "$.payload.z.vertices" + message

    @pytest.mark.parametrize("row,message", [
        ([1.0, 2.0], "[1234]: expected length 3, got 2"),
        ([], "[1234]: expected a nonempty array of numbers"),
        (7.0, "[1234]: expected a nonempty array of numbers"),
    ], ids=["short", "empty", "scalar"])
    def test_bad_row_deep_in_a_large_matrix(self, row, message):
        rows = [[0.25 * i, -1.0, 2] for i in range(2000)]
        rows[1234] = row
        text = doc("solve-mok", {"s": {"pieces": [[1.0, 0.0, 0.0]]}, "d": rows})
        with pytest.raises(SchemaError) as err:
            parse_problem(text)
        assert str(err.value) == "$.payload.d" + message

    def test_large_matrix_keeps_every_number(self):
        # Integers, beyond 2^53 too, become the floats float() makes of them.
        rows = [[i, 2 ** 60 + i, 0.1 * i] for i in range(2000)]
        text = doc("synth-sun", {"f": {"pieces": [{"a": [1.0, 0.0, 0.0], "b": 0.0}]},
                                 "z": {"vertices": rows}})
        V = parse_problem(text).args[1].vertices
        assert V.tolist() == [[float(x) for x in r] for r in rows]

    def test_solver_input_error_is_schema_error(self):
        with pytest.raises(SchemaError) as err:
            run_problem_text(doc("verify", {"suites": ["bogus"]}))
        assert str(err.value) == "$.payload: unknown suite: 'bogus'"


def _golden_documents():
    """Seeded valid documents: every kind, and each form of each kind."""
    import numpy as np

    rng = np.random.default_rng(20240817)

    def r(*shape):
        return np.round(rng.uniform(-2.0, 2.0, shape), 3)

    def fn(p, d):
        return {"pieces": [{"a": a, "b": b} for a, b in zip(r(p, d).tolist(), r(p).tolist())]}

    def unit(d):
        u = rng.normal(size=d)
        return u / np.linalg.norm(u)

    def line(k, d, u):
        # k points along u in increasing order
        return (r(d) + np.outer(np.sort(r(k)), u)).tolist()

    def tilted(p, d, u):
        # pieces nonpositive along u, so the farthest point witnesses each pair
        pcs = r(p, d)
        return (pcs - np.outer(np.maximum(pcs @ u, 0.0), u)).tolist()

    def flat_fn(p, d, u):
        # f constant along u
        a = r(p, d)
        return {"pieces": [{"a": s, "b": b} for s, b in zip((a - np.outer(a @ u, u)).tolist(),
                                                            r(p).tolist())]}

    u2, u3 = unit(2), unit(3)
    tu = [unit(2), unit(3)]
    docs = {
        "gauge-root": ("eval-gauge", {"f": fn(4, 2), "x": r(2).tolist(), "alpha": -0.5}, {}, []),
        "gauge-zero": ("eval-gauge", {"f": ABS_F, "x": [2.0], "alpha": 3.0}, {}, []),
        "mok-satisfied": ("solve-mok", {"s": {"pieces": tilted(4, 3, u3)}, "d": line(7, 3, u3)},
                          {}, []),
        "mok-violated": ("solve-mok", {"s": {"pieces": r(4, 2).tolist()}, "d": r(5, 2).tolist()},
                         {}, []),
        "affine-points": ("synth-affine", {"f": flat_fn(5, 3, u3), "b": {
            "points": line(6, 3, u3), "scores": r(6).tolist()}}, {}, []),
        "affine-points-violated": ("synth-affine", {"f": fn(3, 2), "b": {
            "points": r(4, 2).tolist(), "scores": r(4).tolist()}}, {}, []),
        "affine-polytope": ("synth-affine", {"f": fn(5, 3), "b": {
            "vertices": r(7, 3).tolist(), "score_lin": r(3).tolist(), "score_off": 0.25}},
            {}, []),
        "sun-points": ("synth-sun", {"f": flat_fn(4, 2, u2), "z": {"points": line(5, 2, u2)}},
                       {}, []),
        "sun-vertices": ("synth-sun", {"f": fn(5, 3), "z": {"vertices": r(6, 3).tolist()}},
                         {}, []),
        "cahbl-finite": ("synth-cahbl", {"f": flat_fn(4, 3, u3), "z": {
            "j": line(6, 3, u3), "k": r(6).tolist()}}, {}, []),
        "cahbl-polytope-affine": ("synth-cahbl", {"f": fn(5, 3), "z": {
            "vertices": r(5, 2).tolist(), "j": {"matrix": r(3, 2).tolist(), "offset": r(3).tolist()},
            "k": {"lin": r(2).tolist(), "off": 0.5}}}, {}, []),
        "cahbl-polytope-max-affine": ("synth-cahbl", {"f": fn(3, 2), "z": {
            "vertices": [[-1.0], [1.5]], "j": {"matrix": r(2, 1).tolist(), "offset": r(2).tolist()},
            "k": fn(2, 1)}}, {}, []),
        "cahbl-polytope-max-affine-ok": ("synth-cahbl", {"f": fn(3, 2), "z": {
            "vertices": [[-1.0], [0.5]], "j": {"matrix": r(2, 1).tolist(), "offset": r(2).tolist()},
            "k": fn(2, 1)}}, {}, []),
        "hbl-product": ("solve-hbl", {
            "sublinears": [{"pieces": tilted(3, 2, tu[0])}, {"pieces": tilted(4, 3, tu[1])}],
            "tables": [line(5, 2, tu[0]), line(5, 3, tu[1])]}, {}, []),
        "hbl-product-payload": ("solve-hbl", {
            "sublinears": [{"pieces": tilted(3, 2, tu[0])}, {"pieces": tilted(4, 3, tu[1])}],
            "tables": [line(5, 2, tu[0]), line(5, 3, tu[1])],
            "payload": (-np.sort(r(5))).tolist()}, {}, []),
        "hbl-finite": ("solve-hbl", {"s": {"pieces": tilted(4, 3, u3)}, "j": line(6, 3, u3),
                                     "k": (-np.sort(r(6))).tolist()}, {}, []),
        "hbl-finite-violated": ("solve-hbl", {"s": {"pieces": r(3, 2).tolist()},
                                              "j": r(4, 2).tolist(), "k": r(4).tolist()}, {}, []),
        "hbl-polytope-affine": ("solve-hbl", {
            "s": {"pieces": r(4, 3).tolist()}, "vertices": r(5, 2).tolist(),
            "j": {"matrix": r(3, 2).tolist(), "offset": r(3).tolist()},
            "k": {"lin": r(2).tolist(), "off": -0.5}}, {}, []),
        "hbl-polytope-max-affine": ("solve-hbl", {
            "s": {"pieces": r(3, 2).tolist()}, "vertices": [[0.0], [2.0]],
            "j": {"matrix": r(2, 1).tolist(), "offset": r(2).tolist()}, "k": fn(3, 1)},
            {}, []),
        "verify": ("verify", {"suites": ["gauge_closed_form", "mok"],
                              "trials": {"gauge_closed_form": 3, "mok": 2}}, {"seed": 7}, []),
        "gen-max-affine": ("gen", {"instance": "max_affine", "dims": {"d": 2, "p": 3}},
                           {"seed": 11}, []),
        "gen-polytope": ("gen", {"instance": "polytope", "dims": {"d": 2, "v": 4}}, {}, []),
        "gen-scored-set": ("gen", {"instance": "scored_set", "dims": {"d": 2, "k": 3}},
                           {"seed": 12}, ["--seed", "13"]),
        "gen-hbl": ("gen", {"instance": "hbl", "dims": {"n": 2, "d": 2, "p": 3, "nz": 3}},
                    {"seed": 14}, []),
        "tolerances": ("synth-sun", {"f": fn(5, 3), "z": {"vertices": r(6, 3).tolist()}},
                       {"tolerances": {"tol_gap": 1e-300, "tol_mid": 1e-6}}, []),
        "tol-gap-flag": ("solve-mok", {"s": {"pieces": tilted(3, 2, u2)}, "d": line(6, 2, u2)},
                         {}, []),
    }
    return {name: (kind, doc(kind, payload, **extra), flags)
            for name, (kind, payload, extra, flags) in docs.items()}


def _edge_payload(kind, seed):
    """A random payload drawn like the goldens', with a 5-piece f in 3-d:
    synth-sun over 6 vertices in 3-d, or synth-cahbl over 5 vertices in 2-d
    with an affine j into 3-d and an affine k.  The tolerance-edge tests
    pin seeds whose residuals sit just above zero."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def r(*shape):
        return np.round(rng.uniform(-2.0, 2.0, shape), 3)

    f = {"pieces": [{"a": a, "b": b} for a, b in zip(r(5, 3).tolist(), r(5).tolist())]}
    if kind == "synth-sun":
        return {"f": f, "z": {"vertices": r(6, 3).tolist()}}
    return {"f": f, "z": {"vertices": r(5, 2).tolist(),
                          "j": {"matrix": r(3, 2).tolist(), "offset": r(3).tolist()},
                          "k": {"lin": r(2).tolist(), "off": 0.5}}}


# SHA-256 of each golden report, and its exit code.
GOLDEN = {
    "affine-points": ("4ab469c809a7a46729f7959ff499e5ea5321cd03734250406aa347e659d9afc3", 0),
    "affine-points-violated": ("ec2fb628646f8154edcc97b39fd8a6ec46d3340177740146e7618a256c8efa09", 1),
    "affine-polytope": ("15c1eb32556aca8225e9dfeb2f1290e44f4927f0454e76040ba67196ce6a5661", 0),
    "cahbl-finite": ("5ea32137f97834a965a5946ebfbf0ea9b2af16afcf3e681311906906da485540", 0),
    "cahbl-polytope-affine": ("3bfa139e20b0b3ffc8fd17f85f2872a401bd3e2fc59aa4f575bde651a87401f6", 0),
    "cahbl-polytope-max-affine": ("b40a2ed64efb952675aa79ceae92f218005a3eeabf0a0eae04329d708c946dd8", 0),
    "cahbl-polytope-max-affine-ok": ("efa54078737af22bb02679fa00a04b824a4773e1228f1f25b8656b9a91f1f683", 0),
    "gauge-root": ("0ca67c3a93520c45f2a0f206c5268fb7bfbc0b60d3811764e7188571a4337186", 0),
    "gauge-zero": ("27b14ca7b6b8be95caa6dccaff85c540c2be00dedca8f8186bf55ba2c11eef06", 0),
    "gen-hbl": ("0c9fb1dc2f9ac415e955b336b3e5c182cea33437596046d2734e431fcf786d1e", 0),
    "gen-max-affine": ("934aad1652fa68004ed29433d1082acbc55ff59082ada17dea3a8bfa9fde35ed", 0),
    "gen-polytope": ("abc1e9545eb596abf992cf1b439f44d0e55a97505a79752ed3619a36d0c96442", 0),
    "gen-scored-set": ("5bb66bedb817b7738cae895b25e52eb06a1892e58437217b8457cef1055f9f83", 0),
    "hbl-finite": ("a1f2ccb82287f51906529933c8921d44e9da62552796c2cdc7cfd15f882bddad", 0),
    "hbl-finite-violated": ("4f4e0eb2f1211ed92a8fd7be66f3ee3d774adbab02bf56db25741eb57b2036cd", 1),
    "hbl-polytope-affine": ("f5567e251a21a8e37134315768e29758af5a4d8dd52dad7df076b9d9072e3659", 0),
    "hbl-polytope-max-affine": ("7b97edf37f584132a06a1a3128c3b70d9a375739d58cfe5c1e8291027e531930", 0),
    "hbl-product": ("0d7235c574110668f956458d24d5b4c19031af4f78136e010ecbcf69652031fb", 0),
    "hbl-product-payload": ("a4f691d6e305ed44f74146ab00e9f97715765223428d9589e8634648f0eb2abf", 0),
    "mok-satisfied": ("0d1fce2ed28233352887c245046c685788f749051b80aa4c3200fff43abb0627", 0),
    "mok-violated": ("713d2a1e43b5f02675d687033efe44464271c0fa256b76f8cf70f1ed57b47020", 1),
    "sun-points": ("28fd6ac81d7825ba87309f116e76791d68f185d2a6da61364e83a3715a4bacba", 0),
    "sun-vertices": ("1e58ec091e3a0fe7776f36f2a686b14ed5f6b10925cfdaaf2f43bf89c5231452", 0),
    "tol-gap-flag": ("91acc8297cfa25ff30503bda9b029306809ea96933994aac60c14d9a2b1a1258", 0),
    "tolerances": ("960a5999bf69dcc3acd180368a2c7dcf3c5e72a80b2784aed8de7953c7efb133", 0),
    "verify": ("af983c0ac48e20900e8a27ee11a8469984c127f623c1c6c6bc9dd8b4f2efbef0", 0),
}


class TestGoldenReports:
    """Reports of the seeded golden documents are pinned byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report(self, tmp_path, name):
        import hashlib

        kind, text, flags = _golden_documents()[name]
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(text)
        code = run_command([kind, "--input", str(src), "--output", str(dst), *flags])
        assert (hashlib.sha256(dst.read_bytes()).hexdigest(), code) == GOLDEN[name]

    def test_every_document_is_pinned(self):
        assert sorted(_golden_documents()) == sorted(GOLDEN)

    def test_reports_are_strict_json(self, tmp_path):
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        for kind, text, flags in _golden_documents().values():
            src.write_text(text)
            run_command([kind, "--input", str(src), "--output", str(dst), *flags])
            strict_loads(dst.read_text())

    def test_hbl_polytope_affine_is_exact(self):
        # inf_Z [S o j + k] lies inside Z here, not at a vertex.
        kind, text, flags = _golden_documents()["hbl-polytope-affine"]
        report, code = run_problem_text(text)
        cert = json.loads(report)["certificate"]
        assert code == EXIT_OK
        assert abs(cert["target"] - cert["value"]) <= 1e-9


def _scaled(value, factor):
    """A payload with every float multiplied by `factor`."""
    if isinstance(value, dict):
        return {k: _scaled(v, factor) for k, v in value.items()}
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    return value * factor if isinstance(value, float) else value


class TestOverflow:
    """A golden document scaled by 1e154 has only finite numbers, but its
    solve overflows: that is a numerical failure, not a schema error (the
    gauge) or a non-finite violation of a pair (i, i), which always has the
    witness i (the finite forms)."""

    @pytest.mark.parametrize("name", ["gauge-root", "sun-points", "hbl-finite", "cahbl-finite"])
    def test_scaled_golden_exits_numerical(self, name):
        _, text, _ = _golden_documents()[name]
        d = json.loads(text)
        d["payload"] = _scaled(d["payload"], 1e154)
        report, code = run_problem_text(json.dumps(d))
        rep = strict_loads(report)
        assert code == EXIT_NUMERICAL
        assert rep["certificate"]["error"] == "FloatingPointError"


class TestGaugeTolerance:
    """eval-gauge exits 0 only with its residual within tol_gauge."""

    PAYLOAD = {"f": {"pieces": [{"a": [0.3, -1.1], "b": 0.7}, {"a": [-0.9, 0.4], "b": -0.2},
                                {"a": [1.3, 0.6], "b": 0.1}]},
               "x": [1.7, 0.1], "alpha": -1.1}

    def test_residual_against_tol_gauge(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        runs = []
        for extra in ({}, {"tolerances": {"tol_gauge": 1e-16}},
                      {"tolerances": {"tol_gauge": 1e-15}}):
            path.write_text(doc("eval-gauge", self.PAYLOAD, **extra))
            code = run_command(["eval-gauge", "--input", str(path)])
            runs.append((code, json.loads(capsys.readouterr().out)))
        residual = runs[0][1]["certificate"]["residual"]
        assert 1e-16 < residual < 1e-15
        assert [code for code, _ in runs] == [EXIT_OK, EXIT_NUMERICAL, EXIT_OK]
        assert runs[1][1]["status"] == "numerical-failure"
        assert runs[1][1]["certificate"] == runs[0][1]["certificate"]


class TestDominationTolerance:
    """A synthesis certificate exits 0 only with both exact residuals of
    A <= f within tol_dom: the deficit theta . offsets - c at least
    -tol_dom, and the slope residual ||slopes^T theta - w||_inf at most
    tol_dom."""

    # (document, its residual that exceeds 1e-16): a golden, or a seed of
    # `_edge_payload`.
    CASES = [("cahbl-edge", "worst_deficit"), ("sun-vertices", "slope_residual")]
    EDGE = {"cahbl-edge": ("synth-cahbl", 3)}

    @pytest.mark.parametrize("name,field", CASES)
    def test_residuals_against_tol_dom(self, tmp_path, capsys, name, field):
        if name in self.EDGE:
            kind, seed = self.EDGE[name]
            payload = _edge_payload(kind, seed)
        else:
            kind, text, _ = _golden_documents()[name]
            payload = json.loads(text)["payload"]
        path = tmp_path / "in.json"
        runs = []
        for extra in ({}, {"tolerances": {"tol_dom": 1e-16}},
                      {"tolerances": {"tol_dom": 1e-15}}):
            path.write_text(doc(kind, payload, **extra))
            code = run_command([kind, "--input", str(path)])
            runs.append((code, json.loads(capsys.readouterr().out)))
        dom = runs[0][1]["certificate"]["domination"]
        assert sorted(dom) == ["slope_residual", "worst_deficit"]
        assert 1e-16 < abs(dom[field]) < 1e-15
        assert [code for code, _ in runs] == [EXIT_OK, EXIT_NUMERICAL, EXIT_OK]
        assert runs[1][1]["status"] == "numerical-failure"
        assert runs[1][1]["certificate"] == runs[0][1]["certificate"]


class TestParserOnce:
    """The argument parser is built once per process and keeps no state
    from one call to the next."""

    def _run(self, tmp_path, text, *argv):
        path = tmp_path / "in.json"
        path.write_text(text)
        return run_command([argv[0], "--input", str(path), *argv[1:]])

    def test_built_at_most_once(self, tmp_path, capsys, monkeypatch):
        import argparse
        import types

        from minorant import cli

        built = []

        def counting(*args, **kwargs):
            built.append(kwargs.get("prog"))
            return argparse.ArgumentParser(*args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counting))
        for _ in range(10):
            assert self._run(tmp_path, GAUGE_DOC, "eval-gauge") == EXIT_OK
        assert len(built) <= 1

    def test_flags_do_not_carry_over(self, monkeypatch, tmp_path, capsys):
        from minorant import cli

        seen = []
        real = cli._run_parsed

        def spy(problem, text, seed):
            seen.append(seed)
            return real(problem, text, seed)

        monkeypatch.setattr(cli, "_run_parsed", spy)
        assert self._run(tmp_path, SUN_DOC, "synth-sun", "--seed", "5") == EXIT_OK
        assert self._run(tmp_path, SUN_DOC, "synth-sun") == EXIT_OK
        assert seen == [5, None]
        # The flags of the deleted grid path and tolerance override are
        # unknown arguments.
        for flag in (["--approximate-ok"], ["--tol-gap", "1e-300"]):
            assert self._run(tmp_path, SUN_DOC, "synth-sun", *flag) == EXIT_SCHEMA
        assert len(seen) == 2

    def test_errors_do_not_carry_over(self, tmp_path, capsys):
        assert run_command(["no-such-command"]) == EXIT_SCHEMA
        assert self._run(tmp_path, GAUGE_DOC, "eval-gauge") == EXIT_OK
        assert self._run(tmp_path, GAUGE_DOC, "solve-mok") == EXIT_SCHEMA
        assert "subcommand was invoked" in capsys.readouterr().err
        assert self._run(tmp_path, MOK_OK_DOC, "solve-mok") == EXIT_OK


class TestWorkBudget:
    """Documents whose solve would exceed a work cap are schema errors,
    raised before any solver array is allocated."""

    def test_scan_cap(self):
        from minorant import cli, lp, synth

        # One key against itself, over n pieces, is n terms.  At the cap the
        # scan passes and the minimum LP of 10^9 pieces meets the tableau
        # cap; one term more and the scan is rejected first.
        cells = lp.tableau_cells(*synth._min_lp_shape(1, cli.MAX_SCAN_WORK))
        with pytest.raises(SchemaError) as err:
            cli._check_work("$.payload.d", 1, cli.MAX_SCAN_WORK)
        assert str(err.value) == (f"$.payload.d: LP tableau of {cells} cells "
                                  f"exceeds the cap {cli.MAX_TABLEAU_CELLS}")
        with pytest.raises(SchemaError) as err:
            cli._check_work("$.payload.d", 1, cli.MAX_SCAN_WORK + 1)
        assert str(err.value) == (f"$.payload.d: estimated midpoint-scan work "
                                  f"{cli.MAX_SCAN_WORK + 1} exceeds the cap {cli.MAX_SCAN_WORK}")
        keys = round((2 * cli.MAX_SCAN_WORK) ** (1 / 3))
        cli._check_work("$.payload.d", keys - 1, 1)
        with pytest.raises(SchemaError, match="midpoint-scan work 1000981800 exceeds"):
            cli._check_work("$.payload.d", keys, 1)
        # A polytope form has no scan.
        cli._check_work("$.payload.vertices", keys, 1, scan=False)

    def test_tableau_cap(self, monkeypatch):
        import numpy as np

        from minorant import cli, lp, synth

        # The estimate is the worst case of one artificial per row; the
        # tableau solve_lp builds has one per equality row and per row with a
        # negative right-hand side: 5 x (4 + 3 + 3 + 1) cells here.
        sizes = set()
        real = lp._simplex_core

        def spy(T, *args):
            sizes.add(T.size)
            return real(T, *args)

        monkeypatch.setattr(lp, "_simplex_core", spy)
        b_ub = np.array([1.0, -1.0, 1.0])
        lp.solve_lp(np.ones(4), np.ones((3, 4)), b_ub, np.ones((2, 4)), np.ones(2))
        assert sizes == {5 * (4 + 3 + 3 + 1)}
        assert lp.tableau_cells(3, 2, 4) == 5 * (4 + 3 + 5 + 1)

        # No pieces over n - 4 keys: the simplex row over n - 4 weights and
        # two levels is a 1 x n tableau.
        at_cap = cli.MAX_TABLEAU_CELLS - 4
        assert synth._min_lp_shape(at_cap, 0) == (0, 1, cli.MAX_TABLEAU_CELLS - 2)
        assert lp.tableau_cells(*synth._min_lp_shape(at_cap, 0)) == cli.MAX_TABLEAU_CELLS
        cli._check_work("$.payload.vertices", at_cap, 0, scan=False)
        with pytest.raises(SchemaError) as err:
            cli._check_work("$.payload.vertices", at_cap + 1, 0, scan=False)
        assert str(err.value) == (f"$.payload.vertices: LP tableau of "
                                  f"{cli.MAX_TABLEAU_CELLS + 1} cells exceeds the cap "
                                  f"{cli.MAX_TABLEAU_CELLS}")

    def test_triangle_documents_solve_exactly(self):
        # inf over the triangle of |z_1| + max(z_1, z_2) is 0, at the origin.
        triangle = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        j = {"matrix": [[1.0, 0.0]], "offset": [0.0]}
        k = {"pieces": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [0.0, 1.0], "b": 0.0}]}
        for kind, payload, sides in (
            ("synth-cahbl", {"f": ABS_F, "z": {"vertices": triangle, "j": j, "k": k}},
             ("delta", "lhs")),
            ("solve-hbl", {"s": ABS_S, "vertices": triangle, "j": j, "k": k},
             ("target", "value")),
        ):
            text, code = run_problem_text(doc(kind, payload))
            cert = json.loads(text)["certificate"]
            assert code == EXIT_OK and "approximate" not in cert
            for side in sides:
                assert cert[side] == pytest.approx(0.0, abs=1e-12)

    def test_gen_cap(self):
        from minorant import cli

        def gen(v):
            return doc("gen", {"instance": "polytope", "dims": {"d": 1, "v": v}})

        assert parse_problem(gen(cli.MAX_GEN_FLOATS)).args[1]["v"] == cli.MAX_GEN_FLOATS
        with pytest.raises(SchemaError) as err:
            parse_problem(gen(cli.MAX_GEN_FLOATS + 1))
        assert str(err.value) == (f"$.payload.dims: instance of {cli.MAX_GEN_FLOATS + 1} "
                                  f"floats exceeds the cap {cli.MAX_GEN_FLOATS}")

    def test_verify_trials_cap(self):
        from minorant import cli

        def verify(n):
            return doc("verify", {"suites": ["mok"], "trials": {"mok": n}})

        assert parse_problem(verify(cli.MAX_TRIALS)).args[1] == {"mok": cli.MAX_TRIALS}
        with pytest.raises(SchemaError) as err:
            parse_problem(verify(cli.MAX_TRIALS + 1))
        assert str(err.value) == (f"$.payload.trials.mok: {cli.MAX_TRIALS + 1} trials "
                                  f"exceed the cap {cli.MAX_TRIALS}")

    def test_finite_forms_checked(self):
        from minorant import cli

        keys = 1 + round((2 * cli.MAX_SCAN_WORK / 2) ** (1 / 3))
        pts = [[float(i)] for i in range(keys)]
        cases = [
            ("solve-mok", {"s": ABS_S, "d": pts}, "$.payload.d"),
            ("synth-affine", {"f": ABS_F, "b": {"points": pts, "scores": [0.0] * keys}},
             "$.payload.b.points"),
            ("synth-sun", {"f": ABS_F, "z": {"points": pts}}, "$.payload.z.points"),
            ("synth-cahbl", {"f": ABS_F, "z": {"j": pts, "k": [0.0] * keys}}, "$.payload.z.j"),
            ("solve-hbl", {"sublinears": [ABS_S], "tables": [pts]}, "$.payload.tables"),
            ("solve-hbl", {"s": ABS_S, "j": pts, "k": [0.0] * keys}, "$.payload.j"),
        ]
        for kind, payload, path in cases:
            with pytest.raises(SchemaError, match=r"^" + re.escape(path) + ": estimated"):
                parse_problem(doc(kind, payload))

    def test_many_pieces_few_keys(self, monkeypatch):
        # 3,000 pieces over 2 keys: the minimum LP is built on its key side,
        # 2 key rows and one simplex row, so the document stays far below
        # the tableau cap; its piece side would be 3,001 x 6,006 cells.  The
        # polytope forms take the same rule: 3,000 pieces over a triangle
        # build one LP of 3 vertex rows and the simplex row.
        from minorant import cli, lp, synth

        assert lp.tableau_cells(*synth._min_lp_shape(2, 3000)) == 3 * (3001 + 2 + 3 + 1)
        assert lp.tableau_cells(3000, 1, 2 + 2) > cli.MAX_TABLEAU_CELLS
        angles = [2.0 * math.pi * i / 3000 for i in range(3000)]
        dirs = [[math.cos(a), math.sin(a)] for a in angles]
        pts = [[0.5, 0.25], [0.5, 0.25]]
        triangle = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        j = {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]}
        k = {"lin": [0.5, -0.25], "off": 0.125}
        rows = []

        def solve(c, A_ub, b_ub, A_eq, b_eq, real=synth.solve_lp):
            rows.append(len(b_ub) + len(b_eq))
            return real(c, A_ub, b_ub, A_eq, b_eq)

        monkeypatch.setattr(synth, "solve_lp", solve)
        f = {"pieces": [{"a": a, "b": 0.0} for a in dirs]}
        for kind, payload, nrows in (
            ("solve-mok", {"s": {"pieces": dirs}, "d": pts}, 3),
            ("synth-affine", {"f": f, "b": {"points": pts, "scores": [0.0, 0.0]}}, 3),
            ("synth-affine", {"f": f, "b": {"vertices": triangle, "score_lin": [0.5, -0.25],
                                            "score_off": 0.125}}, 4),
            ("synth-sun", {"f": f, "z": {"vertices": triangle}}, 4),
            ("synth-cahbl", {"f": f, "z": {"vertices": triangle, "j": j, "k": k}}, 4),
            ("solve-hbl", {"s": {"pieces": dirs}, "vertices": triangle, "j": j, "k": k}, 4),
        ):
            rows.clear()
            text, code = run_problem_text(doc(kind, payload))
            assert code == EXIT_OK and rows == [nrows]
            assert json.loads(text)["certificate"]["gap"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN
                                            if not n.startswith(("gauge", "gen", "verify"))))
    def test_estimates_match_the_solve(self, monkeypatch, name):
        import numpy as np

        from minorant import cli, hbl, lp, mok, synth

        estimated, built = [], {"cells": 0, "scan": 0}
        real_check, real_core, real_scan = cli._check_work, lp._simplex_core, mok.midpoint_scan
        real_solve, exact = lp.solve_lp, []

        def check(path, keys, pieces, spaces=1, scan=True):
            estimated.append((keys * (keys + 1) // 2 * keys * pieces if scan else 0,
                              lp.tableau_cells(*synth._min_lp_shape(keys, pieces, spaces))))
            real_check(path, keys, pieces, spaces, scan)

        def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
            # The estimate is the worst case on the shapes solve_lp receives;
            # the tableau has one artificial per equality row and per row
            # with a negative right-hand side.
            n, n_ub, n_eq = len(c), len(b_ub), 0 if b_eq is None else len(b_eq)
            n_art = n_eq + int(np.count_nonzero(np.asarray(b_ub) < 0))
            built["cells"] = max(built["cells"], lp.tableau_cells(n_ub, n_eq, n))
            exact.append((n_ub + n_eq) * (n + n_ub + n_art + 1))
            return real_solve(c, A_ub, b_ub, A_eq, b_eq)

        def core(T, *args):
            assert T.size == exact[-1]
            return real_core(T, *args)

        def scan(gains, payload, tol):
            k = gains[0].shape[0]
            built["scan"] += k * (k + 1) // 2 * k * sum(G.shape[1] for G in gains)
            return real_scan(gains, payload, tol)

        monkeypatch.setattr(cli, "_check_work", check)
        monkeypatch.setattr(lp, "_simplex_core", core)
        for module in (mok, synth, hbl):
            monkeypatch.setattr(module, "midpoint_scan", scan)
        monkeypatch.setattr(synth, "solve_lp", solve)
        kind, text, flags = _golden_documents()[name]
        run_problem_text(text)
        if name == "affine-points-violated":
            # Its scan fails, so the synthesis stops before its LP.
            assert [scan for scan, _ in estimated] == [built["scan"]] and built["cells"] == 0
        else:
            assert estimated == [(built["scan"], built["cells"])]
