import json

import pytest

from minorant.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    SchemaError,
    parse_problem,
    run_command,
    run_problem_text,
)


def doc(kind, payload, **extra):
    return json.dumps({"version": 1, "kind": kind, "payload": payload, **extra})


ABS_F = {"pieces": [{"a": [1.0], "b": 0.0}, {"a": [-1.0], "b": 0.0}]}
ABS_S = {"pieces": [[1.0], [-1.0]]}

GAUGE_DOC = doc("eval-gauge", {"f": ABS_F, "x": [2.0], "alpha": 1.0})
MOK_BAD_DOC = doc("solve-mok", {"s": ABS_S, "d": [[-1.0], [1.0]]})
# For |.| the midpoint condition needs the literal midpoint in the set, so
# the satisfied example is a singleton.
MOK_OK_DOC = doc("solve-mok", {"s": ABS_S, "d": [[1.0]]})
SUN_DOC = doc("synth-sun", {"f": ABS_F, "z": {"vertices": [[1.0], [3.0]]}})
CAHBL_APPROX_DOC = doc("synth-cahbl", {
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
        (CAHBL_APPROX_DOC, "synth-cahbl", [], EXIT_NUMERICAL),
        (CAHBL_APPROX_DOC, "synth-cahbl", ["--approximate-ok"], EXIT_OK),
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

    def test_approximate_error_marker(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(CAHBL_APPROX_DOC)
        code = run_command(["synth-cahbl", "--input", str(path)])
        assert code == EXIT_NUMERICAL
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "numerical-failure"
        assert rep["certificate"]["error"] == "approximate-not-allowed"
        assert rep["certificate"]["approximate"] is True

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

    def test_hbl_polytope_form_satisfied(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, self.HBL_POLYTOPE_DOC, "solve-hbl")
        assert code == EXIT_OK
        cert = rep["certificate"]
        assert cert["midpoint"]["status"] == "satisfied"
        assert cert["midpoint"]["violation"] is None
        assert cert["gap"] == 0.0

    def test_low_score_synth_affine_is_finite(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, self.LOW_SCORE_DOC, "synth-affine")
        assert code == EXIT_OK
        cert = rep["certificate"]
        assert cert["delta"] == -2e12 and cert["lhs"] == -2e12 and cert["gap"] == 0.0
        assert cert["fallback"] is None


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

    def test_tol_gap_flag_below_gap_exits_numerical(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, self.SUN_GAP_DOC, "synth-sun",
                              "--tol-gap", "1e-16")
        assert code == EXIT_NUMERICAL and rep["status"] == "numerical-failure"
        assert abs(rep["certificate"]["gap"]) > 1e-16
        code, _ = self._run(tmp_path, capsys, self.SUN_GAP_DOC, "synth-sun",
                            "--tol-gap", "1e-15")
        assert code == EXIT_OK

    def test_document_tolerances_are_read(self, tmp_path, capsys):
        payload = json.loads(self.SUN_GAP_DOC)["payload"]
        for tols in ({"tol_gap": 1e-16}, {"tol_lp": 1e-17}):
            text = doc("synth-sun", payload, tolerances=tols)
            code, rep = self._run(tmp_path, capsys, text, "synth-sun")
            assert code == EXIT_NUMERICAL, tols
            assert rep["status"] == "numerical-failure"

    def test_zero_gap_passes_any_tol_gap(self, tmp_path, capsys):
        code, rep = self._run(tmp_path, capsys, SUN_DOC, "synth-sun",
                              "--tol-gap", "1e-300")
        assert rep["certificate"]["gap"] == 0.0
        assert code == EXIT_OK

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

        code, rep = self._run(tmp_path, capsys, doc("solve-hbl", payload(3)), "solve-hbl")
        gap = rep["certificate"]["gap"]
        assert code == EXIT_OK and gap != 0.0
        tight = {"tol_lp": abs(gap) / 2}
        code, _ = self._run(tmp_path, capsys, doc("solve-hbl", payload(3), tolerances=tight),
                            "solve-hbl")
        assert code == EXIT_NUMERICAL
        # A violated hypothesis is reported as such, whatever the tolerances.
        code, _ = self._run(tmp_path, capsys, doc("solve-hbl", payload(1), tolerances=tight),
                            "solve-hbl")
        assert code == EXIT_HYPOTHESIS
