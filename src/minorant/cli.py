"""Batch front end: JSON problem files in, certificate reports out.

Exit codes are part of the contract:

* 0 — success, certificate within tolerances
* 1 — a hypothesis (midpoint / recession condition) is violated; the
      witness is in the report
* 2 — numerical failure (certificate outside the document's tolerances,
      degenerate multiplier, bracket failure, LP anomaly, approximate
      result without --approximate-ok, failed verify)
* 3 — parse or schema error

A report is always written once parsing succeeded.  Floats are serialized
with 17 significant digits so reports round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .core import (
    AffineMap,
    AffineTransform,
    DEFAULT_TOL,
    InvalidInput,
    MaxAffineFn,
    PolyhedralSublinear,
    Polytope,
    ToleranceConfig,
)
from .gauge import BracketFailure, eval_gauge
from .harness import ScanExhausted, SuiteConfig, gen_instance, run_property_suite
from .hbl import HblInstance, solve_hbl_jk, solve_hbl_n
from .lp import LpError
from .mok import MidpointReport, MokCertificate, solve_mok
from .synth import (
    ConditionViolated,
    DegenerateLambda,
    FiniteScoredSet,
    LiftedPolytope,
    SynthCertificate,
    synth_affine_from_scored_set,
    synth_composed_minorant,
    synth_tight_minorant,
)

__all__ = ["SchemaError", "parse_problem", "emit_report", "run_command", "main",
           "PROBLEM_KINDS", "EXIT_OK", "EXIT_HYPOTHESIS", "EXIT_NUMERICAL", "EXIT_SCHEMA"]

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_NUMERICAL = 2
EXIT_SCHEMA = 3

PROBLEM_KINDS = (
    "eval-gauge", "solve-mok", "synth-affine", "synth-sun", "synth-cahbl",
    "solve-hbl", "verify", "gen",
)

_TOL_KEYS = ("tol_zero", "tol_gauge", "tol_mid", "tol_lp", "tol_gap",
             "tol_dom", "lambda_min")


class SchemaError(ValueError):
    """Problem document rejected; the message names the offending path."""


# ---------------------------------------------------------------------------
# Strict JSON helpers


def _ensure_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    return value


def _take(obj: dict, path: str, allowed: Dict[str, bool]) -> Dict[str, Any]:
    """Enforce the allowed-key set (strict mode) and required keys."""
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown field")
    for key, required in allowed.items():
        if required and key not in obj:
            raise SchemaError(f"{path}.{key}: missing required field")
    return obj


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise SchemaError(f"{path}: number must be finite")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _num_list(value, path: str, length: Optional[int] = None) -> List[float]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty array of numbers")
    out = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise SchemaError(f"{path}: expected length {length}, got {len(out)}")
    return out


def _matrix(value, path: str, cols: Optional[int] = None) -> List[List[float]]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty array of rows")
    rows = []
    width = cols
    for i, row in enumerate(value):
        r = _num_list(row, f"{path}[{i}]", width)
        width = len(r)
        rows.append(r)
    return rows


def _parse_max_affine(value, path: str) -> MaxAffineFn:
    obj = _take(_ensure_obj(value, path), path, {"pieces": True})
    pieces = obj["pieces"]
    if not isinstance(pieces, list) or not pieces:
        raise SchemaError(f"{path}.pieces: expected a nonempty array")
    slopes = []
    offs = []
    width = None
    for i, piece in enumerate(pieces):
        p = _take(_ensure_obj(piece, f"{path}.pieces[{i}]"),
                  f"{path}.pieces[{i}]", {"a": True, "b": True})
        a = _num_list(p["a"], f"{path}.pieces[{i}].a", width)
        width = len(a)
        slopes.append(a)
        offs.append(_number(p["b"], f"{path}.pieces[{i}].b"))
    return MaxAffineFn(np.asarray(slopes), np.asarray(offs))


def _parse_sublinear(value, path: str) -> PolyhedralSublinear:
    obj = _take(_ensure_obj(value, path), path, {"pieces": True})
    return PolyhedralSublinear(np.asarray(_matrix(obj["pieces"], f"{path}.pieces")))


def _parse_tolerances(value, path: str) -> ToleranceConfig:
    obj = _take(_ensure_obj(value, path), path, {k: False for k in _TOL_KEYS})
    kwargs = {k: _number(v, f"{path}.{k}") for k, v in obj.items()}
    return dataclasses.replace(DEFAULT_TOL, **kwargs)


@dataclasses.dataclass(frozen=True)
class ProblemFile:
    kind: str
    payload: dict
    tolerances: ToleranceConfig
    seed: Optional[int]


def parse_problem(text: str) -> ProblemFile:
    """Validate a problem document; raises SchemaError with the offending path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"$: invalid JSON ({e.msg} at line {e.lineno})") from e
    doc = _take(_ensure_obj(doc, "$"), "$", {
        "version": True, "kind": True, "payload": True,
        "tolerances": False, "seed": False,
    })
    if doc["version"] != 1:
        raise SchemaError("$.version: unsupported version (expected 1)")
    kind = doc["kind"]
    if kind not in PROBLEM_KINDS:
        raise SchemaError(f"$.kind: unknown problem kind {kind!r}")
    tol = DEFAULT_TOL
    if "tolerances" in doc:
        tol = _parse_tolerances(doc["tolerances"], "$.tolerances")
    seed = _integer(doc["seed"], "$.seed") if "seed" in doc else None
    payload = _ensure_obj(doc["payload"], "$.payload")
    _validate_payload(kind, payload)
    return ProblemFile(kind, payload, tol, seed)


def _validate_payload(kind: str, payload: dict) -> None:
    """Kind-specific structural validation (dimensions included); building
    the actual solver inputs happens in the dispatcher."""
    path = "$.payload"
    if kind == "eval-gauge":
        obj = _take(payload, path, {"f": True, "x": True, "alpha": True})
        F = _parse_max_affine(obj["f"], f"{path}.f")
        _num_list(obj["x"], f"{path}.x", F.dim)
        _number(obj["alpha"], f"{path}.alpha")
    elif kind == "solve-mok":
        obj = _take(payload, path, {"s": True, "d": True})
        S = _parse_sublinear(obj["s"], f"{path}.s")
        _matrix(obj["d"], f"{path}.d", S.dim)
    elif kind == "synth-affine":
        obj = _take(payload, path, {"f": True, "b": True})
        F = _parse_max_affine(obj["f"], f"{path}.f")
        b = _ensure_obj(obj["b"], f"{path}.b")
        if "points" in b:
            bb = _take(b, f"{path}.b", {"points": True, "scores": True})
            pts = _matrix(bb["points"], f"{path}.b.points", F.dim)
            _num_list(bb["scores"], f"{path}.b.scores", len(pts))
        else:
            bb = _take(b, f"{path}.b",
                       {"vertices": True, "score_lin": True, "score_off": True})
            _matrix(bb["vertices"], f"{path}.b.vertices", F.dim)
            _num_list(bb["score_lin"], f"{path}.b.score_lin", F.dim)
            _number(bb["score_off"], f"{path}.b.score_off")
    elif kind == "synth-sun":
        obj = _take(payload, path, {"f": True, "z": True})
        F = _parse_max_affine(obj["f"], f"{path}.f")
        z = _ensure_obj(obj["z"], f"{path}.z")
        if "points" in z:
            zz = _take(z, f"{path}.z", {"points": True})
            _matrix(zz["points"], f"{path}.z.points", F.dim)
        else:
            zz = _take(z, f"{path}.z", {"vertices": True})
            _matrix(zz["vertices"], f"{path}.z.vertices", F.dim)
    elif kind == "synth-cahbl":
        obj = _take(payload, path, {"f": True, "z": True})
        F = _parse_max_affine(obj["f"], f"{path}.f")
        z = _ensure_obj(obj["z"], f"{path}.z")
        if "j" in z and isinstance(z.get("j"), list):
            zz = _take(z, f"{path}.z", {"j": True, "k": True})
            jt = _matrix(zz["j"], f"{path}.z.j", F.dim)
            _num_list(zz["k"], f"{path}.z.k", len(jt))
        else:
            zz = _take(z, f"{path}.z", {"vertices": True, "j": True, "k": True})
            V = _matrix(zz["vertices"], f"{path}.z.vertices")
            dz = len(V[0])
            jm = _take(_ensure_obj(zz["j"], f"{path}.z.j"), f"{path}.z.j",
                       {"matrix": True, "offset": True})
            M = _matrix(jm["matrix"], f"{path}.z.j.matrix", dz)
            if len(M) != F.dim:
                raise SchemaError(f"{path}.z.j.matrix: expected {F.dim} rows")
            _num_list(jm["offset"], f"{path}.z.j.offset", F.dim)
            _validate_payload_k(zz["k"], f"{path}.z.k", dz)
    elif kind == "solve-hbl":
        if "sublinears" in payload:
            obj = _take(payload, path,
                        {"sublinears": True, "tables": True, "payload": False})
            subs = obj["sublinears"]
            tabs = obj["tables"]
            if not isinstance(subs, list) or not subs:
                raise SchemaError(f"{path}.sublinears: expected a nonempty array")
            if not isinstance(tabs, list) or len(tabs) != len(subs):
                raise SchemaError(f"{path}.tables: expected one table per sublinear")
            nz = None
            for m, (s, t) in enumerate(zip(subs, tabs)):
                S = _parse_sublinear(s, f"{path}.sublinears[{m}]")
                rows = _matrix(t, f"{path}.tables[{m}]", S.dim)
                if nz is None:
                    nz = len(rows)
                elif len(rows) != nz:
                    raise SchemaError(f"{path}.tables[{m}]: key-set size mismatch")
            if "payload" in obj:
                _num_list(obj["payload"], f"{path}.payload", nz)
        elif "s" in payload:
            if "vertices" in payload:
                obj = _take(payload, path,
                            {"s": True, "vertices": True, "j": True, "k": True})
                S = _parse_sublinear(obj["s"], f"{path}.s")
                V = _matrix(obj["vertices"], f"{path}.vertices")
                dz = len(V[0])
                jm = _take(_ensure_obj(obj["j"], f"{path}.j"), f"{path}.j",
                           {"matrix": True, "offset": True})
                M = _matrix(jm["matrix"], f"{path}.j.matrix", dz)
                if len(M) != S.dim:
                    raise SchemaError(f"{path}.j.matrix: expected {S.dim} rows")
                _num_list(jm["offset"], f"{path}.j.offset", S.dim)
                _validate_payload_k(obj["k"], f"{path}.k", dz)
            else:
                obj = _take(payload, path, {"s": True, "j": True, "k": True})
                S = _parse_sublinear(obj["s"], f"{path}.s")
                jt = _matrix(obj["j"], f"{path}.j", S.dim)
                _num_list(obj["k"], f"{path}.k", len(jt))
        else:
            raise SchemaError(f"{path}: expected either 'sublinears' or 's'")
    elif kind == "verify":
        obj = _take(payload, path, {"suites": False, "trials": False})
        if "suites" in obj:
            suites = obj["suites"]
            if not isinstance(suites, list):
                raise SchemaError(f"{path}.suites: expected an array of names")
            for i, s in enumerate(suites):
                if not isinstance(s, str):
                    raise SchemaError(f"{path}.suites[{i}]: expected a string")
        if "trials" in obj:
            trials = _ensure_obj(obj["trials"], f"{path}.trials")
            for k, v in trials.items():
                _integer(v, f"{path}.trials.{k}")
    elif kind == "gen":
        obj = _take(payload, path, {"instance": True, "dims": True})
        if obj["instance"] not in ("max_affine", "polytope", "scored_set", "hbl"):
            raise SchemaError(f"{path}.instance: unknown instance kind")
        dims = _ensure_obj(obj["dims"], f"{path}.dims")
        for k, v in dims.items():
            if _integer(v, f"{path}.dims.{k}") < 1:
                raise SchemaError(f"{path}.dims.{k}: must be >= 1")


def _validate_payload_k(value, path: str, dz: int) -> None:
    obj = _ensure_obj(value, path)
    if "pieces" in obj:
        kk = _take(obj, path, {"pieces": True})
        F = _parse_max_affine({"pieces": kk["pieces"]}, path)
        if F.dim != dz:
            raise SchemaError(f"{path}.pieces: expected slope length {dz}")
    else:
        kk = _take(obj, path, {"lin": True, "off": True})
        _num_list(kk["lin"], f"{path}.lin", dz)
        _number(kk["off"], f"{path}.off")


# ---------------------------------------------------------------------------
# Report serialization (17 significant digits, deterministic)


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def _dump_json(obj, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump_json(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _dump_json(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_report(report: dict) -> str:
    out: List[str] = []
    _dump_json(report, out)
    return "".join(out) + "\n"


def _vec(v: np.ndarray) -> list:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _midpoint_json(rep: MidpointReport) -> dict:
    return {
        "status": rep.status,
        "witnesses": [[int(i), int(j), int(c)] for (i, j), c in sorted(rep.witnesses.items())],
        "violation": None if rep.violation is None else {
            "pair": [int(rep.violation[0][0]), int(rep.violation[0][1])],
            "value": float(rep.violation[1]),
        },
    }


def _mok_json(cert: MokCertificate) -> dict:
    return {
        "linear": _vec(cert.L.w),
        "weights": _vec(cert.weights),
        "value": cert.value,
        "target": cert.target,
        "gap": cert.gap,
        "midpoint": _midpoint_json(cert.midpoint),
    }


def _synth_json(cert: SynthCertificate) -> dict:
    return {
        "affine": {"w": _vec(cert.affine.w), "c": cert.affine.c},
        "lifted": {"Lam": _vec(cert.lifted.Lam.w), "lam": cert.lifted.lam},
        "weights": _vec(cert.weights),
        "delta": cert.delta,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "gap": cert.gap,
        "t_star": cert.t_star,
        "domination": {
            "worst_deficit": cert.domination.worst_deficit,
            "witness": _vec(cert.domination.witness),
            "samples": cert.domination.samples,
            "seed": cert.domination.seed,
        },
        "condition": _midpoint_json(cert.condition),
        "approximate": cert.approximate,
        "fallback": cert.fallback,
    }


# ---------------------------------------------------------------------------
# Dispatch


def _exit_code(hypothesis: MidpointReport, cert, tol: ToleranceConfig) -> int:
    """0 only when the hypothesis holds and the certificate is within `tol`."""
    if not hypothesis.satisfied:
        return EXIT_HYPOTHESIS
    return EXIT_OK if cert.within(tol) else EXIT_NUMERICAL


def _solve(problem: ProblemFile, approximate_ok: bool) -> Tuple[dict, int]:
    """Run the solver for a validated problem; returns (certificate, exit code)."""
    p = problem.payload
    tol = problem.tolerances
    kind = problem.kind
    if kind == "eval-gauge":
        F = _parse_max_affine(p["f"], "f")
        g = eval_gauge(F, np.asarray(p["x"], dtype=np.float64), p["alpha"], tol)
        return ({"value": g.value, "branch": g.branch.value,
                 "residual": g.residual, "iterations": g.iterations}, EXIT_OK)

    if kind == "solve-mok":
        S = _parse_sublinear(p["s"], "s")
        cert = solve_mok(S, [np.asarray(r, dtype=np.float64) for r in p["d"]], tol)
        return _mok_json(cert), _exit_code(cert.midpoint, cert, tol)

    if kind == "synth-affine":
        F = _parse_max_affine(p["f"], "f")
        b = p["b"]
        if "points" in b:
            B = FiniteScoredSet(np.asarray(b["points"]), np.asarray(b["scores"]))
        else:
            B = LiftedPolytope(Polytope(np.asarray(b["vertices"])),
                               np.asarray(b["score_lin"]), b["score_off"])
        cert = synth_affine_from_scored_set(F, B, tol)
        return _synth_json(cert), _exit_code(cert.condition, cert, tol)

    if kind == "synth-sun":
        F = _parse_max_affine(p["f"], "f")
        z = p["z"]
        if "points" in z:
            Z = [np.asarray(r, dtype=np.float64) for r in z["points"]]
        else:
            Z = Polytope(np.asarray(z["vertices"]))
        cert = synth_tight_minorant(F, Z, tol)
        return _synth_json(cert), _exit_code(cert.condition, cert, tol)

    if kind == "synth-cahbl":
        F = _parse_max_affine(p["f"], "f")
        z = p["z"]
        if "j" in z and isinstance(z["j"], list):
            cert = synth_composed_minorant(
                F, np.asarray(z["j"], dtype=np.float64),
                np.asarray(z["k"], dtype=np.float64), None, tol)
        else:
            jt = AffineTransform(np.asarray(z["j"]["matrix"]),
                                 np.asarray(z["j"]["offset"]))
            kk = _build_k(z["k"])
            cert = synth_composed_minorant(
                F, jt, kk, Polytope(np.asarray(z["vertices"])), tol)
        if cert.approximate and not approximate_ok:
            return (_synth_json(cert) | {"error": "approximate-not-allowed"},
                    EXIT_NUMERICAL)
        return _synth_json(cert), _exit_code(cert.condition, cert, tol)

    if kind == "solve-hbl":
        approximate = False
        if "sublinears" in p:
            subs = [_parse_sublinear(s, "s") for s in p["sublinears"]]
            tabs = [np.asarray(t, dtype=np.float64) for t in p["tables"]]
            payload = np.asarray(p["payload"], dtype=np.float64) if "payload" in p else None
            inst = HblInstance(subs, tabs, payload)
            if payload is None:
                cert = solve_hbl_n(inst, tol)
            else:
                from .hbl import _solve_product

                cert = _solve_product(inst, tol)
        else:
            S = _parse_sublinear(p["s"], "s")
            if "vertices" in p:
                jt = AffineTransform(np.asarray(p["j"]["matrix"]),
                                     np.asarray(p["j"]["offset"]))
                kk = _build_k(p["k"])
                cert, approximate = solve_hbl_jk(
                    S, jt, kk, Polytope(np.asarray(p["vertices"])), tol)
            else:
                cert, approximate = solve_hbl_jk(
                    S, np.asarray(p["j"], dtype=np.float64),
                    np.asarray(p["k"], dtype=np.float64), None, tol)
        body = {
            "maps": [_vec(L.w) for L in cert.maps],
            "weights": [_vec(w) for w in cert.weights],
            "value": cert.value,
            "target": cert.target,
            "gap": cert.gap,
            "midpoint": _midpoint_json(cert.midpoint),
            "approximate": approximate,
        }
        if approximate and not approximate_ok:
            return body | {"error": "approximate-not-allowed"}, EXIT_NUMERICAL
        return body, _exit_code(cert.midpoint, cert, tol)

    if kind == "verify":
        trials = {k: int(v) for k, v in p.get("trials", {}).items()}
        cfg = SuiteConfig(seed=problem.seed if problem.seed is not None else 20240817,
                          trials=trials, tol=tol)
        rep = run_property_suite(cfg, p.get("suites"))
        return rep.to_json(), EXIT_OK if rep.all_passed else EXIT_NUMERICAL

    if kind == "gen":
        seed = problem.seed if problem.seed is not None else 0
        inst = gen_instance(p["instance"], {k: int(v) for k, v in p["dims"].items()}, seed)
        return {"generated": _instance_json(p["instance"], inst), "seed": seed}, EXIT_OK

    raise SchemaError(f"$.kind: unknown problem kind {kind!r}")


def _build_k(spec: dict):
    if "pieces" in spec:
        return _parse_max_affine(spec, "k")
    return AffineMap(np.asarray(spec["lin"], dtype=np.float64), spec["off"])


def _instance_json(kind: str, inst) -> dict:
    if kind == "max_affine":
        return {"pieces": [{"a": _vec(a), "b": float(b)}
                           for a, b in zip(inst.slopes, inst.offsets)]}
    if kind == "polytope":
        return {"vertices": [_vec(v) for v in inst.vertices]}
    if kind == "scored_set":
        return {"points": [_vec(b) for b in inst.points], "scores": _vec(inst.scores)}
    if kind == "hbl":
        return {
            "sublinears": [{"pieces": [_vec(r) for r in S.pieces]}
                           for S in inst.sublinears],
            "tables": [[_vec(r) for r in t] for t in inst.tables],
        }
    raise SchemaError(f"unknown instance kind {kind!r}")


def run_problem_text(text: str, approximate_ok: bool = False,
                     seed_override: Optional[int] = None,
                     tol_gap_override: Optional[float] = None) -> Tuple[str, int]:
    """Parse, solve, and serialize; returns (report text, exit code).

    Schema errors surface as SchemaError (no report).  Solver failures are
    folded into an error report with the numerical-failure exit code.
    """
    problem = parse_problem(text)
    if seed_override is not None:
        problem = dataclasses.replace(problem, seed=seed_override)
    if tol_gap_override is not None:
        problem = dataclasses.replace(
            problem,
            tolerances=dataclasses.replace(problem.tolerances, tol_gap=tol_gap_override),
        )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    status_by_code = {EXIT_OK: "ok", EXIT_HYPOTHESIS: "hypothesis-violated",
                      EXIT_NUMERICAL: "numerical-failure"}
    try:
        cert, code = _solve(problem, approximate_ok)
    except ConditionViolated as e:
        cert = {"error": "condition-violated", "condition": _midpoint_json(e.report)}
        code = EXIT_HYPOTHESIS
    except (DegenerateLambda, BracketFailure, LpError, ScanExhausted) as e:
        cert = {"error": type(e).__name__, "message": str(e)}
        code = EXIT_NUMERICAL
    except InvalidInput as e:
        raise SchemaError(f"$.payload: {e}") from e
    report = {
        "version": 1,
        "kind": problem.kind,
        "input_sha256": digest,
        "status": status_by_code[code],
        "certificate": cert,
    }
    return emit_report(report), code


def run_command(argv: List[str]) -> int:
    """Entry point used by the console script; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="minorant",
        description="certificate-producing solvers for affine-minorant synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in PROBLEM_KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--input", default=None, help="problem file (default: stdin)")
        sp.add_argument("--output", default=None, help="report file (default: stdout)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol-gap", type=float, default=None)
        sp.add_argument("--approximate-ok", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_SCHEMA if e.code not in (0, None) else 0

    if args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: cannot read input: {e}", file=sys.stderr)
            return EXIT_SCHEMA

    try:
        problem = parse_problem(text)
        if problem.kind != args.command:
            raise SchemaError(
                f"$.kind: document says {problem.kind!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        report_text, code = run_problem_text(
            text, approximate_ok=args.approximate_ok,
            seed_override=args.seed, tol_gap_override=args.tol_gap,
        )
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.output is None or args.output == "-":
        sys.stdout.write(report_text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report_text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
