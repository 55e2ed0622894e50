"""Batch front end: JSON problem files in, certificate reports out.

Exit codes are part of the contract:

* 0 — success, certificate within tolerances
* 1 — a hypothesis (midpoint / recession condition) is violated; the
      witness is in the report
* 2 — numerical failure (certificate or gauge residual outside the
      document's tolerances, bracket failure, LP anomaly, overflow, failed
      verify)
* 3 — parse or schema error, including a document over a work cap

Every form takes its weights from one LP: the minimum of a max-affine
function over the convex hull of the keys (the scored points, the table
rows or the polytope's vertices), whose dual solution is the certificate's
weights (LP duality).  Over a polytope it is exact on f o j + k as a sum of
two max-affine functions, one space each.

A report is always written once parsing succeeded.  It is strict JSON:
each float is written as its shortest repr, which parses back to the same
bits, and a certificate holding a NaN or an infinity, or a solve that
overflows, is reported as a numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .hbl import HblCertificate, HblInstance, solve_hbl_jk, solve_hbl_n
from .lp import LpError, tableau_cells
from .mok import MidpointReport, MokCertificate, solve_mok
from .synth import (
    ConditionViolated,
    FiniteScoredSet,
    LiftedPolytope,
    SynthCertificate,
    _min_lp_shape,
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

_TOL_KEYS = tuple(f.name for f in dataclasses.fields(ToleranceConfig))


class SchemaError(ValueError):
    """Problem document rejected; the message names the offending path."""


# ---------------------------------------------------------------------------
# Strict JSON helpers


def _ensure_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    return value


def _take(value, path: str, allowed: Dict[str, bool]) -> Dict[str, Any]:
    """Enforce an object with the allowed-key set (strict mode) and required keys."""
    obj = _ensure_obj(value, path)
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
    try:
        x = float(value)  # an integer beyond the float range overflows here
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{path}: number must be finite")
    return x


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


def _matrix(value, path: str, cols: Optional[int] = None) -> np.ndarray:
    """A nonempty array of nonempty rows of finite numbers, all as long as
    the first (or `cols`).  The whole matrix is checked at once: one scan of
    the row and element types, one array and one finiteness test.  A matrix
    that fails goes row by row, so the error names the offending path."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty array of rows")
    width = cols or (len(value[0]) if type(value[0]) is list else 0)
    if (width and all(type(row) is list and len(row) == width for row in value)
            and {type(x) for row in value for x in row} <= {float, int}):
        try:
            m = np.array(value, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            m = None
        if m is not None and np.all(np.isfinite(m)):
            return m
    rows = []
    width = cols
    for i, row in enumerate(value):
        r = _num_list(row, f"{path}[{i}]", width)
        width = len(r)
        rows.append(r)
    return np.asarray(rows)


def _parse_max_affine(value, path: str) -> MaxAffineFn:
    obj = _take(value, path, {"pieces": True})
    pieces = obj["pieces"]
    if not isinstance(pieces, list) or not pieces:
        raise SchemaError(f"{path}.pieces: expected a nonempty array")
    slopes = []
    offs = []
    width = None
    for i, piece in enumerate(pieces):
        p = _take(piece, f"{path}.pieces[{i}]", {"a": True, "b": True})
        a = _num_list(p["a"], f"{path}.pieces[{i}].a", width)
        width = len(a)
        slopes.append(a)
        offs.append(_number(p["b"], f"{path}.pieces[{i}].b"))
    return MaxAffineFn(np.asarray(slopes), np.asarray(offs))


def _parse_sublinear(value, path: str) -> PolyhedralSublinear:
    obj = _take(value, path, {"pieces": True})
    return PolyhedralSublinear(np.asarray(_matrix(obj["pieces"], f"{path}.pieces")))


def _parse_tolerances(value, path: str) -> ToleranceConfig:
    obj = _take(value, path, {k: False for k in _TOL_KEYS})
    kwargs = {k: _number(v, f"{path}.{k}") for k, v in obj.items()}
    for k, v in kwargs.items():
        if v < 0.0:
            raise SchemaError(f"{path}.{k}: must be >= 0")
    return dataclasses.replace(DEFAULT_TOL, **kwargs)


# ---------------------------------------------------------------------------
# Work budget: a document whose solve would exceed a cap is rejected before
# any solver array is allocated.  The caps sit at least 100x above every
# test and benchmark document.

MAX_SCAN_WORK = 1_000_000_000       # candidate x pair x piece terms of the midpoint scan
MAX_TABLEAU_CELLS = 16_000_000      # float64 cells of one simplex tableau (128 MB)
MAX_TRIALS = 1_000                  # trials of one verify suite
MAX_GEN_FLOATS = 1_000_000          # floats of one generated instance


def _check_work(path: str, keys: int, pieces: int, spaces: int = 1,
                scan: bool = True) -> None:
    """Reject a document whose midpoint scan (every pair of `keys` keys
    against every key, over `pieces` pieces in all; a polytope form has
    none) or whose minimum LP, on the side `synth._min_lp_shape` picks,
    would exceed its cap."""
    work = keys * (keys + 1) // 2 * keys * pieces if scan else 0
    if work > MAX_SCAN_WORK:
        raise SchemaError(f"{path}: estimated midpoint-scan work {work} "
                          f"exceeds the cap {MAX_SCAN_WORK}")
    cells = tableau_cells(*_min_lp_shape(keys, pieces, spaces))
    if cells > MAX_TABLEAU_CELLS:
        raise SchemaError(f"{path}: LP tableau of {cells} cells "
                          f"exceeds the cap {MAX_TABLEAU_CELLS}")


# ---------------------------------------------------------------------------
# One build function per problem kind: each validates its payload (dimensions
# included) and returns the typed solver inputs.


def _build_eval_gauge(payload: dict, path: str) -> tuple:
    obj = _take(payload, path, {"f": True, "x": True, "alpha": True})
    F = _parse_max_affine(obj["f"], f"{path}.f")
    x = np.asarray(_num_list(obj["x"], f"{path}.x", F.dim))
    return F, x, _number(obj["alpha"], f"{path}.alpha")


def _build_solve_mok(payload: dict, path: str) -> tuple:
    obj = _take(payload, path, {"s": True, "d": True})
    S = _parse_sublinear(obj["s"], f"{path}.s")
    D = np.asarray(_matrix(obj["d"], f"{path}.d", S.dim))
    _check_work(f"{path}.d", len(D), S.npieces)
    return S, D


def _build_synth_affine(payload: dict, path: str) -> tuple:
    obj = _take(payload, path, {"f": True, "b": True})
    F = _parse_max_affine(obj["f"], f"{path}.f")
    b = _ensure_obj(obj["b"], f"{path}.b")
    if "points" in b:
        bb = _take(b, f"{path}.b", {"points": True, "scores": True})
        pts = _matrix(bb["points"], f"{path}.b.points", F.dim)
        scores = _num_list(bb["scores"], f"{path}.b.scores", len(pts))
        _check_work(f"{path}.b.points", len(pts), F.npieces)
        return F, FiniteScoredSet(np.asarray(pts), np.asarray(scores))
    bb = _take(b, f"{path}.b", {"vertices": True, "score_lin": True, "score_off": True})
    V = _matrix(bb["vertices"], f"{path}.b.vertices", F.dim)
    lin = _num_list(bb["score_lin"], f"{path}.b.score_lin", F.dim)
    off = _number(bb["score_off"], f"{path}.b.score_off")
    _check_work(f"{path}.b.vertices", len(V), F.npieces, scan=False)
    return F, LiftedPolytope(Polytope(np.asarray(V)), np.asarray(lin), off)


def _build_synth_sun(payload: dict, path: str) -> tuple:
    obj = _take(payload, path, {"f": True, "z": True})
    F = _parse_max_affine(obj["f"], f"{path}.f")
    z = _ensure_obj(obj["z"], f"{path}.z")
    if "points" in z:
        zz = _take(z, f"{path}.z", {"points": True})
        pts = _matrix(zz["points"], f"{path}.z.points", F.dim)
        _check_work(f"{path}.z.points", len(pts), F.npieces)
        return F, np.asarray(pts)
    zz = _take(z, f"{path}.z", {"vertices": True})
    V = _matrix(zz["vertices"], f"{path}.z.vertices", F.dim)
    _check_work(f"{path}.z.vertices", len(V), F.npieces, scan=False)
    return F, Polytope(np.asarray(V))


def _build_synth_cahbl(payload: dict, path: str) -> tuple:
    obj = _take(payload, path, {"f": True, "z": True})
    F = _parse_max_affine(obj["f"], f"{path}.f")
    z = _ensure_obj(obj["z"], f"{path}.z")
    if "j" in z and isinstance(z.get("j"), list):
        zz = _take(z, f"{path}.z", {"j": True, "k": True})
        jt = _matrix(zz["j"], f"{path}.z.j", F.dim)
        kt = _num_list(zz["k"], f"{path}.z.k", len(jt))
        _check_work(f"{path}.z.j", len(jt), F.npieces)
        return F, np.asarray(jt), np.asarray(kt), None
    zz = _take(z, f"{path}.z", {"vertices": True, "j": True, "k": True})
    Z, j, k = _parse_composed(zz, f"{path}.z", F.npieces, F.dim)
    return F, j, k, Z


def _build_solve_hbl(payload: dict, path: str) -> tuple:
    if "sublinears" in payload:
        obj = _take(payload, path, {"sublinears": True, "tables": True, "payload": False})
        subs = obj["sublinears"]
        tabs = obj["tables"]
        if not isinstance(subs, list) or not subs:
            raise SchemaError(f"{path}.sublinears: expected a nonempty array")
        if not isinstance(tabs, list) or len(tabs) != len(subs):
            raise SchemaError(f"{path}.tables: expected one table per sublinear")
        sublinears = []
        tables = []
        for m, (s, t) in enumerate(zip(subs, tabs)):
            S = _parse_sublinear(s, f"{path}.sublinears[{m}]")
            rows = _matrix(t, f"{path}.tables[{m}]", S.dim)
            if tables and len(rows) != len(tables[0]):
                raise SchemaError(f"{path}.tables[{m}]: key-set size mismatch")
            sublinears.append(S)
            tables.append(np.asarray(rows))
        nz = len(tables[0])
        kv = None
        if "payload" in obj:
            kv = np.asarray(_num_list(obj["payload"], f"{path}.payload", nz))
        pieces = sum(S.npieces for S in sublinears)
        _check_work(f"{path}.tables", nz, pieces, len(sublinears))
        return (HblInstance(sublinears, tables, kv),)
    if "s" not in payload:
        raise SchemaError(f"{path}: expected either 'sublinears' or 's'")
    # The scalar-payload forms: S plus the identity functional on the reals.
    if "vertices" in payload:
        obj = _take(payload, path, {"s": True, "vertices": True, "j": True, "k": True})
        S = _parse_sublinear(obj["s"], f"{path}.s")
        Z, j, k = _parse_composed(obj, path, S.npieces, S.dim)
        return S, j, k, Z
    obj = _take(payload, path, {"s": True, "j": True, "k": True})
    S = _parse_sublinear(obj["s"], f"{path}.s")
    jt = _matrix(obj["j"], f"{path}.j", S.dim)
    kt = _num_list(obj["k"], f"{path}.k", len(jt))
    _check_work(f"{path}.j", len(jt), S.npieces)
    return S, np.asarray(jt), np.asarray(kt), None


def _parse_composed(obj: dict, path: str, pieces: int, dim_out: int) -> tuple:
    """The polytope, the affine map j into R^dim_out and the payload k of a
    composed polytope form, after checking its one LP: the vertices as keys,
    a space of the function's `pieces` and, for q >= 2 payload pieces, one of q."""
    V = _matrix(obj["vertices"], f"{path}.vertices")
    dz = len(V[0])
    jm = _take(obj["j"], f"{path}.j", {"matrix": True, "offset": True})
    M = _matrix(jm["matrix"], f"{path}.j.matrix", dz)
    if len(M) != dim_out:
        raise SchemaError(f"{path}.j.matrix: expected {dim_out} rows")
    off = _num_list(jm["offset"], f"{path}.j.offset", dim_out)
    k = _parse_payload_k(obj["k"], f"{path}.k", dz)
    spaces = [pieces] if isinstance(k, AffineMap) or k.npieces == 1 else [pieces, k.npieces]
    _check_work(f"{path}.vertices", len(V), sum(spaces), len(spaces), scan=False)
    return Polytope(np.asarray(V)), AffineTransform(np.asarray(M), np.asarray(off)), k


def _parse_payload_k(value, path: str, dz: int):
    obj = _ensure_obj(value, path)
    if "pieces" in obj:
        K = _parse_max_affine(_take(obj, path, {"pieces": True}), path)
        if K.dim != dz:
            raise SchemaError(f"{path}.pieces: expected slope length {dz}")
        return K
    kk = _take(obj, path, {"lin": True, "off": True})
    lin = _num_list(kk["lin"], f"{path}.lin", dz)
    return AffineMap(np.asarray(lin), _number(kk["off"], f"{path}.off"))


def _build_verify(payload: dict, path: str) -> tuple:
    # The harness is imported only by `verify` and `gen`, so that no other
    # kind pays for its import.
    from .harness import SUITE_NAMES

    obj = _take(payload, path, {"suites": False, "trials": False})
    if "suites" in obj:
        suites = obj["suites"]
        if not isinstance(suites, list):
            raise SchemaError(f"{path}.suites: expected an array of names")
        seen = set()
        for i, s in enumerate(suites):
            if not isinstance(s, str):
                raise SchemaError(f"{path}.suites[{i}]: expected a string")
            if s in seen:  # a repeated suite would run again
                raise SchemaError(f"{path}.suites[{i}]: duplicate suite")
            seen.add(s)
    trials = _take(obj.get("trials", {}), f"{path}.trials", {k: False for k in SUITE_NAMES})
    counts = {k: _integer(v, f"{path}.trials.{k}") for k, v in trials.items()}
    for k, n in counts.items():
        if n < 1:
            raise SchemaError(f"{path}.trials.{k}: must be >= 1")
        if n > MAX_TRIALS:
            raise SchemaError(f"{path}.trials.{k}: {n} trials exceed the cap {MAX_TRIALS}")
    return obj.get("suites"), counts


# The dims each generated instance kind reads, and the most floats it holds.
_GEN_DIMS = {
    "max_affine": (("d", "p"), lambda d, p: p * (d + 1)),
    "polytope": (("d", "v"), lambda d, v: v * d),
    "scored_set": (("d", "k"), lambda d, k: k * (d + 1)),
    "hbl": (("n", "d", "p", "nz"), lambda n, d, p, nz: n * d * (p + nz)),
}


def _build_gen(payload: dict, path: str) -> tuple:
    obj = _take(payload, path, {"instance": True, "dims": True})
    if not isinstance(obj["instance"], str) or obj["instance"] not in _GEN_DIMS:
        raise SchemaError(f"{path}.instance: unknown instance kind")
    names, floats = _GEN_DIMS[obj["instance"]]
    dims = _ensure_obj(obj["dims"], f"{path}.dims")
    for k, v in dims.items():
        if _integer(v, f"{path}.dims.{k}") < 1:
            raise SchemaError(f"{path}.dims.{k}: must be >= 1")
    _take(dims, f"{path}.dims", {name: True for name in names})
    size = floats(*(dims[name] for name in names))
    if size > MAX_GEN_FLOATS:
        raise SchemaError(f"{path}.dims: instance of {size} floats "
                          f"exceeds the cap {MAX_GEN_FLOATS}")
    return obj["instance"], dict(dims)


_BUILD_BY_KIND = {
    "eval-gauge": _build_eval_gauge,
    "solve-mok": _build_solve_mok,
    "synth-affine": _build_synth_affine,
    "synth-sun": _build_synth_sun,
    "synth-cahbl": _build_synth_cahbl,
    "solve-hbl": _build_solve_hbl,
    "verify": _build_verify,
    "gen": _build_gen,
}
PROBLEM_KINDS = tuple(_BUILD_BY_KIND)


@dataclasses.dataclass(frozen=True)
class ProblemFile:
    kind: str
    args: tuple                  # typed solver inputs built from the payload
    tolerances: ToleranceConfig
    seed: Optional[int]


def parse_problem(text: str) -> ProblemFile:
    """Validate a problem document and build its solver inputs; raises
    SchemaError with the offending path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"$: invalid JSON ({e.msg} at line {e.lineno})") from e
    doc = _take(doc, "$", {
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
    return ProblemFile(kind, _BUILD_BY_KIND[kind](payload, "$.payload"), tol, seed)


# ---------------------------------------------------------------------------
# Report serialization


def emit_report(report: dict) -> str:
    """Strict JSON: each float as its shortest repr, which parses back to the
    same bits; a NaN or infinity raises ValueError."""
    return json.dumps(report, separators=(",", ":"), allow_nan=False) + "\n"


def _vec(v: np.ndarray) -> list:
    return np.asarray(v, dtype=float).ravel().tolist()


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
        "gap": cert.gap,
        "t_star": cert.t_star,
        "domination": {
            "worst_deficit": cert.domination.worst_deficit,
            "slope_residual": cert.domination.slope_residual,
        },
        "condition": _midpoint_json(cert.condition),
    }


def _hbl_json(cert: HblCertificate) -> dict:
    return {
        "maps": [_vec(L.w) for L in cert.maps],
        "weights": [_vec(w) for w in cert.weights],
        "value": cert.value,
        "target": cert.target,
        "gap": cert.gap,
        "midpoint": _midpoint_json(cert.midpoint),
    }


# ---------------------------------------------------------------------------
# Dispatch


def _solve(problem: ProblemFile) -> Tuple[dict, int]:
    """Run the solver on a parsed problem's inputs; returns (certificate,
    exit code).  A certificate exits 0 only when its hypothesis holds and it
    is within the tolerances."""
    args = problem.args
    tol = problem.tolerances
    kind = problem.kind
    if kind == "eval-gauge":
        g = eval_gauge(*args, tol)
        return ({"value": g.value, "branch": g.branch.value,
                 "residual": g.residual, "iterations": g.iterations},
                EXIT_OK if g.within(tol) else EXIT_NUMERICAL)

    if kind in ("solve-mok", "synth-affine", "synth-sun", "synth-cahbl", "solve-hbl"):
        if kind == "solve-mok":
            cert = solve_mok(*args, tol)
            body, hypothesis = _mok_json(cert), cert.midpoint
        elif kind == "solve-hbl":
            solver = solve_hbl_n if isinstance(args[0], HblInstance) else solve_hbl_jk
            cert = solver(*args, tol)
            body, hypothesis = _hbl_json(cert), cert.midpoint
        else:
            solver = {"synth-affine": synth_affine_from_scored_set,
                      "synth-sun": synth_tight_minorant,
                      "synth-cahbl": synth_composed_minorant}[kind]
            cert = solver(*args, tol)
            body, hypothesis = _synth_json(cert), cert.condition
        if not hypothesis.satisfied:
            return body, EXIT_HYPOTHESIS
        return body, EXIT_OK if cert.within(tol) else EXIT_NUMERICAL

    if kind == "verify":
        from .harness import SuiteConfig, run_property_suite

        suites, trials = args
        cfg = SuiteConfig(seed=problem.seed if problem.seed is not None else 20240817,
                          trials=trials, tol=tol)
        rep = run_property_suite(cfg, suites)
        return rep.to_json(), EXIT_OK if rep.all_passed else EXIT_NUMERICAL

    from .harness import gen_instance

    instance, dims = args  # gen
    seed = problem.seed if problem.seed is not None else 0
    inst = gen_instance(instance, dims, seed)
    return {"generated": _instance_json(instance, inst), "seed": seed}, EXIT_OK


def _instance_json(kind: str, inst) -> dict:
    if kind == "max_affine":
        return {"pieces": [{"a": a, "b": b}
                           for a, b in zip(inst.slopes.tolist(), inst.offsets.tolist())]}
    if kind == "polytope":
        return {"vertices": inst.vertices.tolist()}
    if kind == "scored_set":
        return {"points": inst.points.tolist(), "scores": inst.scores.tolist()}
    if kind == "hbl":
        return {
            "sublinears": [{"pieces": S.pieces.tolist()} for S in inst.sublinears],
            "tables": [t.tolist() for t in inst.tables],
        }
    raise SchemaError(f"unknown instance kind {kind!r}")


def run_problem_text(text: str, seed_override: Optional[int] = None) -> Tuple[str, int]:
    """Parse, solve, and serialize; returns (report text, exit code).

    Schema errors surface as SchemaError (no report).  Solver failures are
    folded into an error report with the numerical-failure exit code.
    """
    return _run_parsed(parse_problem(text), text, seed_override)


def _run_parsed(problem: ProblemFile, text: str,
                seed_override: Optional[int]) -> Tuple[str, int]:
    """Solve and serialize a problem already parsed from `text`."""
    if seed_override is not None:
        problem = dataclasses.replace(problem, seed=seed_override)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    status_by_code = {EXIT_OK: "ok", EXIT_HYPOTHESIS: "hypothesis-violated",
                      EXIT_NUMERICAL: "numerical-failure"}
    try:
        # An overflow or an invalid operation is a numerical failure, not a
        # non-finite number in the certificate.
        with np.errstate(over="raise", invalid="raise"):
            cert, code = _solve(problem)
    except ConditionViolated as e:
        cert = {"error": "condition-violated", "condition": _midpoint_json(e.report)}
        code = EXIT_HYPOTHESIS
    except (BracketFailure, LpError, FloatingPointError) as e:
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
    try:
        return emit_report(report), code
    except ValueError as e:  # a certificate number that is not finite
        report.update(status=status_by_code[EXIT_NUMERICAL],
                      certificate={"error": type(e).__name__, "message": str(e)})
        return emit_report(report), EXIT_NUMERICAL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `parse_args` returns a
    fresh namespace on every call."""
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
    return parser


def run_command(argv: List[str]) -> int:
    """Entry point used by the console script; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
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
        report_text, code = _run_parsed(problem, text, args.seed)
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
