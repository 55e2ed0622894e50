"""Seeded input generators for the three benchmark workloads.

Every problem is a ``(kind, payload)`` pair whose payload follows the
``minorant`` CLI document schema, so one independent checker serves the
in-process workloads and the CLI documents alike.  ``min-convex`` is the one
kind the CLI does not have: ``synth.min_convex_over_polytope`` on
``{"f", "vertices"}``.

The slot sizes of each workload are fixed; the seed only draws the numbers.
That keeps the work per round nearly the same for every seed, which is what
lets runs on different seeds be compared.

The generators use numpy's PCG64 stream and none of the program's own
generators, so the inputs do not change when the program does.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import numpy as np

Problem = Tuple[str, dict]

R = 2.0  # coefficients and coordinates are uniform in [-R, R]


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    u = rng.normal(size=d)
    return u / np.linalg.norm(u)


def _fn(slopes: np.ndarray, offsets: np.ndarray) -> dict:
    return {"pieces": [{"a": a, "b": b} for a, b in zip(slopes.tolist(), offsets.tolist())]}


def _random_fn(rng, d: int, p: int) -> dict:
    return _fn(rng.uniform(-R, R, (p, d)), rng.uniform(-R, R, p))


def _tilted_pieces(rng, d: int, p: int, u: np.ndarray) -> np.ndarray:
    """Random pieces with <l, u> <= 0, so S(t u) <= 0 for every t >= 0."""
    pieces = rng.uniform(-R, R, (p, d))
    return pieces - np.outer(np.maximum(pieces @ u, 0.0), u)


def _line(rng, d: int, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    return rng.uniform(-R, R, d) + np.outer(t, u)


# ---------------------------------------------------------------------------
# Problem families


def mok_satisfied(rng, k: int, d: int = 3, p: int = 4) -> Problem:
    """Points on a line along u with every piece nonpositive along u: the
    point farther along u witnesses each pair, so the midpoint condition
    holds by construction."""
    u = _unit(rng, d)
    pieces = _tilted_pieces(rng, d, p, u)
    D = _line(rng, d, rng.uniform(-R, R, k), u)
    return "solve-mok", {"s": {"pieces": pieces.tolist()}, "d": D.tolist()}


def mok_random(rng, k: int, d: int = 3, p: int = 5) -> Problem:
    """Random points under pieces whose conic hull is the whole space (the
    last piece is minus the sum of the others), so S(x) <= 0 only at x = 0
    and every pair of distinct points violates the midpoint condition."""
    pieces = rng.uniform(-R, R, (p - 1, d))
    pieces = np.vstack([pieces, -pieces.sum(axis=0)])
    D = rng.uniform(-R, R, (k, d))
    return "solve-mok", {"s": {"pieces": pieces.tolist()}, "d": D.tolist()}


def _line_scored(rng, k: int, d: int, p: int):
    """f constant along u and points on a line along u: the recession term
    vanishes, so the lower-scored point of a pair witnesses it whatever the
    scores are."""
    u = _unit(rng, d)
    slopes = rng.uniform(-R, R, (p, d))
    slopes = slopes - np.outer(slopes @ u, u)
    f = _fn(slopes, rng.uniform(-R, R, p))
    pts = _line(rng, d, rng.uniform(-R, R, k), u)
    return f, pts


def sun_finite(rng, k: int, d: int = 3, p: int = 6) -> Problem:
    f, pts = _line_scored(rng, k, d, p)
    return "synth-sun", {"f": f, "z": {"points": pts.tolist()}}


def affine_finite(rng, k: int, d: int = 3, p: int = 6) -> Problem:
    f, pts = _line_scored(rng, k, d, p)
    scores = rng.uniform(-R, R, k)
    return "synth-affine", {"f": f, "b": {"points": pts.tolist(), "scores": scores.tolist()}}


def cahbl_finite(rng, k: int, d: int = 3, p: int = 5) -> Problem:
    f, pts = _line_scored(rng, k, d, p)
    return "synth-cahbl", {"f": f, "z": {"j": pts.tolist(), "k": rng.uniform(-R, R, k).tolist()}}


def hbl_product(rng, nz: int, dims=(2, 3, 2), npieces=(3, 4, 3)) -> Problem:
    """Tables of several spaces that all run along one shared parameter t,
    each space's pieces nonpositive along its own direction: the key with
    the larger t witnesses each pair."""
    t = rng.uniform(-R, R, nz)
    subs, tabs = [], []
    for d, p in zip(dims, npieces):
        u = _unit(rng, d)
        subs.append({"pieces": _tilted_pieces(rng, d, p, u).tolist()})
        tabs.append(_line(rng, d, t, u).tolist())
    return "solve-hbl", {"sublinears": subs, "tables": tabs}


def hbl_payload(rng, nz: int, d: int = 3, p: int = 4) -> Problem:
    """One sublinear plus a scalar payload that is nonincreasing in the
    shared parameter, so the key with the larger t still witnesses."""
    t = rng.uniform(-R, R, nz)
    u = _unit(rng, d)
    pieces = _tilted_pieces(rng, d, p, u)
    a, b = rng.uniform(0.0, 1.0, 2)
    k = rng.uniform(-R, R) - a * t - b * np.maximum(t, 0.0)
    return "solve-hbl", {"s": {"pieces": pieces.tolist()}, "j": _line(rng, d, t, u).tolist(),
                         "k": k.tolist()}


def sun_polytope(rng, v: int, d: int = 6, p: int = 48) -> Problem:
    return "synth-sun", {"f": _random_fn(rng, d, p),
                         "z": {"vertices": rng.uniform(-R, R, (v, d)).tolist()}}


def affine_polytope(rng, v: int, d: int = 6, p: int = 48) -> Problem:
    return "synth-affine", {"f": _random_fn(rng, d, p), "b": {
        "vertices": rng.uniform(-R, R, (v, d)).tolist(),
        "score_lin": rng.uniform(-1.0, 1.0, d).tolist(),
        "score_off": float(rng.uniform(-R, R)),
    }}


def cahbl_polytope(rng, v: int, d: int = 6, dz: int = 4, p: int = 48) -> Problem:
    return "synth-cahbl", {"f": _random_fn(rng, d, p), "z": {
        "vertices": rng.uniform(-R, R, (v, dz)).tolist(),
        "j": {"matrix": rng.uniform(-1.0, 1.0, (d, dz)).tolist(),
              "offset": rng.uniform(-1.0, 1.0, d).tolist()},
        "k": {"lin": rng.uniform(-1.0, 1.0, dz).tolist(), "off": float(rng.uniform(-R, R))},
    }}


def min_convex(rng, v: int, d: int = 6, p: int = 48) -> Problem:
    return "min-convex", {"f": _random_fn(rng, d, p),
                          "vertices": rng.uniform(-R, R, (v, d)).tolist()}


def eval_gauge(rng, d: int = 3, p: int = 5) -> Problem:
    return "eval-gauge", {"f": _random_fn(rng, d, p), "x": rng.uniform(-R, R, d).tolist(),
                          "alpha": float(rng.uniform(-2 * R, 2 * R))}


def gen(rng, instance: str, dims: Dict[str, int]) -> Problem:
    return "gen", {"instance": instance, "dims": dims, "seed": int(rng.integers(0, 2**62))}


# ---------------------------------------------------------------------------
# Workloads


def finite_scan(rng) -> List[Problem]:
    return (
        [mok_satisfied(rng, k) for k in (60, 80, 100)]
        + [mok_random(rng, k) for k in (60, 80, 100)]
        + [sun_finite(rng, k) for k in (60, 90)]
        + [affine_finite(rng, k) for k in (70, 100)]
        + [hbl_product(rng, nz) for nz in (60, 90)]
        + [hbl_payload(rng, nz) for nz in (70, 100)]
    )


def polytope_lp(rng) -> List[Problem]:
    return (
        [sun_polytope(rng, v) for v in (128, 256)]
        + [affine_polytope(rng, v) for v in (96, 192)]
        + [cahbl_polytope(rng, v) for v in (64, 160)]
        + [min_convex(rng, v) for v in (160, 320)]
    )


def cli_docs(rng) -> List[Problem]:
    # Synthesis documents are about three quarters of the list, so the
    # median document time sits inside their (continuous) size range and not
    # on the step between them and the millisecond-scale kinds.
    docs: List[Problem] = []
    for n in (6, 8, 10, 12, 14, 16):
        docs += [
            affine_finite(rng, n),
            affine_polytope(rng, n, d=3, p=5),
            sun_finite(rng, n),
            sun_polytope(rng, n, d=3, p=5),
            cahbl_finite(rng, n),
            cahbl_polytope(rng, n, d=3, dz=2, p=5),
        ]
    for n in (8, 12):
        docs += [eval_gauge(rng), mok_satisfied(rng, n), hbl_product(rng, n), hbl_payload(rng, n)]
    docs += [
        gen(rng, "max_affine", {"d": 3, "p": 5}),
        gen(rng, "polytope", {"d": 3, "v": 8}),
        gen(rng, "scored_set", {"d": 3, "k": 8}),
        gen(rng, "hbl", {"n": 3, "d": 3, "p": 4, "nz": 8}),
    ]
    return docs


_BUILDERS = {"finite-scan": finite_scan, "polytope-lp": polytope_lp, "cli-docs": cli_docs}
WORKLOADS = tuple(_BUILDERS)


def problems(workload: str, seed: int) -> List[Problem]:
    return _BUILDERS[workload](np.random.default_rng(seed))


def document(kind: str, payload: dict) -> str:
    """The CLI document for a problem; ``gen`` carries its seed at the top."""
    payload = dict(payload)
    doc = {"version": 1, "kind": kind}
    if kind == "gen":
        doc["seed"] = payload.pop("seed")
    doc["payload"] = payload
    return json.dumps(doc)


_SETUP = {
    "finite-scan": lambda rng: mok_satisfied(rng, 60),
    "polytope-lp": lambda rng: cahbl_polytope(rng, 64),
    "cli-docs": eval_gauge,
}


def setup_problem(workload: str, seed: int) -> Problem:
    """A document of the workload's smallest kind and size that the CLI
    solves with exit code 0, for the fresh-process set-up time.  It is drawn
    from its own stream, so it does not shift the workload's problems."""
    return _SETUP[workload](np.random.default_rng([seed, 1]))
