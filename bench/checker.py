"""Independent checker for the program's outputs.

Every judgement is made from the problem itself (the CLI document payload)
and the reported numbers, with numpy and ``scipy.optimize.linprog`` and none
of the program's code.  Nothing is compared with a stored copy of an earlier
output, and nothing the method leaves free is pinned: LP weights are checked
for what they prove, not for their values, and witness indices are checked
for being witnesses, not for being the ones a particular scan finds first.

``check(kind, payload, output)`` and ``check_report(doc, report)`` return a
list of error strings, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

import numpy as np
from scipy.optimize import linprog

# The program's documented default tolerances.
TOL_ZERO = 1e-9
TOL_MID = 1e-9
TOL_LP = 1e-8
TOL_GAP = 1e-6
TOL_GAUGE = 1e-8

EXACT = 1e-9    # relative slack for identities that hold up to round-off
SCAN = 1e-11    # margin on midpoint values, so a scan that rounds differently passes
LP = 1e-7       # relative slack against scipy's LP optimum

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _rel(x: float) -> float:
    return max(1.0, abs(x))


def _fn(spec: dict):
    return (np.array([p["a"] for p in spec["pieces"]], dtype=float),
            np.array([p["b"] for p in spec["pieces"]], dtype=float))


def _max_affine(slopes, offsets, X) -> np.ndarray:
    return np.max(np.atleast_2d(X) @ slopes.T + offsets, axis=1)


def _lp_max(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, free=()) -> Optional[float]:
    """max c.x subject to the rows, x >= 0 except the `free` columns."""
    bounds = [(None, None) if i in free else (0, None) for i in range(len(c))]
    res = linprog(-np.asarray(c, dtype=float), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs", options=_HIGHS)
    return -res.fun if res.status == 0 else None


def min_over_polytope(slopes, offsets, V) -> float:
    """min over conv(V) of max_i(<a_i, x> + b_i): the epigraph LP in the
    barycentric weights nu and the level t."""
    k = V.shape[0]
    G = V @ slopes.T                                   # (k, p)
    c = np.zeros(k + 1)
    c[k] = -1.0                                        # maximize -t
    A_ub = np.hstack([G.T, -np.ones((slopes.shape[0], 1))])
    A_eq = np.zeros((1, k + 1))
    A_eq[0, :k] = 1.0
    val = _lp_max(c, A_ub, -offsets, A_eq, [1.0], free=(k,))
    return None if val is None else -val


# ---------------------------------------------------------------------------
# Midpoint scans: value[c] for a pair (i, j) is the midpoint expression at
# candidate c; a pair is covered when some candidate is <= tol_mid.


def _pair_values(G_list, extra):
    """Yield ((i, j), values over candidates) for i <= j.  Each G in G_list
    is (k, p) with rows <pieces, point>, so S(x_c - mid) is
    max_l(G[c, l] - (G[i, l] + G[j, l]) / 2); `extra` is a scalar term
    (scores or payload) entering linearly."""
    k = len(extra)
    for i in range(k):
        js = np.arange(i, k)
        total = extra[None, :] - 0.5 * (extra[i] + extra[js])[:, None]
        for G in G_list:
            mid = 0.5 * (G[i][None, :] + G[js])                         # (m, p)
            total = total + np.max(G[None, :, :] - mid[:, None, :], axis=2)
        for r, j in enumerate(js):
            yield (i, int(j)), total[r]


def check_midpoint(G_list, extra, report: dict, where: str) -> List[str]:
    errs = []
    k = len(extra)
    vals = {}
    worst = None
    for pair, v in _pair_values(G_list, extra):
        vals[pair] = v
        lo = float(np.min(v))
        if worst is None or lo > worst[1]:
            worst = (pair, lo)
    satisfied = worst[1] <= TOL_MID + SCAN
    violated = worst[1] > TOL_MID - SCAN
    status = report.get("status")
    if status == "satisfied" and not satisfied:
        errs.append(f"{where}: reported satisfied, but pair {worst[0]} has no candidate "
                    f"(least value {worst[1]:.3g})")
    if status == "violated" and not violated:
        errs.append(f"{where}: reported violated, but every pair has a candidate")
    if status not in ("satisfied", "violated"):
        errs.append(f"{where}: unknown status {status!r}")
    for w in report.get("witnesses", []):
        i, j, c = w
        if not (0 <= i <= j < k and 0 <= c < k):
            errs.append(f"{where}: witness {w} out of range")
        elif vals[(i, j)][c] > TOL_MID + SCAN:
            errs.append(f"{where}: witness {w} is no witness "
                        f"(value {vals[(i, j)][c]:.3g})")
    viol = report.get("violation")
    if status == "violated":
        if viol is None:
            errs.append(f"{where}: violated without a violation record")
        else:
            i, j = sorted(viol["pair"])
            if not (0 <= i <= j < k):
                errs.append(f"{where}: violation pair {viol['pair']} out of range")
            else:
                lo = float(np.min(vals[(i, j)]))
                if lo <= TOL_MID - SCAN:
                    errs.append(f"{where}: violation pair {viol['pair']} has a candidate")
                if abs(lo - viol["value"]) > SCAN * _rel(lo):
                    errs.append(f"{where}: violation value {viol['value']!r} is not the "
                                f"pair's least value {lo!r}")
    elif viol is not None:
        errs.append(f"{where}: satisfied with a violation record")
    return errs


# ---------------------------------------------------------------------------
# Linear minorants of sublinear functionals: mok and hbl


def _check_simplex(theta, pieces, linear, where) -> List[str]:
    errs = []
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (pieces.shape[0],):
        return [f"{where}: {theta.size} weights for {pieces.shape[0]} pieces"]
    if np.any(theta < -EXACT):
        errs.append(f"{where}: negative weight {theta.min()!r}")
    if abs(theta.sum() - 1.0) > EXACT:
        errs.append(f"{where}: weights sum to {theta.sum()!r}, not 1")
    resid = np.max(np.abs(pieces.T @ theta - np.asarray(linear, dtype=float)))
    if resid > EXACT * _rel(np.max(np.abs(pieces))):
        errs.append(f"{where}: map is not the weighted pieces (residual {resid:.3g})")
    return errs


def _check_linear_minorant(pieces_list, tables, extra, out, where) -> List[str]:
    """Shared check of solve-mok and solve-hbl: L_m <= S_m through simplex
    weights, both infima recomputed, the LP level against scipy, the gap
    when the hypothesis holds, and the midpoint report."""
    maps = out["maps"]
    errs = []
    if len(maps) != len(pieces_list) or len(out["weights"]) != len(pieces_list):
        return [f"{where}: {len(maps)} maps for {len(pieces_list)} spaces"]
    for m, (P, L, th) in enumerate(zip(pieces_list, maps, out["weights"])):
        errs += _check_simplex(th, P, L, f"{where}.space{m}")
    if errs:
        return errs
    lin = extra + sum(T @ np.asarray(L, dtype=float) for T, L in zip(tables, maps))
    sub = extra + sum(np.max(T @ P.T, axis=1) for T, P in zip(tables, pieces_list))
    value, target = float(lin.min()), float(sub.min())
    if abs(out["value"] - value) > EXACT * _rel(value):
        errs.append(f"{where}: value {out['value']!r} != inf of the map {value!r}")
    if abs(out["target"] - target) > EXACT * _rel(target):
        errs.append(f"{where}: target {out['target']!r} != inf of S {target!r}")
    if abs(out["gap"] - (out["target"] - out["value"])) > EXACT * _rel(target):
        errs.append(f"{where}: gap {out['gap']!r} != target - value")
    # LP: max t over one simplex per space, t <= extra(z) + sum_m <L_m, T_m z>.
    counts = [P.shape[0] for P in pieces_list]
    n = sum(counts)
    nz = len(extra)
    A_ub = np.hstack([-np.hstack([T @ P.T for T, P in zip(tables, pieces_list)]),
                      np.ones((nz, 1))])
    A_eq = np.zeros((len(counts), n + 1))
    start = 0
    for m, cnt in enumerate(counts):
        A_eq[m, start:start + cnt] = 1.0
        start += cnt
    c = np.zeros(n + 1)
    c[n] = 1.0
    opt = _lp_max(c, A_ub, extra, A_eq, np.ones(len(counts)), free=(n,))
    if opt is None:
        errs.append(f"{where}: scipy found no optimum")
    elif abs(value - opt) > LP * _rel(opt):
        errs.append(f"{where}: LP level {value!r} != scipy optimum {opt!r}")
    G_list = [T @ P.T for T, P in zip(tables, pieces_list)]
    errs += check_midpoint(G_list, extra, out["midpoint"], f"{where}.midpoint")
    if out["midpoint"].get("status") == "satisfied" and abs(target - value) > TOL_LP:
        errs.append(f"{where}: hypothesis holds but |gap| = {abs(target - value):.3g}")
    return errs


def check_mok(p: dict, out: dict) -> List[str]:
    P = np.array(p["s"]["pieces"], dtype=float)
    D = np.array(p["d"], dtype=float)
    as_hbl = dict(out, maps=[out["linear"]], weights=[out["weights"]])
    return _check_linear_minorant([P], [D], np.zeros(len(D)), as_hbl, "solve-mok")


def check_hbl(p: dict, out: dict) -> List[str]:
    if out.get("approximate"):
        return ["solve-hbl: approximate result"]
    if "sublinears" in p:
        pieces = [np.array(s["pieces"], dtype=float) for s in p["sublinears"]]
        tables = [np.array(t, dtype=float) for t in p["tables"]]
        extra = np.array(p["payload"], dtype=float) if "payload" in p else np.zeros(len(tables[0]))
    else:
        # Scalar payload: the second space is the reals under the identity.
        pieces = [np.array(p["s"]["pieces"], dtype=float), np.ones((1, 1))]
        tables = [np.array(p["j"], dtype=float), np.array(p["k"], dtype=float).reshape(-1, 1)]
        extra = np.zeros(len(p["k"]))
    return _check_linear_minorant(pieces, tables, extra, out, "solve-hbl")


# ---------------------------------------------------------------------------
# Affine minorants of max-affine functions: synth


def _scored_problem(kind: str, p: dict):
    """(slopes, offsets, constraint points, scores, finite?, polytope
    epigraph data) for the three synth kinds."""
    slopes, offsets = _fn(p["f"])
    if kind == "synth-sun":
        z = p["z"]
        if "points" in z:
            pts = np.array(z["points"], dtype=float)
            return slopes, offsets, pts, np.zeros(len(pts)), True, None
        V = np.array(z["vertices"], dtype=float)
        return slopes, offsets, V, np.zeros(len(V)), False, (slopes, offsets, V)
    if kind == "synth-affine":
        b = p["b"]
        if "points" in b:
            pts = np.array(b["points"], dtype=float)
            return slopes, offsets, pts, np.array(b["scores"], dtype=float), True, None
        V = np.array(b["vertices"], dtype=float)
        lin, off = np.array(b["score_lin"], dtype=float), float(b["score_off"])
        return slopes, offsets, V, V @ lin + off, False, (slopes + lin, offsets + off, V)
    z = p["z"]  # synth-cahbl
    if isinstance(z["j"], list):
        pts = np.array(z["j"], dtype=float)
        return slopes, offsets, pts, np.array(z["k"], dtype=float), True, None
    V = np.array(z["vertices"], dtype=float)
    M, m = np.array(z["j"]["matrix"], dtype=float), np.array(z["j"]["offset"], dtype=float)
    if "pieces" in z["k"]:
        raise ValueError("max-affine payloads over polytopes are not checked")
    kl, ko = np.array(z["k"]["lin"], dtype=float), float(z["k"]["off"])
    # f(j z) + k(z) as a max-affine function of z.
    return (slopes, offsets, V @ M.T + m, V @ kl + ko, False,
            (slopes @ M + kl, slopes @ m + offsets + ko, V))


def check_synth(kind: str, p: dict, out: dict) -> List[str]:
    slopes, offsets, pts, scores, finite, epi = _scored_problem(kind, p)
    errs = []
    if out.get("fallback") is not None or out.get("approximate"):
        return [f"{kind}: fallback {out.get('fallback')!r} / approximate result"]
    w = np.array(out["affine"]["w"], dtype=float)
    c = float(out["affine"]["c"])
    mu = np.array(out["weights"], dtype=float)
    lam = float(out["lifted"]["lam"])
    # A <= f exactly: theta = mu / lam is a point of the simplex with
    # slopes^T theta = w and offsets . theta >= c, so A <= sum theta_i (a_i, b_i) <= f.
    if mu.shape != offsets.shape:
        return [f"{kind}: {mu.size} weights for {offsets.size} pieces"]
    if not lam > 0.0:
        return [f"{kind}: vertical multiplier {lam!r} is not positive"]
    if abs(mu.sum() - lam) > EXACT * _rel(lam):
        errs.append(f"{kind}: lam {lam!r} != sum of weights {mu.sum()!r}")
    if np.max(np.abs(slopes.T @ mu - np.array(out["lifted"]["Lam"], dtype=float))) > EXACT:
        errs.append(f"{kind}: Lam is not the weighted slopes")
    theta = mu / lam
    errs += _check_simplex(theta, slopes, w, f"{kind}.A<=f")
    support = float(offsets @ theta)
    if support < c - EXACT * _rel(c):
        errs.append(f"{kind}: A <= f fails: offsets.theta = {support!r} < c = {c!r}")
    # Scored infimum of f, recomputed.
    if finite:
        delta = float(np.min(_max_affine(slopes, offsets, pts) + scores))
    else:
        delta = min_over_polytope(*epi)
        if delta is None:
            return errs + [f"{kind}: scipy found no polytope minimum"]
    if abs(out["delta"] - delta) > (EXACT if finite else LP) * _rel(delta):
        errs.append(f"{kind}: delta {out['delta']!r} != recomputed {delta!r}")
    # Scored infimum of A; over a polytope an affine function is least at a vertex.
    lhs = float(np.min(pts @ w + c + scores))
    if abs(out["lhs"] - lhs) > EXACT * _rel(lhs):
        errs.append(f"{kind}: lhs {out['lhs']!r} != recomputed {lhs!r}")
    # LP level: max t over mu >= 0 with sum mu_i (f0 + 1 - b_i) <= 1 and
    # sum mu_i (<a_i, b> - eta_b) >= t at every constraint point b.
    f0 = float(offsets.max())
    eta = delta - scores - f0 - 1.0
    coeff = pts @ slopes.T - eta[:, None]
    npc = len(offsets)
    A_ub = np.vstack([np.append(f0 + 1.0 - offsets, 0.0),
                      np.hstack([-coeff, np.ones((len(pts), 1))])])
    b_ub = np.concatenate([[1.0], np.zeros(len(pts))])
    cvec = np.zeros(npc + 1)
    cvec[npc] = 1.0
    opt = _lp_max(cvec, A_ub, b_ub, free=(npc,))
    if opt is None:
        errs.append(f"{kind}: scipy found no LP optimum")
    elif abs(out["t_star"] - opt) > LP * _rel(opt):
        errs.append(f"{kind}: LP level {out['t_star']!r} != scipy optimum {opt!r}")
    dom = out.get("domination")
    if dom is not None and dom["worst_deficit"] < -1e-7:
        errs.append(f"{kind}: sampled domination deficit {dom['worst_deficit']!r}")
    cond = out["condition"]
    if finite:
        errs += check_midpoint([pts @ slopes.T], scores, cond, f"{kind}.condition")
    elif cond.get("status") != "satisfied":
        errs.append(f"{kind}: convex set reported {cond.get('status')!r}")
    if cond.get("status") == "satisfied":
        if abs(lhs - delta) > TOL_GAP:
            errs.append(f"{kind}: hypothesis holds but |gap| = {abs(lhs - delta):.3g}")
        if out["t_star"] < 1.0 - TOL_LP:
            errs.append(f"{kind}: hypothesis holds but LP level {out['t_star']!r} < 1")
    return errs


def check_min_convex(p: dict, out: dict) -> List[str]:
    slopes, offsets = _fn(p["f"])
    V = np.array(p["vertices"], dtype=float)
    x = np.array(out["x"], dtype=float)
    errs = []
    fx = float(_max_affine(slopes, offsets, x)[0])
    if abs(out["value"] - fx) > EXACT * _rel(fx):
        errs.append(f"min-convex: value {out['value']!r} != f(x) {fx!r}")
    # x in conv(V): nu >= 0, sum nu = 1, V^T nu = x is feasible.
    res = linprog(np.zeros(len(V)), A_eq=np.vstack([V.T, np.ones(len(V))]),
                  b_eq=np.append(x, 1.0), bounds=(0, None), method="highs", options=_HIGHS)
    if res.status != 0:
        errs.append("min-convex: minimizer is outside the polytope")
    opt = min_over_polytope(slopes, offsets, V)
    if opt is None or abs(out["value"] - opt) > LP * _rel(opt):
        errs.append(f"min-convex: value {out['value']!r} != scipy optimum {opt!r}")
    return errs


# ---------------------------------------------------------------------------
# Gauge values and generated instances


def check_gauge(p: dict, out: dict) -> List[str]:
    """The value satisfies its defining equation: 0 on the zero branch when
    the recession slope max <a_i, x> is at most alpha, otherwise the root of
    mu -> max_i(<a_i, x> + mu * (b_i - f(0) - 1)) = alpha."""
    slopes, offsets = _fn(p["f"])
    x = np.array(p["x"], dtype=float)
    alpha = float(p["alpha"])
    rec = float(np.max(slopes @ x))
    v = out["value"]
    if out["branch"] == "zero":
        if v != 0.0 or rec > alpha + TOL_ZERO + SCAN:
            return [f"eval-gauge: zero branch with value {v!r}, recession {rec!r} > {alpha!r}"]
        return []
    if out["branch"] != "root" or not v > 0.0:
        return [f"eval-gauge: bad branch/value {out['branch']!r} {v!r}"]
    errs = []
    if rec <= alpha + TOL_ZERO - SCAN:
        errs.append("eval-gauge: root branch although the recession test holds")
    bsh = offsets - offsets.max() - 1.0
    resid = abs(float(np.max(slopes @ x + v * bsh)) - alpha)
    if resid > TOL_GAUGE * _rel(alpha):
        errs.append(f"eval-gauge: defining equation residual {resid:.3g}")
    if abs(out["residual"] - resid) > TOL_GAUGE * _rel(alpha):
        errs.append(f"eval-gauge: reported residual {out['residual']!r} != {resid!r}")
    return errs


def check_gen(p: dict, out: dict) -> List[str]:
    """Shapes follow the requested dims and every number lies in [-2, 2]."""
    g, dims, inst = out["generated"], p["dims"], p["instance"]
    errs = []

    def rows(m, n_rows, width, what):
        a = np.array(m, dtype=float)
        if a.ndim != 2 or a.shape[0] != n_rows or (width is not None and a.shape[1] != width):
            errs.append(f"gen: {what} has shape {a.shape}")
            return a
        if np.any(np.abs(a) > 2.0):
            errs.append(f"gen: {what} leaves [-2, 2]")
        return a

    if inst == "max_affine":
        rows([q["a"] + [q["b"]] for q in g["pieces"]], dims["p"], dims["d"] + 1, "pieces")
    elif inst == "polytope":
        rows(g["vertices"], dims["v"], dims["d"], "vertices")
    elif inst == "scored_set":
        rows([b + [s] for b, s in zip(g["points"], g["scores"])], dims["k"], dims["d"] + 1,
             "scored points")
        if len(g["scores"]) != dims["k"]:
            errs.append("gen: score count")
    elif inst == "hbl":
        if len(g["sublinears"]) != dims["n"] or len(g["tables"]) != dims["n"]:
            errs.append("gen: space count")
        for m, (s, t) in enumerate(zip(g["sublinears"], g["tables"])):
            P = np.array(s["pieces"], dtype=float)
            if not (1 <= P.shape[0] <= dims["p"] and 1 <= P.shape[1] <= dims["d"]):
                errs.append(f"gen: space {m} pieces shape {P.shape}")
            rows(t, dims["nz"], P.shape[1], f"table {m}")
    return errs


_CHECKS = {
    "solve-mok": check_mok,
    "solve-hbl": check_hbl,
    "min-convex": check_min_convex,
    "eval-gauge": check_gauge,
    "gen": check_gen,
}


def check(kind: str, payload: dict, out: dict) -> List[str]:
    """Errors in one output, judged from the problem alone."""
    if kind in ("synth-sun", "synth-affine", "synth-cahbl"):
        return check_synth(kind, payload, out)
    return _CHECKS[kind](payload, out)


def check_report(doc: str, report: Optional[str]) -> List[str]:
    """Errors in one CLI report: envelope, digest, status and certificate."""
    if report is None:
        return ["no report written"]
    d = json.loads(doc)
    r = json.loads(report)
    errs = []
    if r.get("version") != 1 or r.get("kind") != d["kind"]:
        errs.append(f"report envelope {r.get('version')!r}/{r.get('kind')!r}")
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    if r.get("input_sha256") != digest:
        errs.append("input_sha256 does not match the document")
    if r.get("status") != "ok":
        errs.append(f"status {r.get('status')!r}")
    if d["kind"] == "gen" and r["certificate"].get("seed") != d["seed"]:
        errs.append("gen: seed not echoed")
    return errs + check(d["kind"], d["payload"], r["certificate"])
