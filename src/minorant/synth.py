"""Affine-minorant synthesis from one minimum LP.

Given a max-affine convex f and a scored set B of (point, score) pairs whose
midpoint-recession condition holds, produce an affine A <= f whose scored
infimum over B equals that of f, together with a machine-checkable
certificate.  Specializations: supporting an arbitrary point exactly,
minorants tight over a finite set or polytope (score identically zero), and
the convex-affine Lagrange form with a composition map j and a scalar
payload k, affine or max-affine.

There is one synthesis path per kind of set.  Every finite form goes through
`_synth_finite`.  Every polytope form goes through `_synth_polytope`: a tight
minorant is the Lagrange form with j the identity and k = 0, and a scored
polytope the one with j the identity and k its affine score map.

The mechanism: every affine A <= f lies below a convex combination
sum_i theta_i (a_i, b_i) of f's pieces, so the best scored infimum of A is a
max over theta on the simplex of a min over B.  By LP duality it is the
minimum, over the convex hull of B's keys, of a max-affine function, which
`_min_lp` computes with theta, its LP dual solution.  Over a finite set the keys are
the scored points, with f's offsets and the scores in the gains; over a
polytope they are the vertices, on f o j + k in one space, or two for q >= 2.  The gauge
weights mu = theta / (theta . (f(0) + 1 - b)) give the lifted map
(x, alpha) -> <Lam, x> - lam * alpha of the epigraph gauge, with
lam = sum mu in (0, 1] and A = Lam/lam - 1/lam + f(0) + 1.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    AffineMap,
    AffineTransform,
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidInput,
    LinearMap,
    MaxAffineFn,
    Polytope,
    ToleranceConfig,
    _as_point_rows,
    as_vector,
    subgradient_max_affine,
)
from .lp import LpError, solve_lp
from .scan import MidpointReport, midpoint_scan

__all__ = [
    "FiniteScoredSet",
    "LiftedPolytope",
    "ScoredSet",
    "LiftedLinear",
    "DominationReport",
    "SynthCertificate",
    "ConditionViolated",
    "check_scored_midpoint",
    "synth_affine_from_scored_set",
    "support_at_point",
    "synth_tight_minorant",
    "min_convex_over_polytope",
    "synth_composed_minorant",
]


class ConditionViolated(RuntimeError):
    """A finite input set fails its midpoint-recession hypothesis."""

    def __init__(self, report: MidpointReport):
        super().__init__(f"midpoint-recession condition violated: {report.violation}")
        self.report = report


@dataclass(frozen=True)
class FiniteScoredSet:
    """Finitely many (point, score) pairs."""

    points: np.ndarray  # (k, d)
    scores: np.ndarray  # (k,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        sc = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if pts.shape[0] != sc.size or pts.shape[0] < 1:
            raise InvalidInput("points/scores shape mismatch or empty set")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(sc))):
            raise InvalidInput("scored set has non-finite entries")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "scores", sc)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class LiftedPolytope:
    """A polytope with an affine score map x -> <score_lin, x> + score_off."""

    polytope: Polytope
    score_lin: np.ndarray
    score_off: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "score_lin", as_vector(self.score_lin, self.polytope.dim))
        object.__setattr__(self, "score_off", float(self.score_off))

    @property
    def dim(self) -> int:
        return self.polytope.dim


ScoredSet = Union[FiniteScoredSet, LiftedPolytope]


@dataclass(frozen=True)
class LiftedLinear:
    """The pair (Lam, lam) encoding the lifted map (x, a) -> Lam(x) - lam*a."""

    Lam: LinearMap
    lam: float


@dataclass(frozen=True)
class DominationReport:
    """Exact residuals of A <= f from theta = mu / lam on the simplex: for
    every x, f(x) - A(x) >= worst_deficit - slope_residual * ||x||_1."""

    worst_deficit: float   # theta . offsets - c; negative means a violation
    slope_residual: float  # ||slopes^T theta - w||_inf


@dataclass(frozen=True)
class SynthCertificate:
    affine: AffineMap
    lifted: LiftedLinear
    weights: np.ndarray              # mu over the pieces of f
    delta: float                     # scored infimum of f over B
    lhs: float                       # scored infimum of A over B
    rhs: float                       # equals delta; not in the CLI report
    gap: float                       # lhs - rhs
    t_star: float                    # LP level; >= 1 - tol_lp when exact
    domination: DominationReport
    condition: MidpointReport
    approximate: bool = False        # always False; not in the CLI report
    fallback: Optional[str] = None   # always None; not in the CLI report

    def within(self, tol: ToleranceConfig) -> bool:
        """The two scored infima agree, the LP level reached 1, the
        multiplier is above `lambda_min` and both residuals of A <= f are
        small, each within `tol`."""
        return (
            abs(self.gap) <= tol.tol_gap
            and self.t_star >= 1.0 - tol.tol_lp
            and self.lifted.lam > tol.lambda_min
            and self.domination.worst_deficit >= -tol.tol_dom
            and self.domination.slope_residual <= tol.tol_dom
        )


def _auto_report() -> MidpointReport:
    # Convex sets satisfy the hypothesis with the literal midpoint; there is
    # nothing finite to enumerate.
    return MidpointReport(True, {}, None)


def check_scored_midpoint(
    F: MaxAffineFn,
    B: FiniteScoredSet,
    tol: float = DEFAULT_TOL.tol_mid,
) -> MidpointReport:
    """For each pair in B, seek (b, beta) whose recession value
    max_i <a_i, b - (b1+b2)/2> plus the matching score offset is <= tol.

    This is the exact max-affine reduction of the ray-quantified hypothesis:
    equality already holds at ray parameter 0, so only the asymptotic slope
    can break it.
    """
    if B.dim != F.dim:
        raise DimensionMismatch(f"the scored set is {B.dim}-d but f is {F.dim}-d")
    return midpoint_scan([B.points @ F.slopes.T], B.scores, tol)


def _min_lp_shape(keys: int, pieces: int, spaces: int = 1) -> Tuple[int, int, int]:
    """The one shape rule of the minimum LP over `keys` keys and `pieces`
    pieces in `spaces` spaces: its (inequality rows, equality rows,
    variables) on the side with fewer rows.  The piece side has one row per
    piece and the simplex row over the keys' weights and two level variables
    per space; the key side one row per key and one simplex row per space
    over the pieces' weights and the level."""
    if pieces + 1 <= keys + spaces:
        return pieces, 1, keys + 2 * spaces
    return keys, spaces, pieces + 1


def _min_lp(gains: Sequence[np.ndarray],
            offsets: Optional[np.ndarray] = None) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The one LP of every form: the minimum over nu on the keys' simplex of
    sum_m max_i ((G_m^T nu)_i + c_i), for one (keys, pieces) gain table G_m
    per space and the offsets c of all pieces (zero by default).  Returns
    nu and each space's weights rho_m on the simplex of its pieces.

    It is built on its piece side or its key side, whichever has fewer rows
    (`_min_lp_shape`).  On the piece side each space has a free level
    t_m = t_m+ - t_m- and one row G_m^T nu - t_m <= -c_i per piece; nu is
    the solution and rho the row duals, and only the simplex row needs an
    artificial column when c >= 0.  The key side is its LP dual: each space's
    gains are shifted by their least entry, which moves the minimum by a
    constant since the weights sum to 1, so a level s >= 0 meets one row
    s - sum_m (G_m rho_m)_key <= 0 per key, and each space's weights sum to
    1 in an equality row; rho is the solution, nu the key rows' duals, and
    the objective c . rho + s.  By LP duality both give the same minimum:
    the least key value of sum_m sum_i rho_mi (G_m + c)_i."""
    k = gains[0].shape[0]
    ends = list(itertools.accumulate(G.shape[1] for G in gains))
    spaces = [slice(end - G.shape[1], end) for G, end in zip(gains, ends)]
    npieces = ends[-1]
    if offsets is None:
        offsets = np.zeros(npieces)
    n_ub, n_eq, nv = _min_lp_shape(k, npieces, len(gains))
    piece_rows = n_ub + n_eq == npieces + 1   # a row per piece and the simplex row
    if piece_rows:
        c = np.zeros(nv)
        c[k::2] = -1.0
        c[k + 1::2] = 1.0
        A_eq = np.zeros((n_eq, nv))
        A_eq[0, :k] = 1.0
        A_ub = np.zeros((n_ub, nv))
        for m, (G, rows) in enumerate(zip(gains, spaces)):
            A_ub[rows, :k] = G.T
            A_ub[rows, k + 2 * m] = -1.0
            A_ub[rows, k + 2 * m + 1] = 1.0
        sol = solve_lp(c, A_ub, -offsets, A_eq, np.array([1.0]))
    else:
        A_ub = np.ones((n_ub, nv))
        A_eq = np.zeros((n_eq, nv))
        for m, (G, rows) in enumerate(zip(gains, spaces)):
            A_ub[:, rows] = G.min() - G
            A_eq[m, rows] = 1.0
        sol = solve_lp(np.append(offsets, 1.0), A_ub, np.zeros(k), A_eq, np.ones(n_eq))
    if not sol.is_optimal:
        raise LpError(f"minimum LP status {sol.status}")
    duals = sol.duals[:npieces if piece_rows else k]
    duals = np.where(duals < 0.0, 0.0, duals)
    nu, rho = (sol.x[:k], duals) if piece_rows else (duals, sol.x[:npieces])
    return nu, [rho[rows] for rows in spaces]


def _polytope_min(Fs: Sequence[MaxAffineFn], V: np.ndarray) -> Tuple[np.ndarray, float, list]:
    """The minimizer over conv(V) of a sum of max-affine functions, one per
    space, the sum's value there and each space's row duals: the minimum LP
    with the vertices as keys and the pieces' offsets.  On either side it
    gives the weights nu of the vertices, so the minimizer is V^T nu."""
    nu, rho = _min_lp([V @ F.slopes.T for F in Fs], np.concatenate([F.offsets for F in Fs]))
    x_star = V.T @ nu
    return x_star, float(functools.reduce(np.add, [F(x_star) for F in Fs])), rho


def min_convex_over_polytope(F: MaxAffineFn, vertices: np.ndarray) -> Tuple[np.ndarray, float]:
    """Exact LP minimum of a max-affine function over conv(vertices): the
    minimizer and f's value there."""
    V = np.asarray(vertices, dtype=np.float64)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    if V.shape[0] < 1:
        raise InvalidInput("vertex list must be nonempty")
    x_star, value, _ = _polytope_min([F], V)
    return x_star, value


def _domination_report(F: MaxAffineFn, A: AffineMap, theta: np.ndarray) -> DominationReport:
    """Residuals of A <= f from the convex combination theta of f's pieces."""
    return DominationReport(float(F.offsets @ theta - A.c),
                            float(np.max(np.abs(F.slopes.T @ theta - A.w))))


def _level_rows(F: MaxAffineFn, points: np.ndarray, scores: np.ndarray,
                delta: float) -> np.ndarray:
    """Coefficients of mu in the lifted level <Lam, b> - lam * eta_b at each
    constraint point b, eta_b = delta - score_b - f(0) - 1."""
    eta = delta - scores - F.value_at_origin() - 1.0
    return points @ F.slopes.T - eta[:, None]


def _certificate(
    F: MaxAffineFn,
    theta: np.ndarray,
    points: np.ndarray,
    scores: np.ndarray,
    delta: float,
    condition: MidpointReport,
    payload: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> SynthCertificate:
    """The certificate of weights theta on the simplex of f's pieces, the
    dual solution of the minimum LP.

    The gauge weights mu = theta / (theta . (f(0) + 1 - b)) make the gauge
    row tight, so lam = sum mu lies in (0, 1]; the lifted map is
    (Lam, lam) = (slopes^T mu, sum mu) and A = Lam/lam - 1/lam + f(0) + 1.
    t_star is the least lifted level that mu reaches over the constraint
    points; a payload (rows, pi) adds, per point, the payload's share beyond
    its score, the rows weighted by pi scaled alike."""
    scale = 1.0 / (theta @ (F.value_at_origin() + 1.0 - F.offsets))
    mu = scale * theta
    levels = _level_rows(F, points, scores, delta) @ mu
    if payload is not None:
        rows, pi = payload
        levels = levels + rows @ (scale * pi)
    lifted = LiftedLinear(LinearMap(F.slopes.T @ mu), float(np.sum(mu)))
    lam = lifted.lam
    A = AffineMap(lifted.Lam.w / lam, -1.0 / lam + F.value_at_origin() + 1.0)

    lhs = float(np.min(points @ A.w + A.c + scores))
    return SynthCertificate(
        affine=A,
        lifted=lifted,
        weights=mu,
        delta=delta,
        lhs=lhs,
        rhs=delta,
        gap=lhs - delta,
        t_star=float(np.min(levels)),
        domination=_domination_report(F, A, mu / lam),
        condition=condition,
    )


def synth_affine_from_scored_set(
    F: MaxAffineFn,
    B: ScoredSet,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SynthCertificate:
    """Core pipeline: affine A <= f with matching scored infima over B.

    A finite B is scanned for the midpoint-recession condition first, and a
    violation raises `ConditionViolated`; when it holds, the LP level
    reaches 1 and the two scored infima agree within tolerance.
    """
    if isinstance(B, FiniteScoredSet):
        return _synth_finite(F, B, tol)
    return _synth_polytope(F, B.polytope, AffineTransform.identity(B.dim),
                           AffineMap(B.score_lin, B.score_off))


def _synth_finite(F: MaxAffineFn, B: FiniteScoredSet, tol: ToleranceConfig) -> SynthCertificate:
    """Every finite form: scan B once and raise if the condition fails, else
    read the weights from the minimum LP over the scored points, with f's
    offsets and the scores folded into the gains
    G[b, i] = <a_i, b> + b_i + score_b.  delta is the least scored value of
    f over B."""
    condition = check_scored_midpoint(F, B, tol.tol_mid)
    if not condition.satisfied:
        raise ConditionViolated(condition)
    pieces = B.points @ F.slopes.T + F.offsets    # f's pieces at each point
    _, (theta,) = _min_lp([pieces + B.scores[:, None]])
    delta = float(np.min(pieces.max(axis=1) + B.scores))
    return _certificate(F, theta, B.points, B.scores, delta, condition)


def support_at_point(F: MaxAffineFn, x) -> AffineMap:
    """Affine A <= f with A(x) = f(x), by the lowest-index subgradient."""
    x = as_vector(x, F.dim)
    g = subgradient_max_affine(F, x)
    return AffineMap(g, float(F(x) - g @ x))


def synth_tight_minorant(
    F: MaxAffineFn,
    Z: Union[List, Polytope],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SynthCertificate:
    """Affine A <= f with inf_Z A = inf_Z f.

    Finite Z must pass the midpoint-recession condition (score zero);
    polytopes satisfy it automatically via literal midpoints.
    """
    if isinstance(Z, Polytope):
        return _synth_polytope(F, Z, AffineTransform.identity(Z.dim),
                               AffineMap(np.zeros(Z.dim), 0.0))
    pts = _as_point_rows(Z, F.dim)
    return _synth_finite(F, FiniteScoredSet(pts, np.zeros(pts.shape[0])), tol)


def _composed_min(
    slopes: np.ndarray,
    offsets: np.ndarray,
    Z: Polytope,
    j: Union[np.ndarray, AffineTransform],
    k: Union[np.ndarray, AffineMap, MaxAffineFn],
) -> Tuple[np.ndarray, np.ndarray, MaxAffineFn, float, np.ndarray, np.ndarray]:
    """Every composed polytope form's one LP: the minimum delta over Z of
    z -> max_i(<a_i, j(z)> + b_i) + k(z), after checking that j is affine
    and k affine or max-affine on Z's space, in two spaces over the
    vertices: the p pieces of f o j + k_1 and, only when q >= 2, the q of
    max_l(k_l - k_1).

    Returns the minimizer x* = V^T nu, the images j(v) of the vertices, k
    as max-affine pieces (an affine k is one), delta = (f o j + k)(x*) and
    the spaces' row duals theta and pi (pi = [1] when q = 1).  By LP duality
    min_v [sum_i theta_i (<a_i, j(v)> + b_i) + sum_l pi_l k_l(v)] = delta."""
    if not isinstance(j, AffineTransform):
        raise InvalidInput("polytope form needs an affine composition map")
    if j.dim_in != Z.dim or j.dim_out != slopes.shape[1]:
        raise DimensionMismatch(
            f"the polytope is {Z.dim}-d and the function {slopes.shape[1]}-d, but the "
            f"composition map goes from {j.dim_in}-d to {j.dim_out}-d")
    if isinstance(k, AffineMap):
        k = MaxAffineFn(k.w.reshape(1, -1), [k.c])
    elif not isinstance(k, MaxAffineFn):
        raise InvalidInput("polytope form needs an affine or max-affine payload")
    if k.dim != Z.dim:
        raise DimensionMismatch(f"the payload is {k.dim}-d but the polytope {Z.dim}-d")
    spaces = [MaxAffineFn(slopes @ j.matrix + k.slopes[0],
                          slopes @ j.offset + offsets + k.offsets[0])]
    if k.npieces > 1:
        spaces.append(MaxAffineFn(k.slopes - k.slopes[0], k.offsets - k.offsets[0]))
    V = Z.vertices
    x_star, delta, rho = _polytope_min(spaces, V)
    pi = rho[1] if k.npieces > 1 else np.ones(1)
    return x_star, V @ j.matrix.T + j.offset, k, delta, rho[0], pi


def _synth_polytope(
    F: MaxAffineFn,
    Z: Polytope,
    j: AffineTransform,
    k: Union[AffineMap, MaxAffineFn],
) -> SynthCertificate:
    """Every polytope form from one LP, the minimum delta of f o j + k over Z
    (`_composed_min`).  A tight minorant is the case j = identity, k = 0, a
    scored polytope the case j = identity, k = its score map.

    A = sum_i theta_i (a_i, b_i) <= f is tight.  With q >= 2 pieces, lhs is
    A o j + k at the minimizer x* of f o j + k: at most delta, and at least
    min_v (A o j + sum_l pi_l k_l)(v), which is delta by LP duality."""
    x_star, pts, K, delta, theta, pi = _composed_min(F.slopes, F.offsets, Z, j, k)
    V = Z.vertices
    # Piece by piece, so an affine k gives exactly k.batch(V).
    KV = np.column_stack([V @ a + b for a, b in zip(K.slopes, K.offsets)])
    # The payload's share of a row beyond k_1(v), which the level rows hold.
    cert = _certificate(F, theta, pts, KV[:, 0], delta, _auto_report(),
                        (KV[:, 1:] - KV[:, :1], pi[1:]))
    if K.npieces == 1:
        return cert
    lhs = cert.affine(j(x_star)) + K(x_star)
    return dataclasses.replace(cert, lhs=lhs, gap=lhs - delta)


def synth_composed_minorant(
    F: MaxAffineFn,
    j: Union[np.ndarray, AffineTransform],
    k: Union[np.ndarray, AffineMap, MaxAffineFn],
    Z: Union[int, Polytope],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SynthCertificate:
    """Affine A <= f with inf_Z [A o j + k] = inf_Z [f o j + k].

    Finite form: Z is the table length, j an (n, d) value table, k an (n,)
    value table; the midpoint-recession condition is checked on the scored
    pairs.  Polytope form: j affine and k affine or max-affine (see
    `_synth_polytope`).
    """
    if isinstance(Z, Polytope):
        return _synth_polytope(F, Z, j, k)
    j_table = np.asarray(j, dtype=np.float64)
    if j_table.ndim != 2 or j_table.shape[1] != F.dim:
        raise DimensionMismatch(f"the j table has shape {j_table.shape} but f is {F.dim}-d")
    k_table = np.asarray(k, dtype=np.float64).reshape(-1)
    return _synth_finite(F, FiniteScoredSet(j_table, k_table), tol)
