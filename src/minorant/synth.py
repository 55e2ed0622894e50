"""Affine-minorant synthesis pipelines.

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

The mechanism: the linear maps (x, alpha) -> <Lam, x> - lam * alpha that are
dominated by the epigraph gauge of the shifted f are exactly the projections
of {mu >= 0 : sum_i mu_i * (-bshift_i) <= 1} under Lam = sum_i mu_i a_i,
lam = sum_i mu_i.  Over a finite set, maximizing the lifted level over the
induced point set yields lam > 0 and A = Lam/lam - 1/lam + f(0) + 1.  Over a
polytope, the weights are the row duals of the LP that computes the scored
infimum, so that one LP gives both delta and A.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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
    "DegenerateLambda",
    "ConditionViolated",
    "check_scored_midpoint",
    "synth_affine_from_scored_set",
    "support_at_point",
    "synth_tight_minorant",
    "min_convex_over_polytope",
    "synth_composed_minorant",
]


class DegenerateLambda(RuntimeError):
    """The vertical multiplier came out <= lambda_min.  The underlying
    theory guarantees a strictly positive multiplier, so this is a numerical
    failure, never silently accepted."""


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
        multiplier is positive and both residuals of A <= f are small, each
        within `tol`."""
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


def _min_lp(F: MaxAffineFn, vertices: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
    """Exact LP minimum of a max-affine function over conv(vertices): the
    minimizer, f's value there and the row duals rho of f's pieces.

    The LP is min t over nu on the simplex with t >= <a_i, V^T nu> + b_i for
    every piece.  By LP duality rho >= 0 sums to 1 and
    min_v sum_i rho_i (<a_i, v> + b_i) is the same minimum, so rho are the
    weights of an affine minorant of f that is tight over the polytope."""
    V = np.asarray(vertices, dtype=np.float64)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    if V.shape[0] < 1:
        raise InvalidInput("vertex list must be nonempty")
    k = V.shape[0]
    p = F.npieces
    G = V @ F.slopes.T            # G[j, i] = <a_i, v_j>

    # Variables: nu_1..nu_k (simplex), t_plus, t_minus; minimize t.
    nv = k + 2
    c = np.zeros(nv)
    c[k] = -1.0
    c[k + 1] = 1.0
    A_eq = np.zeros((1, nv))
    A_eq[0, :k] = 1.0
    b_eq = np.array([1.0])
    A_ub = np.zeros((p, nv))
    A_ub[:, :k] = G.T
    A_ub[:, k] = -1.0
    A_ub[:, k + 1] = 1.0
    b_ub = -F.offsets

    sol = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    if not sol.is_optimal:
        raise LpError(f"polytope minimization LP status {sol.status}")
    nu = sol.x[:k]
    x_star = V.T @ nu
    rho = sol.duals[:p].copy()
    rho[rho < 0.0] = 0.0
    return x_star, float(F(x_star)), rho


def min_convex_over_polytope(F: MaxAffineFn, vertices: np.ndarray) -> Tuple[np.ndarray, float]:
    """Exact LP minimum of a max-affine function over conv(vertices): the
    minimizer and f's value there."""
    x_star, value, _ = _min_lp(F, vertices)
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
    mu: np.ndarray,
    points: np.ndarray,
    scores: np.ndarray,
    delta: float,
    t_star: float,
    condition: MidpointReport,
    tol: ToleranceConfig,
) -> SynthCertificate:
    """The certificate of gauge weights mu >= 0: the lifted map
    (Lam, lam) = (slopes^T mu, sum mu), A = Lam/lam - 1/lam + f(0) + 1, and
    the scored infimum of A over the constraint points."""
    lifted = LiftedLinear(LinearMap(F.slopes.T @ mu), float(np.sum(mu)))
    lam = lifted.lam
    if lam <= tol.lambda_min:
        raise DegenerateLambda(f"vertical multiplier {lam} <= {tol.lambda_min}")
    w = lifted.Lam.w / lam
    A = AffineMap(w, -1.0 / lam + F.value_at_origin() + 1.0)

    lhs = float(np.min(points @ A.w + A.c + scores))
    return SynthCertificate(
        affine=A,
        lifted=lifted,
        weights=mu,
        delta=delta,
        lhs=lhs,
        rhs=delta,
        gap=lhs - delta,
        t_star=t_star,
        domination=_domination_report(F, A, mu / lam),
        condition=condition,
    )


def _synth_pipeline(
    F: MaxAffineFn,
    points: np.ndarray,
    scores: np.ndarray,
    delta: float,
    condition: MidpointReport,
    tol: ToleranceConfig,
) -> SynthCertificate:
    """The synthesis LP of a finite scored set: maximize the lifted level
    over the gauge support set {mu >= 0 : sum_i mu_i * (-bshift_i) <= 1},
    bshift = b - f(0) - 1, subject to one row per constraint point."""
    f0 = F.value_at_origin()
    p = F.npieces
    coeff = _level_rows(F, points, scores, delta)

    n = coeff.shape[0]
    nv = p + 2  # mu_1..mu_p, t_plus, t_minus
    c = np.zeros(nv)
    c[p] = 1.0
    c[p + 1] = -1.0
    A_ub = np.zeros((n + 1, nv))
    b_ub = np.zeros(n + 1)
    A_ub[0, :p] = -(F.offsets - f0 - 1.0)
    b_ub[0] = 1.0
    A_ub[1:, :p] = -coeff
    A_ub[1:, p] = 1.0
    A_ub[1:, p + 1] = -1.0

    sol = solve_lp(c, A_ub, b_ub)
    if not sol.is_optimal:
        raise LpError(f"synthesis LP status {sol.status}")
    mu = sol.x[:p].copy()
    mu[mu < 0.0] = 0.0
    return _certificate(F, mu, points, scores, delta, float(sol.value), condition, tol)


def synth_affine_from_scored_set(
    F: MaxAffineFn,
    B: ScoredSet,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SynthCertificate:
    """Core pipeline: affine A <= f with matching scored infima over B.

    The midpoint-recession condition is checked and recorded in the
    certificate; when it holds, the LP level reaches 1 and the two scored
    infima agree within tolerance.
    """
    if isinstance(B, FiniteScoredSet):
        return _synth_finite(F, B, check_scored_midpoint(F, B, tol.tol_mid), tol)
    return _synth_polytope(F, B.polytope, AffineTransform.identity(B.dim),
                           AffineMap(B.score_lin, B.score_off), tol)


def _synth_finite(
    F: MaxAffineFn,
    B: FiniteScoredSet,
    condition: MidpointReport,
    tol: ToleranceConfig,
) -> SynthCertificate:
    """The synthesis LP over a finite scored set whose midpoint report is
    already made; delta is the least scored value of f over B."""
    delta = float(np.min(F.batch(B.points) + B.scores))
    return _synth_pipeline(F, B.points, B.scores, delta, condition, tol)


def _synth_finite_strict(F: MaxAffineFn, B: FiniteScoredSet,
                         tol: ToleranceConfig) -> SynthCertificate:
    """Scan a finite scored set once; raise if the condition fails, else
    synthesize with that report."""
    condition = check_scored_midpoint(F, B, tol.tol_mid)
    if not condition.satisfied:
        raise ConditionViolated(condition)
    return _synth_finite(F, B, condition, tol)


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
                               AffineMap(np.zeros(Z.dim), 0.0), tol)
    pts = np.vstack([as_vector(z, F.dim) for z in Z])
    return _synth_finite_strict(F, FiniteScoredSet(pts, np.zeros(pts.shape[0])), tol)


def _composed_polytope(
    Z: Polytope,
    j: Union[np.ndarray, AffineTransform],
    k: Union[np.ndarray, AffineMap, MaxAffineFn],
    dim_out: int,
) -> Tuple[np.ndarray, MaxAffineFn]:
    """Check a composed polytope form and return the images j(v) of the
    vertices and the payload as max-affine pieces (an affine k is one)."""
    if not isinstance(j, AffineTransform):
        raise InvalidInput("polytope form needs an affine composition map")
    if j.dim_in != Z.dim or j.dim_out != dim_out:
        raise DimensionMismatch(
            f"the polytope is {Z.dim}-d and the function {dim_out}-d, but the "
            f"composition map goes from {j.dim_in}-d to {j.dim_out}-d")
    if isinstance(k, AffineMap):
        k = MaxAffineFn(k.w.reshape(1, -1), [k.c])
    elif not isinstance(k, MaxAffineFn):
        raise InvalidInput("polytope form needs an affine or max-affine payload")
    if k.dim != Z.dim:
        raise DimensionMismatch(f"the payload is {k.dim}-d but the polytope {Z.dim}-d")
    return Z.vertices @ j.matrix.T + j.offset, k


def _compose(slopes: np.ndarray, offsets: np.ndarray, j: AffineTransform,
             k: MaxAffineFn) -> MaxAffineFn:
    """The pieces of z -> max_i(<a_i, j(z)> + b_i) + k(z), one per pair of
    pieces (i, l) in row-major order."""
    return MaxAffineFn(
        ((slopes @ j.matrix)[:, None, :] + k.slopes).reshape(-1, k.dim),
        ((slopes @ j.offset + offsets)[:, None] + k.offsets).reshape(-1),
    )


def _synth_polytope(
    F: MaxAffineFn,
    Z: Polytope,
    j: AffineTransform,
    k: Union[AffineMap, MaxAffineFn],
    tol: ToleranceConfig,
) -> SynthCertificate:
    """Every polytope form from one LP, the minimum delta of f o j + k over Z
    on the p*q composed pieces.  A tight minorant is the case j = identity,
    k = 0, a scored polytope the case j = identity, k = its score map.

    The LP's row duals rho_il give theta_i = sum_l rho_il on f's pieces and
    pi_l = sum_i rho_il on k's, and by LP duality
    min_v [sum_i theta_i (<a_i, j(v)> + b_i) + sum_l pi_l k_l(v)] = delta over
    the vertices v: A = sum_i theta_i (a_i, b_i) <= f is tight.  The gauge
    weights mu = theta / (theta . (f(0) + 1 - b)) make the gauge row tight,
    so lam = sum mu lies in (0, 1], and t_star is the lifted level that mu,
    with pi scaled alike, reaches over the vertex rows.  With q >= 2
    pieces, A o j + k may be least inside Z, so lhs is the LP minimum over Z
    on its q pieces."""
    pts, K = _composed_polytope(Z, j, k, F.dim)
    V = Z.vertices
    # Piece by piece, so an affine k gives exactly k.batch(V).
    KV = np.column_stack([V @ a + b for a, b in zip(K.slopes, K.offsets)])
    _, delta, rho = _min_lp(_compose(F.slopes, F.offsets, j, K), V)
    rho = rho.reshape(F.npieces, K.npieces)
    theta = rho.sum(axis=1)
    scale = 1.0 / (theta @ (F.value_at_origin() + 1.0 - F.offsets))
    mu = scale * theta
    # The payload's share of a row beyond k_1(v), which the level rows hold.
    levels = (_level_rows(F, pts, KV[:, 0], delta) @ mu
              + (KV[:, 1:] - KV[:, :1]) @ (scale * rho.sum(axis=0)[1:]))
    cert = _certificate(F, mu, pts, KV[:, 0], delta, float(np.min(levels)),
                        _auto_report(), tol)
    if K.npieces == 1:
        return cert
    A = cert.affine
    _, lhs, _ = _min_lp(_compose(A.w[None], np.array([A.c]), j, K), V)
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
        return _synth_polytope(F, Z, j, k, tol)
    j_table = np.asarray(j, dtype=np.float64)
    if j_table.ndim != 2 or j_table.shape[1] != F.dim:
        raise DimensionMismatch(f"the j table has shape {j_table.shape} but f is {F.dim}-d")
    k_table = np.asarray(k, dtype=np.float64).reshape(-1)
    return _synth_finite_strict(F, FiniteScoredSet(j_table, k_table), tol)
