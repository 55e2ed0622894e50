"""Affine-minorant synthesis pipelines.

Given a max-affine convex f and a scored set B of (point, score) pairs whose
midpoint-recession condition holds, produce an affine A <= f whose scored
infimum over B equals that of f, together with a machine-checkable
certificate.  Specializations: supporting an arbitrary point exactly,
minorants tight over a finite set or polytope (score identically zero), and
the convex-affine Lagrange form with a composition map j and a scalar
payload k.

The mechanism: the linear maps (x, alpha) -> <Lam, x> - lam * alpha that are
dominated by the epigraph gauge of the shifted f are exactly the projections
of {mu >= 0 : sum_i mu_i * (-bshift_i) <= 1} under Lam = sum_i mu_i a_i,
lam = sum_i mu_i.  Maximizing the lifted level over the induced point set
yields lam > 0 and A = Lam/lam - 1/lam + f(0) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .core import (
    AffineMap,
    AffineTransform,
    DEFAULT_TOL,
    InvalidInput,
    LinearMap,
    MaxAffineFn,
    Polytope,
    ShiftedFn,
    ToleranceConfig,
    as_vector,
    subgradient_max_affine,
)
from .gauge import shift
from .lp import LpError, solve_lp
from .rng import SplitMix64
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
    "build_gauge_support_lp",
    "SupportSystem",
    "min_over_scored_set",
    "check_scored_midpoint",
    "synth_affine_from_scored_set",
    "support_at_point",
    "synth_tight_minorant",
    "min_convex_over_polytope",
    "synth_composed_minorant",
    "DOMINATION_SAMPLES",
    "GRID_RESOLUTION",
]

DOMINATION_SAMPLES = 10_000
DOMINATION_BOX = 10.0       # domination samples drawn uniformly from [-10, 10]^d
GRID_RESOLUTION = 256       # barycentric grid steps for the approximate path
_GRID_POINT_CAP = 500_000   # coarsen rather than enumerate beyond this


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

    def vertex_scores(self) -> np.ndarray:
        return self.polytope.vertices @ self.score_lin + self.score_off


ScoredSet = Union[FiniteScoredSet, LiftedPolytope]


@dataclass(frozen=True)
class LiftedLinear:
    """The pair (Lam, lam) encoding the lifted map (x, a) -> Lam(x) - lam*a."""

    Lam: LinearMap
    lam: float


@dataclass(frozen=True)
class DominationReport:
    """Worst sampled deficit of f - A (negative means a violation)."""

    worst_deficit: float
    witness: np.ndarray
    samples: int
    seed: int


@dataclass(frozen=True)
class SynthCertificate:
    affine: AffineMap
    lifted: LiftedLinear
    weights: np.ndarray              # mu over the pieces of f
    delta: float                     # scored infimum of f over B
    lhs: float                       # scored infimum of A over B
    rhs: float                       # equals delta
    gap: float                       # lhs - rhs
    t_star: float                    # LP level; >= 1 - tol_lp when exact
    domination: DominationReport
    condition: MidpointReport
    approximate: bool = False
    fallback: Optional[str] = None   # always None; kept in the report format

    def within(self, tol: ToleranceConfig) -> bool:
        """The two scored infima agree, the LP level reached 1, the
        multiplier is positive and no sampled point has A above f, each
        within `tol`."""
        return (
            abs(self.gap) <= tol.tol_gap
            and self.t_star >= 1.0 - tol.tol_lp
            and self.lifted.lam > tol.lambda_min
            and self.domination.worst_deficit >= -tol.tol_dom
        )


@dataclass(frozen=True)
class SupportSystem:
    """Feasible region {mu >= 0 : <neg_shifted_offsets, mu> <= 1} whose
    projections Lam = slopes.T @ mu, lam = sum(mu) are the lifted linear maps
    dominated by the epigraph gauge."""

    slopes: np.ndarray             # (p, d)
    neg_shifted_offsets: np.ndarray  # (p,), each >= 1

    def project(self, mu: np.ndarray) -> LiftedLinear:
        mu = np.asarray(mu, dtype=np.float64).reshape(-1)
        return LiftedLinear(LinearMap(self.slopes.T @ mu), float(np.sum(mu)))


def build_gauge_support_lp(Fsh: ShiftedFn) -> SupportSystem:
    """Constraint system parameterizing the gauge's dominated lifted maps."""
    return SupportSystem(Fsh.slopes.copy(), -Fsh.offsets.copy())


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
    return midpoint_scan([B.points @ F.slopes.T], B.scores, tol)


def min_convex_over_polytope(F: MaxAffineFn, vertices: np.ndarray) -> Tuple[np.ndarray, float]:
    """Exact LP minimum of a max-affine function over conv(vertices)."""
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
    return x_star, float(F(x_star))


def min_over_scored_set(F: MaxAffineFn, B: ScoredSet) -> Tuple[float, np.ndarray]:
    """Scored infimum of f over B with a minimizing witness.  It is always
    finite: B is a finite set or a bounded polytope."""
    if isinstance(B, FiniteScoredSet):
        vals = F.batch(B.points) + B.scores
        i = int(np.argmin(vals))
        delta = float(vals[i])
        witness = B.points[i]
    else:
        composed = MaxAffineFn(F.slopes + B.score_lin, F.offsets + B.score_off)
        x_star, _ = min_convex_over_polytope(composed, B.polytope.vertices)
        delta = float(composed(x_star))
        witness = x_star
    return delta, witness


def _domination_report(F: MaxAffineFn, A: AffineMap, seed: int = 20240817) -> DominationReport:
    """Sampled defense check of A <= f on a fixed box."""
    rng = SplitMix64(seed)
    X = rng.uniform_matrix(DOMINATION_SAMPLES, F.dim, -DOMINATION_BOX, DOMINATION_BOX)
    deficits = F.batch(X) - A.batch(X)
    i = int(np.argmin(deficits))
    return DominationReport(float(deficits[i]), X[i].copy(), DOMINATION_SAMPLES, seed)


def _synth_pipeline(
    F: MaxAffineFn,
    constraint_points: np.ndarray,
    constraint_scores: np.ndarray,
    delta: float,
    condition: MidpointReport,
    lhs_points: np.ndarray,
    lhs_scores: np.ndarray,
    tol: ToleranceConfig,
    approximate: bool = False,
) -> SynthCertificate:
    """Shared LP core: maximize the lifted level over the gauge support set
    subject to one row per constraint pair."""
    f0 = F.value_at_origin()
    system = build_gauge_support_lp(shift(F))
    p = F.npieces
    eta = delta - constraint_scores - f0 - 1.0
    # Row coefficients of mu_i in <Lam, b> - lam * eta_b: <a_i, b> - eta_b.
    coeff = constraint_points @ F.slopes.T - eta[:, None]

    nv = p + 2  # mu_1..mu_p, t_plus, t_minus
    c = np.zeros(nv)
    c[p] = 1.0
    c[p + 1] = -1.0
    n_rows = coeff.shape[0] + 1
    A_ub = np.zeros((n_rows, nv))
    b_ub = np.zeros(n_rows)
    A_ub[0, :p] = system.neg_shifted_offsets
    b_ub[0] = 1.0
    A_ub[1:, :p] = -coeff
    A_ub[1:, p] = 1.0
    A_ub[1:, p + 1] = -1.0

    sol = solve_lp(c, A_ub, b_ub)
    if not sol.is_optimal:
        raise LpError(f"synthesis LP status {sol.status}")
    mu = sol.x[:p].copy()
    mu[mu < 0.0] = 0.0
    lifted = system.project(mu)
    lam = lifted.lam
    if lam <= tol.lambda_min:
        raise DegenerateLambda(f"vertical multiplier {lam} <= {tol.lambda_min}")
    w = lifted.Lam.w / lam
    A = AffineMap(w, -1.0 / lam + f0 + 1.0)

    lhs = float(np.min(lhs_points @ A.w + A.c + lhs_scores))
    return SynthCertificate(
        affine=A,
        lifted=lifted,
        weights=mu,
        delta=delta,
        lhs=lhs,
        rhs=delta,
        gap=lhs - delta,
        t_star=float(sol.value),
        domination=_domination_report(F, A),
        condition=condition,
        approximate=approximate,
    )


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
        condition = check_scored_midpoint(F, B, tol.tol_mid)
    else:
        condition = _auto_report()
    return _synth_scored(F, B, condition, tol)


def _synth_scored(
    F: MaxAffineFn,
    B: ScoredSet,
    condition: MidpointReport,
    tol: ToleranceConfig,
) -> SynthCertificate:
    """synth_affine_from_scored_set with the midpoint report already made."""
    delta, _ = min_over_scored_set(F, B)
    if isinstance(B, FiniteScoredSet):
        pts, sc = B.points, B.scores
    else:
        pts, sc = B.polytope.vertices, B.vertex_scores()
    return _synth_pipeline(F, pts, sc, delta, condition, pts, sc, tol)


def _synth_finite(F: MaxAffineFn, B: FiniteScoredSet, tol: ToleranceConfig) -> SynthCertificate:
    """Scan a finite scored set once; raise if the condition fails, else
    synthesize with that report."""
    condition = check_scored_midpoint(F, B, tol.tol_mid)
    if not condition.satisfied:
        raise ConditionViolated(condition)
    return _synth_scored(F, B, condition, tol)


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
        return synth_affine_from_scored_set(F, LiftedPolytope(Z, np.zeros(Z.dim), 0.0), tol)
    pts = np.vstack([as_vector(z, F.dim) for z in Z])
    return _synth_finite(F, FiniteScoredSet(pts, np.zeros(pts.shape[0])), tol)


def _barycentric_grid(nparts: int, steps: int) -> np.ndarray:
    """All weight vectors with entries i/steps summing to 1 (rows)."""
    if nparts == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], steps, nparts)
    return np.asarray(out, dtype=np.float64) / steps


def _grid_points(poly: Polytope, resolution: int) -> np.ndarray:
    """Barycentric grid sample of a polytope, coarsened if the vertex count
    would make the full grid explode."""
    k = poly.nvertices
    steps = resolution
    while steps > 1:
        count = 1
        # Number of compositions of `steps` into k nonnegative parts.
        from math import comb

        count = comb(steps + k - 1, k - 1)
        if count <= _GRID_POINT_CAP:
            break
        steps //= 2
    W = _barycentric_grid(k, steps)
    return W @ poly.vertices


def synth_composed_minorant(
    F: MaxAffineFn,
    j: Union[np.ndarray, AffineTransform],
    k: Union[np.ndarray, AffineMap, MaxAffineFn],
    Z: Union[int, Polytope],
    tol: ToleranceConfig = DEFAULT_TOL,
    grid_resolution: int = GRID_RESOLUTION,
) -> SynthCertificate:
    """Affine A <= f with inf_Z [A o j + k] = inf_Z [f o j + k].

    Finite form: Z is the table length, j an (n, d) value table, k an (n,)
    value table; the midpoint-recession condition is checked on the scored
    pairs.  Polytope form: j affine and k affine give an exact vertex
    reduction; a max-affine non-affine k is handled by barycentric grid
    discretization and the certificate is marked approximate.
    """
    if isinstance(Z, Polytope):
        if not isinstance(j, AffineTransform):
            raise InvalidInput("polytope form needs an affine composition map")
        if j.dim_in != Z.dim or j.dim_out != F.dim:
            raise InvalidInput("composition map dimensions do not match")
        if isinstance(k, AffineMap):
            if k.dim != Z.dim:
                raise InvalidInput("payload dimension does not match the polytope")
            # Exact: everything is affine in z, so vertices carry the LP.
            V = Z.vertices
            pts = V @ j.matrix.T + j.offset
            sc = k.batch(V)
            composed = MaxAffineFn(
                F.slopes @ j.matrix + k.w,
                F.slopes @ j.offset + F.offsets + k.c,
            )
            z_star, _ = min_convex_over_polytope(composed, V)
            delta = float(composed(z_star))
            return _synth_pipeline(F, pts, sc, delta, _auto_report(), pts, sc, tol)
        if isinstance(k, MaxAffineFn):
            if k.dim != Z.dim:
                raise InvalidInput("payload dimension does not match the polytope")
            Zg = _grid_points(Z, grid_resolution)
            pts = Zg @ j.matrix.T + j.offset
            sc = k.batch(Zg)
            delta = float(np.min(F.batch(pts) + sc))
            return _synth_pipeline(
                F, pts, sc, delta, _auto_report(), pts, sc, tol, approximate=True
            )
        raise InvalidInput("polytope form needs an affine or max-affine payload")

    j_table = np.asarray(j, dtype=np.float64).reshape(-1, F.dim)
    k_table = np.asarray(k, dtype=np.float64).reshape(-1)
    return _synth_finite(F, FiniteScoredSet(j_table, k_table), tol)
