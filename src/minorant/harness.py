"""Seeded instance generators, independent brute-force oracles, and the
property-suite runner.

The oracles deliberately use different algorithms from the code they check
(grid scan instead of bisection or closed forms, barycentric or random
sampling instead of LPs or exact residuals) and share no kernels with it.

The generator PRNG is :class:`minorant.rng.SplitMix64`, re-exported here,
so instances are reproducible bit-exactly across platforms from
(kind, dims, seed) alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .core import (
    AffineMap,
    ConvexOracle,
    DEFAULT_TOL,
    InvalidInput,
    MaxAffineFn,
    PolyhedralSublinear,
    Polytope,
    ToleranceConfig,
)
from .gauge import eval_gauge, sublinearity_suite
from .hbl import HblInstance, solve_hbl_n
from .mok import solve_mok
from .rng import SplitMix64
from .synth import FiniteScoredSet, min_convex_over_polytope, synth_tight_minorant

__all__ = [
    "SplitMix64",
    "SuiteConfig",
    "SuiteReport",
    "ScanExhausted",
    "gen_instance",
    "gen_mok_satisfied",
    "gen_line_constrained_set",
    "gauge_oracle",
    "grid_min_oracle",
    "domination_oracle",
    "run_property_suite",
    "SUITE_NAMES",
]

COEFF_RANGE = 2.0  # generated coefficients are uniform in [-2, 2]
# The property suites cycle their instance sizes up to these bounds.
MAX_DIM = 4
MAX_PIECES = 6
MAX_VERTICES = 4


class ScanExhausted(RuntimeError):
    """The oracle's dyadic sweep reached 2^40 without sign information."""


def gen_instance(kind: str, dims: Dict[str, int], seed: int):
    """Deterministic instance generator.

    kinds: "max_affine" (d, p), "polytope" (d, v), "scored_set" (d, k),
    "hbl" (n, d, p, nz).
    """
    for key, val in dims.items():
        if int(val) < 1:
            raise InvalidInput(f"dimension cap {key}={val} must be >= 1")
    rng = SplitMix64(seed)
    R = COEFF_RANGE
    if kind == "max_affine":
        d, p = int(dims["d"]), int(dims["p"])
        return MaxAffineFn(rng.uniform_matrix(p, d, -R, R), rng.uniform_vector(p, -R, R))
    if kind == "polytope":
        d, v = int(dims["d"]), int(dims["v"])
        return Polytope(rng.uniform_matrix(v, d, -R, R))
    if kind == "scored_set":
        d, k = int(dims["d"]), int(dims["k"])
        return FiniteScoredSet(rng.uniform_matrix(k, d, -R, R), rng.uniform_vector(k, -R, R))
    if kind == "hbl":
        n, d, p, nz = int(dims["n"]), int(dims["d"]), int(dims["p"]), int(dims["nz"])
        subs = []
        tabs = []
        for _ in range(n):
            dm = rng.randint(1, d)
            pm = rng.randint(1, p)
            subs.append(PolyhedralSublinear(rng.uniform_matrix(pm, dm, -R, R)))
            tabs.append(rng.uniform_matrix(nz, dm, -R, R))
        return HblInstance(subs, tabs)
    raise InvalidInput(f"unknown instance kind: {kind!r}")


def _unit_direction(rng: SplitMix64, d: int) -> np.ndarray:
    """A uniform draw from [-1, 1]^d scaled to unit length; e_1 when the
    draw is within 1e-6 of the origin."""
    u = rng.uniform_vector(d, -1.0, 1.0)
    nrm = float(np.linalg.norm(u))
    if nrm < 1e-6:
        return np.eye(d)[0]
    return u / nrm


def gen_mok_satisfied(seed: int, d: int = 3, p: int = 4, npts: int = 5):
    """A sublinear functional and point set whose midpoint condition holds
    by construction: all pieces are tilted to be nonpositive along a slack
    direction u, and the points sit on a line through u, so the farthest
    point along u witnesses every pair."""
    rng = SplitMix64(seed)
    u = _unit_direction(rng, d)
    pieces = rng.uniform_matrix(p, d, -COEFF_RANGE, COEFF_RANGE)
    along = pieces @ u
    pieces = pieces - np.outer(np.maximum(along, 0.0), u)  # <l_i, u> <= 0
    S = PolyhedralSublinear(pieces)
    base = rng.uniform_vector(d, -COEFF_RANGE, COEFF_RANGE)
    ts = sorted(rng.uniform(-2.0, 2.0) for _ in range(npts))
    D = [base + t * u for t in ts]
    return S, D


def gen_line_constrained_set(seed: int, d: int = 3, p: int = 4, npts: int = 4):
    """A max-affine function constant along a direction u (slopes projected
    orthogonal to u) and a finite point set on a line along u, which then
    satisfies the midpoint-recession condition with zero scores."""
    rng = SplitMix64(seed)
    u = _unit_direction(rng, d)
    slopes = rng.uniform_matrix(p, d, -COEFF_RANGE, COEFF_RANGE)
    slopes = slopes - np.outer(slopes @ u, u)  # <a_i, u> = 0
    F = MaxAffineFn(slopes, rng.uniform_vector(p, -COEFF_RANGE, COEFF_RANGE))
    base = rng.uniform_vector(d, -COEFF_RANGE, COEFF_RANGE)
    Z = [base + rng.uniform(-2.0, 2.0) * u for _ in range(npts)]
    return F, Z


def _slice_value(F: Union[MaxAffineFn, ConvexOracle], x: np.ndarray, mu: float,
                 f0: float) -> float:
    # Independent realization of the perspective slice: evaluate f directly.
    return mu * (float(F(x / mu)) - f0 - 1.0)


def gauge_oracle(F: Union[MaxAffineFn, ConvexOracle], x, alpha: float) -> float:
    """Independent coarse-to-fine grid realization of the epigraph gauge.

    Sweep dyadic scales for the first one where the slice drops below alpha,
    then refine the bracketing interval on linear grids until the step is at
    most 1e-6.  Shares no code with the closed-form or bisection routes.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if isinstance(F, MaxAffineFn):
        f0 = F.value_at_origin()
    else:
        f0 = float(F(np.zeros(F.dim)))
    first_below = None
    for e in range(-40, 41):
        mu = float(2.0**e)
        if _slice_value(F, x, mu, f0) < alpha:
            first_below = e
            break
    if first_below is None:
        raise ScanExhausted("slice never dropped below the target up to 2^40")
    if first_below == -40:
        return 0.0  # infimum below the scan resolution
    lo = float(2.0 ** (first_below - 1))
    hi = float(2.0**first_below)
    step = (hi - lo) / 1024.0
    while True:
        grid = lo + step * np.arange(1, 1025)
        below = None
        for mu in grid:
            if _slice_value(F, x, float(mu), f0) < alpha:
                below = float(mu)
                break
        if below is None:
            # The crossing is at the right edge; keep the last cell.
            lo = hi - step
        else:
            lo = below - step
            hi = below
        if step <= 1e-6:
            return 0.5 * (lo + hi)
        step = (hi - lo) / 1024.0


def _barycentric_weights(nparts: int, steps: int) -> np.ndarray:
    """Vectorized composition enumeration: all nonnegative integer tuples
    summing to `steps`, scaled to the simplex."""
    if nparts == 1:
        return np.ones((1, 1))
    if nparts == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if nparts == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = (i + j) <= steps
        ii, jj = i[keep], j[keep]
        return np.column_stack([ii, jj, steps - ii - jj]) / steps
    # General case: recurse on the first coordinate (small sizes only).
    return _barycentric_weights_int(nparts, steps) / steps


def _barycentric_weights_int(nparts: int, steps: int) -> np.ndarray:
    if nparts == 1:
        return np.array([[steps]], dtype=np.float64)
    blocks = []
    for i in range(steps + 1):
        sub = _barycentric_weights_int(nparts - 1, steps - i)
        blocks.append(np.column_stack([np.full(sub.shape[0], i), sub]))
    return np.vstack(blocks)


def grid_min_oracle(F: MaxAffineFn, vertices: np.ndarray, resolution: float = 1e-3) -> float:
    """Minimum of f over a barycentric grid on conv(vertices).

    Always an upper bound on the true minimum, within a Lipschitz constant
    times the mesh of it.  `resolution` is the barycentric step (e.g. 1/1024).
    """
    V = np.asarray(vertices, dtype=np.float64)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    if V.shape[0] < 1:
        raise InvalidInput("vertex list must be nonempty")
    steps = max(1, int(round(1.0 / float(resolution))))
    W = _barycentric_weights(V.shape[0], steps)
    pts = W @ V
    best = np.inf
    for start in range(0, pts.shape[0], 200_000):
        chunk = pts[start:start + 200_000]
        best = min(best, float(np.min(F.batch(chunk))))
    return best


def domination_oracle(F: MaxAffineFn, A: AffineMap) -> Tuple[float, np.ndarray]:
    """Worst deficit f - A, and where it occurs, over 10,000 points of a fixed
    SplitMix64 stream (seed 20240817) uniform on [-10, 10]^d."""
    X = SplitMix64(20240817).uniform_matrix(10_000, F.dim, -10.0, 10.0)
    deficits = F.batch(X) - A.batch(X)
    i = int(np.argmin(deficits))
    return float(deficits[i]), X[i]


# ---------------------------------------------------------------------------
# Property-suite runner


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 20240817
    trials: Dict[str, int] = field(default_factory=dict)
    tol: ToleranceConfig = DEFAULT_TOL

    def ntrials(self, suite: str, default: int) -> int:
        n = int(self.trials.get(suite, default))
        if n < 1:
            raise InvalidInput(f"trial count for {suite} must be >= 1")
        return n


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failed: int
    worst: float
    detail: str
    elapsed: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failed": self.failed,
            "worst": self.worst,
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    config_seed: int
    results: List[SuiteResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.config_seed,
            "passed": self.all_passed,
            "suites": [r.to_json() for r in self.results],
        }


def _suite_gauge_closed_form(cfg: SuiteConfig, n: int) -> SuiteResult:
    F = MaxAffineFn(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    rng = SplitMix64(cfg.seed ^ 0x01)
    worst = 0.0
    failed = 0
    for _ in range(n):
        x = rng.uniform(-10.0, 10.0)
        a = rng.uniform(-10.0, 10.0)
        got = eval_gauge(F, [x], a, cfg.tol).value
        want = max(abs(x) - a, 0.0)
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-8:
            failed += 1
    return SuiteResult("gauge_closed_form", failed == 0, n, failed, worst,
                       "abs-value gauge vs max(|x|-a, 0)", 0.0)


def _suite_gauge_oracle(cfg: SuiteConfig, n: int) -> SuiteResult:
    worst = 0.0
    failed = 0
    checked = 0
    for t in range(n):
        F = gen_instance("max_affine",
                         {"d": 1 + t % MAX_DIM, "p": 2 + t % MAX_PIECES},
                         cfg.seed + 1000 + t)
        rng = SplitMix64(cfg.seed ^ (7000 + t))
        for _ in range(4):
            x = rng.uniform_vector(F.dim, -4.0, 4.0)
            a = rng.uniform(-4.0, 4.0)
            fast = eval_gauge(F, x, a, cfg.tol).value
            try:
                slow = gauge_oracle(F, x, a)
            except ScanExhausted:
                continue
            err = abs(fast - slow)
            checked += 1
            worst = max(worst, err)
            if err > 1e-5:
                failed += 1
    return SuiteResult("gauge_oracle_agreement", failed == 0, checked, failed,
                       worst, "closed form vs independent grid scan", 0.0)


def _suite_gauge_sublinearity(cfg: SuiteConfig, n: int) -> SuiteResult:
    failed = 0
    worst = 0.0
    checked = 0
    for t in range(n):
        F = gen_instance("max_affine",
                         {"d": 1 + t % MAX_DIM, "p": 1 + t % MAX_PIECES},
                         cfg.seed + 2000 + t)
        rng = SplitMix64(cfg.seed ^ (8000 + t))
        samples = [(rng.uniform_vector(F.dim, -5.0, 5.0), rng.uniform(-5.0, 5.0))
                   for _ in range(12)]
        rep = sublinearity_suite(F, samples, cfg.tol)
        checked += 1
        for name, entry in rep.summary().items():
            worst = max(worst, entry["worst"])
            if entry["failed"]:
                failed += 1
    return SuiteResult("gauge_sublinearity", failed == 0, checked, failed, worst,
                       "six structural gauge properties", 0.0)


def _suite_mok(cfg: SuiteConfig, n: int) -> SuiteResult:
    failed = 0
    worst = 0.0
    checked = 0
    for t in range(n):
        S, D = gen_mok_satisfied(cfg.seed + 3000 + t,
                                 d=1 + t % MAX_DIM,
                                 p=2 + t % MAX_PIECES,
                                 npts=2 + t % 5)
        cert = solve_mok(S, D, cfg.tol)
        checked += 1
        worst = max(worst, abs(cert.gap))
        if not cert.midpoint.satisfied or not cert.within(cfg.tol):
            failed += 1
        # Random (usually violated) instance: weak duality only.
        rng = SplitMix64(cfg.seed ^ (9000 + t))
        S2 = PolyhedralSublinear(rng.uniform_matrix(2 + t % MAX_PIECES,
                                                    1 + t % MAX_DIM,
                                                    -COEFF_RANGE, COEFF_RANGE))
        D2 = [rng.uniform_vector(S2.dim, -COEFF_RANGE, COEFF_RANGE)
              for _ in range(2 + t % 4)]
        cert2 = solve_mok(S2, D2, cfg.tol)
        checked += 1
        if cert2.gap < -1e-9:
            failed += 1
            worst = max(worst, -cert2.gap)
    return SuiteResult("mok", failed == 0, checked, failed, worst,
                       "midpoint guarantee and weak duality", 0.0)


def _suite_synth(cfg: SuiteConfig, n: int) -> SuiteResult:
    failed = 0
    worst = 0.0
    checked = 0
    for t in range(n):
        if t % 2 == 0:
            F = gen_instance("max_affine",
                             {"d": 1 + t % MAX_DIM, "p": 2 + t % MAX_PIECES},
                             cfg.seed + 4000 + t)
            C = gen_instance("polytope",
                             {"d": F.dim, "v": 2 + t % MAX_VERTICES},
                             cfg.seed + 4500 + t)
            cert = synth_tight_minorant(F, C, cfg.tol)
        else:
            F, Z = gen_line_constrained_set(cfg.seed + 4000 + t,
                                            d=2 + t % MAX_DIM,
                                            p=2 + t % MAX_PIECES)
            cert = synth_tight_minorant(F, Z, cfg.tol)
        deficit, _ = domination_oracle(F, cert.affine)
        checked += 1
        worst = max(worst, abs(cert.gap), -deficit)
        if not cert.within(cfg.tol) or deficit < -cfg.tol.tol_dom:
            failed += 1
    return SuiteResult("synth", failed == 0, checked, failed, worst,
                       "tight minorant pipelines on passing instances", 0.0)


def _suite_hbl_product(cfg: SuiteConfig, n: int) -> SuiteResult:
    from itertools import product as iproduct

    failed = 0
    worst = 0.0
    checked = 0
    for t in range(n):
        inst = gen_instance("hbl", {"n": 3, "d": 3, "p": 3, "nz": 3 + t % 6},
                            cfg.seed + 5000 + t)
        cert = solve_hbl_n(inst, cfg.tol)
        # Expanded product-space cross-check.
        piece_rows = []
        for combo in iproduct(*[S.pieces for S in inst.sublinears]):
            piece_rows.append(np.concatenate(combo))
        S_full = PolyhedralSublinear(np.vstack(piece_rows))
        D_full = [np.concatenate([tab[z] for tab in inst.tables])
                  for z in range(inst.nkeys)]
        cert_full = solve_mok(S_full, D_full, cfg.tol)
        err = abs(cert.value - cert_full.value)
        checked += 1
        worst = max(worst, err)
        if err > 1e-8:
            failed += 1
    return SuiteResult("hbl_product", failed == 0, checked, failed, worst,
                       "compact product LP vs expanded piece set", 0.0)


def _suite_polytope_min(cfg: SuiteConfig, n: int) -> SuiteResult:
    failed = 0
    worst = 0.0
    checked = 0
    for t in range(n):
        F = gen_instance("max_affine", {"d": 1 + t % 2, "p": 2 + t % MAX_PIECES},
                         cfg.seed + 6000 + t)
        C = gen_instance("polytope", {"d": F.dim, "v": 2 + t % 2},
                         cfg.seed + 6500 + t)
        _, lp_val = min_convex_over_polytope(F, C.vertices)
        oracle = grid_min_oracle(F, C.vertices, 1.0 / 1024.0)
        err = abs(lp_val - oracle)
        checked += 1
        worst = max(worst, err)
        if err > 2e-3:
            failed += 1
    return SuiteResult("polytope_min", failed == 0, checked, failed, worst,
                       "LP polytope minimum vs barycentric grid oracle", 0.0)


SUITE_NAMES = [
    "gauge_closed_form",
    "gauge_oracle_agreement",
    "gauge_sublinearity",
    "mok",
    "synth",
    "hbl_product",
    "polytope_min",
]

_SUITES = {
    "gauge_closed_form": (_suite_gauge_closed_form, 200),
    "gauge_oracle_agreement": (_suite_gauge_oracle, 15),
    "gauge_sublinearity": (_suite_gauge_sublinearity, 25),
    "mok": (_suite_mok, 25),
    "synth": (_suite_synth, 20),
    "hbl_product": (_suite_hbl_product, 8),
    "polytope_min": (_suite_polytope_min, 10),
}


def run_property_suite(cfg: SuiteConfig, suites: Optional[List[str]] = None) -> SuiteReport:
    """Run the requested suites (default: all) and collect a report."""
    names = SUITE_NAMES if suites is None else list(suites)
    if not names:
        raise InvalidInput("empty suite list")
    results = []
    for name in names:
        if name not in _SUITES:
            raise InvalidInput(f"unknown suite: {name!r}")
        fn, default_trials = _SUITES[name]
        t0 = time.perf_counter()
        res = fn(cfg, cfg.ntrials(name, default_trials))
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return SuiteReport(cfg.seed, results)
