"""The gauge of the strict epigraph of a shifted convex function.

Given convex f, shift it so it equals -1 at the origin, and measure pairs
(x, alpha) by how far the strict epigraph of the shifted function must be
scaled to swallow them.  The resulting two-argument functional is sublinear,
equals 1 on the shifted graph, and is the engine behind the affine-minorant
synthesis in :mod:`minorant.synth`.

Two evaluation routes are kept deliberately separate:

* max-affine inputs get an exact closed form (a max of ratios), and
* black-box convex oracles go through bracketing plus bisection on the
  strictly decreasing one-variable slice mu -> mu * fshift(x / mu).

The closed form is cross-validated against the bisection route in the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .core import (
    ConvexOracle,
    DEFAULT_TOL,
    InvalidInput,
    MaxAffineFn,
    ShiftedFn,
    ToleranceConfig,
    as_vector,
)

__all__ = [
    "Branch",
    "GaugeValue",
    "BracketFailure",
    "shift",
    "perspective",
    "gauge_is_zero",
    "eval_gauge",
    "eval_gauge_batch",
    "SublinearityReport",
    "sublinearity_suite",
]

# Bisection constants: seed the bracket at 1, halve/double at most this many
# times, then narrow to a relative width of _WIDTH_FACTOR.  Covers magnitudes
# up to ~1e60 deterministically.
_BRACKET_CAP = 200
_WIDTH_FACTOR = 1e-12

# Sampling horizon for the zero test on oracle inputs: the all-rho criterion
# is only semi-decidable for a black box, so we probe dyadic rho up to 2^40.
_ORACLE_RHO_EXPONENTS = range(0, 41)


class BracketFailure(RuntimeError):
    """The oracle bisection could not bracket the crossing within the
    iteration cap; the perspective slice approaches the target too slowly."""


class Branch(enum.Enum):
    ZERO = "zero"
    ROOT = "root"


@dataclass(frozen=True)
class GaugeValue:
    """Result of one gauge evaluation.

    ``residual`` is |f_x(value) - alpha| on the root branch and 0 on the
    zero branch; ``iterations`` counts bisection steps (0 for closed form).
    """

    value: float
    branch: Branch
    residual: float
    iterations: int = 0

    def __post_init__(self):
        if self.value < 0.0 or not math.isfinite(self.value):
            raise InvalidInput("gauge value must be finite and >= 0")
        if self.branch is Branch.ZERO and self.value != 0.0:
            raise InvalidInput("zero branch must carry value 0")

    def within(self, tol: ToleranceConfig) -> bool:
        """The implicit equation holds within `tol.tol_gauge`."""
        return self.residual <= tol.tol_gauge


def shift(F: MaxAffineFn) -> ShiftedFn:
    """Lower every offset by f(0) + 1, pinning the shifted value at 0 to -1."""
    f0 = F.value_at_origin()
    return ShiftedFn(F.slopes, F.offsets - f0 - 1.0, f0)


def _shifted_eval(F: Union[MaxAffineFn, ConvexOracle], x: np.ndarray) -> float:
    """Shifted function value f(x) - f(0) - 1 for either representation."""
    if isinstance(F, MaxAffineFn):
        return F(x) - F.value_at_origin() - 1.0
    return F(x) - F(np.zeros(F.dim)) - 1.0


def perspective(F: Union[MaxAffineFn, ConvexOracle], x, mu: float) -> float:
    """mu * fshift(x / mu) for mu > 0.

    For max-affine F this equals max_i(<a_i, x> + mu * bshift_i), which stays
    stable as mu -> 0 (no division).
    """
    if not (mu > 0.0) or not math.isfinite(mu):
        raise InvalidInput(f"perspective requires mu > 0, got {mu}")
    x = as_vector(x, F.dim)
    if isinstance(F, MaxAffineFn):
        bsh = F.offsets - F.value_at_origin() - 1.0
        return float(np.max(F.slopes @ x + mu * bsh))
    return mu * _shifted_eval(F, x / mu)


def _recession(F: MaxAffineFn, x: np.ndarray) -> float:
    """Asymptotic slope of t -> f(t x): max_i <a_i, x>."""
    return float(np.max(F.slopes @ x))


def gauge_is_zero(
    F: Union[MaxAffineFn, ConvexOracle],
    x,
    alpha: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Does the ray criterion "f(rho x) - alpha rho <= f(0) for all rho >= 0" hold?

    Max-affine inputs reduce exactly to a recession-slope comparison
    (equality holds at rho = 0, so only the asymptotic slope matters).
    Oracle inputs are probed at dyadic rho; the answer is conservative and
    callers fall through to the root branch when the probe says no.
    """
    x = as_vector(x, F.dim)
    if isinstance(F, MaxAffineFn):
        return _recession(F, x) <= alpha + tol.tol_zero
    f0 = F(np.zeros(F.dim))
    for e in _ORACLE_RHO_EXPONENTS:
        rho = float(2**e)
        if F(rho * x) - alpha * rho > f0 + tol.tol_zero:
            return False
    return True


def _closed_form_gauge(F: MaxAffineFn, x: np.ndarray, alpha: float) -> float:
    """Exact gauge for max-affine F: max_i((<a_i,x> - alpha) / (-bshift_i)),
    clamped at 0.  Valid because every shifted offset is <= -1."""
    bsh = F.offsets - F.value_at_origin() - 1.0
    ratios = (F.slopes @ x - alpha) / (-bsh)
    return max(0.0, float(np.max(ratios)))


def eval_gauge(
    F: Union[MaxAffineFn, ConvexOracle],
    x,
    alpha: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GaugeValue:
    """Evaluate the epigraph gauge at (x, alpha).

    Returns the zero branch when the ray criterion holds; otherwise the
    unique positive root of mu -> perspective(F, x, mu) = alpha, by closed
    form (max-affine) or bracketed bisection (oracle).
    """
    x = as_vector(x, F.dim)
    alpha = float(alpha)
    if gauge_is_zero(F, x, alpha, tol):
        return GaugeValue(0.0, Branch.ZERO, 0.0, 0)

    if isinstance(F, MaxAffineFn):
        v = _closed_form_gauge(F, x, alpha)
        if v <= 0.0:
            # Recession test said nonzero but the closed form rounds to 0:
            # only possible within tol_zero of the boundary.
            return GaugeValue(0.0, Branch.ZERO, 0.0, 0)
        residual = abs(perspective(F, x, v) - alpha)
        return GaugeValue(v, Branch.ROOT, residual, 0)

    return _bisect_gauge(F, x, alpha)


def _bisect_gauge(F: ConvexOracle, x: np.ndarray, alpha: float) -> GaugeValue:
    """Bracket the crossing of the decreasing slice and bisect.

    Below the root the slice is >= alpha, above it is < alpha; halve from 1
    to find the lower end, double to find the upper end.
    """
    iters = 0
    lo = None
    mu = 1.0
    for _ in range(_BRACKET_CAP):
        iters += 1
        if perspective(F, x, mu) >= alpha:
            lo = mu
            break
        mu *= 0.5
    if lo is None:
        # The slice is already below alpha at mu = 2^-200: the root is
        # indistinguishable from 0 at double precision.
        return GaugeValue(0.0, Branch.ZERO, 0.0, iters)
    hi = None
    mu = max(1.0, lo)
    for _ in range(_BRACKET_CAP):
        iters += 1
        if perspective(F, x, mu) < alpha:
            hi = mu
            break
        mu *= 2.0
    if hi is None:
        raise BracketFailure(
            f"no upper bracket below 2^{_BRACKET_CAP} for alpha={alpha!r}"
        )
    width_target = _WIDTH_FACTOR * max(1.0, hi)
    while hi - lo > width_target and iters < 10 * _BRACKET_CAP:
        iters += 1
        mid = 0.5 * (lo + hi)
        if perspective(F, x, mid) >= alpha:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    residual = abs(perspective(F, x, value) - alpha)
    return GaugeValue(value, Branch.ROOT, residual, iters)


def eval_gauge_batch(F: MaxAffineFn, X: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Vectorized closed-form gauge for max-affine F over rows of X."""
    X = np.asarray(X, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64).reshape(-1)
    bsh = F.offsets - F.value_at_origin() - 1.0
    ratios = (X @ F.slopes.T - alphas[:, None]) / (-bsh)
    return np.maximum(0.0, np.max(ratios, axis=1))


@dataclass
class _Check:
    name: str
    checked: int = 0
    failed: int = 0
    worst: float = 0.0           # worst violation magnitude seen
    witness: Optional[tuple] = None

    def record(self, violation: float, witness: tuple, tol: float):
        self.checked += 1
        if violation > self.worst:
            self.worst = violation
            self.witness = witness
        if violation > tol:
            self.failed += 1


@dataclass
class SublinearityReport:
    """Pass/fail tallies and worst-case violations for the six structural
    properties of the epigraph gauge: value on the vertical axis, lower bound
    on the hypograph, value on the graph, vanishing at the origin, positive
    homogeneity, and subadditivity."""

    axis: _Check
    hypograph: _Check
    graph: _Check
    origin: _Check
    homogeneity: _Check
    subadditivity: _Check

    @property
    def all_passed(self) -> bool:
        return all(
            c.failed == 0
            for c in (self.axis, self.hypograph, self.graph, self.origin,
                      self.homogeneity, self.subadditivity)
        )

    def summary(self) -> dict:
        out = {}
        for c in (self.axis, self.hypograph, self.graph, self.origin,
                  self.homogeneity, self.subadditivity):
            out[c.name] = {"checked": c.checked, "failed": c.failed, "worst": c.worst}
        return out


def sublinearity_suite(
    F: MaxAffineFn,
    sample_points: List[Tuple[np.ndarray, float]],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SublinearityReport:
    """Check the six gauge properties over the given (x, alpha) samples.

    Violations are report content, never exceptions.  Homogeneity is checked
    in relative terms, the rest in absolute terms.
    """
    if not sample_points:
        raise InvalidInput("sublinearity_suite needs a nonempty sample set")
    rep = SublinearityReport(
        axis=_Check("axis"), hypograph=_Check("hypograph"), graph=_Check("graph"),
        origin=_Check("origin"), homogeneity=_Check("homogeneity"),
        subadditivity=_Check("subadditivity"),
    )
    fsh = shift(F)
    zero = np.zeros(F.dim)

    g0 = eval_gauge(F, zero, 0.0, tol)
    rep.origin.record(abs(g0.value), (tuple(zero), 0.0), 1e-12)

    pts = [(as_vector(x, F.dim), float(a)) for x, a in sample_points]
    for x, a in pts:
        # Vertical axis: the gauge of (0, a) is the negative part of a.
        ga = eval_gauge(F, zero, a, tol).value
        rep.axis.record(abs(ga - max(-a, 0.0)), (tuple(zero), a), 1e-8)

        # Graph: the gauge of (x, fshift(x)) is exactly 1.
        fx = fsh(x)
        gg = eval_gauge(F, x, fx, tol).value
        rep.graph.record(abs(gg - 1.0), (tuple(x), fx), 1e-8)

        # Hypograph: alpha <= fshift(x) forces gauge >= 1.
        if a <= fx:
            gh = eval_gauge(F, x, a, tol).value
            rep.hypograph.record(max(0.0, 1.0 - gh), (tuple(x), a), 1e-8)

        # Positive homogeneity, relative error at a fixed stretch.
        lam = 2.5
        g1 = eval_gauge(F, x, a, tol).value
        g2 = eval_gauge(F, lam * x, lam * a, tol).value
        scale = max(1.0, abs(lam * g1))
        rep.homogeneity.record(abs(g2 - lam * g1) / scale, (tuple(x), a), 1e-9)

    for (x, a), (y, c) in zip(pts, pts[1:] + pts[:1]):
        gx = eval_gauge(F, x, a, tol).value
        gy = eval_gauge(F, y, c, tol).value
        gxy = eval_gauge(F, x + y, a + c, tol).value
        rep.subadditivity.record(gxy - gx - gy, ((tuple(x), a), (tuple(y), c)), 1e-9)

    return rep
