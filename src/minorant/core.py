"""Domain types: vectors, max-affine convex functions, polyhedral sublinear
functionals, and affine/linear maps on R^d.

Everything here is immutable after construction and every operation is pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DimensionMismatch",
    "InvalidInput",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_vector",
    "MaxAffineFn",
    "ShiftedFn",
    "ConvexOracle",
    "PolyhedralSublinear",
    "AffineMap",
    "LinearMap",
    "AffineTransform",
    "Polytope",
    "eval_max_affine",
    "subgradient_max_affine",
    "eval_functional",
]


class InvalidInput(ValueError):
    """An input value violates a structural invariant (non-finite entry,
    empty piece list, inconsistent shape)."""


class DimensionMismatch(InvalidInput):
    """Operand dimensions do not agree with the ambient dimension."""


@dataclass(frozen=True)
class ToleranceConfig:
    """The single knob bundle for all floating-point comparisons.

    Defaults match the per-module values documented with each solver.
    """

    tol_zero: float = 1e-9      # recession test in the zero-gauge criterion
    tol_gauge: float = 1e-8     # implicit-equation residual bound
    tol_mid: float = 1e-9       # midpoint-condition slack
    tol_lp: float = 1e-8        # LP optimality / guarantee slack
    tol_gap: float = 1e-6       # two-sided infimum agreement for synthesis
    tol_dom: float = 1e-7       # exact residuals of A <= f from the LP weights
    lambda_min: float = 1e-12   # smallest accepted vertical multiplier


DEFAULT_TOL = ToleranceConfig()


def as_vector(entries: Union[Sequence[float], np.ndarray], dim: Optional[int] = None) -> np.ndarray:
    """Validate and return a 1-D float64 vector with finite entries."""
    v = np.asarray(entries, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInput(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def _as_matrix(rows: Union[Sequence[Sequence[float]], np.ndarray], cols: Optional[int] = None) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInput(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    return m


def _as_point_rows(points: Sequence, dim: int) -> np.ndarray:
    """The points of a finite set as the rows of one float64 array, each
    checked as `as_vector(point, dim)` checks it.  The whole set is checked
    at once; a set that fails goes point by point, which raises the error
    of its first bad point."""
    if len(points) == 0:
        raise InvalidInput("the point set must be nonempty")
    try:
        rows = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is not None and rows.ndim == 2 and rows.shape[1] == dim and np.all(np.isfinite(rows)):
        return rows
    return np.vstack([as_vector(p, dim) for p in points])


@dataclass(frozen=True)
class MaxAffineFn:
    """A polyhedral convex function f(x) = max_i(<a_i, x> + b_i).

    `slopes` has one row per affine piece, `offsets` the matching constants.
    f(0) = max_i b_i by construction.
    """

    slopes: np.ndarray    # (p, d)
    offsets: np.ndarray   # (p,)

    def __post_init__(self):
        object.__setattr__(self, "slopes", _as_matrix(self.slopes))
        b = np.asarray(self.offsets, dtype=np.float64).reshape(-1)
        if b.size != self.slopes.shape[0]:
            raise InvalidInput("piece count mismatch between slopes and offsets")
        if not np.all(np.isfinite(b)):
            raise InvalidInput("offsets have non-finite entries")
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    @property
    def npieces(self) -> int:
        return self.slopes.shape[0]

    def value_at_origin(self) -> float:
        return float(np.max(self.offsets))

    def __call__(self, x) -> float:
        return eval_max_affine(self, x)

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at each row of X (n, d) -> (n,)."""
        X = _as_matrix(X, cols=self.dim)
        return np.max(X @ self.slopes.T + self.offsets, axis=1)

    @staticmethod
    def from_pieces(pieces: Sequence[tuple]) -> "MaxAffineFn":
        slopes = [as_vector(a) for a, _ in pieces]
        offsets = [float(b) for _, b in pieces]
        return MaxAffineFn(np.vstack(slopes), np.asarray(offsets))


@dataclass(frozen=True)
class ShiftedFn:
    """The normalized shift of a max-affine function: same slopes, offsets
    lowered by f(0) + 1, so the shifted function is -1 at the origin and
    every shifted offset is <= -1.
    """

    slopes: np.ndarray
    offsets: np.ndarray   # shifted constants, all <= -1, max == -1
    base_at_origin: float  # f(0) of the unshifted function

    def __post_init__(self):
        object.__setattr__(self, "slopes", _as_matrix(self.slopes))
        b = np.asarray(self.offsets, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "offsets", b)
        if b.size != self.slopes.shape[0]:
            raise InvalidInput("piece count mismatch between slopes and offsets")
        if abs(float(np.max(b)) + 1.0) > 1e-12 or np.any(b > -1.0 + 1e-12):
            raise InvalidInput("shifted offsets must satisfy max = -1 and all <= -1")

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    def __call__(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(np.max(self.slopes @ x + self.offsets))


@dataclass(frozen=True)
class ConvexOracle:
    """A black-box convex function given by an evaluator (and an optional
    subgradient).  Enters only through the gauge bisection path; convexity
    is the caller's responsibility and is spot-checked by the test harness.
    """

    evaluator: Callable[[np.ndarray], float]
    dim: int
    subgradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> float:
        x = as_vector(x, self.dim)
        v = float(self.evaluator(x))
        if not np.isfinite(v):
            raise InvalidInput("oracle returned a non-finite value")
        return v


@dataclass(frozen=True)
class PolyhedralSublinear:
    """S(x) = max_i <l_i, x>: the pointwise max of finitely many linear maps.

    S(0) = 0 and positive homogeneity hold structurally.
    """

    pieces: np.ndarray  # (p, d)

    def __post_init__(self):
        object.__setattr__(self, "pieces", _as_matrix(self.pieces))

    @property
    def dim(self) -> int:
        return self.pieces.shape[1]

    @property
    def npieces(self) -> int:
        return self.pieces.shape[0]

    def __call__(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(np.max(self.pieces @ x))

    def batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, cols=self.dim)
        return np.max(X @ self.pieces.T, axis=1)


@dataclass(frozen=True)
class AffineMap:
    """A(x) = <w, x> + c."""

    w: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))
        c = float(self.c)
        if not np.isfinite(c):
            raise InvalidInput("affine constant is not finite")
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.w.size

    def __call__(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(self.w @ x + self.c)

    def batch(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X, cols=self.dim)
        return X @ self.w + self.c


@dataclass(frozen=True)
class LinearMap:
    """L(x) = <w, x>."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))

    @property
    def dim(self) -> int:
        return self.w.size

    def __call__(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(self.w @ x)


@dataclass(frozen=True)
class AffineTransform:
    """A vector-valued affine map z -> M z + m between coordinate spaces."""

    matrix: np.ndarray  # (d_out, d_in)
    offset: np.ndarray  # (d_out,)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))
        object.__setattr__(self, "offset", as_vector(self.offset, self.matrix.shape[0]))

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, z) -> np.ndarray:
        z = as_vector(z, self.dim_in)
        return self.matrix @ z + self.offset

    @staticmethod
    def identity(d: int) -> "AffineTransform":
        return AffineTransform(np.eye(d), np.zeros(d))


@dataclass(frozen=True)
class Polytope:
    """A bounded convex set given by a finite vertex list (rows)."""

    vertices: np.ndarray  # (k, d)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_matrix(self.vertices))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def nvertices(self) -> int:
        return self.vertices.shape[0]


def eval_max_affine(F: MaxAffineFn, x) -> float:
    """max_i(<a_i, x> + b_i)."""
    x = as_vector(x, F.dim)
    return float(np.max(F.slopes @ x + F.offsets))


def subgradient_max_affine(F: MaxAffineFn, x) -> np.ndarray:
    """Slope of the lowest-index active piece at x.

    The lowest-index rule makes ties deterministic, which keeps downstream
    certificates reproducible.
    """
    x = as_vector(x, F.dim)
    vals = F.slopes @ x + F.offsets
    i = int(np.argmax(vals))  # np.argmax returns the first maximizer
    return F.slopes[i].copy()


def eval_functional(m: Union[AffineMap, LinearMap, PolyhedralSublinear], x) -> float:
    """Evaluate an affine map, linear map, or polyhedral sublinear functional."""
    if isinstance(m, (AffineMap, LinearMap, PolyhedralSublinear)):
        return m(x)
    raise TypeError(f"unsupported functional type: {type(m).__name__}")
