"""Multi-space linear-functional synthesis by product reduction.

For sublinear S_1..S_n on separate coordinate spaces and maps j_m from a
common index set, find linear L_m <= S_m whose summed composition has the
same infimum as the summed sublinear composition.  The product LP keeps one
simplex of weights per space: a linear map is dominated by the summed
sublinear functional exactly when each component is dominated by its own,
so the compact formulation is exact and the expanded product piece set is
only used in tests at tiny sizes.

The scalar-payload form (one sublinear S plus a payload k) is the two-space
case where the second space is the reals with the identity functional; its
support set is the single weight 1, so the identity comes out structurally,
with no tolerance.
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
    PolyhedralSublinear,
    Polytope,
    ToleranceConfig,
)
from .lp import LpError, solve_lp
from .scan import MidpointReport, midpoint_scan
from .synth import GRID_RESOLUTION, _auto_report, _grid_points

__all__ = [
    "HblInstance",
    "HblCertificate",
    "check_midpoint_hbl",
    "solve_hbl_n",
    "solve_hbl_jk",
]


@dataclass(frozen=True)
class HblInstance:
    """n sublinear functionals with per-space value tables over a shared
    finite index set, plus an optional scalar payload table."""

    sublinears: List[PolyhedralSublinear]
    tables: List[np.ndarray]       # one (nz, d_m) table per space
    payload: Optional[np.ndarray] = None  # (nz,) scalar payload, or None

    def __post_init__(self):
        if len(self.sublinears) < 1 or len(self.sublinears) != len(self.tables):
            raise InvalidInput("need one value table per sublinear functional")
        sizes = set()
        tables = []
        for S, tab in zip(self.sublinears, self.tables):
            t = np.asarray(tab, dtype=np.float64).reshape(-1, S.dim)
            if not np.all(np.isfinite(t)):
                raise InvalidInput("value table has non-finite entries")
            sizes.add(t.shape[0])
            tables.append(t)
        if len(sizes) != 1:
            raise InvalidInput("value tables must share one key set")
        object.__setattr__(self, "tables", tables)
        if self.payload is not None:
            kv = np.asarray(self.payload, dtype=np.float64).reshape(-1)
            if kv.size != sizes.pop():
                raise InvalidInput("payload table size mismatch")
            object.__setattr__(self, "payload", kv)

    @property
    def nspaces(self) -> int:
        return len(self.sublinears)

    @property
    def nkeys(self) -> int:
        return self.tables[0].shape[0]


@dataclass(frozen=True)
class HblCertificate:
    maps: List[LinearMap]            # one per space
    weights: List[np.ndarray]        # simplex weights over each S_m's pieces
    value: float                     # inf over keys of the summed linear side
    target: float                    # inf over keys of the summed sublinear side
    gap: float
    midpoint: MidpointReport

    def within(self, tol: ToleranceConfig) -> bool:
        """The two infima agree within `tol.tol_lp`."""
        return abs(self.gap) <= tol.tol_lp

    @property
    def guarantee_holds(self) -> bool:
        return not self.midpoint.satisfied or self.within(DEFAULT_TOL)


def _payload_or_zero(inst: HblInstance) -> np.ndarray:
    if inst.payload is not None:
        return inst.payload
    return np.zeros(inst.nkeys)


def check_midpoint_hbl(
    inst: HblInstance,
    tol_mid: float = DEFAULT_TOL.tol_mid,
) -> MidpointReport:
    """Pairwise scan of the summed midpoint condition, payload included."""
    gains = [tab @ S.pieces.T for S, tab in zip(inst.sublinears, inst.tables)]
    return midpoint_scan(gains, inst.payload, tol_mid)


def solve_hbl_n(
    inst: HblInstance,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> HblCertificate:
    """Single LP over one simplex per space maximizing the joint level."""
    if inst.payload is not None:
        raise InvalidInput("payload instances go through solve_hbl_jk")
    return _solve_product(inst, tol)


def _solve_product(
    inst: HblInstance,
    tol: ToleranceConfig,
    midpoint: Optional[MidpointReport] = None,
) -> HblCertificate:
    """The product LP; the key set is scanned for the midpoint condition
    unless a report is given."""
    nz = inst.nkeys
    counts = [S.npieces for S in inst.sublinears]
    offsets = np.cumsum([0] + counts)
    nmu = offsets[-1]
    nv = nmu + 2  # all weights, then t_plus, t_minus

    c = np.zeros(nv)
    c[nmu] = 1.0
    c[nmu + 1] = -1.0

    # One simplex constraint per space.
    A_eq = np.zeros((inst.nspaces, nv))
    for m in range(inst.nspaces):
        A_eq[m, offsets[m]:offsets[m + 1]] = 1.0
    b_eq = np.ones(inst.nspaces)

    kv = _payload_or_zero(inst)
    # Level rows: t - sum_m <L_m, j_m(z)> <= k(z) is wrong sign; we need
    # sum_m <L_m, j_m(z)> + k(z) >= t  =>  t - sum(...) <= k(z).
    A_ub = np.zeros((nz, nv))
    for m, (S, tab) in enumerate(zip(inst.sublinears, inst.tables)):
        A_ub[:, offsets[m]:offsets[m + 1]] = -(tab @ S.pieces.T)
    A_ub[:, nmu] = 1.0
    A_ub[:, nmu + 1] = -1.0
    b_ub = kv.copy()

    sol = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    if not sol.is_optimal:
        raise LpError(f"product LP status {sol.status}")

    maps: List[LinearMap] = []
    weights: List[np.ndarray] = []
    lin_side = kv.copy()
    sub_side = kv.copy()
    for m, (S, tab) in enumerate(zip(inst.sublinears, inst.tables)):
        theta = sol.x[offsets[m]:offsets[m + 1]].copy()
        theta[theta < 0.0] = 0.0
        Lm = LinearMap(S.pieces.T @ theta)
        maps.append(Lm)
        weights.append(theta)
        lin_side = lin_side + tab @ Lm.w
        sub_side = sub_side + S.batch(tab)

    value = float(np.min(lin_side))
    target = float(np.min(sub_side))
    if midpoint is None:
        midpoint = check_midpoint_hbl(inst, tol.tol_mid)
    return HblCertificate(
        maps=maps,
        weights=weights,
        value=value,
        target=target,
        gap=target - value,
        midpoint=midpoint,
    )


def solve_hbl_jk(
    S: PolyhedralSublinear,
    j: Union[np.ndarray, AffineTransform],
    k: Union[np.ndarray, AffineMap, MaxAffineFn],
    Z: Union[None, Polytope] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    grid_resolution: int = GRID_RESOLUTION,
) -> Tuple[HblCertificate, bool]:
    """Scalar-payload form: linear L <= S with
    inf_Z [L o j + k] = inf_Z [S o j + k] under the midpoint condition.

    Finite form: j is an (nz, d) table and k an (nz,) table.  Polytope form:
    j affine and k affine reduce exactly to vertices; a max-affine
    non-affine k is grid-discretized and the second return flags the result
    as approximate.
    """
    approximate = False
    midpoint = None
    if isinstance(Z, Polytope):
        if not isinstance(j, AffineTransform):
            raise InvalidInput("polytope form needs an affine composition map")
        if j.dim_in != Z.dim or j.dim_out != S.dim:
            raise InvalidInput("composition map dimensions do not match")
        if isinstance(k, AffineMap):
            Zpts = Z.vertices
        elif isinstance(k, MaxAffineFn):
            Zpts = _grid_points(Z, grid_resolution)
            approximate = True
        else:
            raise InvalidInput("polytope form needs an affine or max-affine payload")
        j_table = Zpts @ j.matrix.T + j.offset
        k_table = k.batch(Zpts)
        # The polytope itself satisfies the condition through literal
        # midpoints; its vertices or grid points as a finite set need not.
        midpoint = _auto_report()
    else:
        j_table = np.asarray(j, dtype=np.float64).reshape(-1, S.dim)
        k_table = np.asarray(k, dtype=np.float64).reshape(-1)

    # Second space: the reals with the identity functional.  Its only piece
    # is the weight 1, so the LP returns the identity exactly.
    identity = PolyhedralSublinear(np.array([[1.0]]))
    inst = HblInstance(
        sublinears=[S, identity],
        tables=[j_table, k_table.reshape(-1, 1)],
    )
    cert = _solve_product(inst, tol, midpoint)
    return cert, approximate
