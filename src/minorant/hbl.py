"""Multi-space linear-functional synthesis by product reduction.

For sublinear S_1..S_n on separate coordinate spaces and maps j_m from a
common index set, find linear L_m <= S_m whose summed composition has the
same infimum as the summed sublinear composition.  A linear map is
dominated by the summed sublinear functional exactly when each component is
dominated by its own, so the weights are one simplex per space, and the
expanded product piece set is only used in tests at tiny sizes.

Every form reads its weights from `synth._min_lp`, the minimum over the
keys' simplex of sum_m S_m(sum_z nu_z j_m(z)) plus the payload, with one
space per sublinear.  It is built with one row per piece or one row per
key, whichever is fewer.  A payload k is folded into the first space's
gains.

The scalar-payload form (one sublinear S plus a payload k) is the two-space
case.  Over a finite key set the second space is the reals with the
identity functional; its support set is the single weight 1, so k is the
payload of the one-space LP and the identity comes out structurally, with
no tolerance.  Over a polytope the second space carries the homogenized
payload pieces, with the weight 1 for one piece and otherwise the row duals
of the one LP that minimizes S o j + k over the polytope (`synth._composed_min`).
One space with no payload is `minorant.mok.solve_mok`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import List, Optional, Union

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
from .scan import MidpointReport, midpoint_scan
from .synth import _auto_report, _composed_min, _min_lp

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
    """The minimum LP with one simplex of weights per space, payload
    included."""
    return _solve_product(inst, check_midpoint_hbl(inst, tol.tol_mid))


def _solve_product(inst: HblInstance, midpoint: MidpointReport) -> HblCertificate:
    """The minimum LP with one space per sublinear, on the gains
    T_m @ S_m.pieces^T, certified with the given midpoint report.  A payload
    is folded into the first space's gains, which is exact because that
    space's weights sum to 1."""
    gains = [tab @ S.pieces.T for S, tab in zip(inst.sublinears, inst.tables)]
    if inst.payload is not None:
        gains[0] = gains[0] + inst.payload[:, None]
    _, weights = _min_lp(gains)

    maps: List[LinearMap] = []
    # No zero payload is added when there is none: 0.0 + -0.0 is 0.0.
    lin_side = [] if inst.payload is None else [inst.payload]
    sub_side = list(lin_side)
    for S, tab, theta in zip(inst.sublinears, inst.tables, weights):
        Lm = LinearMap(S.pieces.T @ theta)
        maps.append(Lm)
        lin_side.append(tab @ Lm.w)
        sub_side.append(S.batch(tab))

    value = float(np.min(functools.reduce(np.add, lin_side)))
    target = float(np.min(functools.reduce(np.add, sub_side)))
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
) -> HblCertificate:
    """Scalar-payload form: linear L <= S with
    inf_Z [L o j + k] = inf_Z [S o j + k] under the midpoint condition.

    Finite form: j is an (nz, d) table and k an (nz,) table.  Polytope form:
    j affine and k = max_l(<c_l, z> + d_l) affine or max-affine.  The second
    space then has the pieces [c_l, d_l] over the vertex table [v, 1]; for
    fixed weights the bracket is affine in z, so its least value over Z is
    at a vertex, and by LP duality the weights read from the minimum LP
    reach the target there.
    """
    if isinstance(Z, Polytope):
        _, jV, K, target, theta, pi = _composed_min(S.pieces, np.zeros(S.npieces), Z, j, k)
        V = Z.vertices
        maps = [LinearMap(S.pieces.T @ theta),
                LinearMap(np.column_stack([K.slopes, K.offsets]).T @ pi)]
        value = float(np.min(jV @ maps[0].w + np.column_stack([V, np.ones(len(V))]) @ maps[1].w))
        # The polytope itself satisfies the condition through literal
        # midpoints; its vertices as a finite set need not.
        return HblCertificate(maps=maps, weights=[theta, pi], value=value, target=target,
                              gap=target - value, midpoint=_auto_report())

    # Second space: the reals with the identity functional.  Its only piece
    # has the weight 1, so k is the payload of the one-space LP on S and the
    # identity comes out exactly.
    j_table = np.asarray(j, dtype=np.float64).reshape(-1, S.dim)
    k_table = np.asarray(k, dtype=np.float64).reshape(-1)
    inst = HblInstance([S], [j_table], k_table)
    cert = _solve_product(inst, check_midpoint_hbl(inst, tol.tol_mid))
    return dataclasses.replace(cert, maps=cert.maps + [LinearMap(np.ones(1))],
                               weights=cert.weights + [np.ones(1)])
