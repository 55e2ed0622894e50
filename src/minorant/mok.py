"""Constructive Mazur-Orlicz-Koenig solver for polyhedral sublinear
functionals over finite sets.

The set of linear maps dominated by S(x) = max_i <l_i, x> is exactly the
convex hull of the rows l_i, so "find L <= S maximizing inf_D L" becomes a
finite LP over simplex weights.  The theorem's midpoint hypothesis is checked
(not assumed); when it holds, the optimal value must close the gap to
inf_D S, and the certificate records both sides so an independent checker
can confirm it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (
    DEFAULT_TOL,
    InvalidInput,
    LinearMap,
    PolyhedralSublinear,
    ToleranceConfig,
    as_vector,
)
from .lp import LpError, LpSolution, solve_lp
from .scan import MidpointReport, midpoint_scan

__all__ = ["MidpointReport", "MokCertificate", "check_midpoint", "solve_mok", "solve_lp"]


@dataclass(frozen=True)
class MokCertificate:
    """Solver output: the linear map, its simplex weights over the pieces of
    S (the structural proof that L <= S), both infima, and the gap."""

    L: LinearMap
    weights: np.ndarray
    value: float        # inf over D of L
    target: float       # inf over D of S
    gap: float          # target - value, >= -tol_lp always
    midpoint: MidpointReport

    def within(self, tol: ToleranceConfig) -> bool:
        """The two infima agree within `tol.tol_lp`."""
        return abs(self.gap) <= tol.tol_lp

    @property
    def guarantee_holds(self) -> bool:
        return not self.midpoint.satisfied or self.within(DEFAULT_TOL)


def _as_point_rows(D: List, dim: int) -> np.ndarray:
    if len(D) == 0:
        raise InvalidInput("the point set D must be nonempty")
    return np.vstack([as_vector(d, dim) for d in D])


def check_midpoint(
    S: PolyhedralSublinear,
    D: List,
    tol_mid: float = DEFAULT_TOL.tol_mid,
) -> MidpointReport:
    """Scan every unordered pair in D for a candidate d with
    S(d - (d1 + d2)/2) <= tol_mid; record first witnesses in input order."""
    pts = _as_point_rows(D, S.dim)
    return midpoint_scan([pts @ S.pieces.T], None, tol_mid)


def solve_mok(
    S: PolyhedralSublinear,
    D: List,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MokCertificate:
    """Maximize inf_D L over linear L dominated by S.

    LP variables are simplex weights theta over the pieces of S plus a split
    free level t; constraints enforce <L, d> >= t for every d in D.
    """
    pts = _as_point_rows(D, S.dim)
    k = pts.shape[0]
    p = S.npieces
    G = pts @ S.pieces.T           # G[d, i] = <l_i, d>

    # Variables: theta_1..theta_p, t_plus, t_minus (all >= 0).
    nv = p + 2
    c = np.zeros(nv)
    c[p] = 1.0
    c[p + 1] = -1.0
    A_eq = np.zeros((1, nv))
    A_eq[0, :p] = 1.0
    b_eq = np.array([1.0])
    A_ub = np.zeros((k, nv))
    A_ub[:, :p] = -G
    A_ub[:, p] = 1.0
    A_ub[:, p + 1] = -1.0
    b_ub = np.zeros(k)

    sol = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    if not sol.is_optimal:
        raise LpError(f"mok LP ended with status {sol.status}")

    theta = sol.x[:p].copy()
    theta[theta < 0.0] = 0.0
    L = LinearMap(S.pieces.T @ theta)
    value = float(np.min(pts @ L.w))
    target = float(np.min(np.max(G, axis=1)))
    midpoint = check_midpoint(S, D, tol.tol_mid)
    return MokCertificate(
        L=L,
        weights=theta,
        value=value,
        target=target,
        gap=target - value,
        midpoint=midpoint,
    )
