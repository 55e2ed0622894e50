"""Constructive Mazur-Orlicz-Koenig solver for polyhedral sublinear
functionals over finite sets.

The set of linear maps dominated by S(x) = max_i <l_i, x> is exactly the
convex hull of the rows l_i, so "find L <= S maximizing inf_D L" is a max
over simplex weights of a min over D.  By LP duality it is the minimum of S
over the convex hull of D, and the weights are that LP's dual solution.  The
theorem's midpoint hypothesis is checked (not assumed); when it holds, the
optimal value must close the gap to inf_D S, and the certificate records
both sides so an independent checker can confirm it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    LinearMap,
    PolyhedralSublinear,
    ToleranceConfig,
    _as_point_rows,
)
from .hbl import HblInstance, _solve_product
from .scan import MidpointReport, midpoint_scan

__all__ = ["MidpointReport", "MokCertificate", "check_midpoint", "solve_mok"]


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


def check_midpoint(
    S: PolyhedralSublinear,
    D: List,
    tol_mid: float = DEFAULT_TOL.tol_mid,
    *,
    gains: Optional[np.ndarray] = None,
) -> MidpointReport:
    """Scan every unordered pair in D for a candidate d with
    S(d - (d1 + d2)/2) <= tol_mid; record first witnesses in input order.
    `gains` is D's table of piece values, when the caller has formed it."""
    if gains is None:
        gains = _as_point_rows(D, S.dim) @ S.pieces.T
    return midpoint_scan([gains], None, tol_mid)


def solve_mok(
    S: PolyhedralSublinear,
    D: List,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MokCertificate:
    """Maximize inf_D L over linear L dominated by S.

    This is the one-space case of `minorant.hbl`'s product form: the
    minimum of S(sum_d nu_d d) over nu on the simplex, whose dual solution
    theta, on the simplex of S's pieces, gives the weights of
    L = sum_i theta_i l_i.
    """
    pts = _as_point_rows(D, S.dim)
    gains = pts @ S.pieces.T
    midpoint = check_midpoint(S, pts, tol.tol_mid, gains=gains)
    cert = _solve_product(HblInstance([S], [pts]), midpoint, [gains])
    return MokCertificate(
        L=cert.maps[0],
        weights=cert.weights[0],
        value=cert.value,
        target=cert.target,
        gap=cert.gap,
        midpoint=midpoint,
    )
