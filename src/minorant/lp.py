"""Self-contained dense two-phase simplex with Bland's anti-cycling rule.

This is deliberately dependency-free and deterministic: the pivot rule is
fixed (lowest eligible index enters, lowest-index basic variable leaves on
ratio ties), so identical inputs produce bit-identical solutions.  Problem
sizes here are tiny (tens of variables and rows), so a dense tableau is the
right tool.

Convention: maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LpSolution", "solve_lp", "LpError"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
_MAX_ITER = 20000


class LpError(RuntimeError):
    """Internal solver failure (iteration cap hit); should not occur under
    Bland's rule on well-posed inputs."""


@dataclass(frozen=True)
class LpSolution:
    status: str                  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]      # primal point when optimal
    value: Optional[float]       # objective value when optimal

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # Rows with a zero in the pivot column are left alone, so no signed
    # zero can flip; every other row gets T[r] - T[r, col] * T[row].
    rows = T[:, col] != 0.0
    rows[row] = False
    T[rows] -= np.outer(T[rows, col], T[row])
    basis[row] = col


def _simplex_core(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                  allowed: np.ndarray) -> str:
    """Run Bland-rule simplex on tableau T (rows = constraints, last column =
    rhs) maximizing `cost` over columns flagged in `allowed`.

    Returns "optimal" or "unbounded".  T and basis are updated in place.
    """
    n = T.shape[1] - 1
    for _ in range(_MAX_ITER):
        # Reduced costs: z_j - c_j computed by pricing the basis.
        y = cost[basis]                    # basic objective coefficients
        reduced = y @ T[:, :n] - cost[:n]
        eligible = np.flatnonzero(allowed & (reduced < -_PIVOT_TOL))
        if eligible.size == 0:
            return "optimal"
        enter = int(eligible[0])            # Bland: lowest eligible index
        # Ratio test with Bland tie-break on the leaving basic variable index.
        # The tie-break is sequential (a tolerance band, not an argmin).
        rows = np.flatnonzero(T[:, enter] > _PIVOT_TOL)
        ratios = T[rows, -1] / T[rows, enter]
        leave = -1
        best_ratio = np.inf
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and (leave < 0 or basis[r] < basis[leave])
            ):
                best_ratio = ratio
                leave = r
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
    raise LpError("simplex iteration cap exceeded")


def _drive_out_artificials(T: np.ndarray, basis: np.ndarray, art_mask: np.ndarray,
                           n_real: int) -> None:
    """After phase 1, pivot each artificial still in the basis onto the first
    of the `n_real` non-artificial columns with a nonzero entry in its row.
    A row with none is redundant; its artificial stays basic at ~0 and is
    kept blocked in phase 2."""
    for r in range(T.shape[0]):
        if art_mask[basis[r]]:
            nonzero = np.flatnonzero(np.abs(T[r, :n_real]) > _PIVOT_TOL)
            if nonzero.size:
                _pivot(T, basis, r, int(nonzero[0]))


def solve_lp(
    c: np.ndarray,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
) -> LpSolution:
    """Maximize c.x over {x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}."""
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    n = c.size
    rows = []
    rhs = []
    kinds = []  # "ub" or "eq"
    if A_ub is not None:
        A_ub = np.asarray(A_ub, dtype=np.float64).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=np.float64).reshape(-1)
        for r in range(A_ub.shape[0]):
            rows.append(A_ub[r])
            rhs.append(b_ub[r])
            kinds.append("ub")
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=np.float64).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=np.float64).reshape(-1)
        for r in range(A_eq.shape[0]):
            rows.append(A_eq[r])
            rhs.append(b_eq[r])
            kinds.append("eq")
    m = len(rows)
    if m == 0:
        # Unconstrained over the nonnegative orthant.
        if np.any(c > 0):
            return LpSolution("unbounded", None, None)
        return LpSolution("optimal", np.zeros(n), 0.0)

    n_slack = sum(1 for k in kinds if k == "ub")
    ncols = n + n_slack + m  # one artificial per row, unused ones stay zero
    T = np.zeros((m, ncols + 1))
    basis = np.full(m, -1, dtype=np.int64)
    art_cols = []
    s = 0
    for r in range(m):
        a = rows[r].copy()
        b = rhs[r]
        slack_col = -1
        if kinds[r] == "ub":
            slack_col = n + s
            s += 1
        sign = 1.0
        if b < 0:
            sign = -1.0
            a = -a
            b = -b
        T[r, :n] = a
        if slack_col >= 0:
            T[r, slack_col] = sign
        T[r, -1] = b
        if slack_col >= 0 and sign > 0:
            basis[r] = slack_col
        else:
            col = n + n_slack + r
            T[r, col] = 1.0
            basis[r] = col
            art_cols.append(col)
        # rows with negated slack need an artificial to start feasible

    art_mask = np.zeros(ncols, dtype=bool)
    art_mask[art_cols] = True

    # Phase 1: drive artificials to zero.
    if art_cols:
        cost1 = np.zeros(ncols + 1)
        cost1[art_cols] = -1.0
        allowed = np.ones(ncols, dtype=bool)
        status = _simplex_core(T, basis, cost1, allowed)
        if status != "optimal":
            raise LpError("phase 1 cannot be unbounded")
        obj1 = float(cost1[basis] @ T[:, -1])
        if obj1 < -_FEAS_TOL:
            return LpSolution("infeasible", None, None)
        _drive_out_artificials(T, basis, art_mask, n + n_slack)

    cost2 = np.zeros(ncols + 1)
    cost2[:n] = c
    allowed = ~art_mask
    status = _simplex_core(T, basis, cost2, allowed)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)
    x = np.zeros(ncols)
    x[basis] = T[:, -1]
    xr = x[:n].copy()
    return LpSolution("optimal", xr, float(c @ xr))
