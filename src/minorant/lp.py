"""Self-contained dense two-phase simplex: Dantzig pricing with a Bland
fallback.

This is deliberately dependency-free and deterministic: the pivot rule is
fixed, so identical inputs produce bit-identical solutions.  The column
with the most negative reduced cost enters (lowest index on ties), and the
lowest-index basic variable leaves on ratio ties.  After
`_DEGENERATE_LIMIT` consecutive degenerate pivots the phase switches to
Bland's rule (lowest eligible index enters) for good, so it cannot cycle.

Problem sizes here are modest: one row per piece (tens on the benchmark)
or per key, whichever is fewer, and one column per key or per piece (up to
a few hundred on the benchmark), so a dense tableau is the right tool.

Each iteration keeps the bits of the row-at-a-time loop: the entering
column is one masked argmin (Bland: argmax), the ratio test runs its
sequential tie rule only on near-ties (`_leaving_row`), and the pivot is
an unmasked rank-1 update in blocks of rows through a buffer of at most
`_BLOCK_CELLS` cells (`_pivot`).

Tableau layout: the variables, one slack per inequality row, one artificial
per row that needs one (an equality row or a row with a negative right-hand
side, in row order), then the right-hand side.

Convention: maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

Row duals come from the final phase-2 reduced costs, with no extra solve.
The dual of inequality row i is the reduced cost of its slack column; the
slack column of a negated row carries the sign, so the dual is that of the
row as given.  The dual of an equality row is the reduced cost of its
artificial column times the row's sign.  At an optimum the duals y solve
min b.y over y_ub >= 0, A^T y >= c, and b.y = c.x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["LpSolution", "solve_lp", "LpError", "tableau_cells"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
_MAX_ITER = 20000
_DEGENERATE_LIMIT = 50   # consecutive degenerate pivots before Bland's rule
_BLOCK_CELLS = 1 << 16   # cells of the pivot's product buffer (512 KB)


class LpError(RuntimeError):
    """Internal solver failure (iteration cap hit); should not occur on
    well-posed inputs, since a stalled phase falls back to Bland's rule."""


@dataclass(frozen=True)
class LpSolution:
    status: str                  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]      # primal point when optimal
    value: Optional[float]       # objective value when optimal
    duals: Optional[np.ndarray] = None  # row duals when optimal: b_ub rows, then b_eq rows

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _product_buffer(T: np.ndarray) -> np.ndarray:
    """The buffer `_pivot` forms its products in, for tableau T: whole
    rows, at most `_BLOCK_CELLS` cells unless one row alone is longer."""
    m, width = T.shape
    return np.empty((max(1, min(m, _BLOCK_CELLS // width)), width))


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
           buf: Optional[np.ndarray] = None) -> None:
    """Pivot T on (row, col) in place, with the bits of the row loop
    `T[r] -= T[r, col] * T[row]` over every other row with a nonzero in
    the pivot column.

    The rank-1 update runs unmasked, one block of rows of `buf` (from
    `_product_buffer`; made here when not given) at a time: the buffer
    takes the block's multipliers T[r, col] times the pivot row, and the
    block subtracts it, so no temporary of the tableau's size is made.  Before
    the subtraction the product rows of the pivot row and of the rows with
    a zero multiplier are set to +0.0: x - (+0.0) is x in every bit, so
    those rows keep their signed zeros, which a product of -0.0 could flip.
    Subtracting +0.0 cannot overflow, so a floating-point error can come
    only from a product of a multiplier and a pivot-row entry.
    """
    T[row] /= T[row, col]
    if buf is None:
        buf = _product_buffer(T)
    prow = T[row]                          # left as it is by the update
    m, step = T.shape[0], buf.shape[0]
    for lo in range(0, m, step):
        block, out = T[lo:lo + step], buf[:m - lo]
        mult = block[:, col:col + 1]
        # out[r, j] = T[r, col] * T[row, j], in the loop's operand order;
        # numpy runs this faster than one broadcast multiply into out.
        np.copyto(out, mult)
        out *= prow
        if np.count_nonzero(mult) < len(mult):
            np.copyto(out, 0.0, where=mult == 0.0)
        if lo <= row < lo + step:
            out[row - lo] = 0.0
        block -= out
    basis[row] = col


def _leaving_row(T: np.ndarray, basis: np.ndarray, enter: int,
                 ratios: np.ndarray) -> Tuple[int, float]:
    """Ratio test on column `enter` of T: the leaving row and its ratio
    rhs / entry over the rows whose entry exceeds `_PIVOT_TOL`, or
    (-1, inf) when the rule picks none: no such row, or only +inf and NaN
    ratios.  `ratios` is a work array with one cell per row.

    The rule is sequential (a tolerance band, not an argmin): in row order
    a ratio below the best by more than `_PIVOT_TOL`, or within it with a
    lower basic variable index, becomes the best.  A finite minimum with
    no other ratio within 2 * _PIVOT_TOL of it is the row that rule picks,
    so it leaves at once and only near-ties run the loop.
    """
    column = T[:, enter]
    positive = column > _PIVOT_TOL
    ratios.fill(np.inf)
    np.divide(T[:, -1], column, out=ratios, where=positive)
    leave = int(ratios.argmin())
    best_ratio = float(ratios[leave])
    if abs(best_ratio) < np.inf and np.count_nonzero(
            ratios <= best_ratio + 2 * _PIVOT_TOL) == 1:
        return leave, best_ratio
    rows = np.flatnonzero(positive)
    leave = -1
    best_ratio = np.inf
    for r, ratio in zip(rows.tolist(), ratios[rows].tolist()):
        if ratio < best_ratio - _PIVOT_TOL or (
            abs(ratio - best_ratio) <= _PIVOT_TOL
            and (leave < 0 or basis[r] < basis[leave])
        ):
            best_ratio = ratio
            leave = r
    return leave, best_ratio


def _simplex_core(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                  allowed: np.ndarray) -> Tuple[str, np.ndarray]:
    """Run the simplex on tableau T (rows = constraints, last column = rhs)
    maximizing `cost` over columns flagged in `allowed`: Dantzig pricing,
    then Bland's rule once `_DEGENERATE_LIMIT` pivots in a row are
    degenerate (leaving ratio within `_PIVOT_TOL` of zero).

    Returns "optimal" or "unbounded", and the reduced costs of the last
    pricing step.  T and basis are updated in place.
    """
    n = T.shape[1] - 1
    buf = _product_buffer(T)
    ratios = np.empty(T.shape[0])
    degenerate = 0                         # consecutive degenerate pivots
    for _ in range(_MAX_ITER):
        # Reduced costs: z_j - c_j computed by pricing the basis.
        y = cost[basis]                    # basic objective coefficients
        reduced = y @ T[:, :n] - cost[:n]
        eligible = allowed & (reduced < -_PIVOT_TOL)   # a NaN is never eligible
        if degenerate < _DEGENERATE_LIMIT:
            # Dantzig: most negative reduced cost, lowest index on ties.
            enter = int(np.where(eligible, reduced, np.inf).argmin())
        else:
            enter = int(eligible.argmax())    # Bland: lowest eligible index
        if not eligible[enter]:
            return "optimal", reduced
        leave, best_ratio = _leaving_row(T, basis, enter, ratios)
        if leave < 0:
            return "unbounded", reduced
        if degenerate < _DEGENERATE_LIMIT:  # once reached, Bland holds
            degenerate = degenerate + 1 if best_ratio <= _PIVOT_TOL else 0
        _pivot(T, basis, leave, enter, buf)
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


def tableau_cells(n_ub: int, n_eq: int, nvars: int) -> int:
    """Worst-case cells of the tableau `solve_lp` builds for `n_ub`
    inequality rows, `n_eq` equality rows and `nvars` variables, as if
    every row had an artificial column; only equality rows and rows with a
    negative right-hand side get one."""
    rows = n_ub + n_eq
    return rows * (nvars + n_ub + rows + 1)


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
    blocks = []
    for A_k, b_k in ((A_ub, b_ub), (A_eq, b_eq)):
        if A_k is None:
            blocks.append((np.zeros((0, n)), np.zeros(0)))
        else:
            blocks.append((np.asarray(A_k, dtype=np.float64).reshape(-1, n),
                           np.asarray(b_k, dtype=np.float64).reshape(-1)))
    (A_ub, b_ub), (A_eq, b_eq) = blocks
    n_slack = A_ub.shape[0]
    b = np.concatenate([b_ub, b_eq])
    m = b.size
    if m == 0:
        # Unconstrained over the nonnegative orthant.
        if np.any(c > 0):
            return LpSolution("unbounded", None, None)
        return LpSolution("optimal", np.zeros(n), 0.0, np.zeros(0))

    # A row with a negative rhs is negated; it and every equality row start
    # on an artificial, every other row on its slack.  The rows go straight
    # into the tableau and are negated there, so no copy of A is made.
    negative = b < 0
    sign = np.where(negative, -1.0, 1.0)
    slack_rows = np.arange(n_slack)
    art_rows = np.flatnonzero(negative | (np.arange(m) >= n_slack))
    art_cols = n + n_slack + np.arange(art_rows.size)
    ncols = n + n_slack + art_rows.size
    T = np.zeros((m, ncols + 1))
    T[:n_slack, :n] = A_ub
    T[n_slack:, :n] = A_eq
    np.negative(T[:, :n], out=T[:, :n], where=negative[:, None])
    T[slack_rows, n + slack_rows] = sign[:n_slack]
    T[art_rows, art_cols] = 1.0
    T[:, -1] = sign * b
    basis = n + np.arange(m, dtype=np.int64)
    basis[art_rows] = art_cols

    art_mask = np.zeros(ncols, dtype=bool)
    art_mask[art_cols] = True

    # Phase 1: drive artificials to zero.
    if art_rows.size:
        cost1 = np.zeros(ncols + 1)
        cost1[art_cols] = -1.0
        allowed = np.ones(ncols, dtype=bool)
        status, _ = _simplex_core(T, basis, cost1, allowed)
        if status != "optimal":
            raise LpError("phase 1 cannot be unbounded")
        obj1 = float(cost1[basis] @ T[:, -1])
        if obj1 < -_FEAS_TOL:
            return LpSolution("infeasible", None, None)
        _drive_out_artificials(T, basis, art_mask, n + n_slack)

    cost2 = np.zeros(ncols + 1)
    cost2[:n] = c
    allowed = ~art_mask
    status, reduced = _simplex_core(T, basis, cost2, allowed)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)
    x = np.zeros(ncols)
    x[basis] = T[:, -1]
    xr = x[:n].copy()
    # The equality rows are the last rows with an artificial column.
    eq_cols = art_cols[art_rows.size - (m - n_slack):]
    duals = np.concatenate([reduced[n + slack_rows], reduced[eq_cols] * sign[n_slack:]])
    return LpSolution("optimal", xr, float(c @ xr), duals)
