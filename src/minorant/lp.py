"""Self-contained two-phase revised simplex: Dantzig pricing with a Bland
fallback.

This is deliberately dependency-free and deterministic: the pivot rule is
fixed, so identical inputs produce bit-identical solutions.  The column
with the most negative reduced cost enters (lowest index on ties), and the
lowest-index basic variable leaves on ratio ties.  After
`_DEGENERATE_LIMIT` consecutive degenerate pivots the phase switches to
Bland's rule (lowest eligible index enters) for good, so it cannot cycle.

Problem sizes here are modest in rows: one per piece (tens on the
benchmark) or per key, whichever is fewer; the columns, one per key or per
piece, run to a few hundred on the benchmark and to hundreds of thousands
on a large polytope.  So the solver keeps only the revised simplex's state
(Dantzig & Orchard-Hays 1954; Chvatal, *Linear Programming*, ch. 7): the
rows x rows basis inverse B^-1 and the basic solution x_B, side by side in
one array [B^-1 | x_B].  Each iteration prices y = c_B B^-1 against the
constraint matrix as the caller gave it, forms only the entering column
d = B^-1 a_q, runs the ratio test on x_B / d (`_leaving_row`) and applies
the rank-1 update to [B^-1 | x_B] (`_pivot`), so a pivot's cost does not
grow with the number of columns.

Columns, in this order: the variables, one slack per inequality row, and
one artificial per row that starts on one (an equality row or a row with a
negative right-hand side, in row order).  The rows stay as the caller gave
them: the artificial of row r has the coefficient s_r, -1 when b_r < 0
and +1 otherwise, so that it starts at |b_r|.  So B^-1 starts as the diagonal of the row signs
and x_B as |b|, and no copy of the constraint matrix is made (`_Columns`).

Convention: maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

Row duals are y = c_B B^-1 of the last phase-2 pricing, with no extra
solve: the reduced cost of an inequality row's slack and, for an equality
row, the reduced cost of its artificial times the row's sign.  At an
optimum the duals y solve min b.y over y_ub >= 0, A^T y >= c, and
b.y = c.x.
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


class LpError(RuntimeError):
    """Internal solver failure (iteration cap hit); should not occur on
    well-posed inputs, since a stalled phase falls back to Bland's rule."""


@dataclass(frozen=True)
class LpSolution:
    status: str                  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]      # primal point when optimal
    value: Optional[float]       # objective value when optimal
    duals: Optional[np.ndarray] = None  # row duals when optimal: b_ub rows, then b_eq rows
    # Each row's basic column when optimal, numbered variables, then slacks,
    # then artificials.
    basis: Optional[np.ndarray] = None
    pivots: Tuple[int, int] = (0, 0)    # (phase 1 with its pivot-outs, phase 2)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class _Columns:
    """The LP's columns, read from the constraint matrix as the caller gave
    it: variable j is A[:, j], the slack of inequality row i is e_i and the
    artificial of row r is s_r e_r, for the row signs s.  Every matrix
    product of the kernel is here: y = c_B B^-1 (`duals`), y times each
    column (`price`) and d = B^-1 a_j (`column`)."""

    def __init__(self, A_ub: np.ndarray, A_eq: np.ndarray, art_rows: np.ndarray,
                 art_sign: np.ndarray):
        self.A_ub, self.A_eq, self.art_rows, self.art_sign = A_ub, A_eq, art_rows, art_sign
        self.n, self.m_ub = A_ub.shape[1], A_ub.shape[0]
        self.count = self.n + self.m_ub + art_rows.size

    def duals(self, c_B: np.ndarray, state: np.ndarray) -> np.ndarray:
        """y = c_B B^-1 for the state [B^-1 | x_B]."""
        return c_B @ state[:, :-1]

    def price(self, y: np.ndarray, count: int) -> np.ndarray:
        """y times each of the first `count` columns: y . A[:, j] for the
        variables, y_i for the slacks and y_r s_r for the artificials."""
        n, m_ub = self.n, self.m_ub
        out = np.empty(count)
        if m_ub:
            np.matmul(y[:m_ub], self.A_ub, out=out[:n])
        else:
            out[:n] = 0.0
        if self.A_eq.shape[0]:
            out[:n] += y[m_ub:] @ self.A_eq
        out[n:n + m_ub] = y[:m_ub]
        if count > n + m_ub:
            out[n + m_ub:] = y[self.art_rows] * self.art_sign
        return out

    def column(self, state: np.ndarray, j: int) -> np.ndarray:
        """d = B^-1 a_j for column j, from the state [B^-1 | x_B]."""
        n, m_ub = self.n, self.m_ub
        if j >= n + m_ub:
            k = j - n - m_ub
            return state[:, self.art_rows[k]] * self.art_sign[k]
        if j >= n:
            return state[:, j - n].copy()
        a = np.empty(state.shape[0])
        a[:m_ub] = self.A_ub[:, j]
        a[m_ub:] = self.A_eq[:, j]
        return state[:, :-1] @ a


def _pivot(state: np.ndarray, d: np.ndarray, row: int, out: np.ndarray) -> None:
    """Pivot the state [B^-1 | x_B] on `row` for the entering column d, in
    place, with the bits of the row loop `state[r] -= d[r] * state[row]`
    over every other row with a nonzero d[r].

    `out` is a work array of the state's shape.  It takes the products
    d[r] * state[row, j], in the loop's operand order, and the state
    subtracts it.  Before that, the product rows of the pivot row and of
    the rows with a zero d[r] are set to +0.0: x - (+0.0) is x in every
    bit, so those rows keep their signed zeros, which a product of -0.0
    could flip.  A pivot writes rows x (rows + 1) cells.
    """
    state[row] /= d[row]
    np.multiply(d[:, None], state[row], out=out)
    if np.count_nonzero(d) < d.size:
        out[d == 0.0] = 0.0
    out[row] = 0.0
    state -= out


def _leaving_row(d: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
                 ratios: np.ndarray) -> Tuple[int, float]:
    """Ratio test of the entering column d against the basic solution
    `rhs`: the leaving row and its ratio rhs / d over the rows whose d
    exceeds `_PIVOT_TOL`, or (-1, inf) when the rule picks none: no such
    row, or only +inf and NaN ratios.  `ratios` is a work array with one
    cell per row.

    The rule is sequential (a tolerance band, not an argmin): in row order
    a ratio below the best by more than `_PIVOT_TOL`, or within it with a
    lower basic variable index, becomes the best.  A finite minimum with
    no other ratio within 2 * _PIVOT_TOL of it is the row that rule picks,
    so it leaves at once and only near-ties run the loop.
    """
    positive = d > _PIVOT_TOL
    ratios.fill(np.inf)
    np.divide(rhs, d, out=ratios, where=positive)
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


def _simplex_core(cols: _Columns, state: np.ndarray, basis: np.ndarray,
                  cost: np.ndarray, priced: int,
                  out: np.ndarray) -> Tuple[str, np.ndarray, int]:
    """Run the simplex from the state [B^-1 | x_B] maximizing `cost` (one
    entry per column) over the first `priced` columns, which phase 2 takes
    without the artificials: Dantzig pricing, then Bland's rule once
    `_DEGENERATE_LIMIT` pivots in a row are degenerate (leaving ratio
    within `_PIVOT_TOL` of zero).  `out` is `_pivot`'s work array.

    Returns "optimal" or "unbounded", y of the last pricing step and the
    number of pivots.  The state and basis are updated in place.
    """
    ratios = np.empty(state.shape[0])
    degenerate = 0                         # consecutive degenerate pivots
    for pivots in range(_MAX_ITER):
        y = cols.duals(cost[basis], state)
        reduced = cols.price(y, priced)
        reduced -= cost[:priced]           # z_j - c_j
        # Dantzig: the most negative reduced cost, lowest index on ties.
        # A NaN is never eligible, but argmin answers the first NaN, so a
        # NaN answer (and Bland's rule) takes the eligible mask.
        enter = int(reduced.argmin())
        if degenerate >= _DEGENERATE_LIMIT or reduced[enter] != reduced[enter]:
            eligible = reduced < -_PIVOT_TOL
            if degenerate < _DEGENERATE_LIMIT:
                enter = int(np.where(eligible, reduced, np.inf).argmin())
            else:
                enter = int(eligible.argmax())    # Bland: lowest eligible index
        if not reduced[enter] < -_PIVOT_TOL:
            return "optimal", y, pivots
        d = cols.column(state, enter)
        leave, best_ratio = _leaving_row(d, state[:, -1], basis, ratios)
        if leave < 0:
            return "unbounded", y, pivots
        if degenerate < _DEGENERATE_LIMIT:  # once reached, Bland holds
            degenerate = degenerate + 1 if best_ratio <= _PIVOT_TOL else 0
        _pivot(state, d, leave, out)
        basis[leave] = enter
    raise LpError("simplex iteration cap exceeded")


def _drive_out_artificials(cols: _Columns, state: np.ndarray, basis: np.ndarray,
                           out: np.ndarray) -> int:
    """After phase 1, pivot each artificial still in the basis onto the first
    non-artificial column with an entry above `_PIVOT_TOL` in its row of
    B^-1 A.  A row with none is redundant; its artificial stays basic at ~0
    and is kept blocked in phase 2.  Returns the number of pivots."""
    n_real = cols.n + cols.m_ub
    pivots = 0
    for r in np.flatnonzero(basis >= n_real).tolist():   # a pivot changes only its row
        nonzero = np.flatnonzero(np.abs(cols.price(state[r, :-1], n_real)) > _PIVOT_TOL)
        if nonzero.size:
            _pivot(state, cols.column(state, int(nonzero[0])), r, out)
            basis[r] = nonzero[0]
            pivots += 1
    return pivots


def tableau_cells(n_ub: int, n_eq: int, nvars: int) -> int:
    """The work cap's measure of an LP of `n_ub` inequality rows, `n_eq`
    equality rows and `nvars` variables: the cells of its full simplex
    tableau, with an artificial column for every row.  `solve_lp` keeps
    only rows x (rows + 1) of them, plus a few vectors of one cell per
    column."""
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
        return LpSolution("optimal", np.zeros(n), 0.0, np.zeros(0), np.zeros(0, dtype=np.int64))

    # A row with a negative rhs and every equality row start on an
    # artificial, with the coefficient -1 or +1 that makes its start >= 0;
    # every other row starts on its slack.  So B^-1 starts as the diagonal
    # of those signs, and x_B as |b|.
    negative = b < 0
    art_rows = np.flatnonzero(negative | (np.arange(m) >= n_slack))
    sign = np.where(negative, -1.0, 1.0)
    cols = _Columns(A_ub, A_eq, art_rows, sign[art_rows])
    art_cols = n + n_slack + np.arange(art_rows.size)
    state = np.zeros((m, m + 1))
    state.reshape(-1)[::m + 2] = sign      # the diagonal of B^-1
    state[:, -1] = sign * b
    out = np.empty_like(state)
    basis = n + np.arange(m, dtype=np.int64)
    basis[art_rows] = art_cols

    # Phase 1: drive artificials to zero.
    phase1 = 0
    if art_rows.size:
        cost1 = np.zeros(cols.count)
        cost1[art_cols] = -1.0
        status, _, phase1 = _simplex_core(cols, state, basis, cost1, cols.count, out)
        if status != "optimal":
            raise LpError("phase 1 cannot be unbounded")
        if float(cost1[basis] @ state[:, -1]) < -_FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots=(phase1, 0))
        phase1 += _drive_out_artificials(cols, state, basis, out)

    cost2 = np.zeros(cols.count)
    cost2[:n] = c
    status, y, phase2 = _simplex_core(cols, state, basis, cost2, n + n_slack, out)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots=(phase1, phase2))
    xr = np.zeros(n)
    real = basis < n
    xr[basis[real]] = state[real, -1]
    return LpSolution("optimal", xr, float(c @ xr), y, basis, (phase1, phase2))
