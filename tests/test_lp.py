import tracemalloc
from typing import Optional

import numpy as np
import pytest
from scipy.optimize import linprog

import minorant.lp as lp_mod
from minorant.lp import (
    _DEGENERATE_LIMIT, _FEAS_TOL, _MAX_ITER, _PIVOT_TOL, LpError, LpSolution, solve_lp,
)


def test_single_bound():
    # maximize t s.t. t <= 1
    sol = solve_lp(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([1.0]))
    assert sol.is_optimal
    assert sol.value == pytest.approx(1.0)


def test_box():
    # maximize x s.t. 0 <= x <= 3
    sol = solve_lp(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([3.0]))
    assert sol.value == pytest.approx(3.0)


def test_unbounded():
    sol = solve_lp(np.array([1.0]))
    assert sol.status == "unbounded"


def test_infeasible():
    # x <= -1 with x >= 0
    sol = solve_lp(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([-1.0]))
    assert sol.status == "infeasible"


def test_equality_and_inequality():
    # maximize x + y s.t. x + y = 1, x <= 0.3
    sol = solve_lp(
        np.array([1.0, 1.0]),
        A_ub=np.array([[1.0, 0.0]]), b_ub=np.array([0.3]),
        A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
    )
    assert sol.value == pytest.approx(1.0)


def test_beale_cycling_instance():
    # Beale's classic degenerate instance, known to cycle under pure
    # Dantzig pricing; the Bland fallback must end it at the optimum 0.05.
    # maximize 0.75 x1 - 150 x2 + 0.02 x3 - 6 x4
    c = np.array([0.75, -150.0, 0.02, -6.0])
    A_ub = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b_ub = np.array([0.0, 0.0, 1.0])
    sol = solve_lp(c, A_ub, b_ub)
    assert sol.is_optimal
    # Optimum verified independently by scipy below and by vertex reasoning.
    ref = linprog(-c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * 4, method="highs")
    assert sol.value == pytest.approx(-ref.fun, abs=1e-9)
    assert sol.value == pytest.approx(0.05)


@pytest.mark.parametrize("seed", range(40))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 6)
    m = rng.integers(1, 6)
    c = rng.uniform(-2, 2, n)
    A_ub = rng.uniform(-2, 2, (m, n))
    b_ub = rng.uniform(0.1, 3, m)  # 0 feasible, so never infeasible
    # Cap the box so the problem is bounded.
    A_box = np.vstack([A_ub, np.eye(n)])
    b_box = np.concatenate([b_ub, np.full(n, 5.0)])
    sol = solve_lp(c, A_box, b_box)
    assert sol.is_optimal
    ref = linprog(-c, A_ub=A_box, b_ub=b_box, bounds=[(0, None)] * n, method="highs")
    assert ref.status == 0
    assert sol.value == pytest.approx(-ref.fun, abs=1e-8)


def test_deterministic():
    rng = np.random.default_rng(123)
    c = rng.uniform(-1, 1, 5)
    A = rng.uniform(-1, 1, (6, 5))
    b = rng.uniform(0.5, 2, 6)
    s1 = solve_lp(c, A, b)
    s2 = solve_lp(c, A, b)
    assert s1.value == s2.value
    assert np.array_equal(s1.x, s2.x)


# ---------------------------------------------------------------------------
# Equivalence with the element-at-a-time simplex.  The row loop of `_pivot`,
# the selection loops and the artificial pivot-out loop below are the
# original implementation, kept as the reference oracle; the vectorized
# solver must give the same bits.


class _Counts:
    def __init__(self):
        self.ties = 0           # ratio-test ties broken on the basis index
        self.phase1 = 0         # phase-1 runs (the tableau has artificial columns)
        self.pivot_outs = 0     # leftover artificials pivoted out after phase 1
        self.pivots = 0         # every pivot, pivot-outs included
        self.bland_fallbacks = 0  # phases that switched to Bland's rule


def _reference(counts: _Counts, degenerate_limit: int = _DEGENERATE_LIMIT,
               n_real: Optional[int] = None):
    """The loop solver.  Entry is on the most negative reduced cost (lowest
    index on ties) until `degenerate_limit` consecutive degenerate pivots,
    then on Bland's lowest eligible index; 0 gives Bland's rule throughout.
    Columns from `n_real` on are artificial: a run whose cost prices one is
    phase 1."""
    def pivot(T, basis, row, col):
        counts.pivots += 1
        T[row] /= T[row, col]
        piv = T[row]
        for r in range(T.shape[0]):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * piv
        basis[row] = col

    def simplex_core(T, basis, cost, allowed):
        if n_real is not None and np.any(cost[n_real:-1] != 0.0):
            counts.phase1 += 1
        m, ncols = T.shape
        n = ncols - 1
        degenerate = 0
        for _ in range(_MAX_ITER):
            y = cost[basis]
            reduced = y @ T[:, :n] - cost[:n]
            enter = -1
            for j in range(n):
                if allowed[j] and reduced[j] < -_PIVOT_TOL and (
                    enter < 0 or reduced[j] < reduced[enter]
                ):
                    enter = j
                    if degenerate >= degenerate_limit:
                        break
            if enter < 0:
                return "optimal", reduced
            leave = -1
            best_ratio = np.inf
            for r in range(m):
                a = T[r, enter]
                if a > _PIVOT_TOL:
                    ratio = T[r, -1] / a
                    tie = abs(ratio - best_ratio) <= _PIVOT_TOL
                    if ratio < best_ratio - _PIVOT_TOL or (
                        tie and (leave < 0 or basis[r] < basis[leave])
                    ):
                        counts.ties += tie and leave >= 0
                        best_ratio = ratio
                        leave = r
            if leave < 0:
                return "unbounded", reduced
            if degenerate < degenerate_limit:
                degenerate = degenerate + 1 if best_ratio <= _PIVOT_TOL else 0
                counts.bland_fallbacks += degenerate == degenerate_limit
            pivot(T, basis, leave, enter)
        raise LpError("simplex iteration cap exceeded")

    def drive_out_artificials(T, basis, art_mask, n_real):
        for r in range(T.shape[0]):
            if art_mask[basis[r]]:
                for j in range(n_real):
                    if abs(T[r, j]) > _PIVOT_TOL:
                        counts.pivot_outs += 1
                        pivot(T, basis, r, j)
                        break

    return pivot, simplex_core, drive_out_artificials


def _seed_solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """The original tableau layout, with one artificial column per row (the
    unused ones stay zero), solved by the reference loops."""
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    n = c.size
    rows, rhs, kinds = [], [], []
    for A, b, kind in ((A_ub, b_ub, "ub"), (A_eq, b_eq, "eq")):
        if A is not None:
            A = np.asarray(A, dtype=np.float64).reshape(-1, n)
            b = np.asarray(b, dtype=np.float64).reshape(-1)
            for r in range(A.shape[0]):
                rows.append(A[r])
                rhs.append(b[r])
                kinds.append(kind)
    m = len(rows)
    if m == 0:
        if np.any(c > 0):
            return LpSolution("unbounded", None, None)
        return LpSolution("optimal", np.zeros(n), 0.0, np.zeros(0))
    n_slack = kinds.count("ub")
    pivot, simplex_core, drive_out = _reference(_Counts(), n_real=n + n_slack)
    ncols = n + n_slack + m
    T = np.zeros((m, ncols + 1))
    basis = np.full(m, -1, dtype=np.int64)
    art_cols = []
    dual_cols, signs = [], []
    s = 0
    for r in range(m):
        a, b = rows[r].copy(), rhs[r]
        slack_col = -1
        if kinds[r] == "ub":
            slack_col = n + s
            s += 1
        sign = 1.0
        if b < 0:
            sign, a, b = -1.0, -a, -b
        # The dual of a row is the reduced cost of its slack column, or of
        # its artificial column times its sign for an equality row.
        dual_cols.append(slack_col if slack_col >= 0 else n + n_slack + r)
        signs.append(1.0 if slack_col >= 0 else sign)
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
    art_mask = np.zeros(ncols, dtype=bool)
    art_mask[art_cols] = True
    unused = np.setdiff1d(np.arange(n + n_slack, ncols), art_cols)
    if art_cols:
        cost1 = np.zeros(ncols + 1)
        cost1[art_cols] = -1.0
        simplex_core(T, basis, cost1, np.ones(ncols, dtype=bool))
        if float(cost1[basis] @ T[:, -1]) < -_FEAS_TOL:
            return LpSolution("infeasible", None, None)
        drive_out(T, basis, art_mask, n + n_slack)
    cost2 = np.zeros(ncols + 1)
    cost2[:n] = c
    status, _ = simplex_core(T, basis, cost2, ~art_mask)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)
    x = np.zeros(ncols)
    x[basis] = T[:, -1]
    xr = x[:n].copy()
    # The duals are the final reduced costs, priced as solve_lp prices them:
    # over a C-ordered tableau of the compact layout's columns (the unused
    # artificial columns are zero), since the bits of a BLAS matrix-vector
    # product can depend on the matrix's width and memory order.
    keep = np.setdiff1d(np.arange(ncols + 1), unused)
    Tc = np.ascontiguousarray(T[:, keep])
    reduced = np.zeros(ncols)
    reduced[keep[:-1]] = cost2[basis] @ Tc[:, :-1] - cost2[keep[:-1]]
    return LpSolution("optimal", xr, float(c @ xr), reduced[dual_cols] * np.array(signs))


BEALE = (
    np.array([0.75, -150.0, 0.02, -6.0]),
    np.array([[0.25, -60.0, -1.0 / 25.0, 9.0],
              [0.5, -90.0, -1.0 / 50.0, 3.0],
              [0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
    None,
    None,
)


def _corpus_case(seed: int):
    """A seeded LP with negative right-hand sides, equality rows (some of
    them redundant copies), and integer data with zero right-hand sides so
    that ratio ties are common."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(0, 6))
    m_eq = int(rng.integers(0, 4))
    if seed % 3 == 0:
        A_ub = rng.integers(-2, 3, (m_ub, n)).astype(np.float64)
        b_ub = rng.integers(-1, 3, m_ub).astype(np.float64)
    else:
        A_ub = rng.uniform(-2, 2, (m_ub, n))
        b_ub = rng.uniform(-1.5, 3, m_ub)
    A_eq = rng.integers(-1, 3, (m_eq, n)).astype(np.float64)
    x0 = rng.integers(0, 2, n).astype(np.float64)
    b_eq = A_eq @ x0 if seed % 4 else rng.integers(-2, 3, m_eq).astype(np.float64)
    if m_eq and seed % 5 == 0:
        # Repeat an equality row: its artificial cannot leave in phase 1.
        A_eq = np.vstack([A_eq, A_eq[:1]])
        b_eq = np.concatenate([b_eq, b_eq[:1]])
    if seed % 2:
        A_ub = np.vstack([A_ub, np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(n, 4.0)])
    c = rng.integers(-3, 4, n).astype(np.float64) if seed % 3 == 0 else rng.uniform(-2, 2, n)
    return (c, A_ub if A_ub.shape[0] else None, b_ub if A_ub.shape[0] else None,
            A_eq if A_eq.shape[0] else None, b_eq if A_eq.shape[0] else None)


CORPUS = [BEALE] + [_corpus_case(seed) for seed in range(120)]


def _dense_case(m: int, n: int, seed: int = 0):
    """A dense random LP: m - n rows with right-hand sides >= 0.1 and the
    box 0 <= x <= 1, so the origin is feasible and every pivot column is
    mostly nonzero."""
    rng = np.random.default_rng(seed)
    A_ub = np.vstack([rng.uniform(-1, 1, (m - n, n)), np.eye(n)])
    b_ub = np.concatenate([rng.uniform(0.1, 1, m - n), np.ones(n)])
    return rng.uniform(-1, 1, n), A_ub, b_ub, None, None


DENSE = {f"{m}x{n}": _dense_case(m, n) for m, n in ((130, 30), (240, 40), (350, 50))}


def _polytope_case(keys: int, seed: int):
    """A minimum LP shaped like the piece side of a benchmark polytope: one
    row G^T nu - t <= -c_i per piece for 48 pieces of a 6-d function at
    `keys` vertices, the free level t = t+ - t-, and the simplex row over
    the vertex weights nu.  About half of the offsets c are positive, so
    those rows start on an artificial, as the simplex row does: the origin
    is infeasible and phase 1 runs."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1, 1, (keys, 6)) @ rng.normal(size=(6, 48))
    c = np.zeros(keys + 2)
    c[keys:] = [-1.0, 1.0]
    A_ub = np.hstack([G.T, -np.ones((48, 1)), np.ones((48, 1))])
    A_eq = np.append(np.ones(keys), [0.0, 0.0])[None, :]
    return c, A_ub, -rng.uniform(-1, 1, 48), A_eq, np.array([1.0])


POLYTOPE = {f"polytope-{keys}": _polytope_case(keys, seed) for keys, seed in ((64, 0), (128, 1))}


def _solve_with(case, monkeypatch=None, counts=None, degenerate_limit=_DEGENERATE_LIMIT):
    if monkeypatch is not None:
        n_real = len(case[0]) + (0 if case[2] is None else len(case[2]))
        pivot, core, drive_out = _reference(counts, degenerate_limit, n_real)
        monkeypatch.setattr(lp_mod, "_pivot", pivot)
        monkeypatch.setattr(lp_mod, "_simplex_core", core)
        monkeypatch.setattr(lp_mod, "_drive_out_artificials", drive_out)
    return solve_lp(*case)


def _same_bits(a, b):
    assert a.status == b.status
    if a.x is None:
        assert b.x is None and a.value is None and b.value is None
    else:
        assert a.x.tobytes() == b.x.tobytes()
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
    assert (a.duals is None) == (b.duals is None)
    if a.duals is not None:
        assert a.duals.tobytes() == b.duals.tobytes()


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_vectorized_simplex_matches_loop_reference(index, monkeypatch):
    case = CORPUS[index]
    got = _solve_with(case)
    with monkeypatch.context() as mp:
        want = _solve_with(case, mp, _Counts())
    _same_bits(got, want)


@pytest.mark.parametrize("case", [*CORPUS, *DENSE.values(), *POLYTOPE.values()],
                         ids=[*map(str, range(len(CORPUS))), *DENSE, *POLYTOPE])
def test_compact_layout_matches_seed_layout(case):
    # The seed's tableau gave every row an artificial column; solve_lp gives
    # one only to the rows that start on it.  The pivot order and every bit
    # of the solution must be the same.
    _same_bits(solve_lp(*case), _seed_solve_lp(*case))


@pytest.mark.parametrize("name", POLYTOPE)
def test_polytope_shaped_lp_matches_loop_reference(name, monkeypatch):
    case = POLYTOPE[name]
    assert 16 <= np.count_nonzero(case[2] < 0) <= 32   # rows on an artificial
    counts = _Counts()
    with monkeypatch.context() as mp:
        want = _solve_with(case, mp, counts)
    assert want.is_optimal and counts.phase1 == 1 and counts.pivots > 20
    _same_bits(solve_lp(*case), want)
    # Again with a product buffer of a few rows, so that every pivot runs
    # its update in row blocks, the last one short.
    made = []
    make = lp_mod._product_buffer
    monkeypatch.setattr(lp_mod, "_BLOCK_CELLS", 2000)
    monkeypatch.setattr(lp_mod, "_product_buffer", lambda T: made.append(make(T)) or made[-1])
    _same_bits(solve_lp(*case), want)
    assert made and all(1 < len(buf) < 49 and 49 % len(buf) for buf in made)


@pytest.mark.parametrize("nonzero_rows", [1, 4])
def test_pivot_keeps_signed_zeros(nonzero_rows):
    # Row 5 has a zero in the pivot column, so it must stay untouched: its
    # -0.0 would become +0.0 under -0.0 - (0.0 * -1.0).  Row 1 has the
    # multiplier -6.0 and -0.0 where the pivot row has -0.0 and +0.0: the
    # loop gives -0.0 - (-6.0 * -0.0) = -0.0 and -0.0 - (-6.0 * +0.0) = +0.0,
    # where an update whose products start from +0.0 (einsum, or a BLAS
    # rank-1 update) keeps the second -0.0.  The pivot column is sparse (one
    # other nonzero row) or dense (four).  The update runs in one block and
    # in blocks of two rows.
    base = np.arange(1.0, 31.0).reshape(6, 5)
    base[0] = [2.0, -2.0, -0.0, 0.0, 4.0]
    base[1, 0] = -6.0
    base[1, 2:4] = -0.0
    base[1 + nonzero_rows:, 0] = 0.0
    base[5, 1] = -0.0
    want = base.copy()
    _reference(_Counts())[0](want, np.zeros(6, dtype=np.int64), 0, 0)
    assert np.signbit(want[1, 2]) and not np.signbit(want[1, 3])
    for buf in (None, np.empty((2, 5))):
        T = base.copy()
        basis = np.zeros(6, dtype=np.int64)
        lp_mod._pivot(T, basis, 0, 0, buf)
        assert T.tobytes() == want.tobytes()
        assert np.signbit(T[5, 1]) and T[5, 1] == 0.0
        assert basis[0] == 0


def test_pivot_temporaries_stay_within_one_block():
    # A tableau of several product blocks, some rows with a zero multiplier:
    # the pivot allocates at most one block, numpy's iterator buffer for the
    # broadcast pivot row (np.getbufsize() floats) and O(rows + columns)
    # floats, not a temporary of the tableau's size.
    rng = np.random.default_rng(0)
    m, width = 400, 1001
    T = rng.uniform(0.5, 2.0, (m, width))
    T[::7, 3] = 0.0
    want = T.copy()
    _reference(_Counts())[0](want, np.arange(m), 5, 3)
    assert T.size > 4 * lp_mod._BLOCK_CELLS
    tracemalloc.start()
    try:
        lp_mod._pivot(T, np.arange(m), 5, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert T.tobytes() == want.tobytes()
    assert peak <= 8 * (lp_mod._BLOCK_CELLS + np.getbufsize() + 4 * (m + width))


def _sequential_leaving_row(T, basis, enter):
    """The ratio test as a loop over the rows: (row, ratio), or (-1, inf)."""
    leave, best = -1, np.inf
    for r in range(T.shape[0]):
        a = T[r, enter]
        if a > _PIVOT_TOL:
            ratio = float(T[r, -1] / a)
            if ratio < best - _PIVOT_TOL or (
                abs(ratio - best) <= _PIVOT_TOL and (leave < 0 or basis[r] < basis[leave])
            ):
                best, leave = ratio, r
    return leave, best


def test_leaving_row_matches_sequential_rule_near_ties():
    # The least ratio, then a second one 0, tau/2, tau, 2 tau or 3 tau above
    # it, moved by a few ulps, at magnitudes 1e-3 to 1e11 (above about
    # 1e7 an ulp exceeds tau); the other rows are larger ratios, rows that
    # are not eligible, and right-hand sides of NaN and +-inf.  Designed
    # ratios have entry 1.0, so rhs / entry is exactly the ratio.
    rng = np.random.default_rng(23)
    tau = _PIVOT_TOL
    fast = 0
    for _ in range(4000):
        m = int(rng.integers(2, 10))
        scale = 10.0 ** rng.uniform(-3, 11)
        low = (scale * rng.uniform(0.5, 2.0), 0.0, -1e-12 * scale)[int(rng.integers(0, 3))]
        second = low + tau * (0.0, 0.5, 1.0, 2.0, 3.0)[int(rng.integers(0, 5))]
        for _ in range(int(rng.integers(-2, 4))):
            second = np.nextafter(second, np.inf if second >= low else -np.inf)
        T = np.empty((m, 2))
        T[:, 0] = 1.0
        T[:, 1] = second + scale * rng.uniform(0.0, 3.0, m)
        rows = rng.permutation(m)
        T[rows[0], 1], T[rows[1], 1] = low, second
        for r in rows[2:]:
            kind = int(rng.integers(0, 6))
            if kind == 1:
                T[r, 0] = (0.0, -0.0, -1.0, tau, 0.5 * tau, np.nan)[int(rng.integers(0, 6))]
            elif kind == 2:
                T[r, 1] = (np.nan, np.inf, -np.inf)[int(rng.integers(0, 3))]
            elif kind == 3:
                T[r, 0] = rng.uniform(0.1, 10.0)
        if rng.random() < 0.05:
            T[rows[0], 1] = (np.nan, np.inf)[int(rng.integers(0, 2))]
        basis = rng.permutation(3 * m)[:m]
        want = _sequential_leaving_row(T, basis, 0)
        got = lp_mod._leaving_row(T, basis, 0, np.empty(m))
        assert (got[0], np.float64(got[1]).tobytes()) == (want[0], np.float64(want[1]).tobytes())
        finite = np.abs(T[:, 1] / np.where(T[:, 0] > tau, T[:, 0], np.nan)) < np.inf
        fast += want[0] >= 0 and np.count_nonzero(
            T[finite, 1] / T[finite, 0] <= want[1] + 2 * tau) == 1
    assert 1000 < fast < 3000    # both the one-pass answer and the loop run


def test_corpus_reaches_every_path(monkeypatch):
    counts = _Counts()
    statuses = set()
    for case in CORPUS:
        with monkeypatch.context() as mp:
            statuses.add(_solve_with(case, mp, counts).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    # Phase 1 runs once on each case with an equality row or a negative
    # right-hand side, and on no other; Beale's instance has neither.
    assert counts.phase1 == sum(
        A_eq is not None or (b_ub is not None and bool(np.any(b_ub < 0)))
        for _, _, b_ub, A_eq, _ in CORPUS) > 0
    beale = _Counts()
    with monkeypatch.context() as mp:
        _solve_with(BEALE, mp, beale)
    assert beale.phase1 == 0 and beale.pivots > 0
    assert counts.pivot_outs > 0
    assert counts.ties > 0
    assert counts.bland_fallbacks > 0   # Beale's instance


def test_bland_fallback_matches_loop_reference(monkeypatch):
    # With a limit of 1, the first degenerate pivot switches its phase to
    # Bland's rule for the rest of the phase; both solvers must agree.
    monkeypatch.setattr(lp_mod, "_DEGENERATE_LIMIT", 1)
    counts = _Counts()
    for case in CORPUS:
        with monkeypatch.context() as mp:
            want = _solve_with(case, mp, counts, degenerate_limit=1)
        _same_bits(solve_lp(*case), want)
    assert counts.bland_fallbacks > 1


@pytest.mark.parametrize("name", DENSE)
def test_dantzig_pricing_takes_fewer_pivots_than_bland(name, monkeypatch):
    case = DENSE[name]
    dantzig, bland = _Counts(), _Counts()
    with monkeypatch.context() as mp:
        _solve_with(case, mp, dantzig)
    with monkeypatch.context() as mp:
        _solve_with(case, mp, bland, degenerate_limit=0)
    pivots = []
    pivot = lp_mod._pivot
    monkeypatch.setattr(lp_mod, "_pivot", lambda *args: pivots.append(pivot(*args)))
    solve_lp(*case)
    assert len(pivots) == dantzig.pivots < bland.pivots


@pytest.mark.parametrize("seed", range(20))
def test_duals_match_scipy_marginals(seed):
    # A feasible, bounded LP around x0 > 0 with a negative-rhs row and an
    # equality row with b < 0, so both duals read through an artificial
    # start.  scipy minimizes -c, so its marginals are the duals negated.
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    x0 = rng.uniform(0.5, 1.5, n)
    A_ub = np.vstack([rng.uniform(-2, 2, (m, n)), -np.ones((1, n)), np.eye(n)])
    b_ub = np.concatenate([A_ub[:m] @ x0 + rng.uniform(0.1, 1.0, m),
                           [-0.5 * x0.sum()], np.full(n, 5.0)])
    A_eq = np.vstack([-rng.uniform(0.5, 1.5, (1, n)), rng.uniform(-2, 2, (seed % 2, n))])
    b_eq = A_eq @ x0
    assert np.any(b_ub < 0) and b_eq[0] < 0
    c = rng.uniform(-2, 2, n)
    sol = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    ref = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs")
    assert sol.is_optimal and ref.status == 0
    y_ub, y_eq = sol.duals[:len(b_ub)], sol.duals[len(b_ub):]
    np.testing.assert_allclose(y_ub, -ref.ineqlin.marginals, atol=1e-8)
    np.testing.assert_allclose(y_eq, -ref.eqlin.marginals, atol=1e-8)
    # Strong duality, and dual feasibility: y_ub >= 0 and A^T y >= c.
    assert abs(b_ub @ y_ub + b_eq @ y_eq - sol.value) <= 1e-9
    assert np.all(y_ub >= -1e-9)
    assert np.all(A_ub.T @ y_ub + A_eq.T @ y_eq >= c - 1e-9)


def test_duals_only_when_optimal():
    assert solve_lp(np.array([-1.0])).duals.shape == (0,)
    assert solve_lp(np.array([1.0])).duals is None
    infeasible = solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    assert infeasible.status == "infeasible" and infeasible.duals is None


@pytest.mark.parametrize("seed", range(40))
def test_phase1_random_against_scipy(seed):
    # Negative right-hand sides and equality rows: the origin is infeasible,
    # so every case runs phase 1, and some cases are infeasible outright.
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 6))
    m_eq = int(rng.integers(0, 3))
    c = rng.uniform(-2, 2, n)
    A_ub = np.vstack([rng.uniform(-2, 2, (m, n)), np.eye(n)])
    b_ub = np.concatenate([rng.uniform(-1.5, 3, m), np.full(n, 5.0)])
    b_ub[0] = -abs(b_ub[0]) - 0.1
    A_eq = rng.uniform(-2, 2, (m_eq, n)) if m_eq else None
    b_eq = rng.uniform(-2, 2, m_eq) if m_eq else None
    sol = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    ref = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs")
    assert ref.status in (0, 2)
    if ref.status == 2:
        assert sol.status == "infeasible"
    else:
        assert sol.is_optimal
        assert sol.value == pytest.approx(-ref.fun, abs=1e-8)
