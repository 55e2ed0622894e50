import tracemalloc

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
# Equivalence with the element-at-a-time revised simplex.  `_revised_loops`
# is the kernel a row and a column at a time: the sequential entering and
# leaving rules, the row loop of the [B^-1 | x_B] update and the artificial
# pivot-out loop.  Its three matrix products (y = c_B B^-1, y times the
# columns, B^-1 a_q) are the kernel's own expressions on the same operands,
# so solve_lp must give the same bits.


class _Counts:
    def __init__(self):
        self.ties = 0           # ratio-test ties broken on the basis index
        self.phase1 = 0         # phase-1 runs (some row starts on an artificial)
        self.pivot_outs = 0     # leftover artificials pivoted out after phase 1
        self.pivots = 0         # every pivot, pivot-outs included
        self.bland_fallbacks = 0  # phases that switched to Bland's rule


def _blocks(c, A_ub, b_ub, A_eq, b_eq):
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    n = c.size
    out = [c]
    for A, b in ((A_ub, b_ub), (A_eq, b_eq)):
        if A is None:
            out += [np.zeros((0, n)), np.zeros(0)]
        else:
            out += [np.asarray(A, dtype=np.float64).reshape(-1, n),
                    np.asarray(b, dtype=np.float64).reshape(-1)]
    return out


def _revised_loops(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *,
                   counts=None, degenerate_limit=_DEGENERATE_LIMIT) -> LpSolution:
    """The loop solver.  Entry is on the most negative reduced cost (lowest
    index on ties) until `degenerate_limit` consecutive degenerate pivots,
    then on Bland's lowest eligible index; 0 gives Bland's rule throughout."""
    counts = _Counts() if counts is None else counts
    c, A_ub, b_ub, A_eq, b_eq = _blocks(c, A_ub, b_ub, A_eq, b_eq)
    n, m_ub = c.size, A_ub.shape[0]
    b = np.concatenate([b_ub, b_eq])
    m = b.size
    if m == 0:
        if np.any(c > 0):
            return LpSolution("unbounded", None, None)
        return LpSolution("optimal", np.zeros(n), 0.0, np.zeros(0), np.zeros(0, dtype=np.int64))
    sign = [-1.0 if b[r] < 0 else 1.0 for r in range(m)]
    art_rows = [r for r in range(m) if b[r] < 0 or r >= m_ub]
    n_real = n + m_ub
    ncols = n_real + len(art_rows)
    state = np.zeros((m, m + 1))
    basis = np.zeros(m, dtype=np.int64)
    for r in range(m):
        state[r, r] = sign[r]
        state[r, -1] = sign[r] * b[r]
        basis[r] = n + r
    for k, r in enumerate(art_rows):
        basis[r] = n_real + k

    def price(y, count):
        v = np.zeros(count)
        if m_ub:
            v[:n] = y[:m_ub] @ A_ub
        if A_eq.shape[0]:
            v[:n] += y[m_ub:] @ A_eq
        for i in range(m_ub):
            v[n + i] = y[i]
        for k in range(count - n_real):
            v[n_real + k] = y[art_rows[k]] * sign[art_rows[k]]
        return v

    def column(j):
        if j >= n_real:
            r = art_rows[j - n_real]
            return state[:, r] * sign[r]
        if j >= n:
            return state[:, j - n].copy()
        return state[:, :-1] @ np.concatenate([A_ub[:, j], A_eq[:, j]])

    def pivot(row, d):
        counts.pivots += 1
        state[row] /= d[row]
        for r in range(m):
            if r != row and d[r] != 0.0:
                state[r] -= d[r] * state[row]

    def simplex(cost, priced):
        degenerate = 0
        for _ in range(_MAX_ITER):
            y = cost[basis] @ state[:, :-1]
            reduced = price(y, priced) - cost[:priced]
            enter = -1
            for j in range(priced):
                if reduced[j] < -_PIVOT_TOL and (enter < 0 or reduced[j] < reduced[enter]):
                    enter = j
                    if degenerate >= degenerate_limit:
                        break
            if enter < 0:
                return "optimal", y
            d = column(enter)
            leave, best = -1, np.inf
            for r in range(m):
                if d[r] > _PIVOT_TOL:
                    ratio = state[r, -1] / d[r]
                    tie = abs(ratio - best) <= _PIVOT_TOL
                    if ratio < best - _PIVOT_TOL or (
                        tie and (leave < 0 or basis[r] < basis[leave])
                    ):
                        counts.ties += tie and leave >= 0
                        best, leave = ratio, r
            if leave < 0:
                return "unbounded", y
            if degenerate < degenerate_limit:
                degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
                counts.bland_fallbacks += degenerate == degenerate_limit
            pivot(leave, d)
            basis[leave] = enter
        raise LpError("simplex iteration cap exceeded")

    start = counts.pivots
    phase1 = 0
    if art_rows:
        counts.phase1 += 1
        cost1 = np.zeros(ncols)
        cost1[n_real:] = -1.0
        if simplex(cost1, ncols)[0] != "optimal":
            raise LpError("phase 1 cannot be unbounded")
        if float(cost1[basis] @ state[:, -1]) < -_FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots=(counts.pivots - start, 0))
        for r in range(m):
            if basis[r] >= n_real:
                v = price(state[r, :-1], n_real)
                for j in range(n_real):
                    if abs(v[j]) > _PIVOT_TOL:
                        counts.pivot_outs += 1
                        pivot(r, column(j))
                        basis[r] = j
                        break
        phase1 = counts.pivots - start
    cost2 = np.zeros(ncols)
    cost2[:n] = c
    status, y = simplex(cost2, n_real)
    pivots = (phase1, counts.pivots - start - phase1)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots=pivots)
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = state[r, -1]
    return LpSolution("optimal", x, float(c @ x), y, basis, pivots)


def _tableau_loops(counts: _Counts):
    """The tableau simplex of the seed, as loops: its pivot, its simplex
    core and its artificial pivot-out.  A run whose cost prices an
    artificial is phase 1."""
    def pivot(T, basis, row, col):
        counts.pivots += 1
        T[row] /= T[row, col]
        piv = T[row]
        for r in range(T.shape[0]):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * piv
        basis[row] = col

    def simplex_core(T, basis, cost, allowed):
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
                    if degenerate >= _DEGENERATE_LIMIT:
                        break
            if enter < 0:
                return "optimal", reduced
            leave = -1
            best_ratio = np.inf
            for r in range(m):
                a = T[r, enter]
                if a > _PIVOT_TOL:
                    ratio = T[r, -1] / a
                    if ratio < best_ratio - _PIVOT_TOL or (
                        abs(ratio - best_ratio) <= _PIVOT_TOL
                        and (leave < 0 or basis[r] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = r
            if leave < 0:
                return "unbounded", reduced
            if degenerate < _DEGENERATE_LIMIT:
                degenerate = degenerate + 1 if best_ratio <= _PIVOT_TOL else 0
            pivot(T, basis, leave, enter)
        raise LpError("simplex iteration cap exceeded")

    def drive_out_artificials(T, basis, art_mask, n_real):
        for r in range(T.shape[0]):
            if art_mask[basis[r]]:
                for j in range(n_real):
                    if abs(T[r, j]) > _PIVOT_TOL:
                        pivot(T, basis, r, j)
                        break

    return simplex_core, drive_out_artificials


def _seed_solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """The seed's tableau solver, a cross-method oracle: the whole tableau
    with one artificial column per row (the unused ones stay zero), solved
    by the tableau loops.  Duals are the final reduced costs of the slack
    columns, and of the artificial columns times the row sign for the
    equality rows."""
    c, A_ub, b_ub, A_eq, b_eq = _blocks(c, A_ub, b_ub, A_eq, b_eq)
    n, n_slack = c.size, A_ub.shape[0]
    A, b = np.vstack([A_ub, A_eq]), np.concatenate([b_ub, b_eq])
    m = b.size
    if m == 0:
        if np.any(c > 0):
            return LpSolution("unbounded", None, None)
        return LpSolution("optimal", np.zeros(n), 0.0, np.zeros(0))
    counts = _Counts()
    simplex_core, drive_out = _tableau_loops(counts)
    ncols = n + n_slack + m
    T = np.zeros((m, ncols + 1))
    basis = np.zeros(m, dtype=np.int64)
    art_cols, dual_cols, signs = [], [], []
    for r in range(m):
        sign = -1.0 if b[r] < 0 else 1.0
        T[r, :n] = sign * A[r]
        T[r, -1] = sign * b[r]
        if r < n_slack:
            T[r, n + r] = sign
            dual_cols.append(n + r)
            signs.append(1.0)
        else:
            dual_cols.append(n + n_slack + r)
            signs.append(sign)
        if r < n_slack and sign > 0:
            basis[r] = n + r
        else:
            T[r, n + n_slack + r] = 1.0
            basis[r] = n + n_slack + r
            art_cols.append(n + n_slack + r)
    art_mask = np.zeros(ncols, dtype=bool)
    art_mask[art_cols] = True
    phase1 = 0
    if art_cols:
        cost1 = np.zeros(ncols + 1)
        cost1[art_cols] = -1.0
        simplex_core(T, basis, cost1, np.ones(ncols, dtype=bool))
        if float(cost1[basis] @ T[:, -1]) < -_FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots=(counts.pivots, 0))
        drive_out(T, basis, art_mask, n + n_slack)
        phase1 = counts.pivots
    cost2 = np.zeros(ncols + 1)
    cost2[:n] = c
    status, reduced = simplex_core(T, basis, cost2, ~art_mask)
    pivots = (phase1, counts.pivots - phase1)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots=pivots)
    x = np.zeros(ncols)
    x[basis] = T[:, -1]
    xr = x[:n].copy()
    duals = reduced[dual_cols] * np.array(signs)
    return LpSolution("optimal", xr, float(c @ xr), duals, pivots=pivots)


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
ALL_CASES = [*CORPUS, *DENSE.values(), *POLYTOPE.values()]
ALL_IDS = [*map(str, range(len(CORPUS))), *DENSE, *POLYTOPE]


def _same_bits(a, b):
    assert a.status == b.status and a.pivots == b.pivots
    if a.x is None:
        assert b.x is None and a.value is None and b.value is None
    else:
        assert a.x.tobytes() == b.x.tobytes()
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
    for got, want in ((a.duals, b.duals), (a.basis, b.basis)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_vectorized_simplex_matches_loop_reference(index):
    case = CORPUS[index]
    _same_bits(solve_lp(*case), _revised_loops(*case))


@pytest.mark.parametrize("name", DENSE)
def test_dense_lp_matches_loop_reference(name):
    counts = _Counts()
    want = _revised_loops(*DENSE[name], counts=counts)
    assert want.is_optimal and counts.pivots > 20
    _same_bits(solve_lp(*DENSE[name]), want)


@pytest.mark.parametrize("name", POLYTOPE)
def test_polytope_shaped_lp_matches_loop_reference(name):
    case = POLYTOPE[name]
    assert 16 <= np.count_nonzero(case[2] < 0) <= 32   # rows on an artificial
    counts = _Counts()
    want = _revised_loops(*case, counts=counts)
    assert want.is_optimal and counts.phase1 == 1 and counts.pivots > 20
    _same_bits(solve_lp(*case), want)


def _close(got, want, rel=1e-12):
    """Within `rel` of the larger of the two vectors' largest magnitudes."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    scale = max(np.max(np.abs(got), initial=0.0), np.max(np.abs(want), initial=0.0))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rel * scale))


@pytest.mark.parametrize("case", ALL_CASES, ids=ALL_IDS)
def test_compact_layout_matches_seed_layout(case):
    # The seed's tableau held every column, with an artificial column for
    # every row; solve_lp keeps only [B^-1 | x_B].  The two methods round
    # differently, so the solution must agree to 1e-12 relative, and on
    # this corpus every LP takes the same pivots in both phases.
    got, want = solve_lp(*case), _seed_solve_lp(*case)
    assert got.status == want.status and got.pivots == want.pivots
    if want.is_optimal:
        assert _close(got.x, want.x) and _close(got.value, want.value)
        assert _close(got.duals, want.duals)


@pytest.mark.parametrize("case", ALL_CASES, ids=ALL_IDS)
def test_basis_reproduces_x(case):
    # The basic columns in the caller's rows: variable j is A[:, j], the
    # slack of row i is e_i and the artificial of row r is s_r e_r, for the
    # sign s_r of b_r; B x_B = b then gives x.
    sol = solve_lp(*case)
    if not sol.is_optimal:
        assert sol.basis is None
        return
    c, A_ub, b_ub, A_eq, b_eq = _blocks(*case)
    A, b = np.vstack([A_ub, A_eq]), np.concatenate([b_ub, b_eq])
    n, m = c.size, b.size
    art_rows = np.flatnonzero((b < 0) | (np.arange(m) >= A_ub.shape[0]))
    columns = np.hstack([A, np.eye(m)[:, :A_ub.shape[0]],
                         np.eye(m)[:, art_rows] * np.where(b[art_rows] < 0, -1.0, 1.0)])
    assert sol.basis.shape == (m,) and len(set(sol.basis.tolist())) == m
    x_B = np.linalg.solve(columns[:, sol.basis], b)
    x = np.zeros(n)
    x[sol.basis[sol.basis < n]] = x_B[sol.basis < n]
    assert np.max(np.abs(x - sol.x), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def test_pivot_counts_match_a_spy(monkeypatch):
    # Every pivot goes through _pivot; the ones made before phase 2's
    # _simplex_core starts are phase 1's, pivot-outs included.
    pivots, phase2_starts = [], []
    pivot, core = lp_mod._pivot, lp_mod._simplex_core

    def spy_core(cols, state, basis, cost, priced, out):
        phase2_starts.append((priced == cols.n + cols.m_ub, len(pivots)))
        return core(cols, state, basis, cost, priced, out)

    monkeypatch.setattr(lp_mod, "_pivot", lambda *args: pivots.append(pivot(*args)))
    monkeypatch.setattr(lp_mod, "_simplex_core", spy_core)
    seen = set()
    for case in ALL_CASES:
        pivots.clear()
        phase2_starts.clear()
        sol = solve_lp(*case)
        start = next((at for phase2, at in phase2_starts if phase2), len(pivots))
        assert sol.pivots == (start, len(pivots) - start)
        seen.add((sol.status, sol.pivots[0] > 0, sol.pivots[1] > 0))
    assert {("optimal", True, True), ("optimal", False, True), ("infeasible", True, False),
            ("unbounded", True, True)} <= seen


@pytest.mark.parametrize("nonzero_rows", [1, 4])
def test_pivot_keeps_signed_zeros(nonzero_rows):
    # Row 5 has a zero in the entering column, so it must stay untouched:
    # its -0.0 would become +0.0 under -0.0 - (0.0 * -1.0).  Row 1 has the
    # multiplier -6.0 and -0.0 where the pivot row has -0.0 and +0.0: the
    # loop gives -0.0 - (-6.0 * -0.0) = -0.0 and -0.0 - (-6.0 * +0.0) = +0.0,
    # where an update whose products start from +0.0 (einsum, or a BLAS
    # rank-1 update) keeps the second -0.0.  The pivot row keeps its own
    # -0.0 after the division.  The entering column is sparse (one other
    # nonzero row) or dense (four).
    base = np.arange(1.0, 31.0).reshape(6, 5)
    base[0] = [-2.0, -0.0, 0.0, 4.0, 6.0]
    base[1, 1:3] = -0.0
    base[5, 0] = -0.0
    d = np.array([2.0, -6.0, 3.0, 0.5, -1.5, 0.0])
    d[1 + nonzero_rows:] = 0.0
    want = base.copy()
    want[0] /= d[0]
    for r in range(1, 6):
        if d[r] != 0.0:
            want[r] -= d[r] * want[0]
    assert np.signbit(want[1, 1]) and not np.signbit(want[1, 2]) and np.signbit(want[0, 1])
    state = base.copy()
    lp_mod._pivot(state, d, 0, np.empty_like(state))
    assert state.tobytes() == want.tobytes()
    assert np.signbit(state[5, 0]) and state[5, 0] == 0.0
    assert state[1 + nonzero_rows:].tobytes() == base[1 + nonzero_rows:].tobytes()


def test_iteration_allocates_no_matrix_sized_array(monkeypatch):
    # A wide LP, 40 rows by 20,000 columns: every pivot updates the
    # 40 x 41 state, and the whole solve allocates O(rows^2 + rows +
    # columns) floats at a time, far below one copy of the constraint
    # matrix.
    rng = np.random.default_rng(24)
    m, n = 40, 20_000
    A_ub = rng.uniform(-1.0, 1.0, (m - 1, n))
    b_ub = rng.uniform(-0.5, 1.0, m - 1)
    A_eq = np.ones((1, n))
    c = rng.uniform(-1.0, 1.0, n)
    want = solve_lp(c, A_ub, b_ub, A_eq, np.array([1.0]))
    shapes = set()
    pivot = lp_mod._pivot

    def spy(state, d, row, out):
        shapes.add((state.shape, d.shape, out.shape))
        return pivot(state, d, row, out)

    monkeypatch.setattr(lp_mod, "_pivot", spy)
    tracemalloc.start()
    try:
        got = solve_lp(c, A_ub, b_ub, A_eq, np.array([1.0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert want.is_optimal and sum(want.pivots) > 10
    _same_bits(got, want)
    assert shapes == {((m, m + 1), (m,), (m, m + 1))}
    columns = n + (m - 1) + np.count_nonzero(b_ub < 0) + 1
    bound = 8 * (3 * (m + 1) ** 2 + 6 * (m + columns)) + (64 << 10)
    assert peak <= bound < A_ub.nbytes // 4


def _sequential_leaving_row(d, rhs, basis):
    """The ratio test as a loop over the rows: (row, ratio), or (-1, inf)."""
    leave, best = -1, np.inf
    for r in range(d.size):
        if d[r] > _PIVOT_TOL:
            ratio = float(rhs[r] / d[r])
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
        d = np.ones(m)
        rhs = second + scale * rng.uniform(0.0, 3.0, m)
        rows = rng.permutation(m)
        rhs[rows[0]], rhs[rows[1]] = low, second
        for r in rows[2:]:
            kind = int(rng.integers(0, 6))
            if kind == 1:
                d[r] = (0.0, -0.0, -1.0, tau, 0.5 * tau, np.nan)[int(rng.integers(0, 6))]
            elif kind == 2:
                rhs[r] = (np.nan, np.inf, -np.inf)[int(rng.integers(0, 3))]
            elif kind == 3:
                d[r] = rng.uniform(0.1, 10.0)
        if rng.random() < 0.05:
            rhs[rows[0]] = (np.nan, np.inf)[int(rng.integers(0, 2))]
        basis = rng.permutation(3 * m)[:m]
        want = _sequential_leaving_row(d, rhs, basis)
        got = lp_mod._leaving_row(d, rhs, basis, np.empty(m))
        assert (got[0], np.float64(got[1]).tobytes()) == (want[0], np.float64(want[1]).tobytes())
        finite = np.abs(rhs / np.where(d > tau, d, np.nan)) < np.inf
        fast += want[0] >= 0 and np.count_nonzero(
            rhs[finite] / d[finite] <= want[1] + 2 * tau) == 1
    assert 1000 < fast < 3000    # both the one-pass answer and the loop run


def test_corpus_reaches_every_path():
    counts = _Counts()
    statuses = {_revised_loops(*case, counts=counts).status for case in CORPUS}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    # Phase 1 runs once on each case with an equality row or a negative
    # right-hand side, and on no other; Beale's instance has neither.
    assert counts.phase1 == sum(
        A_eq is not None or (b_ub is not None and bool(np.any(b_ub < 0)))
        for _, _, b_ub, A_eq, _ in CORPUS) > 0
    beale = _Counts()
    _revised_loops(*BEALE, counts=beale)
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
        _same_bits(solve_lp(*case), _revised_loops(*case, counts=counts, degenerate_limit=1))
    assert counts.bland_fallbacks > 1


@pytest.mark.parametrize("name", DENSE)
def test_dantzig_pricing_takes_fewer_pivots_than_bland(name):
    case = DENSE[name]
    dantzig, bland = _Counts(), _Counts()
    _revised_loops(*case, counts=dantzig)
    _revised_loops(*case, counts=bland, degenerate_limit=0)
    assert sum(solve_lp(*case).pivots) == dantzig.pivots < bland.pivots


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
