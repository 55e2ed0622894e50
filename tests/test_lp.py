import numpy as np
import pytest
from scipy.optimize import linprog

import minorant.lp as lp_mod
from minorant.lp import _MAX_ITER, _PIVOT_TOL, LpError, solve_lp


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
    # Beale's classic degenerate instance, known to cycle under naive
    # Dantzig pivoting; Bland's rule must terminate at the optimum 0.05.
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
# the Bland selection loops and the artificial pivot-out loop below are the
# original implementation, kept as the reference oracle; the vectorized
# solver must give the same bits.


class _Counts:
    def __init__(self):
        self.ties = 0           # ratio-test ties broken on the basis index
        self.phase1 = 0         # phase-1 runs (some row started artificial)
        self.pivot_outs = 0     # leftover artificials pivoted out after phase 1


def _reference(counts: _Counts):
    def pivot(T, basis, row, col):
        T[row] /= T[row, col]
        piv = T[row]
        for r in range(T.shape[0]):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * piv
        basis[row] = col

    def simplex_core(T, basis, cost, allowed):
        if np.any(cost < 0.0):
            counts.phase1 += 1
        m, ncols = T.shape
        n = ncols - 1
        for _ in range(_MAX_ITER):
            y = cost[basis]
            reduced = y @ T[:, :n] - cost[:n]
            enter = -1
            for j in range(n):
                if allowed[j] and reduced[j] < -_PIVOT_TOL:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
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
                return "unbounded"
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


def _solve_with(case, monkeypatch=None, counts=None):
    if monkeypatch is not None:
        pivot, core, drive_out = _reference(counts)
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


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_vectorized_simplex_matches_loop_reference(index, monkeypatch):
    case = CORPUS[index]
    got = _solve_with(case)
    with monkeypatch.context() as mp:
        want = _solve_with(case, mp, _Counts())
    _same_bits(got, want)


def test_corpus_reaches_every_path(monkeypatch):
    counts = _Counts()
    statuses = set()
    for case in CORPUS:
        with monkeypatch.context() as mp:
            statuses.add(_solve_with(case, mp, counts).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert counts.phase1 > 0
    assert counts.pivot_outs > 0
    assert counts.ties > 0


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
