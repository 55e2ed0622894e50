"""Both composed polytope forms are exact: a seeded corpus of segments and
polygons with payloads of one to three pieces, checked against scipy's
polytope minimum, the barycentric grid oracle and the sampled domination
oracle.  Every form, finite or polytope, solves the one minimum LP; over a
polytope it has a space for f o j + k_1 and, when k has q >= 2 pieces, a
second space for k."""

import tracemalloc

import numpy as np
import pytest

import minorant.synth as synth_mod
from minorant.core import AffineMap, AffineTransform, MaxAffineFn, PolyhedralSublinear, Polytope
from minorant.harness import (
    SplitMix64, domination_oracle, gen_line_constrained_set, grid_min_oracle,
)
from minorant.hbl import HblInstance, solve_hbl_jk, solve_hbl_n
from minorant.mok import solve_mok
from minorant.synth import (
    FiniteScoredSet, LiftedPolytope, min_convex_over_polytope, synth_affine_from_scored_set,
    synth_composed_minorant, synth_tight_minorant,
)

linprog = pytest.importorskip("scipy.optimize").linprog

TOL = 1e-9


def _composed(slopes, offsets, j, k):
    """max over (i, l) of <a_i, j(z)> + b_i + k_l(z), piece by piece."""
    pieces = [(j.matrix.T @ a + c, a @ j.offset + b + d)
              for a, b in zip(slopes, offsets) for c, d in zip(k.slopes, k.offsets)]
    return MaxAffineFn.from_pieces(pieces)


def _scipy_min_of_sum(Gs, V):
    """min over conv(V) of sum_m G_m: minimize sum_m t_m over nu on the
    simplex with <a_i, V^T nu> + b_i <= t_m for every piece of every G_m."""
    v, m = V.shape[0], len(Gs)
    rows = [np.c_[G.slopes @ V.T, -np.eye(m)[[s] * G.npieces]] for s, G in enumerate(Gs)]
    res = linprog(np.r_[np.zeros(v), np.ones(m)], A_ub=np.vstack(rows),
                  b_ub=-np.concatenate([G.offsets for G in Gs]),
                  A_eq=np.r_[np.ones(v), np.zeros(m)].reshape(1, -1), b_eq=[1.0],
                  bounds=[(0, None)] * v + [(None, None)] * m, method="highs")
    assert res.status == 0
    return float(res.fun)


def _scipy_min(G, V):
    return _scipy_min_of_sum([G], V)


def _grid_min(G, V):
    return grid_min_oracle(G, V, 1.0 / (256 if V.shape[0] == 2 else 16))


def _instances():
    """40 instances: segments in 1-d and polygons of 3-6 vertices in 2-d,
    j into 1-3 dimensions, payloads of q = 1-3 pieces (q = 1 alternately as
    an AffineMap and as a one-piece MaxAffineFn)."""
    for t in range(40):
        rng = SplitMix64(9100 + t)
        dz = 1 + t % 2
        d = 1 + t % 3
        q = 1 + (t // 2) % 3
        if dz == 1:
            V = np.sort(rng.uniform_matrix(2, 1, -2.0, 2.0), axis=0)
        else:
            nv = 3 + (t // 2) % 4
            angles = np.sort(rng.uniform_vector(nv, 0.0, 2 * np.pi))
            V = rng.uniform_vector(2, -1.0, 1.0) + 1.5 * np.c_[np.cos(angles), np.sin(angles)]
        j = AffineTransform(rng.uniform_matrix(d, dz, -2.0, 2.0), rng.uniform_vector(d, -2.0, 2.0))
        k = MaxAffineFn(rng.uniform_matrix(q, dz, -2.0, 2.0), rng.uniform_vector(q, -2.0, 2.0))
        payload = AffineMap(k.slopes[0], k.offsets[0]) if q == 1 and t % 4 < 2 else k
        yield t, V, j, k, payload


CORPUS = list(_instances())


@pytest.mark.parametrize("t,V,j,k,payload", CORPUS, ids=[f"t{c[0]}" for c in CORPUS])
def test_synth_composed_is_exact(t, V, j, k, payload):
    rng = SplitMix64(9200 + t)
    p = 2 + t % 3
    F = MaxAffineFn(rng.uniform_matrix(p, j.dim_out, -2.0, 2.0), rng.uniform_vector(p, -2.0, 2.0))
    cert = synth_composed_minorant(F, j, payload, Polytope(V))
    fjk = _composed(F.slopes, F.offsets, j, k)
    assert abs(cert.gap) <= TOL
    assert cert.t_star >= 1.0 - TOL
    assert abs(cert.delta - _scipy_min(fjk, V)) <= TOL
    assert cert.delta <= _grid_min(fjk, V) + 1e-12
    A = cert.affine
    assert abs(cert.lhs - _scipy_min(_composed(A.w[None], [A.c], j, k), V)) <= TOL
    # A <= f exactly: with theta = mu / lam on the simplex, w = slopes^T theta
    # and c <= theta . offsets.
    theta = cert.weights / cert.lifted.lam
    slope_residual = np.max(np.abs(F.slopes.T @ theta - A.w))
    assert slope_residual <= 1e-12
    assert A.c - theta @ F.offsets <= 1e-12
    # The certificate reports these residuals, and the sampled oracle is
    # never below the bound they give, up to the rounding of f(x) - A(x).
    dom = cert.domination
    assert (dom.worst_deficit, dom.slope_residual) == (theta @ F.offsets - A.c, slope_residual)
    sampled, x = domination_oracle(F, A)
    assert sampled >= dom.worst_deficit - dom.slope_residual * np.abs(x).sum() - 1e-12


@pytest.mark.parametrize("t,V,j,k,payload", CORPUS, ids=[f"t{c[0]}" for c in CORPUS])
def test_hbl_polytope_is_exact(t, V, j, k, payload):
    rng = SplitMix64(9300 + t)
    S = PolyhedralSublinear(rng.uniform_matrix(2 + t % 3, j.dim_out, -2.0, 2.0))
    cert = solve_hbl_jk(S, j, payload, Polytope(V))
    sjk = _composed(S.pieces, np.zeros(S.npieces), j, k)
    assert abs(cert.gap) <= TOL
    assert abs(cert.target - _scipy_min(sjk, V)) <= TOL
    assert cert.target <= _grid_min(sjk, V) + 1e-12
    theta, pi = cert.weights
    assert np.all(theta >= 0.0) and abs(np.sum(theta) - 1.0) <= 1e-12
    assert np.array_equal(cert.maps[0].w, S.pieces.T @ theta)
    # k's weights are the second space's row duals, and exactly 1 for one
    # piece, which has no space of its own.
    if k.npieces == 1:
        assert pi.tolist() == [1.0]
    assert np.all(pi >= 0.0) and abs(np.sum(pi) - 1.0) <= 1e-12
    assert np.array_equal(cert.maps[1].w, np.column_stack([k.slopes, k.offsets]).T @ pi)


@pytest.mark.parametrize("t,V,j,k,payload", [c for c in CORPUS if c[3].npieces > 1],
                         ids=[f"t{c[0]}" for c in CORPUS if c[3].npieces > 1])
def test_lhs_meets_the_bracket(t, V, j, k, payload):
    # With q >= 2 payload pieces, lhs is A o j + k at the minimizer x* of
    # f o j + k, and the lower end of the bracket is the least vertex value
    # of the affine A o j + sum_l pi_l k_l.  Both meet the exact minimum of
    # A o j + k over the polytope.
    rng = SplitMix64(9200 + t)
    p = 2 + t % 3
    F = MaxAffineFn(rng.uniform_matrix(p, j.dim_out, -2.0, 2.0), rng.uniform_vector(p, -2.0, 2.0))
    cert = synth_composed_minorant(F, j, payload, Polytope(V))
    _, jV, K, delta, _, pi = synth_mod._composed_min(F.slopes, F.offsets, Polytope(V), j, k)
    assert delta == cert.delta
    A = cert.affine
    exact = _scipy_min(_composed(A.w[None], [A.c], j, k), V)
    lower = float(np.min(jV @ A.w + A.c + (V @ K.slopes.T + K.offsets) @ pi))
    assert abs(cert.lhs - exact) <= TOL
    assert abs(lower - exact) <= TOL


@pytest.fixture
def lp_rows(monkeypatch):
    """The row count of every LP that `synth._min_lp`, the one LP builder,
    solves."""
    rows = []

    def counting(c, A_ub, b_ub, A_eq, b_eq, real=synth_mod.solve_lp):
        rows.append(len(b_ub) + len(b_eq))
        return real(c, A_ub, b_ub, A_eq, b_eq)

    monkeypatch.setattr(synth_mod, "solve_lp", counting)
    return rows


def _solved_rows(rows, solve, *args):
    rows.clear()
    solve(*args)
    return list(rows)


def test_one_lp_per_polytope_form(lp_rows):
    # The weights are the row duals of the minimum LP: one LP per form for
    # every q, with 3 pieces of f o j + k_1 in one space and, when q >= 2,
    # q pieces of k in a second.
    def count(solve, *args):
        return len(_solved_rows(lp_rows, solve, *args))

    for t, V, j, k, payload in CORPUS:
        rng = SplitMix64(9400 + t)
        F = MaxAffineFn(rng.uniform_matrix(3, j.dim_out, -2.0, 2.0),
                        rng.uniform_vector(3, -2.0, 2.0))
        S = PolyhedralSublinear(F.slopes)
        Z = Polytope(V)
        spaces = [3] if k.npieces == 1 else [3, k.npieces]
        rows = [sum(synth_mod._min_lp_shape(len(V), sum(spaces), len(spaces))[:2])]
        assert _solved_rows(lp_rows, synth_composed_minorant, F, j, payload, Z) == rows
        assert _solved_rows(lp_rows, solve_hbl_jk, S, j, payload, Z) == rows
        G = MaxAffineFn(rng.uniform_matrix(3, Z.dim, -2.0, 2.0), rng.uniform_vector(3, -2.0, 2.0))
        assert count(synth_tight_minorant, G, Z) == 1
        B = LiftedPolytope(Z, rng.uniform_vector(Z.dim, -2.0, 2.0), 0.5)
        assert count(synth_affine_from_scored_set, G, B) == 1


def test_two_spaces_at_scale(lp_rows):
    # p = 20 pieces of f, q = 100 of k and 3,000 vertices: one LP of
    # p + q + 1 = 121 rows, where the p * q = 2,000 composed pieces would
    # take 2,001.
    rng = np.random.default_rng(11)
    F = MaxAffineFn(rng.uniform(-2.0, 2.0, (20, 6)), rng.uniform(-2.0, 2.0, 20))
    j = AffineTransform(rng.uniform(-2.0, 2.0, (6, 4)), rng.uniform(-2.0, 2.0, 6))
    k = MaxAffineFn(rng.uniform(-2.0, 2.0, (100, 4)), rng.uniform(-2.0, 2.0, 100))
    V = rng.normal(size=(3000, 4))
    cert = synth_composed_minorant(F, j, k, Polytope(V))
    assert lp_rows == [20 + 100 + 1]
    fj = MaxAffineFn(F.slopes @ j.matrix, F.slopes @ j.offset + F.offsets)
    assert abs(cert.delta - _scipy_min_of_sum([fj, k], V)) <= TOL
    assert abs(cert.gap) <= TOL


@pytest.mark.parametrize("t", range(8))
def test_min_over_few_vertices(lp_rows, t):
    # More pieces than vertices: the minimum LP takes its key side, one row
    # per vertex and the simplex row, and the minimizer V^T nu reads the
    # vertex weights nu from its row duals.
    rng = SplitMix64(9600 + t)
    d, v = 1 + t % 3, 1 + t % 4
    V = rng.uniform_matrix(v, d, -2.0, 2.0)
    F = MaxAffineFn(rng.uniform_matrix(30, d, -2.0, 2.0), rng.uniform_vector(30, -2.0, 2.0))
    x, value = min_convex_over_polytope(F, V)
    assert lp_rows == [v + 1]
    assert value == float(F(x))
    assert abs(value - _scipy_min(F, V)) <= TOL


@pytest.mark.parametrize("keys", [1, 4, 6, 40])
def test_one_lp_per_finite_form(lp_rows, keys):
    # Every finite form solves the same minimum LP, on its side with fewer
    # rows: one row per piece of all spaces and the simplex row, or one row
    # per key and one simplex row per space.  With 5 pieces and one space,
    # 1 and 4 keys take the key side, 6 and 40 the piece side; with 3 + 4
    # pieces in two spaces, only 40 keys take the piece side.
    rng = SplitMix64(9500 + keys)
    F, Z = gen_line_constrained_set(9500 + keys, d=3, p=5, npts=keys)
    pts, scores = np.vstack(Z), rng.uniform_vector(keys, -2.0, 2.0)
    S = PolyhedralSublinear(F.slopes)
    subs = [PolyhedralSublinear(rng.uniform_matrix(p, d, -2.0, 2.0)) for p, d in ((3, 2), (4, 3))]
    tables = [rng.uniform_matrix(keys, S_m.dim, -2.0, 2.0) for S_m in subs]
    one, two = min(5 + 1, keys + 1), min(3 + 4 + 1, keys + 2)
    for rows, solve, args in (
        (one, synth_tight_minorant, (F, Z)),
        (one, synth_affine_from_scored_set, (F, FiniteScoredSet(pts, scores))),
        (one, synth_composed_minorant, (F, pts, scores, None)),
        (one, solve_mok, (S, Z)),
        (one, solve_hbl_jk, (S, pts, scores)),
        (two, solve_hbl_n, (HblInstance(subs, tables),)),
        (two, solve_hbl_n, (HblInstance(subs, tables, scores),)),
    ):
        assert _solved_rows(lp_rows, solve, *args) == [rows]


def test_synthesis_memory_stays_near_the_minimum_lp():
    # 256 vertices in 6-d and 48 pieces.  The minimum LP's tableau has 49
    # rows and 256 + 2 variables, 48 slacks, one artificial and the rhs as
    # columns.  A vertex-row LP (257 rows x 308 columns) would put the peak
    # above 14 such tableaux; the one-LP path peaks near 6.
    rng = np.random.default_rng(5)
    F = MaxAffineFn(rng.uniform(-2.0, 2.0, (48, 6)), rng.uniform(-2.0, 2.0, 48))
    Z = Polytope(rng.normal(size=(256, 6)))
    tableau_bytes = 49 * (258 + 48 + 1 + 1) * 8
    synth_tight_minorant(F, Z)  # warm up lazily built state
    tracemalloc.start()
    try:
        cert = synth_tight_minorant(F, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(cert.gap) <= TOL
    assert peak < 8 * tableau_bytes
