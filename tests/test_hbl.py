import itertools

import numpy as np
import pytest

from minorant.core import (
    AffineMap,
    AffineTransform,
    DEFAULT_TOL,
    InvalidInput,
    MaxAffineFn,
    PolyhedralSublinear,
    Polytope,
)
from minorant.harness import SplitMix64
from minorant.hbl import (
    HblInstance,
    check_midpoint_hbl,
    solve_hbl_jk,
    solve_hbl_n,
)
from minorant.mok import solve_mok


class TestInstanceValidation:
    def test_table_size_mismatch(self, abs_sub):
        with pytest.raises(InvalidInput):
            HblInstance([abs_sub, abs_sub],
                        [np.zeros((2, 1)), np.zeros((3, 1))])

    def test_payload_size_mismatch(self, abs_sub):
        with pytest.raises(InvalidInput):
            HblInstance([abs_sub], [np.zeros((2, 1))], payload=np.zeros(3))

    def test_payload_accepted_by_n_solver(self, abs_sub):
        # The payload-slack instance of TestSolveJk as a one-space product
        # with a payload: the same value, -9.
        inst = HblInstance([abs_sub], [np.array([[0.0], [1.0]])],
                           payload=np.array([0.0, -10.0]))
        cert = solve_hbl_n(inst)
        assert cert.value == pytest.approx(-9.0, abs=1e-12)
        assert cert.target == -9.0
        assert cert.midpoint.satisfied


class TestMidpointHbl:
    def test_payload_slack_passes(self, abs_sub):
        # Z = {0, 1}, k = {0, -10}: the key z = 1 witnesses every pair
        # because its payload slack swamps the |.| midpoint penalty.
        inst = HblInstance([abs_sub], [np.array([[0.0], [1.0]])],
                           payload=np.array([0.0, -10.0]))
        rep = check_midpoint_hbl(inst)
        assert rep.satisfied
        assert rep.witnesses[(0, 1)] == 1

    def test_convex_payload_violates(self, abs_sub):
        # k(z) = z^2 sampled at {0, 1/2, 1}: pair (0, 1/2) has no witness,
        # best residual 1/8 at the midpoint key itself.
        inst = HblInstance([abs_sub], [np.array([[0.0], [0.5], [1.0]])],
                           payload=np.array([0.0, 0.25, 1.0]))
        rep = check_midpoint_hbl(inst)
        assert not rep.satisfied
        pair, best = rep.violation
        assert pair == (0, 1)
        assert best == pytest.approx(0.125)


class TestSolveJk:
    def test_payload_slack_value(self, abs_sub):
        cert = solve_hbl_jk(abs_sub, np.array([[0.0], [1.0]]), np.array([0.0, -10.0]))
        # Best linear L in [-1, 1]: L = 1 gives min(0, 1 - 10) = -9 = target.
        assert cert.value == pytest.approx(-9.0, abs=1e-8)
        assert cert.target == pytest.approx(-9.0)
        assert abs(cert.gap) <= 1e-8
        assert cert.maps[0].w == pytest.approx([1.0])

    def test_identity_space_forced_exactly(self, abs_sub):
        cert = solve_hbl_jk(abs_sub, np.array([[0.0], [1.0]]), np.array([0.0, -10.0]))
        # The payload space has a single piece, so its weight and map are
        # structurally 1 -- bit-exact, no tolerance.
        assert cert.weights[1][0] == 1.0
        assert cert.maps[1].w[0] == 1.0

    def test_zero_payload_reduces_to_mok(self, abs_sub):
        D = [np.array([0.5]), np.array([2.0]), np.array([1.5])]
        cert = solve_hbl_jk(abs_sub, np.vstack(D), np.zeros(3))
        mok = solve_mok(abs_sub, D)
        assert cert.value == pytest.approx(mok.value, abs=1e-10)
        assert cert.target == pytest.approx(mok.target, abs=1e-10)
        assert cert.midpoint.satisfied == mok.midpoint.satisfied

    def test_polytope_affine_payload(self, abs_sub):
        cert = solve_hbl_jk(
            abs_sub,
            AffineTransform(np.array([[1.0]]), np.array([0.0])),
            AffineMap(np.array([-1.0]), 0.0),
            Polytope(np.array([[0.0], [1.0]])),
        )
        # inf over [0,1] of |z| - z is 0, attained on the whole segment.
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.target == pytest.approx(0.0, abs=1e-12)

    def test_polytope_maxaffine_payload_exact(self, abs_sub):
        # inf over [0, 1] of |z| + |z - 1/2| is 1/2, on all of [0, 1/2].
        k = MaxAffineFn(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5]))
        cert = solve_hbl_jk(
            abs_sub,
            AffineTransform(np.array([[1.0]]), np.array([0.0])),
            k,
            Polytope(np.array([[0.0], [1.0]])),
        )
        assert cert.target == pytest.approx(0.5, abs=1e-12)
        assert cert.value == pytest.approx(0.5, abs=1e-12)
        assert cert.within(DEFAULT_TOL)

    def test_guarantee_property(self, abs_sub):
        # The hypothesis holds and the infima agree; a violated midpoint
        # condition must not count as the guarantee holding.
        cert = solve_hbl_jk(abs_sub, np.array([[0.0], [1.0]]), np.array([0.0, -10.0]))
        assert cert.midpoint.satisfied and cert.within(DEFAULT_TOL)


class TestSolveN:
    def test_single_space_against_scipy(self):
        # solve_mok is the one-space product LP, so both are checked against
        # an independent solver: max t over theta on the simplex with
        # <S.pieces.T theta, d> >= t for every d in D.
        linprog = pytest.importorskip("scipy.optimize").linprog
        for seed in range(20):
            rng = SplitMix64(300 + seed)
            d, p, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 6)
            S = PolyhedralSublinear(rng.uniform_matrix(p, d, -2, 2))
            D = rng.uniform_matrix(k, d, -2, 2)
            G = D @ S.pieces.T
            ref = linprog(np.r_[np.zeros(p), -1.0],
                          A_ub=np.c_[-G, np.ones(k)], b_ub=np.zeros(k),
                          A_eq=np.r_[np.ones(p), 0.0].reshape(1, -1), b_eq=[1.0],
                          bounds=[(0, None)] * p + [(None, None)], method="highs")
            assert ref.status == 0
            hbl = solve_hbl_n(HblInstance([S], [D]))
            mok = solve_mok(S, list(D))
            for value, theta in ((hbl.value, hbl.weights[0]), (mok.value, mok.weights)):
                assert value == pytest.approx(-ref.fun, abs=1e-9)
                assert np.all(theta >= 0) and np.sum(theta) == pytest.approx(1.0, abs=1e-12)
            target = float(np.min(np.max(G, axis=1)))
            assert hbl.target == mok.target == target

    def test_weights_are_simplex_points(self):
        rng = SplitMix64(7)
        subs = [PolyhedralSublinear(rng.uniform_matrix(3, 2, -2, 2)) for _ in range(2)]
        tabs = [rng.uniform_matrix(4, 2, -2, 2) for _ in range(2)]
        cert = solve_hbl_n(HblInstance(subs, tabs))
        for theta in cert.weights:
            assert np.all(theta >= 0)
            assert np.sum(theta) == pytest.approx(1.0)

    def test_maps_dominated_per_space(self):
        rng = SplitMix64(11)
        subs = [PolyhedralSublinear(rng.uniform_matrix(4, 3, -2, 2)) for _ in range(3)]
        tabs = [rng.uniform_matrix(5, 3, -2, 2) for _ in range(3)]
        cert = solve_hbl_n(HblInstance(subs, tabs))
        for S, L in zip(subs, cert.maps):
            X = rng.uniform_matrix(2000, 3, -10, 10)
            assert np.all(X @ L.w <= S.batch(X) + 1e-10)

    def test_weak_duality(self):
        for seed in range(25):
            rng = SplitMix64(seed)
            n = rng.randint(1, 3)
            subs = [PolyhedralSublinear(rng.uniform_matrix(rng.randint(1, 4),
                                                           rng.randint(1, 3), -2, 2))
                    for _ in range(n)]
            tabs = [rng.uniform_matrix(4, S.dim, -2, 2) for S in subs]
            cert = solve_hbl_n(HblInstance(subs, tabs))
            assert cert.gap >= -1e-9

    def test_product_consistency_with_expanded_pieces(self):
        # The compact per-space formulation must agree with brute force over
        # the expanded product piece set: enumerate all piece combinations,
        # each combination gives sum_m <l_{m,i_m}, j_m(z)>; the LP optimum
        # equals max over the product simplex, which the expansion realizes.
        rng = SplitMix64(42)
        subs = [PolyhedralSublinear(rng.uniform_matrix(2, 2, -2, 2)),
                PolyhedralSublinear(rng.uniform_matrix(3, 2, -2, 2))]
        tabs = [rng.uniform_matrix(4, 2, -2, 2), rng.uniform_matrix(4, 2, -2, 2)]
        cert = solve_hbl_n(HblInstance(subs, tabs))

        # Brute force: value of the best product vertex can only match or
        # fall below the LP over independent simplices... but the LP optimum
        # is attained at a vertex pair, so the max over combinations of the
        # min over keys equals the certificate value up to LP accuracy only
        # when the optimum is at a vertex of the product; compare bounds.
        combo_best = -np.inf
        for idx in itertools.product(range(2), range(3)):
            vals = np.zeros(4)
            for m, i in enumerate(idx):
                vals += tabs[m] @ subs[m].pieces[i]
            combo_best = max(combo_best, float(np.min(vals)))
        assert cert.value >= combo_best - 1e-9

        # And the certificate maps themselves must be realizable as convex
        # combinations reproducing the value.
        recomputed = np.zeros(4)
        for m in range(2):
            recomputed += tabs[m] @ (subs[m].pieces.T @ cert.weights[m])
        assert float(np.min(recomputed)) == pytest.approx(cert.value, abs=1e-10)

    def test_bit_identical_determinism(self):
        rng1 = SplitMix64(5)
        subs = [PolyhedralSublinear(rng1.uniform_matrix(3, 2, -2, 2))]
        tabs = [rng1.uniform_matrix(4, 2, -2, 2)]
        c1 = solve_hbl_n(HblInstance(subs, tabs))
        c2 = solve_hbl_n(HblInstance(subs, tabs))
        assert c1.value == c2.value
        assert all(np.array_equal(a, b) for a, b in zip(c1.weights, c2.weights))
