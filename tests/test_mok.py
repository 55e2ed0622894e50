import numpy as np
import pytest

from minorant.core import PolyhedralSublinear
from minorant.harness import SplitMix64, gen_mok_satisfied
from minorant.mok import check_midpoint, solve_mok


class TestCheckMidpoint:
    def test_singleton_satisfied(self, abs_sub):
        rep = check_midpoint(abs_sub, [np.array([3.0])])
        assert rep.satisfied
        assert rep.witnesses[(0, 0)] == 0

    def test_abs_pair_violated(self, abs_sub):
        rep = check_midpoint(abs_sub, [np.array([-1.0]), np.array([1.0])])
        assert not rep.satisfied
        pair, best = rep.violation
        assert pair == (0, 1)
        assert best == pytest.approx(1.0)

    def test_relu_pair_satisfied(self):
        S = PolyhedralSublinear(np.array([[1.0], [0.0]]))
        rep = check_midpoint(S, [np.array([0.0]), np.array([1.0])])
        assert rep.satisfied
        # Pair (0, 1) witnessed by d = 0: S(-1/2) = 0.
        assert rep.witnesses[(0, 1)] == 0

    def test_empty_rejected(self, abs_sub):
        with pytest.raises(Exception):
            check_midpoint(abs_sub, [])


class TestSolveMok:
    def test_abs_singleton(self, abs_sub):
        cert = solve_mok(abs_sub, [np.array([1.0])])
        assert cert.L.w == pytest.approx([1.0])
        assert cert.value == pytest.approx(1.0)
        assert cert.target == pytest.approx(1.0)
        assert abs(cert.gap) <= 1e-12

    def test_relu_pair(self):
        S = PolyhedralSublinear(np.array([[1.0], [0.0]]))
        cert = solve_mok(S, [np.array([0.0]), np.array([1.0])])
        # Every L in [0, 1] is optimal here (value 0); only the value is pinned.
        assert 0.0 - 1e-12 <= cert.L.w[0] <= 1.0 + 1e-12
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.target == pytest.approx(0.0, abs=1e-12)

    def test_abs_violated_pair_flagged(self, abs_sub):
        cert = solve_mok(abs_sub, [np.array([-1.0]), np.array([1.0])])
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.target == pytest.approx(1.0)
        assert cert.gap == pytest.approx(1.0)
        assert not cert.midpoint.satisfied

    def test_weights_on_simplex(self, abs_sub):
        cert = solve_mok(abs_sub, [np.array([1.0]), np.array([2.0])])
        assert np.all(cert.weights >= 0)
        assert np.sum(cert.weights) == pytest.approx(1.0)
        assert abs_sub.pieces.T @ cert.weights == pytest.approx(cert.L.w)

    def test_structural_domination_sampled(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            S = PolyhedralSublinear(rng.uniform(-2, 2, (4, 3)))
            D = [rng.uniform(-2, 2, 3) for _ in range(5)]
            cert = solve_mok(S, D)
            V = rng.uniform(-10, 10, (10_000, 3))
            assert np.all(V @ cert.L.w <= S.batch(V) + 1e-12)

    def test_weak_duality_always(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            S = PolyhedralSublinear(rng.uniform(-2, 2, (rng.integers(1, 6), rng.integers(1, 4))))
            D = [rng.uniform(-2, 2, S.dim) for _ in range(rng.integers(1, 6))]
            cert = solve_mok(S, D)
            assert cert.gap >= -1e-9

    def test_guarantee_on_satisfied_instances(self):
        for seed in range(40):
            S, D = gen_mok_satisfied(seed)
            cert = solve_mok(S, D)
            assert cert.midpoint.satisfied
            assert abs(cert.gap) <= 1e-8

    def test_bit_identical_certificates(self, abs_sub):
        D = [np.array([0.5]), np.array([2.0]), np.array([1.5])]
        c1 = solve_mok(abs_sub, D)
        c2 = solve_mok(abs_sub, D)
        assert c1.value == c2.value and c1.target == c2.target
        assert np.array_equal(c1.weights, c2.weights)
        assert np.array_equal(c1.L.w, c2.L.w)


class TestPointRows:
    """The point set is converted and checked once, as one array."""

    @pytest.mark.parametrize("D,error,message", [
        ([[1.0, 2.0], [3.0, np.nan]], "InvalidInput", "vector has non-finite entries"),
        ([[1.0, 2.0], [3.0, 4.0, 5.0]], "DimensionMismatch", "expected dimension 2, got 3"),
        ([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]], "DimensionMismatch", "expected dimension 2, got 3"),
        ([[1.0, 2.0], [[3.0, 4.0]]], "InvalidInput", "expected a 1-D vector, got shape (1, 2)"),
        ([[1.0, 2.0], "ab"], "ValueError", "could not convert string to float: 'ab'"),
        ([], "InvalidInput", "the point set must be nonempty"),
    ], ids=["nan", "ragged", "wide", "nested", "string", "empty"])
    def test_errors_name_the_first_bad_point(self, D, error, message):
        S = PolyhedralSublinear(np.array([[1.0, 0.0], [-1.0, 0.5]]))
        with pytest.raises(ValueError) as err:
            solve_mok(S, D)
        assert (type(err.value).__name__, str(err.value)) == (error, message)

    def test_scan_and_lp_share_one_array(self, monkeypatch):
        import minorant.mok as mok_mod

        seen = []
        real = mok_mod.check_midpoint

        def spy(S, D, tol):
            seen.append(D)
            return real(S, D, tol)

        monkeypatch.setattr(mok_mod, "check_midpoint", spy)
        S = PolyhedralSublinear(np.array([[1.0, 0.0], [-1.0, 0.5]]))
        D = [np.array([1.0, 2.0]), [3, 4]]
        cert = solve_mok(S, D)
        assert len(seen) == 1 and isinstance(seen[0], np.ndarray)
        assert seen[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert cert.target == min(S(d) for d in seen[0])
