import numpy as np
import pytest

from minorant.core import ConvexOracle, InvalidInput, MaxAffineFn
from minorant.gauge import eval_gauge
from minorant.harness import (
    SplitMix64,
    SuiteConfig,
    domination_oracle,
    gauge_oracle,
    gen_instance,
    gen_line_constrained_set,
    gen_mok_satisfied,
    grid_min_oracle,
    run_property_suite,
)
from minorant.mok import check_midpoint
from minorant.synth import check_scored_midpoint


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        # Pin the first outputs so the stream can never drift silently.
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_uniform_in_range(self):
        rng = SplitMix64(99)
        xs = [rng.uniform(-3.0, 5.0) for _ in range(1000)]
        assert all(-3.0 <= x <= 5.0 for x in xs)
        assert min(xs) < -1.0 and max(xs) > 3.0

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    # The vector draws are one numpy uint64 pass; the reference is the
    # scalar `uniform`, built from `next_u64` one Python int at a time.
    @staticmethod
    def _scalar(rng, n, lo, hi):
        return np.array([rng.uniform(lo, hi) for _ in range(n)], dtype=np.float64)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 7, 30_000])
    def test_vector_draws_match_scalar_stream(self, seed, n):
        vec, ref = SplitMix64(seed), SplitMix64(seed)
        got = vec.uniform_vector(n, -10.0, 10.0)
        want = self._scalar(ref, n, -10.0, 10.0)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert vec._state == ref._state

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, 12345678901234567])
    def test_interleaved_scalar_and_vector_calls(self, seed):
        vec, ref = SplitMix64(seed), SplitMix64(seed)
        got, want = [], []
        for n, m in [(0, 4), (1, 1), (5, 7), (1000, 3)]:
            got.append(vec.uniform_matrix(n, m, -2.0, 2.0).tobytes())
            want.append(self._scalar(ref, n * m, -2.0, 2.0).reshape(n, m).tobytes())
            assert vec.next_u64() == ref.next_u64()
            assert vec.uniform(-1.0, 3.0) == ref.uniform(-1.0, 3.0)
            assert vec.randint(1, 6) == ref.randint(1, 6)
        assert got == want
        assert vec._state == ref._state

    def test_domination_sample_matches_scalar_reference(self):
        from minorant.core import AffineMap

        F = gen_instance("max_affine", {"d": 3, "p": 5}, 17)
        A = AffineMap(np.array([0.25, -0.5, 0.125]), -3.0)
        X = self._scalar(SplitMix64(20240817), 10_000 * F.dim, -10.0, 10.0).reshape(-1, F.dim)
        deficits = F.batch(X) - A.batch(X)
        i = int(np.argmin(deficits))
        worst, witness = domination_oracle(F, A)
        assert np.float64(worst).tobytes() == deficits[i].tobytes()
        assert witness.tobytes() == X[i].tobytes()

    def test_harness_reexports_the_rng_class(self):
        import minorant.rng

        assert SplitMix64 is minorant.rng.SplitMix64


class TestGenerators:
    def test_gen_instance_deterministic(self):
        F1 = gen_instance("max_affine", {"d": 3, "p": 4}, 7)
        F2 = gen_instance("max_affine", {"d": 3, "p": 4}, 7)
        assert np.array_equal(F1.slopes, F2.slopes)
        assert np.array_equal(F1.offsets, F2.offsets)
        F3 = gen_instance("max_affine", {"d": 3, "p": 4}, 8)
        assert not np.array_equal(F1.slopes, F3.slopes)

    def test_gen_instance_shapes(self):
        P = gen_instance("polytope", {"d": 2, "v": 5}, 1)
        assert P.vertices.shape == (5, 2)
        B = gen_instance("scored_set", {"d": 3, "k": 4}, 1)
        assert B.points.shape == (4, 3) and B.scores.shape == (4,)
        H = gen_instance("hbl", {"n": 2, "d": 3, "p": 4, "nz": 5}, 1)
        assert H.nspaces == 2 and H.nkeys == 5

    def test_gen_instance_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            gen_instance("max_affine", {"d": 0, "p": 2}, 1)
        with pytest.raises(InvalidInput):
            gen_instance("nope", {"d": 1}, 1)

    @pytest.mark.parametrize("seed", range(15))
    def test_mok_satisfied_instances_really_satisfy(self, seed):
        S, D = gen_mok_satisfied(seed)
        assert check_midpoint(S, D).satisfied

    @pytest.mark.parametrize("seed", range(15))
    def test_line_constrained_sets_really_satisfy(self, seed):
        from minorant.synth import FiniteScoredSet

        F, Z = gen_line_constrained_set(seed)
        B = FiniteScoredSet(np.vstack(Z), np.zeros(len(Z)))
        assert check_scored_midpoint(F, B).satisfied


class TestGaugeOracle:
    def test_abs_examples(self, abs_fn):
        assert gauge_oracle(abs_fn, [2.0], 1.0) == pytest.approx(1.0, abs=1e-6)
        assert gauge_oracle(abs_fn, [0.0], -2.0) == pytest.approx(2.0, abs=1e-6)

    def test_zero_branch(self, abs_fn):
        assert gauge_oracle(abs_fn, [1.0], 2.0) == pytest.approx(0.0, abs=1e-6)

    def test_quadratic(self):
        q = ConvexOracle(evaluator=lambda x: float(x[0]) ** 2, dim=1)
        assert gauge_oracle(q, [2.0], 0.0) == pytest.approx(2.0, abs=1e-6)

    def test_agrees_with_eval_gauge(self):
        rng = SplitMix64(3)
        for _ in range(20):
            F = gen_instance("max_affine", {"d": 2, "p": 4}, rng.next_u64())
            x = rng.uniform_vector(2, -5.0, 5.0)
            a = rng.uniform(-5.0, 5.0)
            want = eval_gauge(F, x, a).value
            got = gauge_oracle(F, x, a)
            assert got == pytest.approx(want, abs=1e-5)


class TestGridMinOracle:
    def test_single_vertex_exact(self, abs_fn):
        assert grid_min_oracle(abs_fn, np.array([[3.0]])) == 3.0

    def test_interval(self, abs_fn):
        v = grid_min_oracle(abs_fn, np.array([[-1.0], [2.0]]), resolution=1.0 / 1024)
        assert v == pytest.approx(0.0, abs=2e-3)

    def test_triangle(self):
        F = MaxAffineFn(np.array([[1.0, 1.0]]), np.array([0.0]))
        V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = grid_min_oracle(F, V, resolution=1.0 / 128)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_is_upper_bound(self, abs_fn):
        # The grid minimum can only overestimate the true minimum.
        assert grid_min_oracle(abs_fn, np.array([[-1.0], [1.0]]),
                               resolution=1.0 / 7) >= 0.0


class TestPropertySuite:
    SMALL = {
        "gauge_closed_form": 20,
        "gauge_oracle_agreement": 3,
        "gauge_sublinearity": 4,
        "mok": 5,
        "synth": 5,
        "hbl_product": 3,
        "polytope_min": 3,
    }

    def test_all_suites_pass(self):
        rep = run_property_suite(SuiteConfig(trials=self.SMALL))
        assert rep.all_passed, rep.to_json()
        assert len(rep.results) == 7

    def test_deterministic_report(self):
        r1 = run_property_suite(SuiteConfig(trials=self.SMALL))
        r2 = run_property_suite(SuiteConfig(trials=self.SMALL))
        assert r1.to_json() == r2.to_json()

    def test_subset_selection(self):
        rep = run_property_suite(SuiteConfig(trials=self.SMALL), suites=["mok"])
        assert [r.name for r in rep.results] == ["mok"]

    def test_empty_and_unknown_rejected(self):
        with pytest.raises(InvalidInput):
            run_property_suite(SuiteConfig(), suites=[])
        with pytest.raises(InvalidInput):
            run_property_suite(SuiteConfig(), suites=["bogus"])

    def test_detects_broken_gauge(self, monkeypatch):
        # Mutation check: quantize gauge values coarsely and the graph
        # property must fail, proving the suite has teeth.
        import minorant.gauge as gauge_mod

        real = eval_gauge

        def quantized(F, x, a, tol=None):
            g = real(F, x, a) if tol is None else real(F, x, a, tol)
            if g.value == 0.0:
                return g
            bad = round(g.value * 10.0) / 10.0 + 0.05
            return type(g)(bad, g.branch, g.residual, g.iterations)

        monkeypatch.setattr(gauge_mod, "eval_gauge", quantized)
        rep = run_property_suite(
            SuiteConfig(trials={"gauge_sublinearity": 4}),
            suites=["gauge_sublinearity"],
        )
        assert not rep.all_passed
