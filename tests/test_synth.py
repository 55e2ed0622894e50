import dataclasses

import numpy as np
import pytest

from minorant.core import (
    DEFAULT_TOL,
    AffineMap,
    AffineTransform,
    DimensionMismatch,
    MaxAffineFn,
    Polytope,
)
from minorant.gauge import eval_gauge, shift
from minorant.harness import gen_line_constrained_set
from minorant.lp import solve_lp
from minorant.synth import (
    ConditionViolated,
    _domination_report,
    _min_lp,
    FiniteScoredSet,
    LiftedPolytope,
    check_scored_midpoint,
    min_convex_over_polytope,
    support_at_point,
    synth_affine_from_scored_set,
    synth_composed_minorant,
    synth_tight_minorant,
)


def gauge_row(F):
    """Coefficients -(b_i - f(0) - 1) of the synthesis LP's gauge row: the
    weights mu >= 0 with gauge_row(F) @ mu <= 1 are the feasible ones."""
    return -(F.offsets - F.value_at_origin() - 1.0)


def lift(F, mu):
    """The lifted map (Lam, lam) = (slopes^T mu, sum mu) of weights mu."""
    mu = np.asarray(mu, dtype=np.float64)
    return F.slopes.T @ mu, float(np.sum(mu))


class TestSupportSystem:
    """A feasible mu gives a lifted map (x, a) -> <Lam, x> - lam * a that
    the epigraph gauge dominates."""

    def test_abs_system(self, abs_fn):
        # For |.| the region is mu >= 0, mu1 + mu2 <= 1, i.e. |Lam| <= lam <= 1.
        assert gauge_row(abs_fn) == pytest.approx([1.0, 1.0])
        Lam, lam = lift(abs_fn, [1.0, 0.0])
        assert Lam == pytest.approx([1.0]) and lam == pytest.approx(1.0)
        Lam0, lam0 = lift(abs_fn, [0.0, 0.0])
        assert lam0 == 0.0 and Lam0 == pytest.approx([0.0])

    def test_feasible_points_dominated_by_gauge(self):
        # Soundness of the parameterization: every feasible (Lam, lam)
        # satisfies <Lam, x> - lam*a <= gauge(x, a) on samples.
        rng = np.random.default_rng(31)
        for _ in range(10):
            F = MaxAffineFn(rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, 4))
            # Random feasible mu: scale a positive draw onto the constraint.
            mu = rng.uniform(0, 1, 4)
            bound = float(gauge_row(F) @ mu)
            if bound > 1.0:
                mu = mu / bound * rng.uniform(0.2, 1.0)
            Lam, lam = lift(F, mu)
            for _ in range(1000):
                x = rng.uniform(-6, 6, 2)
                a = rng.uniform(-6, 6)
                g = eval_gauge(F, x, a)
                assert Lam @ x - lam * a <= g.value + 1e-9

    def test_presampled_oracle_bound(self):
        # Independent pre-build check: max of Lam.x - lam*fshift(x) over a
        # coarse grid stays <= 1 for feasible points.
        rng = np.random.default_rng(33)
        F = MaxAffineFn(rng.uniform(-2, 2, (3, 1)), rng.uniform(-2, 2, 3))
        fsh = shift(F)
        mu = np.array([0.4, 0.1, 0.2])
        if float(gauge_row(F) @ mu) > 1.0:
            mu /= float(gauge_row(F) @ mu)
        Lam, lam = lift(F, mu)
        grid = np.linspace(-50, 50, 2001)
        vals = [Lam[0] * x - lam * fsh([x]) for x in grid]
        assert max(vals) <= 1.0 + 1e-9

    @pytest.mark.parametrize("case", range(3))
    def test_certificate_weights_are_feasible(self, case):
        # The synthesis LP's own weights lie in the region, and the
        # certificate's lifted map is their lift.
        F, cert = list(_exact_cases())[case]
        assert gauge_row(F) @ cert.weights <= 1.0 + 1e-12
        Lam, lam = lift(F, cert.weights)
        assert np.array_equal(cert.lifted.Lam.w, Lam) and cert.lifted.lam == lam


class TestMinOverScoredSet:
    """The certificate's delta is the scored infimum of f over B."""

    def test_finite(self, abs_fn):
        cert = synth_affine_from_scored_set(
            abs_fn, FiniteScoredSet(np.array([[2.0]]), np.array([5.0])))
        assert cert.delta == pytest.approx(7.0)
        cert0 = synth_affine_from_scored_set(
            abs_fn, FiniteScoredSet(np.array([[0.0]]), np.array([0.0])))
        assert cert0.delta == 0.0

    def test_polytope(self, abs_fn):
        B = LiftedPolytope(Polytope(np.array([[1.0], [3.0]])), np.array([0.0]), 0.0)
        cert = synth_affine_from_scored_set(abs_fn, B)
        assert cert.delta == pytest.approx(1.0)
        # A is tight at the minimizer x = 1.
        assert cert.affine([1.0]) == pytest.approx(abs_fn([1.0]))

    def test_large_negative_score_is_exact(self, abs_fn):
        # A finite scored infimum stays finite however low it is: the value
        # and the pipeline built on it are exact, with no fallback.
        cert = synth_affine_from_scored_set(
            abs_fn, FiniteScoredSet(np.array([[1.0]]), np.array([-2e12])))
        assert cert.delta == 1.0 - 2e12
        assert cert.affine([1.0]) == pytest.approx(abs_fn([1.0]))
        cert = synth_affine_from_scored_set(
            abs_fn, FiniteScoredSet(np.array([[0.0]]), np.array([-2e12])))
        assert cert.delta == -2e12 and cert.lhs == -2e12 and cert.gap == 0.0
        assert cert.t_star >= 1.0 - 1e-8
        assert cert.fallback is None and cert.condition.satisfied


class TestScoredMidpoint:
    def test_singleton_passes(self, abs_fn):
        B = FiniteScoredSet(np.array([[4.0]]), np.array([2.0]))
        assert check_scored_midpoint(abs_fn, B).satisfied

    def test_relu_three_points_pass(self, relu_fn):
        B = FiniteScoredSet(np.array([[0.0], [0.5], [1.0]]), np.zeros(3))
        rep = check_scored_midpoint(relu_fn, B)
        assert rep.satisfied
        # Point 0 witnesses every pair: its recession value max(w, 0) with
        # w = -midpoint is 0, and witnesses are reported in input order.
        assert rep.witnesses[(0, 2)] == 0
        assert rep.witnesses[(0, 1)] == 0

    def test_abs_pair_violated(self, abs_fn):
        B = FiniteScoredSet(np.array([[0.0], [1.0]]), np.zeros(2))
        rep = check_scored_midpoint(abs_fn, B)
        assert not rep.satisfied
        assert rep.violation[0] == (0, 1)


class TestSynthPipeline:
    def test_single_scored_point(self, abs_fn):
        cert = synth_affine_from_scored_set(
            abs_fn, FiniteScoredSet(np.array([[2.0]]), np.array([5.0])))
        assert cert.affine.w == pytest.approx([1.0])
        assert cert.affine.c == pytest.approx(0.0)
        assert cert.lhs == pytest.approx(7.0) and cert.rhs == pytest.approx(7.0)
        assert cert.t_star >= 1.0 - 1e-8
        assert cert.lifted.lam > 1e-12

    def test_support_point_form(self, abs_fn):
        cert = synth_affine_from_scored_set(
            abs_fn, FiniteScoredSet(np.array([[2.0]]), np.array([0.0])))
        assert cert.affine(np.array([2.0])) == pytest.approx(2.0)
        assert cert.affine.w == pytest.approx([1.0])

    def test_symmetric_polytope(self, abs_fn):
        B = LiftedPolytope(Polytope(np.array([[-1.0], [1.0]])), np.array([0.0]), 0.0)
        cert = synth_affine_from_scored_set(abs_fn, B)
        assert cert.affine.w == pytest.approx([0.0], abs=1e-12)
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)
        assert cert.lifted.Lam.w == pytest.approx([0.0], abs=1e-12)
        assert cert.lifted.lam == pytest.approx(1.0)
        assert cert.t_star == pytest.approx(1.0)

    def test_random_passing_instances(self):
        for seed in range(20):
            F, Z = gen_line_constrained_set(seed, d=3, p=4)
            cert = synth_tight_minorant(F, Z)
            assert cert.condition.satisfied
            assert abs(cert.gap) <= 1e-6
            assert cert.t_star >= 1.0 - 1e-8
            assert cert.lifted.lam > 1e-12
            assert cert.domination.worst_deficit >= -1e-7


def gauge_lp_level(F, points, scores, delta):
    """The optimum of the gauge-row synthesis LP, an oracle for t_star: the
    largest t over mu >= 0 with gauge_row(F) @ mu <= 1 and the lifted level
    sum_i mu_i (<a_i, b> - eta_b) >= t at every constraint point b,
    eta_b = delta - score_b - f(0) - 1."""
    eta = delta - scores - F.value_at_origin() - 1.0
    coeff = points @ F.slopes.T - eta[:, None]
    n, p = coeff.shape
    c = np.zeros(p + 2)  # mu_1..mu_p, t_plus, t_minus
    c[p], c[p + 1] = 1.0, -1.0
    A_ub = np.zeros((n + 1, p + 2))
    b_ub = np.zeros(n + 1)
    A_ub[0, :p] = gauge_row(F)
    b_ub[0] = 1.0
    A_ub[1:, :p] = -coeff
    A_ub[1:, p] = 1.0
    A_ub[1:, p + 1] = -1.0
    sol = solve_lp(c, A_ub, b_ub)
    assert sol.is_optimal
    return sol.value


class TestGaugeLpOracle:
    """On satisfied finite sets the weights read from the minimum LP reach
    the gauge-row LP's optimum level, and their lift makes the gauge row
    tight."""

    @pytest.mark.parametrize("seed", range(30))
    def test_t_star_is_the_gauge_lp_optimum(self, seed):
        rng = np.random.default_rng(seed)
        F, Z = gen_line_constrained_set(seed, d=1 + seed % 3, p=2 + seed % 5,
                                        npts=1 + seed % 7 * 4)
        pts = np.vstack(Z)
        # Points on a line along which f is constant satisfy the condition
        # whatever their scores.
        scores = rng.uniform(-2.0, 2.0, len(pts)) if seed % 2 else np.zeros(len(pts))
        cert = synth_affine_from_scored_set(F, FiniteScoredSet(pts, scores))
        assert cert.condition.satisfied
        assert abs(cert.t_star - gauge_lp_level(F, pts, scores, cert.delta)) <= 1e-9
        assert abs(gauge_row(F) @ cert.weights - 1.0) <= 1e-12
        assert abs(cert.gap) <= 1e-12


@pytest.mark.parametrize("keys, sizes", [
    (2, (6,)), (6, (5,)), (9, (3,)), (3, (2, 4)), (5, (2, 4)), (12, (2, 4)),
])
def test_min_lp_sides_meet(keys, sizes):
    # Few keys take the key side, many the piece side (6 keys against 5
    # pieces, and 5 against 2 + 4, are ties, kept on the piece side).
    # Either way nu and every rho_m lie on their simplices, and the value
    # of nu meets the least key value of rho: weak duality makes both
    # optimal.
    rng = np.random.default_rng(keys * 10 + len(sizes))
    gains = [rng.uniform(-2.0, 2.0, (keys, p)) for p in sizes]
    offsets = rng.uniform(-1.0, 1.0, sum(sizes))
    nu, rho = _min_lp(gains, offsets)
    parts = np.split(offsets, np.cumsum(sizes)[:-1])
    assert np.all(nu >= 0.0) and abs(nu.sum() - 1.0) <= 1e-12
    for r in rho:
        assert np.all(r >= 0.0) and abs(r.sum() - 1.0) <= 1e-12
    value = sum(float(np.max(G.T @ nu + c)) for G, c in zip(gains, parts))
    level = float(np.min(sum((G + c) @ r for G, c, r in zip(gains, parts, rho))))
    assert abs(value - level) <= 1e-12


def _exact_cases():
    """(f, certificate) for a finite set, a polytope and a composed form
    with a two-piece payload."""
    F, Z = gen_line_constrained_set(3, d=3, p=4)
    yield F, synth_tight_minorant(F, Z)
    F = MaxAffineFn(np.array([[1.0, 0.5], [-1.0, 0.2], [0.3, -1.0]]), np.array([0.1, -0.2, 0.4]))
    yield F, synth_tight_minorant(F, Polytope(np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])))
    yield F, synth_composed_minorant(
        F, AffineTransform(np.array([[1.0], [-0.5]]), np.array([0.2, 0.0])),
        MaxAffineFn(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5])),
        Polytope(np.array([[0.0], [1.0]])))


class TestExactDomination:
    """A <= f is certified by the weights theta = mu / lam on the simplex:
    perturbing w, c or one weight puts a residual outside tol_dom."""

    @pytest.mark.parametrize("case", range(3))
    def test_reported_residuals(self, case):
        F, cert = list(_exact_cases())[case]
        theta = cert.weights / cert.lifted.lam
        assert cert.domination == _domination_report(F, cert.affine, theta)
        assert abs(cert.domination.worst_deficit) <= 1e-12
        assert cert.domination.slope_residual <= 1e-12
        assert cert.within(DEFAULT_TOL)

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("mutation", ["w", "c", "mu"])
    def test_mutation_is_caught(self, case, mutation):
        F, cert = list(_exact_cases())[case]
        A, mu, eps = cert.affine, cert.weights.copy(), 1e-3
        if mutation == "w":
            A = AffineMap(A.w + eps * (np.arange(F.dim) == 0), A.c)
        elif mutation == "c":
            A = AffineMap(A.w, A.c + eps)
        else:
            mu[int(np.argmax(mu))] += eps
        dom = _domination_report(F, A, mu / cert.lifted.lam)
        assert dom.worst_deficit < -DEFAULT_TOL.tol_dom or dom.slope_residual > DEFAULT_TOL.tol_dom
        assert not dataclasses.replace(cert, affine=A, domination=dom).within(DEFAULT_TOL)


class TestSupportAtPoint:
    def test_abs_examples(self, abs_fn, relu_fn):
        A = support_at_point(abs_fn, [2.0])
        assert A.w == pytest.approx([1.0]) and A([2.0]) == pytest.approx(2.0)
        A0 = support_at_point(abs_fn, [0.0])
        assert A0.w == pytest.approx([1.0])  # lowest-index tie break
        assert A0([0.0]) == pytest.approx(0.0)
        Ar = support_at_point(relu_fn, [-1.0])
        assert Ar.w == pytest.approx([0.0]) and Ar.c == pytest.approx(0.0)

    def test_cross_check_against_pipeline(self):
        # Both routes must support f at x and stay below f; the maps may
        # differ when the subdifferential is not a singleton.
        rng = np.random.default_rng(44)
        for _ in range(10):
            F = MaxAffineFn(rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, 4))
            x = rng.uniform(-3, 3, 2)
            direct = support_at_point(F, x)
            cert = synth_affine_from_scored_set(
                F, FiniteScoredSet(x.reshape(1, -1), np.array([0.0])))
            for A in (direct, cert.affine):
                assert A(x) == pytest.approx(F(x), abs=1e-7)
                for _ in range(200):
                    y = rng.uniform(-8, 8, 2)
                    assert A(y) <= F(y) + 1e-7


class TestTightMinorant:
    def test_interval(self, abs_fn):
        cert = synth_tight_minorant(abs_fn, Polytope(np.array([[1.0], [3.0]])))
        assert cert.affine.w == pytest.approx([1.0])
        assert cert.lhs == pytest.approx(1.0)

    def test_symmetric_interval(self, abs_fn):
        cert = synth_tight_minorant(abs_fn, Polytope(np.array([[-1.0], [1.0]])))
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)

    def test_finite_violation_raises(self, abs_fn):
        with pytest.raises(ConditionViolated) as ei:
            synth_tight_minorant(abs_fn, [np.array([-1.0]), np.array([1.0])])
        assert ei.value.report.violation[0] == (0, 1)

    def test_large_negative_payload_is_exact(self, abs_fn):
        cert = synth_composed_minorant(
            abs_fn, np.array([[2.0]]), np.array([-2e12]), None)
        assert cert.fallback is None
        assert cert.delta == 2.0 - 2e12 and cert.lhs == cert.delta and cert.gap == 0.0
        A = cert.affine
        x0 = np.array([2.0])
        assert A(x0) == abs_fn(x0) == 2.0
        rng = np.random.default_rng(1)
        for _ in range(200):
            y = rng.uniform(-9, 9, 1)
            assert A(y) <= abs_fn(y) + 1e-12


class TestMinConvexOverPolytope:
    def test_interval_vertex_min(self, abs_fn):
        x, v = min_convex_over_polytope(abs_fn, np.array([[1.0], [3.0]]))
        assert v == pytest.approx(1.0) and x == pytest.approx([1.0])

    def test_interior_min(self, abs_fn):
        x, v = min_convex_over_polytope(abs_fn, np.array([[-1.0], [1.0]]))
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        F = MaxAffineFn(np.array([[0.0, 0.0]]), np.array([4.0]))
        _, v = min_convex_over_polytope(F, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert v == pytest.approx(4.0)


class TestComposedMinorant:
    def test_singleton_table(self, abs_fn):
        cert = synth_composed_minorant(abs_fn, np.array([[2.0]]), np.array([5.0]), None)
        assert cert.affine.w == pytest.approx([1.0])
        assert cert.lhs == pytest.approx(7.0) and cert.rhs == pytest.approx(7.0)

    def test_singleton_zero_payload_matches_support(self, abs_fn):
        cert = synth_composed_minorant(abs_fn, np.array([[2.0]]), np.array([0.0]), None)
        A = support_at_point(abs_fn, [2.0])
        assert cert.affine(np.array([2.0])) == pytest.approx(A(np.array([2.0])))
        assert cert.lhs == pytest.approx(2.0) and cert.rhs == pytest.approx(2.0)

    def test_polytope_affine_payload(self, abs_fn):
        cert = synth_composed_minorant(
            abs_fn,
            AffineTransform(np.array([[1.0]]), np.array([0.0])),
            AffineMap(np.array([-1.0]), 0.0),
            Polytope(np.array([[0.0], [1.0]])),
        )
        assert cert.affine.w == pytest.approx([1.0])
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)
        assert cert.rhs == pytest.approx(0.0, abs=1e-12)
        assert not cert.approximate

    def test_polytope_maxaffine_payload_exact(self, abs_fn):
        # k(z) = |z - 1/2| is convex but not affine: one more LP weight.
        k = MaxAffineFn(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5]))
        cert = synth_composed_minorant(
            abs_fn,
            AffineTransform(np.array([[1.0]]), np.array([0.0])),
            k,
            Polytope(np.array([[0.0], [1.0]])),
        )
        assert not cert.approximate
        # The min of |z| + |z - 1/2| on [0, 1] is 1/2, on all of [0, 1/2].
        assert cert.delta == pytest.approx(0.5, abs=1e-12)
        assert cert.lhs == pytest.approx(0.5, abs=1e-12)
        assert cert.t_star >= 1.0 - 1e-12
        assert cert.domination.worst_deficit >= -1e-12

    def test_condition_violation(self, abs_fn):
        with pytest.raises(ConditionViolated):
            synth_composed_minorant(
                abs_fn, np.array([[-1.0], [1.0]]), np.zeros(2), None)


class TestSingleScan:
    """Each finite scored set is scanned for the midpoint condition once."""

    @pytest.fixture
    def scans(self, monkeypatch):
        import minorant.synth as synth

        calls = []
        real = synth.check_scored_midpoint

        def counting(F, B, tol):
            calls.append(B.size)
            return real(F, B, tol)

        monkeypatch.setattr(synth, "check_scored_midpoint", counting)
        return calls

    def test_tight_finite(self, relu_fn, scans):
        cert = synth_tight_minorant(relu_fn, [np.array([0.0]), np.array([1.0])])
        assert scans == [2] and cert.condition.satisfied

    def test_composed_finite(self, abs_fn, scans):
        cert = synth_composed_minorant(
            abs_fn, np.array([[1.0], [2.0], [3.0]]), np.array([0.0, -1.0, -2.0]), None)
        assert scans == [3] and cert.condition.satisfied

    def test_violation_scans_once(self, abs_fn, scans):
        with pytest.raises(ConditionViolated):
            synth_tight_minorant(abs_fn, [np.array([-1.0]), np.array([1.0])])
        assert scans == [2]

    def test_affine_from_scored_set(self, abs_fn, scans):
        with pytest.raises(ConditionViolated):
            synth_affine_from_scored_set(
                abs_fn, FiniteScoredSet(np.array([[1.0], [2.0]]), np.zeros(2)))
        assert scans == [2]

    def test_polytope_scans_nothing(self, abs_fn, scans):
        synth_tight_minorant(abs_fn, Polytope(np.array([[1.0], [3.0]])))
        assert scans == []


class TestDimensionMismatch:
    """A set whose dimension differs from f's is an input error that names
    both dimensions, not a numpy shape error."""

    F2 = MaxAffineFn(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
    V3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_tight_polytope(self):
        with pytest.raises(DimensionMismatch, match="polytope is 3-d and the function 2-d"):
            synth_tight_minorant(self.F2, Polytope(self.V3))

    def test_lifted_polytope(self):
        B = LiftedPolytope(Polytope(self.V3), np.zeros(3), 0.0)
        with pytest.raises(DimensionMismatch, match="polytope is 3-d and the function 2-d"):
            synth_affine_from_scored_set(self.F2, B)

    def test_finite_scored_set(self):
        B = FiniteScoredSet(self.V3, np.zeros(3))
        with pytest.raises(DimensionMismatch, match="scored set is 3-d but f is 2-d"):
            synth_affine_from_scored_set(self.F2, B)

    @pytest.mark.parametrize("d", [2, 4])
    def test_composed_table(self, d):
        # A (2, 3) j table is three columns wide; f is d-d.
        F = MaxAffineFn(np.eye(d), np.zeros(d))
        with pytest.raises(DimensionMismatch, match=rf"j table has shape \(2, 3\) but f is {d}-d"):
            synth_composed_minorant(F, np.ones((2, 3)), np.zeros(2), None)

    def test_composed_payload(self):
        with pytest.raises(DimensionMismatch, match="payload is 2-d but the polytope 1-d"):
            synth_composed_minorant(
                self.F2, AffineTransform(np.ones((2, 1)), np.zeros(2)),
                AffineMap(np.zeros(2), 0.0), Polytope(np.array([[0.0], [1.0]])))
