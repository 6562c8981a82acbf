import math

import numpy as np
import pytest

from certitrack.bw import bw_inner, bw_norm, riemann_distance
from certitrack.newton import certify_start, condition_mu, refine
from certitrack.polysys import evaluate, homogeneous_exponents, space_dimension, unit_point
from certitrack.start_systems import (
    InitialPair,
    draw_ball_matrix,
    draw_restricted_system,
    good_initial_pair,
    good_system_raw,
    random_initial_pair,
    random_initial_pair_unitary,
    random_system_on_sphere,
    restricted_monomial_mask,
    solve_all_total_degree,
    total_degree_initial_pair,
    total_degree_start,
    uniform_ball_point,
)
from certitrack.tracker import TrackerOptions


class TestTotalDegreeStart:
    def test_two_quadrics_roots(self):
        start = total_degree_start((2, 2), np.random.default_rng(0))
        assert len(start.roots) == 4
        signs = {tuple(np.sign(np.round(np.real(r * math.sqrt(3.0)), 6))) for r in start.roots}
        assert signs == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}

    def test_single_linear(self):
        start = total_degree_start((1,), np.random.default_rng(1))
        assert len(start.roots) == 1
        np.testing.assert_allclose(start.roots[0], np.array([1.0, 1.0]) / math.sqrt(2))

    @pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (2, 2, 2), (4, 3)])
    def test_roots_are_zeros(self, degrees):
        start = total_degree_start(degrees, np.random.default_rng(2))
        assert len(start.roots) == math.prod(degrees)
        for root in start.roots:
            assert np.linalg.norm(evaluate(start.g, root)) <= 1e-14

    def test_on_sphere(self):
        start = total_degree_start((3, 2), np.random.default_rng(3))
        assert bw_norm(start.g) == pytest.approx(1.0, abs=1e-12)

    def test_roots_distinct(self):
        start = total_degree_start((3, 3), np.random.default_rng(4))
        roots = start.roots
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert riemann_distance(roots[i], roots[j]) > 1e-6

    def test_phase_depends_on_rng(self):
        a = total_degree_start((2,), np.random.default_rng(5)).g
        b = total_degree_start((2,), np.random.default_rng(6)).g
        assert np.max(np.abs(a.coeffs[0] - b.coeffs[0])) > 1e-3

    def test_all_ones_pair(self):
        pair = total_degree_initial_pair((2, 2), np.random.default_rng(7))
        np.testing.assert_allclose(pair.zeta0, np.ones(3) / math.sqrt(3))
        assert pair.kind == "TotalDegree"


class TestGoodPair:
    def test_raw_norm(self):
        assert bw_norm(good_system_raw((2, 2, 2))) == pytest.approx(math.sqrt(3.0))

    def test_zero_at_e0(self):
        pair = good_initial_pair((3, 2))
        assert np.linalg.norm(evaluate(pair.g, pair.zeta0)) == 0.0

    def test_mu_sqrt_n(self):
        # scale invariance carries the raw computation to the normalized system
        pair = good_initial_pair((2, 2, 2, 2))
        assert condition_mu(pair.g, pair.zeta0) == pytest.approx(2.0, rel=1e-12)

    def test_start_certificate(self):
        pair = good_initial_pair((2, 2))
        assert certify_start(pair.g, pair.zeta0, pair.zeta0)


class TestRandomSystemOnSphere:
    def test_unit_norm(self):
        h = random_system_on_sphere((2, 3), np.random.default_rng(0))
        assert bw_norm(h) == pytest.approx(1.0, abs=1e-12)

    def test_mean_overlap_near_zero(self):
        # Re<h, h'> has mean 0 and variance 1/(2(N+1)) for independent pairs
        rng = np.random.default_rng(1)
        n_pairs = 1000
        dim = space_dimension((2, 2))
        vals = np.empty(n_pairs)
        for k in range(n_pairs):
            a = random_system_on_sphere((2, 2), rng)
            b = random_system_on_sphere((2, 2), rng)
            vals[k] = bw_inner(a, b).real
        se = math.sqrt(1.0 / (2.0 * dim) / n_pairs)
        assert abs(vals.mean()) <= 3 * se

    def test_coefficient_variance_uniform_across_monomials(self):
        # each orthonormal coordinate carries |u|^2 with mean 1/(N+1)
        rng = np.random.default_rng(2)
        from certitrack.bw import sqrt_multinomials

        degrees = (2, 2)
        dim = space_dimension(degrees)
        n_draws = 1000
        acc = np.zeros(dim)
        for _ in range(n_draws):
            h = random_system_on_sphere(degrees, rng)
            ortho = np.concatenate(
                [c / sqrt_multinomials(3, d) for d, c in zip(degrees, h.coeffs)]
            )
            acc += np.abs(ortho) ** 2
        scaled = acc / n_draws * dim  # per-coordinate mean of |u|^2 * (N+1), expect 1
        assert np.all(scaled > 0.8) and np.all(scaled < 1.2)


class TestBallDraws:
    def test_ball_point_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = uniform_ball_point(5, rng)
            assert np.linalg.norm(v) <= 1.0 + 1e-12

    def test_ball_radius_distribution(self):
        # P(|v| <= r) = r^(2m): E|v|^2 = m/(m+1)
        rng = np.random.default_rng(4)
        m = 6
        vals = np.array([np.linalg.norm(uniform_ball_point(m, rng)) ** 2 for _ in range(4000)])
        want = m / (m + 1.0)
        assert abs(vals.mean() - want) <= 4 * vals.std() / math.sqrt(len(vals))

    def test_ball_of_c0_is_a_point(self):
        # an all-degree-1 system has no restricted coefficients to draw
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert uniform_ball_point(0, rng).shape == (0,)
        assert rng.bit_generator.state == before

    def test_matrix_frobenius_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            M = draw_ball_matrix((2, 2), rng)
            assert M.shape == (2, 3)
            assert np.linalg.norm(M) <= 1.0 + 1e-12

    def test_matrix_frobenius_mean(self):
        # E ||M||_F^2 = (n^2 + n) / (N + 2)
        degrees = (2, 2)
        n = 2
        N_plus_1 = space_dimension(degrees)
        want = (n * n + n) / (N_plus_1 + 1.0)
        rng = np.random.default_rng(6)
        vals = np.array(
            [np.linalg.norm(draw_ball_matrix(degrees, rng)) ** 2 for _ in range(1000)]
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - want) <= 3 * se


class TestRestrictedSystem:
    def test_mask_excludes_high_x0(self):
        masks = restricted_monomial_mask((2, 3))
        exps2 = homogeneous_exponents(3, 2)
        for pos, keep in enumerate(masks[0]):
            assert keep == (exps2[pos, 0] <= 0)

    def test_forbidden_coefficients_zero(self):
        h = draw_restricted_system((2, 2, 3), np.random.default_rng(7))
        for d, coeff in zip(h.degrees, h.coeffs):
            exps = homogeneous_exponents(4, d)
            bad = exps[:, 0] >= d - 1
            assert np.all(coeff[bad] == 0.0)

    def test_vanishes_doubly_at_e0(self):
        h = draw_restricted_system((2, 2), np.random.default_rng(8))
        e0 = unit_point([1.0, 0.0, 0.0])
        assert np.linalg.norm(evaluate(h, e0)) == 0.0
        from certitrack.polysys import jacobian

        assert np.linalg.norm(jacobian(h, e0)) == 0.0

    def test_inside_unit_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert bw_norm(draw_restricted_system((2, 2), rng)) <= 1.0 + 1e-12


class TestRandomInitialPair:
    @pytest.mark.parametrize("seed", range(6))
    def test_zero_contract(self, seed):
        pair = random_initial_pair((2, 2), np.random.default_rng(seed))
        assert np.linalg.norm(evaluate(pair.g, pair.zeta0)) <= 1e-10

    def test_on_sphere(self):
        pair = random_initial_pair((2, 2, 2), np.random.default_rng(10))
        assert bw_norm(pair.g) == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = random_initial_pair((2, 2), np.random.default_rng(11))
        b = random_initial_pair((2, 2), np.random.default_rng(11))
        assert np.array_equal(a.zeta0, b.zeta0)
        for x, y in zip(a.g.coeffs, b.g.coeffs):
            assert np.array_equal(x, y)

    def test_mixed_degrees(self):
        pair = random_initial_pair((1, 2, 3), np.random.default_rng(12))
        assert np.linalg.norm(evaluate(pair.g, pair.zeta0)) <= 1e-10

    @pytest.mark.parametrize("degrees", [(1,), (1, 1), (1, 1, 1)])
    def test_all_degree_one(self, degrees):
        pair = random_initial_pair(degrees, np.random.default_rng(0))
        assert np.linalg.norm(evaluate(pair.g, pair.zeta0)) <= 1e-10

    def test_validation_rejects_non_zero(self):
        pair = good_initial_pair((2,))
        with pytest.raises(ValueError):
            InitialPair(g=pair.g, zeta0=unit_point([1.0, 1.0]), kind="bad")


class TestRandomInitialPairUnitary:
    def test_zero_contract(self):
        pair = random_initial_pair_unitary((2, 2, 2), np.random.default_rng(13))
        assert np.linalg.norm(evaluate(pair.g, pair.zeta0)) <= 1e-10

    def test_on_sphere(self):
        pair = random_initial_pair_unitary((2, 2), np.random.default_rng(14))
        assert bw_norm(pair.g) == pytest.approx(1.0, abs=1e-10)

    def test_mu_preserved(self):
        # unitary change of coordinates leaves the condition number at sqrt(n)
        pair = random_initial_pair_unitary((2, 2), np.random.default_rng(15))
        assert condition_mu(pair.g, pair.zeta0) == pytest.approx(math.sqrt(2.0), rel=1e-9)


class TestSolvers:
    def test_solve_all_distinct_roots(self):
        f = random_system_on_sphere((2, 2), np.random.default_rng(17))
        report = solve_all_total_degree(f, rng=np.random.default_rng(18))
        assert report.num_failed == 0
        endpoints = report.endpoints
        assert len(endpoints) == 4
        refined = [refine(f, z) for z in endpoints]
        for i in range(4):
            for j in range(i + 1, 4):
                assert riemann_distance(refined[i], refined[j]) > 1e-3

    def test_solve_all_affine_input(self):
        from certitrack.experiments import katsura_system

        report = solve_all_total_degree(
            katsura_system(3), rng=np.random.default_rng(19)
        )
        assert report.num_failed == 0
        assert len(report.endpoints) == 4

    def test_solve_all_reports_failures(self):
        f = random_system_on_sphere((2, 2), np.random.default_rng(20))
        report = solve_all_total_degree(
            f, TrackerOptions(t_step_min=1.0, record_trace=False), rng=np.random.default_rng(21)
        )
        assert report.num_failed == 4
        assert report.endpoints == []
