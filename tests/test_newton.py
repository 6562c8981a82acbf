import math

import numpy as np
import pytest

from certitrack.bw import normalize_to_sphere, riemann_distance
from certitrack.linalg import SingularLinearSolveError
from certitrack.newton import (
    U0,
    AffineRootAtInfinityError,
    RefinementError,
    certified_radius,
    certify_projective,
    certify_start,
    condition_mu,
    default_affine_norm_bound,
    newton_projective,
    projective_to_affine,
    refine,
)
from certitrack.polysys import PolySystem, evaluate, unit_point
from certitrack.start_systems import good_initial_pair, good_system_raw, total_degree_start


def diff_of_squares():
    # X1^2 - X0^2, zeros (1, 1) and (1, -1) up to scale
    return PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]])


class TestNewtonProjective:
    def test_exact_zero_fixed(self):
        h = diff_of_squares()
        z = unit_point([1.0, 1.0])
        out = newton_projective(h, z)
        assert riemann_distance(out, z) <= 1e-12

    def test_scale_invariance(self):
        h = diff_of_squares()
        z = np.array([1.0, 0.8], dtype=complex)
        out1 = newton_projective(h, z)
        out2 = newton_projective(h, (2.0 - 1.0j) * z)
        assert riemann_distance(out1, out2) <= 1e-10

    def test_distance_decreases(self):
        h = diff_of_squares()
        root = unit_point([1.0, 1.0])
        z = unit_point([1.0, 0.8])
        d0 = riemann_distance(z, root)
        z1 = newton_projective(h, z)
        d1 = riemann_distance(z1, root)
        z2 = newton_projective(h, z1)
        d2 = riemann_distance(z2, root)
        assert d1 < d0 and d2 < d1

    def test_fixed_point_residual_contract(self):
        # any point with tiny residual is (numerically) fixed
        rng = np.random.default_rng(3)
        start = total_degree_start((2, 2), rng)
        for root in start.roots:
            assert riemann_distance(newton_projective(start.g, root), root) <= 1e-10


class TestConditionNumber:
    @pytest.mark.parametrize("degrees", [(2,), (2, 2), (2, 2, 2), (3, 2)])
    def test_good_pair_mu_sqrt_n(self, degrees):
        # both the raw system and its normalization: mu is scale invariant
        pair = good_initial_pair(degrees)
        want = math.sqrt(len(degrees))
        assert condition_mu(pair.g, pair.zeta0) == pytest.approx(want, rel=1e-12)
        assert condition_mu(good_system_raw(degrees), pair.zeta0) == pytest.approx(want, rel=1e-12)

    def test_diff_of_squares_value(self):
        # hand computation: normalized system at its zero has mu exactly 1
        h = normalize_to_sphere(diff_of_squares())
        z = unit_point([1.0, 1.0])
        assert condition_mu(h, z) == pytest.approx(1.0, rel=1e-12)

    def test_singular_is_infinite(self):
        h = diff_of_squares()
        z = unit_point([1.0, 0.0])  # Dh restricted to z-perp vanishes
        assert condition_mu(h, z) == math.inf

    @pytest.mark.parametrize("lam", [2.0, 0.25, 3.0 - 4.0j])
    def test_scale_invariance(self, lam):
        rng = np.random.default_rng(8)
        from certitrack.start_systems import random_system_on_sphere

        h = random_system_on_sphere((2, 2), rng)
        z = unit_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        base = condition_mu(h, z)
        assert condition_mu(lam * h, z) == pytest.approx(base, rel=1e-10)


class TestCertificates:
    def test_certified_radius_formula(self):
        pair = good_initial_pair((2, 2))
        mu = condition_mu(pair.g, pair.zeta0)
        r = certified_radius(pair.g, pair.zeta0)
        assert r == pytest.approx(U0 / (2.0**1.5 * mu), rel=1e-12)

    def test_same_point_certifies(self):
        pair = good_initial_pair((2, 2))
        ok, cert = certify_projective(pair.g, pair.zeta0, pair.zeta0)
        assert ok
        assert cert.mu == pytest.approx(math.sqrt(2.0))

    def test_orthogonal_point_fails(self):
        pair = good_initial_pair((2, 2))
        far = unit_point([0.0, 1.0, 0.0])
        ok, _ = certify_projective(pair.g, far, pair.zeta0)
        assert not ok

    def test_singular_reference_fails(self):
        h = diff_of_squares()
        z = unit_point([1.0, 0.0])
        ok, cert = certify_projective(h, z, z)
        assert not ok and cert.mu == math.inf

    def test_start_certificate_halves_radius(self):
        pair = good_initial_pair((2, 2))
        radius = certified_radius(pair.g, pair.zeta0)
        direction = np.array([0.0, 1.0, 0.0], dtype=complex)
        for frac, want in ((0.45, True), (1.0, False)):
            z = unit_point(pair.zeta0 + math.tan(frac * radius) * direction)
            assert certify_start(pair.g, z, pair.zeta0) is want

    def test_exact_start_zeros_qualify(self):
        rng = np.random.default_rng(5)
        start = total_degree_start((2, 2), rng)
        for root in start.roots:
            assert certify_start(start.g, root, root)

    def test_tiny_perturbation_certifies(self):
        pair = good_initial_pair((2, 2, 2))
        z = unit_point(pair.zeta0 + 1e-12 * np.array([0, 1, 1, 1], dtype=complex))
        assert certify_start(pair.g, z, pair.zeta0)


class TestRefine:
    def test_within_radius_converges_fast(self):
        h = normalize_to_sphere(diff_of_squares())
        root = unit_point([1.0, 1.0])
        z = unit_point([1.0, 1.01])
        out = refine(h, z, max_iters=8)
        assert riemann_distance(out, root) <= 1e-12

    def test_exact_zero_unchanged(self):
        h = diff_of_squares()
        root = unit_point([1.0, 1.0])
        assert riemann_distance(refine(h, root), root) <= 1e-13

    def test_residual_on_total_degree_roots(self):
        rng = np.random.default_rng(7)
        start = total_degree_start((2, 3), rng)
        for root in start.roots:
            refined = refine(start.g, root)
            assert np.linalg.norm(evaluate(start.g, refined)) <= 1e-12

    def test_nonconvergence_raises(self):
        h = diff_of_squares()
        z = unit_point([1.0, 0.0])  # singular point of the zero set structure
        with pytest.raises((RefinementError, SingularLinearSolveError)):
            refine(h, z, max_iters=3)

    @pytest.mark.parametrize("eps_exp", [-5, -4, -3])
    def test_quadratic_contraction(self, eps_exp):
        # post-step distance <= 10 * (pre-step distance)^2 near a regular zero
        h = normalize_to_sphere(diff_of_squares())
        root = unit_point([1.0, 1.0])
        eps = 10.0**eps_exp
        z = unit_point(root + eps * np.array([1.0, -1.0], dtype=complex) / math.sqrt(2))
        d0 = riemann_distance(z, root)
        assert 0.1 * eps <= d0 <= 10 * eps
        z1 = newton_projective(h, z)
        assert riemann_distance(z1, root) <= 10.0 * d0**2

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_approximate_zero_contraction_rate(self, l):
        # iterate distance <= d0 / 2^(2^l - 1) from a certified start
        rng = np.random.default_rng(11)
        from certitrack.start_systems import random_system_on_sphere

        h = random_system_on_sphere((2, 2), rng)
        from certitrack.start_systems import solve_all_total_degree

        report = solve_all_total_degree(h, rng=rng)
        z = report.results[0].endpoint
        zeta = refine(h, z)
        d0 = riemann_distance(z, zeta)
        if d0 == 0.0:
            pytest.skip("endpoint refined onto the root exactly")
        current = z
        for _ in range(l):
            current = newton_projective(h, current)
        assert riemann_distance(current, zeta) <= d0 / 2.0 ** (2.0**l - 1.0) + 1e-15


class TestProjectiveToAffine:
    def test_step_count_formula(self):
        # norm bound 1: ceil(log2 log2 8) = 2 steps
        assert math.ceil(math.log2(math.log2(4.0 * (1.0 + 1.0**2)))) == 2

    def test_recovers_affine_zero(self):
        h = normalize_to_sphere(diff_of_squares())
        z = unit_point([1.0, 1.0])
        eta = projective_to_affine(h, z, norm_bound=1.0)
        assert eta[0] == pytest.approx(1.0, abs=1e-12)

    def test_root_at_infinity(self):
        # X0 * X1 has the zero (0, 1): no affine counterpart
        h = PolySystem.from_terms((2,), [[((1, 1), 1.0)]])
        z = unit_point([1e-15, 1.0])
        with pytest.raises(AffineRootAtInfinityError):
            projective_to_affine(h, z, norm_bound=1.0)

    def test_default_norm_bound(self):
        # D * sqrt(pi n) / 0.01
        want = 4.0 * math.sqrt(math.pi * 2) * 100.0
        assert default_affine_norm_bound((2, 2)) == pytest.approx(want)
