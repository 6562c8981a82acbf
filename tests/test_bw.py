import math

import numpy as np
import pytest

from certitrack.bw import (
    bw_inner,
    bw_norm,
    dense_product,
    normalize_to_sphere,
    riemann_distance,
    unitary_compose,
)
from certitrack.linalg import random_unitary
from certitrack.polysys import (
    AffineSystem,
    PolySystem,
    affine_exponents,
    evaluate,
    homogeneous_exponents,
    homogenize,
    unit_point,
)
from certitrack.start_systems import good_system_raw


def random_system(degrees, seed):
    rng = np.random.default_rng(seed)
    n_vars = len(degrees) + 1
    coeffs = []
    for d in degrees:
        m = homogeneous_exponents(n_vars, d).shape[0]
        coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return PolySystem(tuple(degrees), tuple(coeffs))


class TestInnerProduct:
    def test_pure_power_normalized(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])
        assert bw_inner(h, h) == pytest.approx(1.0)

    def test_mixed_monomial_weight(self):
        # X0*X1 at degree 2 carries weight 1/multinomial(2;1,1) = 1/2
        h = PolySystem.from_terms((2,), [[((1, 1), 1.0)]])
        assert bw_inner(h, h) == pytest.approx(0.5)

    def test_disjoint_monomials_orthogonal(self):
        a = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])
        b = PolySystem.from_terms((2,), [[((0, 2), 1.0)]])
        assert bw_inner(a, b) == 0.0

    def test_conjugate_symmetry(self):
        a = random_system((2, 3), 1)
        b = random_system((2, 3), 2)
        assert bw_inner(a, b) == pytest.approx(np.conj(bw_inner(b, a)))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            bw_inner(random_system((2,), 1), random_system((3,), 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_schwarz(self, seed):
        a = random_system((2, 2), seed)
        b = random_system((2, 2), seed + 40)
        assert abs(bw_inner(a, b)) <= bw_norm(a) * bw_norm(b) + 1e-12


class TestNorm:
    def test_two_pure_powers(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0), ((0, 2), 1.0)]])
        assert bw_norm(h) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("degrees", [(2,), (2, 2), (3, 2, 4), (2, 2, 2, 2)])
    def test_good_system_norm_sqrt_n(self, degrees):
        assert bw_norm(good_system_raw(degrees)) == pytest.approx(math.sqrt(len(degrees)))

    def test_scaling(self):
        h = random_system((2, 2), 3)
        lam = 0.3 - 2.1j
        assert bw_norm(lam * h) == pytest.approx(abs(lam) * bw_norm(h))

    @pytest.mark.parametrize("seed", range(3))
    def test_affine_norm_matches_homogenization(self, seed):
        # An affine monomial x^a of degree <= d weighs as its homogenization
        # X0^(d-|a|) x^a: 1 / multinomial(d; d-|a|, a).
        rng = np.random.default_rng(seed)
        coeffs = []
        for d in (2, 3):
            m = affine_exponents(2, d).shape[0]
            coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        f = AffineSystem((2, 3), tuple(coeffs))
        total = 0.0
        for d, a in zip(f.degrees, f.coeffs):
            for row, c in zip(affine_exponents(2, d), a):
                denom = math.factorial(d - int(row.sum())) * math.prod(map(math.factorial, row))
                total += denom / math.factorial(d) * abs(c) ** 2
        assert math.sqrt(total) == pytest.approx(bw_norm(homogenize(f)), abs=1e-12)


class TestNormalize:
    def test_scales_down(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 2.0)]])
        out = normalize_to_sphere(h)
        assert out.coeffs[0][np.nonzero(out.coeffs[0])[0][0]] == pytest.approx(1.0)

    def test_idempotent(self):
        h = normalize_to_sphere(random_system((2, 2), 9))
        again = normalize_to_sphere(h)
        for a, b in zip(h.coeffs, again.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_mixed_degrees(self):
        h = PolySystem.from_terms((2, 3), [[((2, 0, 0), 1.0)], [((0, 0, 3), 1.0)]])
        out = normalize_to_sphere(h)
        assert bw_norm(out) == pytest.approx(1.0)
        np.testing.assert_allclose(out.coeffs[0].max(), 1 / math.sqrt(2.0))

    def test_zero_system_rejected(self):
        h = PolySystem((2,), (np.zeros(3, dtype=complex),))
        with pytest.raises(ValueError):
            normalize_to_sphere(h)


class TestRiemannDistance:
    def test_self_distance(self):
        z = unit_point([1.0, 2.0, 3.0])
        assert riemann_distance(z, z) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert riemann_distance([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_diagonal(self):
        assert riemann_distance([1, 0], [1, 1]) == pytest.approx(math.pi / 4)

    def test_phase_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = np.exp(1.7j)
        assert riemann_distance(lam * z, w) == pytest.approx(riemann_distance(z, w), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert riemann_distance(z, w) == pytest.approx(riemann_distance(w, z), abs=1e-12)

    def test_small_distance_not_lost(self):
        z = unit_point([1.0, 0.0])
        w = unit_point([1.0, 1e-12])
        assert riemann_distance(z, w) == pytest.approx(1e-12, rel=1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        pts = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        a, b, c = pts
        assert riemann_distance(a, c) <= riemann_distance(a, b) + riemann_distance(b, c) + 1e-10

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            d = riemann_distance(z, w)
            assert 0.0 <= d <= math.pi / 2 + 1e-15


class TestUnitaryCompose:
    def test_identity(self):
        h = random_system((2, 3), 7)
        out = unitary_compose(h, np.eye(3))
        for a, b in zip(h.coeffs, out.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_coordinate_swap(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])  # X0^2
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = unitary_compose(h, swap)
        want = PolySystem.from_terms((2,), [[((0, 2), 1.0)]])  # X1^2
        np.testing.assert_allclose(out.coeffs[0], want.coeffs[0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_evaluation_consistency(self, seed):
        # dual route: expansion vs direct evaluation at mapped points
        h = random_system((2, 3), seed)
        U = random_unitary(3, np.random.default_rng(seed + 70))
        hU = unitary_compose(h, U)
        rng = np.random.default_rng(seed + 80)
        for _ in range(3):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            np.testing.assert_allclose(evaluate(hU, z), evaluate(h, U @ z), rtol=1e-10)

    def test_norm_preserved(self):
        h = random_system((3, 2), 8)
        U = random_unitary(3, np.random.default_rng(9))
        assert bw_norm(unitary_compose(h, U)) == pytest.approx(bw_norm(h), rel=1e-10)

    @pytest.mark.parametrize("degrees,n_seed", [((2, 2), 0), ((4, 3), 1), ((2, 2, 2, 2), 2)])
    def test_unitary_invariance_of_inner(self, degrees, n_seed):
        a = random_system(degrees, n_seed)
        b = random_system(degrees, n_seed + 30)
        U = random_unitary(len(degrees) + 1, np.random.default_rng(n_seed + 60))
        before = bw_inner(a, b)
        after = bw_inner(unitary_compose(a, U), unitary_compose(b, U))
        assert abs(after - before) <= 1e-9 * bw_norm(a) * bw_norm(b)

    def test_rejects_non_unitary(self):
        h = random_system((2,), 10)
        with pytest.raises(ValueError):
            unitary_compose(h, np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestDenseProduct:
    def test_linear_times_linear(self):
        # (X0 + 2 X1)(3 X0 + X1) = 3 X0^2 + 7 X0 X1 + 2 X1^2
        from certitrack.polysys import linear_form

        a = linear_form([1.0, 2.0])
        b = linear_form([3.0, 1.0])
        prod = dense_product(a, 1, b, 1, 2)
        want = PolySystem.from_terms(
            (2,), [[((2, 0), 3.0), ((1, 1), 7.0), ((0, 2), 2.0)]]
        ).coeffs[0]
        np.testing.assert_allclose(prod, want, atol=1e-15)
