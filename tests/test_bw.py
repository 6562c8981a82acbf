import hashlib
import math

import numpy as np
import pytest

from certitrack.bw import (
    _bw_weights,
    bw_inner_re,
    bw_norm,
    ensure_on_sphere,
    normalize_to_sphere,
    riemann_distance,
    unit_scale,
    unitary_compose,
)
from certitrack.linalg import one_blas_thread, random_unitary, vector_norm
from certitrack.polysys import (
    AffineSystem,
    PolySystem,
    evaluate,
    homogeneous_exponents,
    homogenize,
    unit_point,
)
from certitrack.start_systems import good_system_raw, random_system_on_sphere
from openblas_core import pinned


def random_system(degrees, seed):
    rng = np.random.default_rng(seed)
    n_vars = len(degrees) + 1
    coeffs = []
    for d in degrees:
        m = homogeneous_exponents(n_vars, d).shape[0]
        coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return PolySystem(tuple(degrees), tuple(coeffs))


def re_inner(a, b):
    """Re<a, b> of two systems of one degree tuple."""
    return bw_inner_re(a.degrees, a.coeff_vector(), b.coeff_vector())


class TestInnerProduct:
    def test_pure_power_normalized(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])
        assert re_inner(h, h) == pytest.approx(1.0)

    def test_mixed_monomial_weight(self):
        # X0*X1 at degree 2 carries weight 1/multinomial(2;1,1) = 1/2
        h = PolySystem.from_terms((2,), [[((1, 1), 1.0)]])
        assert re_inner(h, h) == pytest.approx(0.5)

    def test_disjoint_monomials_orthogonal(self):
        a = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])
        b = PolySystem.from_terms((2,), [[((0, 2), 1.0)]])
        assert re_inner(a, b) == 0.0

    def test_real_part_of_stacked_vectors(self):
        a = random_system((1, 3, 2), 3)
        b = random_system((1, 3, 2), 4)
        assert re_inner(a, b) == pytest.approx(_inner_by_equation(a, b).real, rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_schwarz(self, seed):
        a = random_system((2, 2), seed)
        b = random_system((2, 2), seed + 40)
        assert abs(re_inner(a, b)) <= bw_norm(a) * bw_norm(b) + 1e-12


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
        terms = []
        for d in (2, 3):
            # every monomial of degree <= d in 2 variables, once
            exps = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
            c = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
            terms.append(list(zip(exps, c)))
        f = AffineSystem((2, 3), terms)
        total = 0.0
        for d, eq in zip(f.degrees, f.terms):
            for a, c in eq:
                denom = math.factorial(d - sum(a)) * math.prod(map(math.factorial, a))
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

    @pytest.mark.parametrize("coeff", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_norm_rejected(self, coeff):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0), ((0, 2), coeff)]])
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize_to_sphere(h)
        # in a later equation than a finite largest modulus
        h = PolySystem.from_terms((1, 1), [[((1, 0, 0), 1.0)], [((1, 0, 0), coeff)]])
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize_to_sphere(h)

    def test_scaled_norm_keeps_plain_bits(self):
        # Scaling the moduli by a power of two before squaring changes no bit
        # where the plain sum neither overflows nor goes subnormal.
        for seed in range(20):
            h = random_system((2, 3), seed)
            for lam in (1.0, 1e-120, 1e120):
                plain = math.sqrt(sum(
                    float(np.sum(_bw_weights(h.n_vars, d) * np.abs(lam * a) ** 2))
                    for d, a in zip(h.degrees, h.coeffs)
                ))
                assert bw_norm(lam * h) == plain
                assert unit_scale(lam * h) == 1.0 / plain

    @pytest.mark.parametrize("lam", [2.0**-600, 1e-158, 1e-170, 1e200, 2.0**1000],
                             ids=["2^-600", "1e-158", "1e-170", "1e200", "2^1000"])
    def test_extreme_coefficients(self, lam):
        # Squares of these coefficients go subnormal or overflow; the norm is
        # taken of the system scaled by a power of two instead.
        h = random_system((2, 3), 5)
        assert bw_norm(lam * h) == pytest.approx(lam * bw_norm(h), rel=1e-15)
        out = normalize_to_sphere(lam * h)
        assert bw_norm(out) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(out.coeff_vector(), normalize_to_sphere(h).coeff_vector(),
                                   rtol=1e-14, atol=0)

    def test_norm_past_largest_float_rejected(self):
        h = 1.5e308 * PolySystem.from_terms((2,), [[((2, 0), 1.0), ((0, 2), 1.0)]])
        assert bw_norm(h) == math.inf
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize_to_sphere(h)

    def test_subnormal_system_rejected(self):
        # 1 / ||h|| exceeds the largest float
        h = 1e-320 * PolySystem.from_terms((2,), [[((2, 0), 1.0), ((0, 2), 1.0)]])
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize_to_sphere(h)


class TestEnsureOnSphere:
    def test_nan_system_rejected(self):
        # abs(nan - 1) > tol is False: the check must be written the other way
        h = PolySystem.from_terms((2,), [[((2, 0), math.nan)]])
        with pytest.raises(ValueError, match="unit sphere"):
            ensure_on_sphere(h)


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


def _sweep_inputs():
    # Pairs at Riemann distance 1e-17 ... pi/2, as given, scaled and rotated
    # in phase, strided, and read from F-ordered blocks (whose rows are
    # strided and whose columns are contiguous).
    rng = np.random.default_rng(915)
    thetas = np.concatenate([np.logspace(-17, 0, 52), np.linspace(1.0, np.pi / 2, 8)])
    for k, theta in enumerate(thetas):
        n_vars = 2 + k % 5
        z = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        u = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        z /= np.linalg.norm(z)
        u -= np.vdot(z, u) * z
        u /= np.linalg.norm(u)
        w = np.cos(theta) * z + np.sin(theta) * u
        phase = np.exp(2j * np.pi * rng.random())
        scale = 10.0 ** rng.uniform(-8, 8)
        yield z, w
        yield 3.5 * z, scale * phase * w
        strided = np.empty(2 * n_vars, dtype=np.complex128)
        strided[::2] = z
        yield strided[::2], phase * w
        F = np.asfortranarray(np.stack([z, scale * w, u]))
        yield F[0], F[1]
        F = np.asfortranarray(np.column_stack([w, z]))
        yield F[:, 1], F[:, 0]


# Per OpenBLAS core, sha256 of vector_norm of both points and of their
# distance, on the 300 pairs of _sweep_inputs.  The SkylakeX digest was read
# before the norm and the distance were last trimmed: those trims are bitwise.
SWEEP_PINS = {
    "SkylakeX": "930ff4c8a87e91aa268f9fb3cd5f5650dce1b6149374d31bb29ede092d461f98",
    "Haswell": "32f675fb4e4a5cb1768b42063773190f3d0a2a7b0907453e7c26ff0a458ea6bf",
    "Sandybridge": "32f675fb4e4a5cb1768b42063773190f3d0a2a7b0907453e7c26ff0a458ea6bf",
    "Katmai": "69bd741058e2ea063d78d45d0850c506fce8e276798d1a86919593a659c6ee55",
}


def _sweep_digest() -> str:
    digest = hashlib.sha256()
    with one_blas_thread:
        for z, w in _sweep_inputs():
            for value in (vector_norm(z), vector_norm(w), riemann_distance(z, w)):
                digest.update(np.float64(value).tobytes())
    return digest.hexdigest()


def test_pinned_bits_of_vector_norm_and_riemann_distance_sweep():
    assert _sweep_digest() == pinned(SWEEP_PINS)


class TestUnitaryCompose:
    def test_identity(self):
        # Each coefficient sits at one tensor entry, so the identity returns
        # it unchanged.
        h = random_system((2, 3), 7)
        out = unitary_compose(h, np.eye(3))
        for a, b in zip(h.coeffs, out.coeffs):
            assert np.array_equal(a, b)

    def test_coordinate_swap(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])  # X0^2
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = unitary_compose(h, swap)
        want = PolySystem.from_terms((2,), [[((0, 2), 1.0)]])  # X1^2
        np.testing.assert_allclose(out.coeffs[0], want.coeffs[0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_evaluation_consistency(self, seed):
        # dual route: expansion vs direct evaluation at mapped points
        for degrees in [(2, 3), (1, 2, 3), (4, 4), (1, 2, 2, 2, 2), (1, 1)]:
            n_vars = len(degrees) + 1
            h = random_system(degrees, seed)
            U = random_unitary(n_vars, np.random.default_rng(seed + 70))
            hU = unitary_compose(h, U)
            rng = np.random.default_rng(seed + 80)
            for _ in range(3):
                z = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
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
        before = re_inner(a, b)
        after = re_inner(unitary_compose(a, U), unitary_compose(b, U))
        assert abs(after - before) <= 1e-9 * bw_norm(a) * bw_norm(b)

    def test_rejects_non_unitary(self):
        h = random_system((2,), 10)
        with pytest.raises(ValueError):
            unitary_compose(h, np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            unitary_compose(h, np.array([[1.0, 0.0], [0.0, np.nan]]))


# Per degree tuple, sha256 over the targets random_system_on_sphere(degrees,
# default_rng(s)), s = 0, 1, 2, of bw_norm of each target scaled by
# NORM_PIN_SCALES (squares that overflow or go subnormal, and subnormal
# coefficients), and of bw_inner_re of each target with the next.  The norm
# digests were read before the norm moved to one pass over the stacked
# vector, and hold on every OpenBLAS core.  The product digests, one per
# core (a ddot's last bits depend on it), replace those of the complex
# product, which is gone; the SkylakeX ones were read before it went.
NORM_PIN_SCALES = (1.0, 1e-170, 1e200, 1e-310)
BW_PINS = {
    (1,): (
        "5dc91b1f8636157fc5c1d837ae4449ec5c407f4560860d84062a5541c46e797e",
        {
            "SkylakeX": "1248ce6e8ce1d29e26da565bc412cc8b5b6787d1d4adec71ba91233176ef2939",
            "Haswell": "c07376256206213f29d2d145e6b83114abf04ea4fa816e01e3f90f79522d9d5b",
            "Sandybridge": "c07376256206213f29d2d145e6b83114abf04ea4fa816e01e3f90f79522d9d5b",
            "Katmai": "112ac16fe1ab745428fec95c943e6674d8aac80a290e4e7d3fc463b086d88bb0",
        },
    ),
    (2, 2, 2): (
        "426878fe8b4c3f585f63f26dc13f9d937dfde847fdb619bf10e8d417cc0612cf",
        {
            "SkylakeX": "e4fef36803e125d5b2a392cb8b4629017ba767b210e16e591321a32454ce44f0",
            "Haswell": "9252c2913f50e420c8a96471e14a71b2b0b7b31df6dda087e12fa25e56245c30",
            "Sandybridge": "9acdbca24d39428d27572ec463f826ca4e953f49474d0748d21d478ca0e4883e",
            "Katmai": "6d6694f842483edc272120dd8aedf7ae14f80c903666e435e44b974cff34abb4",
        },
    ),
    (1, 2, 3): (
        "ef48eff7f43a2659d1e6a3952bb6e6fc69ebe001599ba3adb8144d5c95c8ead7",
        {
            "SkylakeX": "7d04569d03d3f490428cd6b787478b6ebca5bf1d1994f1075d071a14036c3f9b",
            "Haswell": "022945afc55cdedc66d7aaeaad734c06e74409d7d1c7399854f6a34a70e30d0a",
            "Sandybridge": "0dbc1efd070158c858a070dbe55257db72e2feea366e2d7ab3660744dafebcf9",
            "Katmai": "ae6dba9af97480a54ce6b8162162b04b092816cf2e974b23c3a54290b7e650ed",
        },
    ),
    (1, 2, 2, 2, 2): (
        "36733988ad2505abb95ccea7f380cd9d147f2359c9e18879642bcff2781513c2",
        {
            "SkylakeX": "005f1fac2d04b1ef1c19d13899dd0619b7424036dc6b642e3220df97b4103492",
            "Haswell": "bb611f55f264b1c5d7a3c3e21ba14d23cde8202b95b28690be861671b09d8190",
            "Sandybridge": "bb611f55f264b1c5d7a3c3e21ba14d23cde8202b95b28690be861671b09d8190",
            "Katmai": "b1e4e5ab437bf96546fa9c9265e5f7a975ef3ca42db27a2d05438f0abb2530f6",
        },
    ),
    (3, 3, 3, 3): (
        "76d2055eb12d68fee8ad453684da68c477929bda897f61ab13141182d287c387",
        {
            "SkylakeX": "3296b39a418ecb25d0b59fa46e1f78acafca4438dcfcbc248d330490e4178444",
            "Haswell": "8128f8291aa0547893b2511e8737f68cbf78f10cab4d334820efa7fd8fa0b73b",
            "Sandybridge": "021da511efca21d20d65fc2e4807aff94a7df7908bc53177ba2d805248ab123b",
            "Katmai": "290cb59b13f934e1638f11a4b1b0550bf29bf8e81b79cfcb44a0a6161a6e4c66",
        },
    ),
}


def _bw_digests(degrees):
    norms, inners = hashlib.sha256(), hashlib.sha256()
    targets = [random_system_on_sphere(degrees, np.random.default_rng(s)) for s in range(3)]
    for k, f in enumerate(targets):
        for lam in NORM_PIN_SCALES:
            norms.update(np.float64(bw_norm(lam * f)).tobytes())
        inners.update(np.float64(re_inner(f, targets[(k + 1) % 3])).tobytes())
    return norms.hexdigest(), inners.hexdigest()


@pytest.mark.parametrize("degrees", list(BW_PINS), ids=str)
def test_pinned_bits_of_norm_and_product(degrees):
    norms, products = BW_PINS[degrees]
    assert _bw_digests(degrees) == (norms, pinned(products))


def _norm_by_equation(h):
    # The scaled norm with its elementwise work done equation by equation:
    # the reference for the one pass over the stacked vector.
    mods = [np.abs(a) for a in h.coeffs]
    e = max(math.frexp(max(m.max() for m in mods))[1], -1000)
    total = 0.0
    for d, m in zip(h.degrees, mods):
        total += float(np.sum((m * math.ldexp(1.0, -e)) ** 2 * _bw_weights(h.n_vars, d)))
    return math.ldexp(math.sqrt(total), e)


def _inner_by_equation(h, h2):
    total = 0.0 + 0.0j
    for d, a, b in zip(h.degrees, h.coeffs, h2.coeffs):
        total += np.sum(_bw_weights(h.n_vars, d) * a * np.conj(b))
    return complex(total)


@pytest.mark.parametrize(
    "degrees",
    [(1,), (2,), (2, 2), (2, 2, 2), (1, 2, 3), (3, 2, 4), (1, 2, 2, 2, 2), (3, 3, 3, 3)],
    ids=str,
)
def test_one_pass_matches_equation_by_equation(degrees):
    # Equal norm bits at scales whose squares overflow or go subnormal, one
    # equation's coefficients far larger than the others', and random
    # scales up to 1e+-300.
    rng = np.random.default_rng(len(degrees))
    for seed in range(10):
        a = random_system(degrees, seed)
        lopsided = PolySystem(degrees, (1e150 * a.coeffs[0],) + a.coeffs[1:])
        scales = [1.0, 1e-170, 1e200, 1e-310] + list(10.0 ** rng.uniform(-300, 300, 8))
        for h in [lam * a for lam in scales] + [lopsided]:
            assert bw_norm(h) == _norm_by_equation(h)
