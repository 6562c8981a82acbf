import hashlib
import math

import numpy as np
import pytest

from certitrack.bw import (
    bw_inner_re,
    bw_norm,
    ensure_on_sphere,
    normalize_to_sphere,
    riemann_distance,
    unit_scale,
    unitary_compose,
    weight_table,
)
from certitrack.linalg import one_blas_thread, random_unitary, vector_norm
from certitrack.polysys import (
    AffineSystem,
    PolySystem,
    evaluate,
    homogenize,
    unit_point,
)
from certitrack.start_systems import good_system_raw, random_system_on_sphere
from openblas_core import pinned
import reference
from reference import mp
from sample_systems import random_points, random_system


def re_inner(a, b):
    """Re<a, b> of two systems of one degree tuple."""
    return bw_inner_re(a.degrees, a._vec, b._vec)


# SHA-256 of the bytes of weight_table(degrees)'s weights, scales and
# re_im_weights, in turn: 1/m, sqrt(m) and each 1/m twice, m = d! / prod a_j!
# per exponent tuple.  Correctly rounded division and square root give
# these bits on every OpenBLAS kernel.
WEIGHT_TABLE_SHA256 = {
    (1,): "fe5b7d5309402fa73f02fe2905b3d9eeb69d9c468cf3a1b6cfc35f01f27b43ab",
    (2, 2, 2): "a99dbee8729187851cb1f919bc7767fa61b1537ca4c3f0e3d628988b0f3cbffa",
    (1, 2, 3): "ce43c1b0e4615fda50d169d402b1f163fa4ae8a7385d134716f097964dda04c5",
    (1, 2, 2, 2, 2): "4721ec1add08f8a4aaa51c7cfd672b8aadb2b18c603ad780195f052aec8394d6",
    (3, 3, 3, 3): "a6f86f92f3abcdb0ee5c512ccbbeb19b6312976c983cdbfe7701b18c6b056305",
    (6, 6, 6, 6, 6): "d69fb2a1a31fc4aa6deac9e1a6f34660763747d5e7c19ea6e486f351a1e3f31b",
}


@pytest.mark.parametrize("degrees", list(WEIGHT_TABLE_SHA256), ids=str)
def test_weight_table_holds_the_multinomials(degrees):
    # The table's bits against the pin; every vector is read-only, and the
    # table is built once.
    table = weight_table(degrees)
    digest = hashlib.sha256(b"".join(w.tobytes() for w in table)).hexdigest()
    assert digest == WEIGHT_TABLE_SHA256[degrees]
    assert not any(w.flags.writeable for w in table)
    assert weight_table(degrees) is table


class TestInnerProduct:
    # X0*X1 at degree 2 carries weight 1/multinomial(2;1,1) = 1/2
    @pytest.mark.parametrize("a, b, want", [
        ((2, 0), (2, 0), pytest.approx(1.0)), ((1, 1), (1, 1), pytest.approx(0.5)), ((2, 0), (0, 2), 0.0),
    ], ids=["pure-power-normalized", "mixed-monomial-weight", "disjoint-monomials-orthogonal"])
    def test_monomials(self, a, b, want):
        assert re_inner(*(PolySystem.from_terms((2,), [[(e, 1.0)]]) for e in (a, b))) == want

    def test_real_part_of_stacked_vectors(self):
        a = random_system((1, 3, 2), 3)
        b = random_system((1, 3, 2), 4)
        want = mp.re(reference.bw_inner(a.degrees, a._vec, b._vec))
        assert re_inner(a, b) == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_schwarz(self, seed):
        a = random_system((2, 2), seed)
        b = random_system((2, 2), seed + 40)
        assert abs(re_inner(a, b)) <= bw_norm(a) * bw_norm(b) + 1e-12


class TestNorm:
    def test_two_pure_powers(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0), ((0, 2), 1.0)]])
        assert bw_norm(h) == pytest.approx(math.sqrt(2.0))
        assert bw_norm(1.5e308 * h) == math.inf  # past the largest float

    @pytest.mark.parametrize("degrees", [(2,), (2, 2), (3, 2, 4), (2, 2, 2, 2), (2, 2, 2)])
    def test_good_system_norm_sqrt_n(self, degrees):
        assert bw_norm(good_system_raw(degrees)) == pytest.approx(math.sqrt(len(degrees)))

    def test_scaling(self):
        h = random_system((2, 2), 3)
        lam = 0.3 - 2.1j
        assert bw_norm(lam * h) == pytest.approx(abs(lam) * bw_norm(h))

    @pytest.mark.parametrize("seed", range(3))
    def test_affine_norm_matches_homogenization(self, seed):
        # An affine monomial x^a of degree <= d weighs as its homogenization
        # X0^(d-|a|) x^a: 1 / multinomial(d; d-|a|, a), as in the reference.
        rng = np.random.default_rng(seed)
        terms = []
        for d in (2, 3):
            # every monomial of degree <= d in 2 variables, once
            exps = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
            c = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
            terms.append(list(zip(exps, c)))
        h = homogenize(AffineSystem((2, 3), terms))
        assert float(reference.bw_norm(h.degrees, h._vec)) == pytest.approx(bw_norm(h), abs=1e-14)


class TestNormalize:
    def test_scales_down(self):
        # One equation, then two of mixed degrees.
        for degrees, terms, largest in [
            ((2,), [[((2, 0), 2.0)]], 1.0),
            ((2, 3), [[((2, 0, 0), 1.0)], [((0, 0, 3), 1.0)]], 1 / math.sqrt(2.0)),
        ]:
            out = normalize_to_sphere(PolySystem.from_terms(degrees, terms))
            assert bw_norm(out) == pytest.approx(1.0)
            np.testing.assert_allclose(out.coeffs[0].max(), largest)

    def test_idempotent(self):
        h = normalize_to_sphere(random_system((2, 2), 9))
        again = normalize_to_sphere(h)
        for a, b in zip(h.coeffs, again.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)

    # (degrees, terms, scale): the system from_terms reads, times scale
    # where one is given.
    @pytest.mark.parametrize("degrees, terms, scale", [
        ((2,), [[]], None),
        *(((2,), [[((2, 0), 1.0), ((0, 2), c)]], None) for c in (math.inf, math.nan)),
        # in a later equation than a finite largest modulus
        *(((1, 1), [[((1, 0, 0), 1.0)], [((1, 0, 0), c)]], None) for c in (math.inf, math.nan)),
        ((2,), [[((2, 0), 1.0), ((0, 2), 1.0)]], 1.5e308),
        # 1 / ||h|| exceeds the largest float
        ((2,), [[((2, 0), 1.0), ((0, 2), 1.0)]], 1e-320),
    ], ids=["zero", "inf", "nan", "inf-in-a-later-equation", "nan-in-a-later-equation", "norm-past-largest-float",
            "subnormal"])
    def test_cannot_normalize(self, degrees, terms, scale):
        h = PolySystem.from_terms(degrees, terms)
        with pytest.raises(ValueError, match="cannot normalize"):
            normalize_to_sphere(h if scale is None else scale * h)

    def test_scaled_norm_keeps_plain_bits(self):
        # Scaling the moduli by a power of two before squaring changes no bit
        # where the plain sum neither overflows nor goes subnormal: the
        # digest of the unscaled norm taken equation by equation, and of 1
        # over it, on every OpenBLAS core.
        digest = hashlib.sha256()
        for seed in range(20):
            h = random_system((2, 3), seed)
            for lam in (1.0, 1e-120, 1e120):
                digest.update(np.float64(bw_norm(lam * h)).tobytes())
                digest.update(np.float64(unit_scale(lam * h)).tobytes())
        assert digest.hexdigest() == "56432b639d30939ef860a69066deddc689ffe8a2debdb83672524a2b754fb5c4"

    def test_power_of_two_scales_the_norm_exactly(self):
        h = random_system((2, 3), 81)
        assert bw_norm(2.0 * h) == 2.0 * bw_norm(h)

    @pytest.mark.parametrize("lam", [2.0**-600, 1e-158, 1e-170, 1e200, 2.0**1000],
                             ids=["2^-600", "1e-158", "1e-170", "1e200", "2^1000"])
    def test_extreme_coefficients(self, lam):
        # Squares of these coefficients go subnormal or overflow; the norm is
        # taken of the system scaled by a power of two instead.
        h = random_system((2, 3), 5)
        assert bw_norm(lam * h) == pytest.approx(lam * bw_norm(h), rel=1e-15)
        out = normalize_to_sphere(lam * h)
        assert bw_norm(out) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(out._vec, normalize_to_sphere(h)._vec,
                                   rtol=1e-14, atol=0)


class TestEnsureOnSphere:
    def test_nan_system_rejected(self):
        # abs(nan - 1) > tol is False: the check must be written the other way
        h = PolySystem.from_terms((2,), [[((2, 0), math.nan)]])
        with pytest.raises(ValueError, match="unit sphere"):
            ensure_on_sphere(h, "system")


class TestRiemannDistance:
    @pytest.mark.parametrize("z, w, want", [
        (unit_point([1.0, 2.0, 3.0]), unit_point([1.0, 2.0, 3.0]), pytest.approx(0.0, abs=1e-12)),
        ([1, 0], [0, 1], pytest.approx(math.pi / 2)),
        ([1, 0], [1, 1], pytest.approx(math.pi / 4)),
        (unit_point([1.0, 0.0]), unit_point([1.0, 1e-12]), pytest.approx(1e-12, rel=1e-3)),
    ], ids=["self-distance", "orthogonal", "diagonal", "small-distance-not-lost"])
    def test_value(self, z, w, want):
        assert riemann_distance(z, w) == want

    def test_phase_invariance(self):
        z, w = random_points(4, 2, 4)
        lam = np.exp(1.7j)
        assert riemann_distance(lam * z, w) == pytest.approx(riemann_distance(z, w), abs=1e-12)

    def test_symmetry(self):
        z, w = random_points(3, 2, 5)
        assert riemann_distance(z, w) == pytest.approx(riemann_distance(w, z), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_point_beyond_float_scale_raises(self, scale):
        # A representative whose norm's squares overflow or underflow is
        # refused as unit_point refuses it, on either side.  The overflow
        # warns first: an errstate would cost the corrector's Newton loop,
        # which calls this.
        z, w = np.array([1.0, 2.0, 3.0j]), np.array([0.0, 1.0, 0.0])
        assert riemann_distance(z, w) == pytest.approx(1.00685, rel=1e-5)
        for pair in [(scale * z, w), (w, scale * z)]:
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite, nonzero norm"):
                riemann_distance(*pair)

    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_inequality(self, seed):
        a, b, c = random_points(3, 3, seed)
        assert riemann_distance(a, c) <= riemann_distance(a, b) + riemann_distance(b, c) + 1e-10

    def test_range(self):
        points = random_points(3, 100, 6)
        for z, w in zip(points[::2], points[1::2]):
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
            for z in random_points(n_vars, 3, seed + 80):
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

    # U* U - I is diag(defect, 0) to rounding, either side of the 1e-10 that
    # the check allows; then a defect of 3 and a NaN one.
    @pytest.mark.parametrize("diagonal, unitary", [
        ([math.sqrt(1.0 + 0.995e-10), 1.0], True), ([math.sqrt(1.0 + 1.005e-10), 1.0], False),
        ([1.0, 2.0], False), ([1.0, np.nan], False),
    ], ids=["9.95e-11-True", "1.005e-10-False", "two", "nan"])
    def test_unitarity_defect_boundary(self, diagonal, unitary):
        h, U = random_system((2,), 10), np.diag(diagonal)
        if unitary:
            assert unitary_compose(h, U).degrees == (2,)
        else:
            with pytest.raises(ValueError, match="U is not unitary"):
                unitary_compose(h, U)


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


# Per degree tuple, sha256 of the norms of the systems below, each taken
# with its elementwise work done equation by equation and its moduli scaled
# by 2^-e (e the binary exponent of the largest); the same on every
# OpenBLAS core.
ONE_PASS_PINS = {
    (1,): "06ee913927fd200ecf2e8c0c17c3937edcdbe5fb8ac917b32d099a529bfa73ea",
    (2,): "dd9808640b77cf35e0cf9c91e3845552b3742a214a970b9bb9f1f05fc5a1cb10",
    (2, 2): "eb4bac4719dbff8a60f504ab1fd91979a7dd1cf5c9430618e248a205b90b8e12",
    (2, 2, 2): "62a7250029693e8aa46e3d5b76b69ee53c9cf87436302f3e13f207bc4527dd48",
    (1, 2, 3): "006456648500f0c483a919b61ec5161be9bdbdbb7d62dffe801d9588d338c0db",
    # Equal degrees apart: no run of one degree may join them.
    (2, 1, 2): "7eb481fddce675e0b947bdd895d2ed9b5aa5ac27d90839248b2ce1aecb9d6160",
    (3, 2, 4): "587de894b15aca7ef69a497a8d7224c8bb78aa9e30cfc8ce7fe5d6714a799322",
    (1, 2, 2, 2, 2): "90bfaeca5ea7875027c7dc1575e82511bbb5e928ea625c365bfb7f60886a5b58",
    (3, 3, 3, 3): "fa6f2588d28f4e4f42cfe29d6c467f86aa920ceca7443777d3c596d1942f11d9",
}


@pytest.mark.parametrize("degrees", list(ONE_PASS_PINS), ids=str)
def test_one_pass_matches_equation_by_equation(degrees):
    # The norm's bits at scales whose squares overflow or go subnormal, one
    # equation's coefficients far larger than the others', and random
    # scales up to 1e+-300.
    rng = np.random.default_rng(len(degrees))
    digest = hashlib.sha256()
    for seed in range(10):
        a = random_system(degrees, seed)
        lopsided_vec = np.concatenate([1e150 * a.coeffs[0], *a.coeffs[1:]])
        lopsided = PolySystem.from_coeff_vector(degrees, lopsided_vec)
        scales = [1.0, 1e-170, 1e200, 1e-310] + list(10.0 ** rng.uniform(-300, 300, 8))
        for h in [lam * a for lam in scales] + [lopsided]:
            digest.update(np.float64(bw_norm(h)).tobytes())
    assert digest.hexdigest() == ONE_PASS_PINS[degrees]
