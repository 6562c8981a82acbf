import hashlib
import math

import numpy as np
import pytest

from certitrack import tracker
from certitrack.bw import bw_inner_re, bw_norm, normalize_to_sphere, riemann_distance, sqrt_multinomials
from certitrack.newton import U0, certified_radius, condition_mu, refine
from certitrack.polysys import (
    PolySystem,
    evaluate,
    homogeneous_exponents,
    jacobian,
    num_homogeneous_monomials,
    space_dimension,
    unit_point,
)
from certitrack.start_systems import (
    InitialPair,
    _total_degree_pattern,
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
from openblas_core import pinned


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


class TestTotalDegreeCache:
    def test_cached_roots_are_read_only(self):
        roots = total_degree_start((2, 3), np.random.default_rng(0)).roots
        with pytest.raises(ValueError):
            roots[1][0] = 0.0

    def test_roots_shared_and_phase_drawn_per_call(self):
        a = total_degree_start((2, 3), np.random.default_rng(0))
        b = total_degree_start((2, 3), np.random.default_rng(1))
        assert [r.tobytes() for r in a.roots] == [r.tobytes() for r in b.roots]
        assert all(np.shares_memory(x, y) for x, y in zip(a.roots, b.roots))
        assert a.g.coeff_vector().tobytes() != b.g.coeff_vector().tobytes()

    @pytest.mark.parametrize("degrees", [[2, 2], (np.int64(2), 2)], ids=["list", "int64"])
    def test_degree_spellings_agree(self, degrees):
        want = total_degree_start((2, 2), np.random.default_rng(3))
        got = total_degree_start(degrees, np.random.default_rng(3))
        assert got.g.degrees == (2, 2)
        assert got.g.coeff_vector().tobytes() == want.g.coeff_vector().tobytes()
        assert [r.tobytes() for r in got.roots] == [r.tobytes() for r in want.roots]

    def test_g_owns_its_coefficients(self):
        raw, _ = _total_degree_pattern((2, 2))
        g = total_degree_start((2, 2), np.random.default_rng(4)).g
        assert not np.shares_memory(g._vec, raw)
        assert set(raw.tolist()) == {0, 1, -1}


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

    def test_start_radius(self):
        # u0 / (d^{3/2} mu) with mu = sqrt(2) for the (2, 2) pair
        pair = good_initial_pair((2, 2))
        assert certified_radius(pair.g, pair.zeta0) == pytest.approx(U0 / (2.0**1.5 * math.sqrt(2.0)))


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
            vals[k] = bw_inner_re(a.degrees, a._vec, b._vec)
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


def _sphere_sample_by_equation(degrees, rng):
    # random_system_on_sphere drawn as one real and one imaginary
    # standard_normal(m) per equation: the reference for its single draw.
    n_vars = len(degrees) + 1
    coeffs = []
    for d in degrees:
        m = num_homogeneous_monomials(n_vars, d)
        u = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
        coeffs.append(u * sqrt_multinomials(n_vars, d))
    return normalize_to_sphere(PolySystem(degrees, tuple(coeffs)))


@pytest.mark.parametrize(
    "degrees",
    [(1,), (2,), (2, 2), (2, 2, 2), (1, 2, 3), (3, 2, 4), (1, 2, 2, 2, 2), (3, 3, 3, 3)],
    ids=str,
)
def test_one_draw_matches_a_pair_per_equation(degrees):
    for seed in range(10):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_system_on_sphere(degrees, rng)
        want = _sphere_sample_by_equation(degrees, ref_rng)
        assert got.coeff_vector().tobytes() == want.coeff_vector().tobytes()
        # and both leave the stream at the same place
        assert rng.random() == ref_rng.random()


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
            InitialPair(g=pair.g, zeta0=unit_point([1.0, 1.0]))
        three = good_initial_pair((2, 2))
        with pytest.raises(ValueError):
            InitialPair(g=three.g, zeta0=np.array([np.nan, 0.0, 0.0], dtype=complex))

    @pytest.mark.parametrize("degrees,seed", [((2, 2), 0), ((1, 2, 3), 1), ((3, 3), 2)])
    def test_first_order_part(self, degrees, seed):
        # At zeta0, <zeta0, zeta0> = 1, M zeta0 = 0 and the restricted part
        # vanishes to second order, so Dg(zeta0) is diag(sqrt(d_i)) M over
        # the norm of the pair's unnormalized system.  M is the pair's first
        # draw.
        pair = random_initial_pair(degrees, np.random.default_rng(seed))
        M = draw_ball_matrix(degrees, np.random.default_rng(seed))
        A = np.sqrt(np.array(degrees, dtype=float))[:, None] * M
        J = jacobian(pair.g, pair.zeta0)
        scale = np.vdot(A, J) / np.vdot(A, A)
        assert abs(scale.imag) <= 1e-12 * abs(scale) and scale.real > 0.0
        assert np.linalg.norm(J - scale.real * A) <= 1e-12 * np.linalg.norm(J)


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
        report = solve_all_total_degree(f, np.random.default_rng(18))
        assert report.num_failed == 0
        endpoints = report.endpoints
        assert len(endpoints) == 4
        refined = [refine(f, z) for z in endpoints]
        for i in range(4):
            for j in range(i + 1, 4):
                assert riemann_distance(refined[i], refined[j]) > 1e-3

    def test_solve_all_affine_input(self):
        from certitrack.experiments import katsura_system

        report = solve_all_total_degree(katsura_system(3), np.random.default_rng(19))
        assert report.num_failed == 0
        assert len(report.endpoints) == 4

    def test_solve_all_reports_failures(self, monkeypatch):
        f = random_system_on_sphere((2, 2), np.random.default_rng(20))
        monkeypatch.setattr(tracker, "MAX_STEPS", 1)
        report = solve_all_total_degree(f, np.random.default_rng(21))
        assert report.num_failed == 4
        assert report.endpoints == []


# Problem set-up pins: per degree tuple, sha256 over seeds 0, 1, 2 of the
# bytes of random_system_on_sphere, of total_degree_start's g and roots, and
# of make_linear_homotopy's _gvec, _pvec and T between the two.  Read before
# problem construction moved to the stacked coefficient vector, which kept
# every bit.  The homotopy digests were read again when Re<f, g> moved to
# bw_inner_re, whose one dot sums in another order than the per-equation
# sums before it.  The sphere and start digests hold on every OpenBLAS core;
# the homotopy digests, one per core, follow that dot's last bits.
SETUP_PINS = {
    (1,): (
        "28b43e8749daaff792aad66e9c42d831d8a360fc8f27dbd72c4d95fcb8f28a6c",
        "66c7708164edf5c7aa9605a9b70aab0df3dd281852da5ba3d0e47484568fa387",
        {
            "SkylakeX": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
            "Haswell": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
            "Sandybridge": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
            "Katmai": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
        },
    ),
    (2, 2, 2): (
        "5e7472a766f09ed15c5d789036c0053c7ef0779acb1fa38b4a1c35d60d60c027",
        "c237abed7e4f03feb25e8f622af574edf503ee89930ba646e11223002e94a099",
        {
            "SkylakeX": "df8d8423ced66755e0bcb89eef6fa3b9ec0eacdc7eefb03a94622ac1bfee4066",
            "Haswell": "686218bde26b8b7e70aac040ef2d5711a6715b9fca4fbb492ecce4c05b429c69",
            "Sandybridge": "9597445b4c9623e083675dd577583444c47cf80b1edb930b923ac040aadb14b5",
            "Katmai": "56e40dfc8ac17af1adcc837ccacd8b3d1350617bd9f3b8e9c33ad1a75a6b497a",
        },
    ),
    (1, 2, 3): (
        "8cd2e28797bce6e716cb8534a6ae53cf339508e803728865af74db782334b385",
        "ccab4efb36633810f594b23e0016042d6c1fac8af44f4976dd55979cb3ce2a8e",
        {
            "SkylakeX": "f4861f07e9dad75f18acb0a2dd4e64362436ee0f3caaf32f5f57732bc3bea33a",
            "Haswell": "da2444bd5c9cca0c30e7584f9f3ae3b7878080be3b7a4bc0b0a02945d4faa6bd",
            "Sandybridge": "96222793d1652d47e9bec247ac7673bdb77cb02af6f33daeea1db6cb6655e66e",
            "Katmai": "f3a765dcd686e4a9c19db1e761854aeef35a25600e8bb41ee75b10b1d5660fc2",
        },
    ),
    (1, 2, 2, 2, 2): (
        "2872c1d213893244e3ff74b9be056ef0d91bf13877aaf24e3bdb41787b2eae83",
        "bcae4f49ab099aec9cbd0a3ebcf3aceeb07995d458af5d94ede7c48682ef5e5c",
        {
            "SkylakeX": "17ba4c3d150f9c9f9f5dfdc96951fcca4928fc227f79f2600907773bd4b1e035",
            "Haswell": "ba25bbe44c0d244c707dad576c2fd4134b20981c941409fee81cb8e3a8dff91d",
            "Sandybridge": "6d28a3246e40b7c7e4323d2237f455a0ab327c92fee9af042413f2f776c1e8db",
            "Katmai": "0dfb713f33396bd894a6a6f805f9123140542c1da376c6287a6ce1bb37cc0389",
        },
    ),
    (3, 3, 3, 3): (
        "ea1dc77b3b4a38e65b1524dd6ac561038afa3ac324ce1e93298ca1639dd3b932",
        "83dd0aafb010781239245e7d8ff1dd1e0c3e9fd65e18029405a870aeb8b17ce6",
        {
            "SkylakeX": "35b3098288ebaa7440e0e3538918f2e6d26643eebc279983430187627eb254fb",
            "Haswell": "4ed495dbf074eaf26613c9a6531e08286f9e93df02f42a8edb8f3b9a0c552f64",
            "Sandybridge": "4ed495dbf074eaf26613c9a6531e08286f9e93df02f42a8edb8f3b9a0c552f64",
            "Katmai": "78f4192649cbb1922dc3492d39d0ccb1b65a7ec1de2f3dcba0a7f0caef72e0eb",
        },
    ),
}


def _setup_digests(degrees):
    sphere, start, homotopy = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for s in range(3):
        f = random_system_on_sphere(degrees, np.random.default_rng(s))
        sphere.update(f._vec.tobytes())
        st = total_degree_start(degrees, np.random.default_rng(s))
        start.update(st.g._vec.tobytes())
        for root in st.roots:
            start.update(root.tobytes())
        hom = tracker.make_linear_homotopy(st.g, f)
        for array in (hom._gvec, hom._pvec, np.float64(hom.T)):
            homotopy.update(array.tobytes())
    return sphere.hexdigest(), start.hexdigest(), homotopy.hexdigest()


@pytest.mark.parametrize("degrees", list(SETUP_PINS), ids=str)
def test_pinned_setup_bits(degrees):
    sphere, start, homotopy = SETUP_PINS[degrees]
    assert _setup_digests(degrees) == (sphere, start, pinned(homotopy))
