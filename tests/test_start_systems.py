import hashlib
import math

import numpy as np
import pytest

from certitrack import tracker
from certitrack.bw import bw_inner_re, bw_norm, riemann_distance, weight_table
from certitrack.experiments import katsura_system, start_paths
from certitrack.newton import U0, certified_radius, condition_mu, refine
from certitrack.polysys import (
    PolySystem,
    _layout,
    evaluate,
    homogeneous_exponents,
    jacobian,
    space_dimension,
    unit_point,
)
from certitrack.start_systems import (
    InitialPair,
    PathCrossingError,
    StartSet,
    _restricted_mask,
    _total_degree_pattern,
    draw_ball_matrix,
    draw_restricted_system,
    good_initial_pair,
    good_system_raw,
    initial_pair,
    random_initial_pair,
    random_initial_pair_unitary,
    random_system_on_sphere,
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
        assert a.g._vec.tobytes() != b.g._vec.tobytes()

    @pytest.mark.parametrize("degrees", [[2, 2], (np.int64(2), 2)], ids=["list", "int64"])
    def test_degree_spellings_agree(self, degrees):
        want = total_degree_start((2, 2), np.random.default_rng(3))
        got = total_degree_start(degrees, np.random.default_rng(3))
        assert got.g.degrees == (2, 2)
        assert got.g._vec.tobytes() == want.g._vec.tobytes()
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
        degrees = (2, 2)
        dim = space_dimension(degrees)
        n_draws = 1000
        acc = np.zeros(dim)
        for _ in range(n_draws):
            h = random_system_on_sphere(degrees, rng)
            acc += np.abs(h._vec / weight_table(degrees).scales) ** 2
        scaled = acc / n_draws * dim  # per-coordinate mean of |u|^2 * (N+1), expect 1
        assert np.all(scaled > 0.8) and np.all(scaled < 1.2)


# Per degree tuple, sha256 over seeds 0-9 of random_system_on_sphere(degrees,
# default_rng(seed)) and of the generator's next random() after it: the
# bits of one real and one imaginary standard_normal(m) per equation, the
# same on every OpenBLAS core.
SPHERE_DRAW_PINS = {
    (1,): "75f0775affd93985a4313916f5a577d56bd66884eeaeac8a03f7309bc81be5af",
    (2,): "45e4c5c4d29702acd1b8d775c0ad9c6e813d6300f33cb3cd42bc1ecf9f24ff50",
    (2, 2): "e7731134b8ce7e6f841ba1e11e0e81d1d2a387aa9b3d0e63e7fb4d36e290b93f",
    (2, 2, 2): "14fbe1f7a81687e49458f171039d3b57f4efc0bf6a6f22e9585d7f5110eb95e4",
    (1, 2, 3): "20a54c967801ee3d6ad086fe053f7c6137b8467b9a70062abf8bdd4cb5a667ff",
    (3, 2, 4): "fdfc9d6448f23928df7019b84e52e3e246fbf66c652ac2b3d43ba405666968f7",
    (1, 2, 2, 2, 2): "323b4c758411f62f7a6dfe9e50d5b8f0fefe48760815604f9435da7754b29081",
    (3, 3, 3, 3): "f043134edbffa6c2982a5f023140668d98cf4f32f62835f26c38b70ff5b5e441",
}


def _draw_digest(draw, degrees, seeds) -> str:
    # sha256 of each seed's draw and of its generator's next random().
    digest = hashlib.sha256()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        digest.update(draw(degrees, rng)._vec.tobytes())
        digest.update(np.float64(rng.random()).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("degrees", list(SPHERE_DRAW_PINS), ids=str)
def test_one_draw_matches_a_pair_per_equation(degrees):
    assert _draw_digest(random_system_on_sphere, degrees, range(10)) == SPHERE_DRAW_PINS[degrees]


# Per degree tuple, sha256 over seeds 0-4 of draw_restricted_system(degrees,
# default_rng(seed)) and of the generator's next random() after it: the
# bits of each equation's masked scales applied to its own run of the ball
# point.  The ball point's norm is a ddot, so the digest is recorded for the
# SkylakeX, Haswell and Sandybridge kernels, then for Katmai's generic ones.
RESTRICTED_DRAW_PINS = {
    (1,): ("2e610edd81621e93aa7ae99d8c80afe2570b77f08727520b7163e0e1ad583b0b",
           "2e610edd81621e93aa7ae99d8c80afe2570b77f08727520b7163e0e1ad583b0b"),
    (1, 1): ("b9801a90e516065e9ace3d8db388335ad8b53cb05a9d6473ee9bf6c2eae89e3f",
             "b9801a90e516065e9ace3d8db388335ad8b53cb05a9d6473ee9bf6c2eae89e3f"),
    (2, 2, 2): ("d606883736a7574fd270cdf267bb1c3a8e014e3765665e309ebc8425c67a5a5d",
                "4a69b137ab7c52d6f6b90ba3a3b7c458965e9cdf4a94f5eb4c040408a6cd8c02"),
    (1, 2, 3): ("d97d87e07768b8cfaa11df0c422d75d0e1dce52943e855a4e0a7c6b228c8249b",
                "54804d499cc3805115d17fc75af8adbe9b2df3c2c09a8f5d6d14c9c60b3e6c2d"),
    (1, 2, 2, 2, 2): ("1c0c8dc5cda841e6477e5fee0b78d6998ad850d7bdc8ef82111aeb48d73bb4ac",
                      "0c1991999b6e85e7129ea5399d9c02a81960445bcc740cf6a280fb2001a42f88"),
    (3, 3, 3, 3): ("0af16ce1b1ad6591e005d36da8357fcb831598ad8defb2f76d959fbe13498faf",
                   "0af16ce1b1ad6591e005d36da8357fcb831598ad8defb2f76d959fbe13498faf"),
    (6, 6, 6, 6, 6): ("2a9c4942dbd6c3ce8ff30653063207e62e6b0795cdcca2a983676453d25d8485",
                      "3a15eb1f325ffba36a579f549d0d5868161c8b203a68f895ac91a7f67e02ba3d"),
}


@pytest.mark.parametrize("degrees", list(RESTRICTED_DRAW_PINS), ids=str)
def test_restricted_draw_matches_equation_by_equation(degrees):
    avx, generic = RESTRICTED_DRAW_PINS[degrees]
    want = pinned({"SkylakeX": avx, "Haswell": avx, "Sandybridge": avx, "Katmai": generic})
    assert _draw_digest(draw_restricted_system, degrees, range(5)) == want


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
        mask = _restricted_mask((2, 3))
        exps2 = homogeneous_exponents(3, 2)
        for pos, keep in enumerate(mask[_layout((2, 3))[1][0]]):
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

    def test_residual_boundary(self):
        # c X0 + X1 at e0 has the residual |c| exactly: 1e-12 passes, the
        # next float above it does not.
        e0 = np.array([1.0, 0.0], dtype=complex)
        for c, ok in [(1e-12, True), (math.nextafter(1e-12, 1.0), False)]:
            g = PolySystem.from_terms((1,), [[((1, 0), c), ((0, 1), 1.0)]])
            if ok:
                assert InitialPair(g, e0).g is g
            else:
                with pytest.raises(ValueError, match="zeta0 is not a zero of g"):
                    InitialPair(g, e0)

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


class TestInitialPair:
    @pytest.mark.parametrize(
        "kind, make",
        [
            ("good", lambda degrees, rng: good_initial_pair(degrees)),
            ("total", total_degree_initial_pair),
            ("random", random_initial_pair),
            ("unitary", random_initial_pair_unitary),
        ],
    )
    def test_name_gives_its_constructors_pair(self, kind, make):
        # Bit for bit the constructor's pair from the same stream.
        got = initial_pair(kind, (2, 3), np.random.default_rng(21))
        want = make((2, 3), np.random.default_rng(21))
        assert got.g._vec.tobytes() == want.g._vec.tobytes()
        assert got.zeta0.tobytes() == want.zeta0.tobytes()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown start pair 'nope'"):
            initial_pair("nope", (2, 2), np.random.default_rng(0))


class TestSolvers:
    def test_solve_all_distinct_roots(self):
        f = random_system_on_sphere((2, 2), np.random.default_rng(17))
        report = solve_all_total_degree(f, total_degree_start(f.degrees, np.random.default_rng(18)))
        assert report.num_failed == 0
        endpoints = [r.endpoint for r in report.results if r.success]
        assert len(endpoints) == 4
        refined = [refine(f, z) for z in endpoints]
        for i in range(4):
            for j in range(i + 1, 4):
                assert riemann_distance(refined[i], refined[j]) > 1e-3

    def test_solve_all_affine_input(self):
        report = solve_all_total_degree(*start_paths(katsura_system(3), "total", 19))
        assert report.num_failed == 0
        assert len([r.endpoint for r in report.results if r.success]) == 4

    def test_solve_all_reports_failures(self, monkeypatch):
        f = random_system_on_sphere((2, 2), np.random.default_rng(20))
        monkeypatch.setattr(tracker, "MAX_STEPS", 1)
        report = solve_all_total_degree(f, total_degree_start(f.degrees, np.random.default_rng(21)))
        assert report.num_failed == 4
        assert [r.endpoint for r in report.results if r.success] == []

    def test_solve_all_rejects_an_unprepared_target(self):
        # The target is tracked as given: one off the sphere is an error,
        # not scaled onto it.
        f = 2.0 * random_system_on_sphere((2, 2), np.random.default_rng(22))
        start = total_degree_start(f.degrees, np.random.default_rng(23))
        with pytest.raises(ValueError, match="target system must lie on the unit sphere"):
            solve_all_total_degree(f, start)

    def test_solve_all_rejects_two_paths_to_one_root(self):
        # Two paths from the same start root end at the same root: the
        # endpoint check's crossing error, a RuntimeError.
        f = random_system_on_sphere((2, 2), np.random.default_rng(24))
        start = total_degree_start(f.degrees, np.random.default_rng(25))
        twice = StartSet(start.g, (start.roots[0], start.roots[0]))
        with pytest.raises(PathCrossingError, match="suspected path crossing"):
            solve_all_total_degree(f, twice)
        assert issubclass(PathCrossingError, RuntimeError)


# Problem set-up pins: per degree tuple, sha256 over seeds 0, 1, 2 of the
# bytes of total_degree_start's g and roots, and of make_linear_homotopy's
# g._vec, _pvec and T from it to random_system_on_sphere (whose bits
# SPHERE_DRAW_PINS pins).  Read before problem construction moved to the
# stacked coefficient vector, which kept every bit.  The homotopy digests
# were read again when Re<f, g> moved to bw_inner_re, whose one dot sums in
# another order than the per-equation sums before it.  The start digests
# hold on every OpenBLAS core; the homotopy digests, one per core, follow
# that dot's last bits.
SETUP_PINS = {
    (1,): (
        "66c7708164edf5c7aa9605a9b70aab0df3dd281852da5ba3d0e47484568fa387",
        {
            "SkylakeX": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
            "Haswell": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
            "Sandybridge": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
            "Katmai": "d7124e9b07c739cfec169beaedd8b97eac42767085c202abfd62ec901af3ae77",
        },
    ),
    (2, 2, 2): (
        "c237abed7e4f03feb25e8f622af574edf503ee89930ba646e11223002e94a099",
        {
            "SkylakeX": "df8d8423ced66755e0bcb89eef6fa3b9ec0eacdc7eefb03a94622ac1bfee4066",
            "Haswell": "686218bde26b8b7e70aac040ef2d5711a6715b9fca4fbb492ecce4c05b429c69",
            "Sandybridge": "9597445b4c9623e083675dd577583444c47cf80b1edb930b923ac040aadb14b5",
            "Katmai": "56e40dfc8ac17af1adcc837ccacd8b3d1350617bd9f3b8e9c33ad1a75a6b497a",
        },
    ),
    (1, 2, 3): (
        "ccab4efb36633810f594b23e0016042d6c1fac8af44f4976dd55979cb3ce2a8e",
        {
            "SkylakeX": "f4861f07e9dad75f18acb0a2dd4e64362436ee0f3caaf32f5f57732bc3bea33a",
            "Haswell": "da2444bd5c9cca0c30e7584f9f3ae3b7878080be3b7a4bc0b0a02945d4faa6bd",
            "Sandybridge": "96222793d1652d47e9bec247ac7673bdb77cb02af6f33daeea1db6cb6655e66e",
            "Katmai": "f3a765dcd686e4a9c19db1e761854aeef35a25600e8bb41ee75b10b1d5660fc2",
        },
    ),
    (1, 2, 2, 2, 2): (
        "bcae4f49ab099aec9cbd0a3ebcf3aceeb07995d458af5d94ede7c48682ef5e5c",
        {
            "SkylakeX": "17ba4c3d150f9c9f9f5dfdc96951fcca4928fc227f79f2600907773bd4b1e035",
            "Haswell": "ba25bbe44c0d244c707dad576c2fd4134b20981c941409fee81cb8e3a8dff91d",
            "Sandybridge": "6d28a3246e40b7c7e4323d2237f455a0ab327c92fee9af042413f2f776c1e8db",
            "Katmai": "0dfb713f33396bd894a6a6f805f9123140542c1da376c6287a6ce1bb37cc0389",
        },
    ),
    (3, 3, 3, 3): (
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
    start, homotopy = hashlib.sha256(), hashlib.sha256()
    for s in range(3):
        f = random_system_on_sphere(degrees, np.random.default_rng(s))
        st = total_degree_start(degrees, np.random.default_rng(s))
        start.update(st.g._vec.tobytes())
        for root in st.roots:
            start.update(root.tobytes())
        hom = tracker.make_linear_homotopy(st.g, f)
        for array in (hom.g._vec, hom._pvec, np.float64(hom.T)):
            homotopy.update(array.tobytes())
    return start.hexdigest(), homotopy.hexdigest()


@pytest.mark.parametrize("degrees", list(SETUP_PINS), ids=str)
def test_pinned_setup_bits(degrees):
    start, homotopy = SETUP_PINS[degrees]
    assert _setup_digests(degrees) == (start, pinned(homotopy))


# Per OpenBLAS core, sha256 over random_initial_pair(degrees, default_rng(s))
# for the degree tuples of RANDOM_PAIR_DEGREES and s = 0, 1, 2: the bytes of
# g._vec, then of zeta0.  Its QR, SVD and unitary change of variables give
# other last bits on other kernels; the Haswell, Sandybridge and Katmai
# digests were read under OPENBLAS_CORETYPE in a fresh process.
RANDOM_PAIR_DEGREES = [(1,), (2, 2, 2), (1, 2, 3), (3, 3, 3, 3)]
RANDOM_PAIR_PINS = {
    "SkylakeX": "2f418b439da0b9b36cace0934f7b854a8fbe1224a65d4c81bfda4f3a6e8f9f92",
    "Haswell": "43df98a2fc424e9684445f47794e1301e2f934d120ff59ebceae17732ba4c99f",
    "Sandybridge": "2087ac8117b66e78b1df53cc9d6a6adb434573a0972ccccfc1a56bd410fc3000",
    "Katmai": "0c4a200e6db93ffd1bf8a1f75449bf72e7e990d8cd286a50cda87d16b3bed341",
}


def test_pinned_random_pair_bits():
    digest = hashlib.sha256()
    for degrees in RANDOM_PAIR_DEGREES:
        for s in range(3):
            pair = random_initial_pair(degrees, np.random.default_rng(s))
            digest.update(pair.g._vec.tobytes())
            digest.update(pair.zeta0.tobytes())
    assert digest.hexdigest() == pinned(RANDOM_PAIR_PINS)
