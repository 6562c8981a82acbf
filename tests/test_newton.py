import hashlib
import math

import numpy as np
import pytest

from certitrack import newton
from certitrack.bw import normalize_to_sphere, riemann_distance
from certitrack.experiments import start_paths
from certitrack.linalg import SingularLinearSolveError, one_blas_thread
from certitrack.newton import (
    U0,
    RefinementError,
    certified_radius,
    condition_mu,
    newton_projective,
    refine,
)
from certitrack.polysys import PolySystem, evaluate, unit_point
from certitrack.start_systems import (
    good_initial_pair,
    good_system_raw,
    random_system_on_sphere,
    solve_all_total_degree,
    total_degree_start,
)
from certitrack.tracker import track_path
from openblas_core import pinned
from sample_systems import random_points


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
    @pytest.mark.parametrize("degrees", [(2,), (2, 2), (2, 2, 2), (3, 2), (2, 2, 2, 2)])
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
        # and the certified radius there is 0
        h = diff_of_squares()
        z = unit_point([1.0, 0.0])  # Dh restricted to z-perp vanishes
        assert condition_mu(h, z) == math.inf
        assert certified_radius(h, z) == 0.0

    @pytest.mark.parametrize("lam", [2.0, 0.25, 3.0 - 4.0j])
    def test_scale_invariance(self, lam):
        rng = np.random.default_rng(8)
        h = random_system_on_sphere((2, 2), rng)
        z = unit_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        base = condition_mu(h, z)
        assert condition_mu(lam * h, z) == pytest.approx(base, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_point_beyond_float_scale_raises(self, scale):
        # mu and refine read z's unit representative through unit_point, so
        # a point whose norm overflows or underflows raises the error naming
        # it: no warning ahead of it, no iteration into a singular solve or a
        # NaN step.
        pair = good_initial_pair((2, 2))
        for read in (condition_mu, refine):
            with pytest.raises(ValueError, match="finite, nonzero norm"):
                read(pair.g, scale * pair.zeta0)


class TestCertificates:
    def test_certified_radius_formula(self):
        pair = good_initial_pair((2, 2))
        mu = condition_mu(pair.g, pair.zeta0)
        r = certified_radius(pair.g, pair.zeta0)
        assert r == pytest.approx(U0 / (2.0**1.5 * mu), rel=1e-12)
        assert r == pytest.approx(U0 / (2.0**1.5 * math.sqrt(2.0)))  # mu = sqrt(2) for the (2, 2) pair

    def test_total_degree_roots_have_finite_mu(self):
        start = total_degree_start((2, 2), np.random.default_rng(5))
        for root in start.roots:
            mu = condition_mu(start.g, root)
            assert math.isfinite(mu)
            assert certified_radius(start.g, root) > 0.0


class TestRefine:
    def test_within_radius_converges_fast(self, monkeypatch):
        h = normalize_to_sphere(diff_of_squares())
        root = unit_point([1.0, 1.0])
        z = unit_point([1.0, 1.01])
        monkeypatch.setattr(newton, "REFINE_MAX_ITERS", 8)
        out = refine(h, z)
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

    def test_near_double_root_within_its_certified_radius(self):
        # (X1 - X0)(X1 - (1+eps) X0) at eps = 1e-4: mu ~ 3e4, so rounding
        # stalls the Newton steps above REFINE_TOL.  Each refined endpoint
        # is accepted within its certified radius of its exact zero.
        eps = 1e-4
        system = PolySystem.from_terms((2,), [[((2, 0), 1.0 + eps), ((1, 1), -(2.0 + eps)), ((0, 2), 1.0)]])
        f, start = start_paths(system, "total", 0)
        exact = [unit_point([1.0, 1.0]), unit_point([1.0, 1.0 + eps])]
        found = []
        for root in start.roots:
            result = track_path(start.g, f, root)
            assert result.success
            zeta = refine(f, result.endpoint)
            dists = [riemann_distance(zeta, w) for w in exact]
            found.append(int(np.argmin(dists)))
            assert min(dists) <= certified_radius(f, zeta)
        assert sorted(found) == [0, 1]

    def test_nonconvergence_raises(self, monkeypatch):
        h = diff_of_squares()
        z = unit_point([1.0, 0.0])  # singular point of the zero set structure
        monkeypatch.setattr(newton, "REFINE_MAX_ITERS", 3)
        with pytest.raises((RefinementError, SingularLinearSolveError)):
            refine(h, z)

    def test_long_last_step_raises(self, monkeypatch):
        # One Newton step from (1, 0.3) moves 0.65, past REFINE_TOL and past
        # the certified radius of where it lands.
        monkeypatch.setattr(newton, "REFINE_MAX_ITERS", 1)
        with pytest.raises(RefinementError, match="no convergence within 1 Newton iterations"):
            refine(normalize_to_sphere(diff_of_squares()), unit_point([1.0, 0.3]))

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
        h = random_system_on_sphere((2, 2), rng)
        report = solve_all_total_degree(h, total_degree_start(h.degrees, rng))
        z = report.results[0].endpoint
        zeta = refine(h, z)
        d0 = riemann_distance(z, zeta)
        if d0 == 0.0:
            pytest.skip("endpoint refined onto the root exactly")
        current = z
        for _ in range(l):
            current = newton_projective(h, current)
        assert riemann_distance(current, zeta) <= d0 / 2.0 ** (2.0**l - 1.0) + 1e-15


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a).tobytes())
    return h.hexdigest()


def _newton_digests() -> dict:
    # sha256 of the outputs on seeded inputs.  One BLAS thread, as the
    # trackers run, so the bits do not depend on the caller's setting.
    rng = np.random.default_rng(1414)
    got = {}
    with one_blas_thread:
        for degrees in [(2, 2, 2), (1, 2, 3)]:
            f = random_system_on_sphere(degrees, rng)
            got["newton", degrees] = _digest(
                newton_projective(f, z) for z in random_points(len(degrees) + 1, 8, rng)
            )
            start = total_degree_start(degrees, rng)
            got["refine", degrees] = _digest(
                refine(start.g, r + 1e-3 * (rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)))
                for r in start.roots
            )
    zs, ws = random_points(4, 8, rng), random_points(4, 8, rng)
    near = [z + 1e-9 * w for z, w in zip(zs, ws)]
    got["riemann"] = _digest(
        [riemann_distance(z, w) for z, w in zip(zs, ws)]
        + [riemann_distance(z, y) for z, y in zip(zs, near)]
    )
    return got


# Per OpenBLAS core, _newton_digests.  The SkylakeX ones were read as
# np.linalg.norm gave the norms: linalg.vector_norm's are the same bits.
NEWTON_PINS = {
    "SkylakeX": {
        ("newton", (2, 2, 2)): "64b16aa9609d8b5e59a84d08e06c5bac69d23773f95ef3c81b32df6c28b4897a",
        ("refine", (2, 2, 2)): "a6f7fc39e67101b343c6af2a37e38b7330f2cece99a01cb0ddf37bdff4059538",
        ("newton", (1, 2, 3)): "c5ca96d950d3d1f4140ea4efdf01a149c373ce88b57d8cd532516fbfb6482bde",
        ("refine", (1, 2, 3)): "c6daa96bf00bca44e7f94868d7e320cecaa2c3244e18366fee8a9d2500bcd5ba",
        "riemann": "4b2e39551664350caa1b2760052d18cc32d93fbe1b4ffa9a9e3085b96c6c0754",
    },
    "Haswell": {
        ("newton", (2, 2, 2)): "0565ae3af73528bb884c1b2189ed9e29fd8d7c247e541b755ca264216ceab576",
        ("refine", (2, 2, 2)): "b6fd5b173612e3539871f1ecac3381b5838ad52f6aa54e1a874cf784c2c80777",
        ("newton", (1, 2, 3)): "fafa6aceab8b67b34712a57d6241f700011c669224ab2af44543b54855e18bca",
        ("refine", (1, 2, 3)): "e5a5928516cf377e24ed69ef7df1c616ab70c6499649c9d3b39145cc252c4048",
        "riemann": "6ea3e1e7d52658fa7933bc98bc2992e8ba7bec833c6f7b271e180ed218e83c0d",
    },
    "Sandybridge": {
        ("newton", (2, 2, 2)): "da254e07cb854442f2d587ba66743f2b8ba4bfb7ced741bb024c77fd4d54ffe5",
        ("refine", (2, 2, 2)): "44cf11c738f5c7b5ad4030f3b8855bb234af69f7a5eba62a7d5dd7e033e0dc83",
        ("newton", (1, 2, 3)): "c1085ff76fc6b3cf80602a93bec0779e8159be0920ef8b85649bb37943b4e44c",
        ("refine", (1, 2, 3)): "7fb14cce263d6da370161c42823158a8b3cb038539e0e6061be3682bb7b0ce54",
        "riemann": "6ea3e1e7d52658fa7933bc98bc2992e8ba7bec833c6f7b271e180ed218e83c0d",
    },
    "Katmai": {
        ("newton", (2, 2, 2)): "38bf9f4c95d2e40f3913221d67781a44de557454eb8ab32c6a3d1da01e8c5322",
        ("refine", (2, 2, 2)): "1937118dbf4d61efb70d4c6a34a6548c06123d47805ae4265fefa24c17ad978e",
        ("newton", (1, 2, 3)): "2cbe0688dc2d45e2c3e7487514d4b53bc2edead4d77856989fbc6b448e27f345",
        ("refine", (1, 2, 3)): "6c36ff11be43127e4e501c755dc9bb1f7405859c04472ae8b6cd0f73b2d467b4",
        "riemann": "39e2843158fa3a2c569f5fbe26510c887487580a31b067268e795938850d0062",
    },
}


def test_pinned_bits_of_newton_refine_and_riemann_distance():
    assert _newton_digests() == pinned(NEWTON_PINS)
