import dataclasses
import hashlib
import math
import platform

import numpy as np
import pytest

from certitrack import heuristic, linalg, newton, polysys, tracker
from certitrack.bw import bw_inner_re, bw_norm, normalize_to_sphere, riemann_distance
from certitrack.cli import write_trace_csv
from certitrack.experiments import katsura_system
from certitrack.heuristic import track_heuristic
from certitrack.linalg import SingularLinearSolveError
from certitrack.newton import U0, condition_mu, refine
from certitrack.polysys import PolySystem, homogenize, unit_point
from certitrack.start_systems import (
    good_initial_pair,
    prepare_target,
    random_system_on_sphere,
    total_degree_start,
)
from certitrack.tracker import (
    C_OVER_P_DEGREE_ONE,
    C_OVER_P_LINEAR,
    DegenerateHomotopyError,
    TrackStatus,
    TrackerOptions,
    condition_length,
    make_linear_homotopy,
    theorem_step_bound,
    track_linear,
    track_path,
)
from openblas_core import ONE_THREAD, OTHER_KERNEL, child_lines, pinned, run_child
import reference
from reference import mp
from sample_systems import seeded_path


def step_constants(curvature_bound: float) -> tuple[float, float]:
    """Constants (c, P) of the certified step rule on a homotopy whose
    curvature obeys ||hddot|| <= d^{3/2} H ||hdot||^2, for H = curvature_bound:
    the reference the tracker's fixed c/P values are checked against."""
    P = math.sqrt(2.0) + math.sqrt(4.0 + 5.0 * curvature_bound**2)
    a = math.sqrt(2.0) * U0 / 2.0
    c = ((1.0 - a) ** math.sqrt(2.0) / (1.0 + a)) * (
        1.0 - (1.0 - U0 / (math.sqrt(2.0) + 2.0 * U0)) ** (P / math.sqrt(2.0))
    )
    return c, P


def c_over_p(curvature_bound: float) -> float:
    c, P = step_constants(curvature_bound)
    return c / P


# Per OpenBLAS core, sha256 of every trace record (s, t, phi, chi1, chi2,
# then z) of the 8 paths of the pinned (2,2,2) target, read under
# OPENBLAS_NUM_THREADS=1; the SkylakeX digest from the loop as it stood
# before its per-path buffers.
PINNED_TRACE_SHA256 = {
    "SkylakeX": "d5792991dd0b4f8d39ec2cc1a100b3f493fb158eeea2f3818bd242b1bc089690",
    "Haswell": "9bc37824527110f2235481eed3a52e7b091ea061b7dc0385de719d4f2a5f75f2",
    "Sandybridge": "8ed55f277684aabf1612e157aca9dfbe7b3a707e7d9841f66c9e69ac6049becd",
    "Katmai": "2477707e283c0fb416fe69d56e1142a372077189a5fe3eda5831278e9ed070a8",
}


# Certified, then heuristic, steps of the 8 paths of the pinned target.
PINNED_STEPS = [921, 1608, 608, 553, 483, 355, 741, 517]
PINNED_HEURISTIC_STEPS = [13, 14, 10, 10, 10, 10, 13, 10]


def pinned_target():
    # The (2,2,2) target of default_rng(2024), its total-degree start and
    # the homotopy between them.
    return seeded_path((2, 2, 2), 2024)


def pinned_trace_digest() -> str:
    start, f, hom = pinned_target()
    h = hashlib.sha256()
    for z0 in start.roots:
        for rec in track_linear(hom, z0).trace:
            h.update(np.array([rec.s, rec.t, rec.phi, rec.chi1, rec.chi2]).tobytes())
            h.update(rec.z.tobytes())
    return h.hexdigest()


def thread_sensitive_bits() -> str:
    # Step counts and endpoint bytes of paths 2 and 5 of the pinned target,
    # tracked certified and heuristic; then the refined zeros and their mu
    # from four Katsura-5 points near total-degree start roots.
    start, f, hom = pinned_target()
    out = []
    for i in (2, 5):
        for r in (track_linear(hom, start.roots[i]), track_heuristic(hom, start.roots[i])):
            out.append(f"{r.num_steps}:{r.endpoint.tobytes().hex()}")
    k5 = normalize_to_sphere(homogenize(katsura_system(5)))
    for z in total_degree_start(k5.degrees, np.random.default_rng(0)).roots[:4]:
        zeta = refine(k5, z + 1e-3)
        out.append(f"{zeta.tobytes().hex()}:{condition_mu(k5, zeta).hex()}")
    return " ".join(out)


def pinned_step_counts() -> str:
    # Status and steps of the 8 untraced paths of the pinned target,
    # certified then heuristic.
    start, f, hom = pinned_target()
    untraced = TrackerOptions(record_trace=False)
    results = [track(hom, z, untraced) for track in (track_linear, track_heuristic) for z in start.roots]
    return " ".join(f"{r.status.value}:{r.num_steps}" for r in results)


@pytest.fixture(scope="module")
def quad_pair():
    return seeded_path((2, 2), 20)


class TestLinearHomotopy:
    def test_orthogonal_endpoints_quarter_turn(self):
        a = normalize_to_sphere(PolySystem.from_terms((2,), [[((2, 0), 1.0)]]))
        b = normalize_to_sphere(PolySystem.from_terms((2,), [[((0, 2), 1.0)]]))
        hom = make_linear_homotopy(a, b)
        assert hom.T == pytest.approx(math.pi / 2)

    def test_degenerate_rejected(self):
        a = normalize_to_sphere(PolySystem.from_terms((2,), [[((2, 0), 1.0)]]))
        with pytest.raises(DegenerateHomotopyError):
            make_linear_homotopy(a, a)
        with pytest.raises(DegenerateHomotopyError):
            make_linear_homotopy(a, -1.0 * a)

    def test_degree_mismatch_rejected(self):
        a = normalize_to_sphere(PolySystem.from_terms((2,), [[((2, 0), 1.0)]]))
        b = normalize_to_sphere(PolySystem.from_terms((3,), [[((3, 0), 1.0)]]))
        with pytest.raises(ValueError, match="degree mismatch"):
            make_linear_homotopy(a, b)

    def test_midpoint_on_sphere(self, quad_pair):
        start, f, hom = quad_pair
        assert bw_norm(hom.value_at(hom.T / 2)) == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_hits_target(self, quad_pair):
        start, f, hom = quad_pair
        end = hom.value_at(hom.T)
        for a, b in zip(end.coeffs, f.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_endpoint_hits_target_negative_overlap(self):
        # arccos handles Re<f, g> < 0, where the arcsin formula breaks
        rng = np.random.default_rng(21)
        g = random_system_on_sphere((2,), rng)
        f = normalize_to_sphere(-1.0 * g + 0.8 * random_system_on_sphere((2,), rng))
        r = bw_inner_re(g.degrees, f._vec, g._vec)
        assert r < 0
        hom = make_linear_homotopy(g, f)
        assert hom.T > math.pi / 2
        end = hom.value_at(hom.T)
        for a, b in zip(end.coeffs, f.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_requires_sphere(self, quad_pair):
        start, f, _ = quad_pair
        with pytest.raises(ValueError):
            make_linear_homotopy(2.0 * start.g, f)

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3), (3, 3, 3, 3)], ids=str)
    def test_arc_length_from_the_one_product(self, degrees):
        # T is arccos of bw_inner_re(f, g), bit for bit: the product the
        # homotopy's speed comes from too.
        for seed in range(100):
            rng = np.random.default_rng([seed, len(degrees)])
            g = random_system_on_sphere(degrees, rng)
            f = random_system_on_sphere(degrees, rng)
            hom = make_linear_homotopy(g, f)
            assert hom.T == math.acos(bw_inner_re(g.degrees, f._vec, g._vec))


class TestTangent:
    """hdot_s = -sin(s) g + cos(s) p in the reference, from the homotopy's p."""

    def test_at_zero_is_normal_component(self, quad_pair):
        start, f, hom = quad_pair
        r = mp.re(reference.bw_inner(f.degrees, f._vec, start.g._vec))
        normal = np.array([(mp.mpc(a) - r * b) / mp.sqrt(1 - r * r) for a, b in zip(f._vec, start.g._vec)],
                          dtype=complex)
        np.testing.assert_allclose(hom._pvec, normal, atol=1e-15)
        tan = reference.homotopy(hom, 0.0)[1][1]
        np.testing.assert_allclose(np.array(tan, dtype=complex), normal, atol=1e-15)

    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.9])
    def test_unit_speed(self, quad_pair, frac):
        start, f, hom = quad_pair
        hdot = reference.homotopy(hom, frac * hom.T)[1]
        assert float(reference.bw_norm(*hdot)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.95])
    def test_orthogonal_to_point(self, quad_pair, frac):
        start, f, hom = quad_pair
        h, hdot = reference.homotopy(hom, frac * hom.T)
        assert abs(mp.re(reference.bw_inner(f.degrees, h[1], hdot[1]))) <= 1e-14


def reference_record(hom, s: float, z) -> list[float]:
    """chi1, chi2, t and phi of the certified step from (h_s, z) in the
    reference, for largest degree 2."""
    x1, x2, phi = reference.chi(hom, s, z)
    return [float(x) for x in (x1, x2, C_OVER_P_LINEAR / (2**1.5 * phi), phi)]


def scaled_normal(quad_pair, factor):
    # The (2, 2) homotopy with its normal direction p scaled, and its start
    # point: 0 stands still (phi = 0), 1e300 overflows (phi = inf).
    start, f, hom = quad_pair
    return dataclasses.replace(hom, _pvec=factor * hom._pvec), start.roots[0]


def singular_homotopy():
    # From X1^2 - X0^2, whose bordered matrix at (1, 0) is exactly singular,
    # toward X0 X1 (BW-orthogonal to it), with that point.
    h = normalize_to_sphere(PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]]))
    f = normalize_to_sphere(PolySystem.from_terms((2,), [[((1, 1), 1.0)]]))
    return make_linear_homotopy(h, f)


class TestChiFactors:
    """chi1 and chi2 as the loop reads them: a trace's columns, or the
    step buffers of a real homotopy at (s, z)."""

    def test_chi1_good_system_permuted_identity(self):
        # At the good pair's e0 the bordered inverse times the diagonal is
        # sqrt(n) times a permutation matrix (the good system has raw norm
        # sqrt(n)), so the first step of a good-pair path reads sqrt(3).
        pair = good_initial_pair((2, 2, 2))
        f = random_system_on_sphere((2, 2, 2), np.random.default_rng(20))
        first = track_linear(make_linear_homotopy(pair.g, f), pair.zeta0).trace[0]
        assert first.chi1 == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_chi1_positive(self, quad_pair):
        start, f, hom = quad_pair
        trace = track_linear(hom, start.roots[0]).trace
        assert len(trace) > 0 and np.all(trace.chi1 > 0.0)

    def test_chi1_singular(self):
        # An exact zero pivot raises from the step's chi and ends the path
        # SingularLinearSolve before its first step.
        hom = singular_homotopy()
        z = unit_point([1.0, 0.0])
        with pytest.raises(SingularLinearSolveError):
            tracker._StepBuffers(hom).chi(0.0, z)
        result = track_linear(hom, z)
        assert result.status is TrackStatus.SINGULAR and result.num_steps == 0

    def test_chi2_zero_tangent(self, quad_pair):
        hom, z0 = scaled_normal(quad_pair, 0.0)
        assert tracker._StepBuffers(hom).chi(0.0, unit_point(z0))[1] == 0.0

    def test_chi2_tangent_vanishing_at_point(self):
        # The normal direction q, unit norm, BW-orthogonal to the good system
        # and vanishing at e0, contributes only its norm: chi2 = 1 on the
        # path's first step.
        pair = good_initial_pair((2, 2))
        q = normalize_to_sphere(
            PolySystem.from_terms((2, 2), [[((0, 2, 0), 1.0)], [((0, 0, 2), 1.0)]])
        )
        hom = make_linear_homotopy(pair.g, normalize_to_sphere(pair.g + q))
        np.testing.assert_allclose(hom._pvec, q._vec, atol=1e-15)
        first = track_linear(hom, pair.zeta0).trace[0]
        assert first.chi2 == pytest.approx(1.0, rel=1e-12)

    def test_chi2_at_least_speed(self, quad_pair):
        # Row k+1 holds the step from s_k; chi2 there is at least the speed
        # ||hdot_{s_k}|| = 1.
        start, f, hom = quad_pair
        trace = track_linear(hom, start.roots[0]).trace
        s_from = np.concatenate([[0.0], trace.s[:-1]])
        speed = np.sqrt([hom.speed_squared(math.cos(s), math.sin(s)) for s in s_from])
        np.testing.assert_allclose(speed, 1.0, rtol=1e-12)
        assert np.all(trace.chi2 >= speed)


class TestCertifiedStep:
    """The step rule on the loop's own trace, and the loop against the
    formula in the reference (reference_record)."""

    @staticmethod
    def _unclipped(quad_pair):
        # The rows of a traced (2, 2) path whose step was not clipped to the
        # end of the arc.
        start, f, hom = quad_pair
        trace = track_linear(hom, start.roots[0]).trace
        assert len(trace) > 10
        return trace[:-1]

    def test_formula_value(self, quad_pair):
        rows = self._unclipped(quad_pair)
        assert np.array_equal(rows.phi, rows.chi1 * rows.chi2)
        np.testing.assert_allclose(rows.t, C_OVER_P_LINEAR / (2.0**1.5 * rows.phi), rtol=1e-12)

    def test_plugged_constants(self):
        # phi = 1, d = 2 gives t = 0.04804448 / 2^{3/2}
        assert C_OVER_P_LINEAR / 2.0**1.5 == pytest.approx(0.016988, abs=1e-5)

    def test_interval_containment(self, quad_pair):
        rows = self._unclipped(quad_pair)
        lo = C_OVER_P_LINEAR / (2.0 * 2.0**1.5 * rows.phi)
        hi = C_OVER_P_LINEAR / (2.0**1.5 * rows.phi)
        assert np.all(lo - 1e-15 <= rows.t) and np.all(rows.t <= hi + 1e-15)

    @pytest.mark.parametrize("degrees", [(2, 2), (1, 2, 2)])
    def test_is_the_loops_first_step(self, degrees):
        # The loop's first record is the formula's step from (g, z0).
        start, f, hom = seeded_path(degrees, 21)
        first = track_linear(hom, start.roots[0]).trace[0]
        want = reference_record(hom, 0.0, unit_point(start.roots[0]))
        np.testing.assert_allclose([first.chi1, first.chi2, first.t, first.phi], want, rtol=1e-13)

    @pytest.mark.parametrize("degrees", [(1, 2, 2), (2, 2, 2)])
    def test_matches_the_loop_mid_path(self, degrees):
        # Record k+1 holds the step taken from (h_{s_k}, z_k).
        start, f, hom = seeded_path(degrees, 22)
        trace = track_linear(hom, start.roots[1]).trace
        assert len(trace) > 50
        # the last step is clipped to the end of the arc, so it is left out
        for k in np.linspace(5, len(trace) - 3, 6).astype(int):
            rec, nxt = trace[k], trace[k + 1]
            want = reference_record(hom, rec.s, rec.z)
            np.testing.assert_allclose([nxt.chi1, nxt.chi2, nxt.t, nxt.phi], want, rtol=1e-13)

    def test_vanishing_tangent_gives_infinite_step(self, quad_pair):
        # phi = 0: t = inf, which ends a path MinStepReached
        hom, z0 = scaled_normal(quad_pair, 0.0)
        buf = tracker._StepBuffers(hom)
        x1, x2 = buf.chi(0.0, unit_point(z0))
        assert x1 * x2 == 0.0
        assert buf.step_length(x1 * x2) == math.inf

    def test_point_of_wrong_length_rejected(self, quad_pair):
        start, f, hom = quad_pair
        z = start.roots[0]
        for bad in (z[:1], np.append(z, 1.0)):
            for track in (track_linear, track_heuristic):
                with pytest.raises(ValueError):
                    track(hom, bad)
            with pytest.raises(ValueError):
                track_path(start.g, f, bad)

    def test_tangent_degrees_must_match(self):
        # (1, 2) and (2, 1) in three variables both have 3 + 6 coefficients,
        # yet no homotopy joins them.
        rng = np.random.default_rng(5)
        g = random_system_on_sphere((1, 2), rng)
        f = random_system_on_sphere((2, 1), rng)
        z = unit_point([1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="degree mismatch"):
            make_linear_homotopy(g, f)
        with pytest.raises(ValueError, match="degree mismatch"):
            track_path(g, f, z)


class TestRepresentativeInvariance:
    """A start point is a projective point: the trackers and the condition
    length read it through its unit representative.  Scaling by 2 is exact,
    so it gives the same bits; a phase gives the same root."""

    TRACKS = {
        "track_linear": lambda g, f, hom, z: track_linear(hom, z),
        "track_heuristic": lambda g, f, hom, z: track_heuristic(hom, z),
        "track_path": lambda g, f, hom, z: track_path(g, f, z),
    }

    @pytest.fixture(scope="class")
    def path(self):
        start, f, hom = seeded_path((2, 2, 2), 60)
        return start.g, f, hom, start.roots[3]

    @pytest.mark.parametrize("track", list(TRACKS))
    def test_doubled_point_gives_the_same_bits(self, path, track):
        g, f, hom, z0 = path
        plain, doubled = (self.TRACKS[track](g, f, hom, z) for z in (z0, 2.0 * z0))
        assert plain.success
        assert (doubled.status, doubled.num_steps) == (plain.status, plain.num_steps)
        assert doubled.endpoint.tobytes() == plain.endpoint.tobytes()
        assert doubled.trace.dtype == plain.trace.dtype
        assert doubled.trace.tobytes() == plain.trace.tobytes()

    @pytest.mark.parametrize("theta", [0.7, 2.5, -1.9])
    @pytest.mark.parametrize("track", list(TRACKS))
    def test_phase_gives_the_same_root(self, path, track, theta):
        g, f, hom, z0 = path
        plain, turned = (self.TRACKS[track](g, f, hom, z) for z in (z0, np.exp(1j * theta) * z0))
        assert plain.success and turned.status is plain.status
        assert riemann_distance(refine(f, turned.endpoint), refine(f, plain.endpoint)) <= 1e-12

    def test_condition_length_of_the_doubled_point(self, path):
        g, f, hom, z0 = path
        result = track_linear(hom, z0)
        assert condition_length(hom, 2.0 * z0, result) == condition_length(hom, z0, result)


class TestTrackLinear:
    def test_same_system_returns_immediately(self, quad_pair):
        start, _, _ = quad_pair
        result = track_path(start.g, start.g, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        assert result.num_steps == 0
        assert riemann_distance(result.endpoint, start.roots[0]) <= 1e-12

    def test_equal_target_off_the_sphere_returns_immediately(self, quad_pair):
        # f == g takes no homotopy, so neither needs unit norm; a NaN
        # coefficient compares unequal and meets the sphere check.
        start, _, _ = quad_pair
        g = 2.0 * start.g
        assert track_path(g, g, start.roots[0]).num_steps == 0
        nan = PolySystem._adopt(g.degrees, np.full_like(g._vec, np.nan))
        with pytest.raises(ValueError, match="unit sphere"):
            track_path(nan, nan, start.roots[0])

    def test_equal_target_boundary(self, quad_pair):
        # A target whose coefficients are each within 1e-13 of the start's is
        # the start; one off by the next float above takes a homotopy, and
        # two systems that close have none.
        start, _, _ = quad_pair
        g = start.g
        assert g._vec[0] == 0.0
        for gap, equal in [(1e-13, True), (math.nextafter(1e-13, 1.0), False)]:
            f = PolySystem.from_coeff_vector(g.degrees, np.concatenate([[gap], g._vec[1:]]))
            if equal:
                assert track_path(g, f, start.roots[0]).num_steps == 0
            else:
                with pytest.raises(DegenerateHomotopyError):
                    track_path(g, f, start.roots[0])

    def test_trace_rows_and_endpoint_own_their_points(self, quad_pair):
        # The loop writes its points into two arrays in turn: a row that kept
        # one of them would read a later point.
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0])
        z = result.trace.z
        assert len(z) == result.num_steps >= 3
        assert z[-1].tobytes() == result.endpoint.tobytes()
        assert not np.shares_memory(z, result.endpoint)
        assert not any(np.array_equal(a, b) for a, b in zip(z[:-1], z[1:]))
        assert len({row.tobytes() for row in z}) == len(z)

    def test_endpoints_of_two_calls_are_their_own(self, quad_pair):
        start, f, hom = quad_pair
        first, second = (track_linear(hom, z0) for z0 in start.roots[:2])
        assert not np.shares_memory(first.endpoint, second.endpoint)
        want_first, want_second = first.endpoint.tobytes(), second.endpoint.tobytes()
        first.endpoint[...] = np.nan
        assert second.endpoint.tobytes() == want_second
        assert track_linear(hom, start.roots[0]).endpoint.tobytes() == want_first

    def test_first_record_reads_the_homotopys_speed(self, quad_pair, monkeypatch):
        # chi2 of step 1 is sqrt(||hdot_0||^2 + ||solve||^2), ||hdot_0||^2 read
        # from the homotopy at (cos 0, sin 0): adding 1 to what it reports
        # adds 1 to chi2^2.
        start, f, hom = quad_pair
        assert hom.speed_squared(1.0, 0.0) == bw_inner_re(f.degrees, hom._pvec, hom._pvec)
        first = track_linear(hom, start.roots[0]).trace[0]
        speed_squared = tracker.LinearHomotopy.speed_squared
        calls = []

        def shifted(self, c, sn):
            calls.append((c, sn))
            return speed_squared(self, c, sn) + 1.0

        monkeypatch.setattr(tracker.LinearHomotopy, "speed_squared", shifted)
        monkeypatch.setattr(tracker, "MAX_STEPS", 1)
        (record,) = track_linear(hom, start.roots[0]).trace
        assert calls == [(1.0, 0.0)]
        assert record.chi2**2 == pytest.approx(first.chi2**2 + 1.0, rel=1e-12)

    def test_success_and_endpoint_is_zero(self, quad_pair):
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        zeta = refine(f, result.endpoint)
        assert riemann_distance(result.endpoint, zeta) <= U0 / (2.0 * 2.0**1.5 * condition_mu(f, zeta))

    def test_trace_bookkeeping(self, quad_pair):
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[1])
        trace = result.trace
        assert len(trace) == result.num_steps
        assert trace[-1].s == hom.T  # exact assignment on the clipped step
        assert trace[0].s == trace[0].t
        for a, b in zip(trace, trace[1:]):
            assert b.s == a.s + b.t  # exact accumulation
            assert b.s > a.s

    def test_step_interval_on_every_step(self, quad_pair):
        start, f, hom = quad_pair
        d32 = 2.0**1.5
        result = track_linear(hom, start.roots[2])
        for rec in result.trace[:-1]:
            lo = C_OVER_P_LINEAR / (2.0 * d32 * rec.phi)
            hi = C_OVER_P_LINEAR / (d32 * rec.phi)
            assert lo * (1 - 1e-12) <= rec.t <= hi * (1 + 1e-12)

    def test_determinism(self, quad_pair):
        start, f, hom = quad_pair
        r1 = track_linear(hom, start.roots[3])
        r2 = track_linear(hom, start.roots[3])
        assert r1.num_steps == r2.num_steps
        assert np.array_equal(r1.endpoint, r2.endpoint)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.s, a.t, a.phi, a.chi1, a.chi2) == (b.s, b.t, b.phi, b.chi1, b.chi2)
            assert np.array_equal(a.z, b.z)

    def test_max_steps(self, quad_pair, monkeypatch):
        start, f, hom = quad_pair
        monkeypatch.setattr(tracker, "MAX_STEPS", 5)
        result = track_linear(hom, start.roots[0])
        assert result.status is TrackStatus.MAX_STEPS
        assert result.num_steps == 5

    def test_no_floor_by_default(self):
        # Katsura-4 at default_rng(1): total-degree paths 4 and 6 pass close to
        # each other near a nearly singular parameter.  The certified step of
        # path 4 falls below 1e-6 there and the path still ends certified.
        f = normalize_to_sphere(homogenize(katsura_system(4)))
        start = total_degree_start(f.degrees, np.random.default_rng(1))
        result = track_path(start.g, f, start.roots[4])
        assert result.status is TrackStatus.SUCCESS
        # the last step is clipped to the end of the arc, so it is left out
        assert min(rec.t for rec in result.trace[:-1]) < 1e-6

    def test_pinned_step_counts(self):
        # (status, steps) of the 8 total-degree paths of one seeded (2,2,2)
        # target: a change to evaluation or to the step rule that moves them
        # fails here, not only in the benchmark's step digest.
        start, f, hom = pinned_target()
        results = [track_linear(hom, z, TrackerOptions(record_trace=False)) for z in start.roots]
        assert [(r.status.value, r.num_steps) for r in results] == [("Success", n) for n in PINNED_STEPS]

    def test_pinned_step_counts_with_one_blas_thread(self):
        # The BLAS thread count may change result bits (a one-column zgetrs
        # does under OpenBLAS), but it must not change a step count.
        steps = child_lines(ONE_THREAD, OPENBLAS_NUM_THREADS="1")[1]
        assert steps == " ".join(f"Success:{n}" for n in PINNED_STEPS + PINNED_HEURISTIC_STEPS)

    def test_trace_bits_unchanged_with_one_blas_thread(self):
        # Writing into per-path buffers runs the same BLAS calls on the same
        # operands, so every record of the pinned target keeps its bits.
        assert child_lines(ONE_THREAD, OPENBLAS_NUM_THREADS="1")[2] == pinned(PINNED_TRACE_SHA256)

    def test_bits_do_not_depend_on_blas_threads(self):
        # The trackers, refine and condition_mu run on one BLAS thread
        # whatever the process started with, so their results are the same
        # bits under both.
        code = "import test_tracker as t; print(t.thread_sensitive_bits())"
        two = run_child(code, OPENBLAS_NUM_THREADS="2").strip()
        assert child_lines(ONE_THREAD, OPENBLAS_NUM_THREADS="1")[0] == two

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    )
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_step_counts_do_not_depend_on_the_blas_kernel(self, coretype):
        # Other kernels give other last bits (so no digest is compared here),
        # but every path of the pinned target keeps its status and steps.
        want = " ".join(f"Success:{n}" for n in PINNED_STEPS + PINNED_HEURISTIC_STEPS)
        assert child_lines(OTHER_KERNEL, OPENBLAS_CORETYPE=coretype)[0] == want

    @pytest.mark.parametrize(
        "track,bad",
        [
            pytest.param(track, bad, id=f"{prefix}bad{i}")
            for prefix, track in (("", track_linear), ("heuristic-", track_heuristic))
            for i, bad in enumerate(
                [[np.nan, 1.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0], [0.0] * 4, [1.0, 0.0, 0.0]]
            )
        ],
    )
    def test_start_point_rejected(self, track, bad):
        # not finite, zero or of the wrong length: no point to start from,
        # for either tracker
        rng = np.random.default_rng(3)
        g = total_degree_start((2, 2, 2), rng).g
        hom = make_linear_homotopy(g, random_system_on_sphere((2, 2, 2), rng))
        with pytest.raises(ValueError):
            track(hom, bad)

    def test_path_into_double_root(self):
        # (X1 - X0)^2 has the double root (1, 1), where the bordered matrix is
        # singular.  Path 0 runs into it: chi1 grows until the certified step
        # no longer moves s, and the path ends MinStepReached at the root.
        f = normalize_to_sphere(
            PolySystem.from_terms((2,), [[((0, 2), 1.0), ((1, 1), -2.0), ((2, 0), 1.0)]])
        )
        start = total_degree_start((2,), np.random.default_rng(0))
        result = track_path(start.g, f, start.roots[0])
        assert (result.status, result.num_steps) == (TrackStatus.MIN_STEP_REACHED, 1941)
        assert max(rec.chi1 for rec in result.trace) == pytest.approx(1.49e14, rel=1e-2)
        assert riemann_distance(result.endpoint, unit_point([1.0, 1.0])) < 1e-12

    def test_intermediate_certificates_sampled(self, quad_pair):
        # every traced point is an approximate zero of its system with the
        # halved radius (the tracking invariant)
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0])
        stride = max(1, len(result.trace) // 12)
        for rec in result.trace[::stride]:
            h_s = reference.homotopy(hom, rec.s)[0]
            zeta = reference.newton(h_s, rec.z, steps=8)
            mu = float(reference.mu(h_s, zeta))
            assert riemann_distance(rec.z, np.array(zeta, dtype=complex)) <= U0 / (2.0 * 2.0**1.5 * mu)

    def test_piecewise_split_step_bound(self, quad_pair):
        # splitting the arc in two adds at most the number of segments to the
        # step bound of the whole path
        start, f, hom = quad_pair
        mid = normalize_to_sphere(hom.value_at(hom.T / 2.0))
        first = make_linear_homotopy(start.g, mid)
        res1 = track_linear(first, start.roots[0])
        assert res1.status is TrackStatus.SUCCESS
        second = make_linear_homotopy(mid, f)
        res2 = track_linear(second, res1.endpoint)
        assert res2.status is TrackStatus.SUCCESS
        direct = track_linear(hom, start.roots[0])
        c0_total = condition_length(hom, start.roots[0], direct)
        bound = 2 + math.ceil(71.0 * 2.0**1.5 * c0_total)
        assert res1.num_steps + res2.num_steps <= bound
        # and both halves land on the same root as the unsplit path
        assert riemann_distance(refine(f, res2.endpoint), refine(f, direct.endpoint)) <= 1e-8


class TestTraceArray:
    """A path's trace is one read-only record array, row k for step k + 1."""

    @pytest.mark.parametrize("track", [track_linear, track_heuristic], ids=["certified", "heuristic"])
    def test_recording_leaves_the_path_unchanged(self, track):
        start, f, hom = pinned_target()
        for z0 in start.roots:
            traced = track(hom, z0, TrackerOptions(record_trace=True))
            bare = track(hom, z0, TrackerOptions(record_trace=False))
            assert (traced.status, traced.num_steps) == (bare.status, bare.num_steps)
            assert traced.endpoint.tobytes() == bare.endpoint.tobytes()
            assert len(traced.trace) > 0
            assert len(bare.trace) == 0 and bare.trace.dtype == traced.trace.dtype

    def test_certified_columns(self, quad_pair):
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0])
        trace = result.trace
        assert trace.dtype.names == ("s", "t", "phi", "chi1", "chi2", "z")
        assert len(trace) == result.num_steps
        assert trace.z.shape == (result.num_steps, 3)
        assert np.array_equal(trace.phi, trace.chi1 * trace.chi2)
        assert trace[-1].z.tobytes() == result.endpoint.tobytes()

    def test_read_only(self, quad_pair):
        start, f, hom = quad_pair
        trace = track_linear(hom, start.roots[0]).trace
        assert not trace.flags.writeable
        with pytest.raises(ValueError):
            trace.s[0] = 0.0
        with pytest.raises(ValueError):
            trace[0].z[0] = 0.0

    def test_zero_length_homotopy_has_no_rows(self, quad_pair):
        start, f, hom = quad_pair
        result = track_path(f, f, start.roots[0])
        assert (result.status, result.num_steps) == (TrackStatus.SUCCESS, 0)
        assert len(result.trace) == 0
        assert result.trace.dtype == track_linear(hom, start.roots[0]).trace.dtype


def named_path(name: str):
    # The homotopy and start root of "pinned-i", path i of the pinned target,
    # or "katsura4-i", path i from the total-degree start of default_rng(1)
    # to Katsura-4 (paths 4 and 6 take 3,000-4,500 certified steps).
    target, i = name.split("-")
    if target == "pinned":
        start, f, hom = pinned_target()
        return hom, start.roots[int(i)]
    f = prepare_target(katsura_system(4))
    start = total_degree_start(f.degrees, np.random.default_rng(1))
    return make_linear_homotopy(start.g, f), start.roots[int(i)]


@linalg.one_blas_thread
def midpoint_rule(hom, z0, result) -> float:
    # The midpoint rule M on phi over the certified steps of result, the
    # traced path through z0, each midpoint's zero refined from the step's
    # starting point, under one BLAS thread as condition_length runs.  With
    # the trapezoid C on the steps' ends, (C + M) / 2 is the trapezoid with
    # every midpoint a node.
    assert result.success
    buf = tracker._StepBuffers(hom)
    ends = [0.0, *result.trace.s.tolist()]
    total = 0.0
    for a, b, z in zip(ends, ends[1:], [z0, *result.trace.z]):
        mid = (a + b) / 2.0
        total += (b - a) * math.prod(buf.chi(mid, refine(hom.value_at(mid), z)))
    return total


class TestConditionLength:
    def test_pinned_value(self, quad_pair):
        # Read on the certified trace's nodes; a 16,000-node uniform grid
        # reads 11.911410721200921, 9.6e-6 lower.
        start, f, hom = quad_pair
        c = condition_length(hom, start.roots[0], track_linear(hom, start.roots[0]))
        assert c == pytest.approx(11.911525504322785, rel=1e-12)

    @pytest.mark.parametrize("path", ["pinned-0", "katsura4-4"])
    def test_close_to_the_midpoint_refined_reference(self, path):
        # Adding every step's midpoint as a node moves C by at most 2e-5
        # relative; a uniform grid of 2,000 nodes reads Katsura-4 path 4
        # 5.7% low, as it misses the narrow peaks of phi.
        hom, z0 = named_path(path)
        result = track_linear(hom, z0)
        c = condition_length(hom, z0, result)
        assert c == pytest.approx((c + midpoint_rule(hom, z0, result)) / 2.0, rel=2e-5)

    def test_failed_path_has_no_condition_length(self, quad_pair, monkeypatch):
        start, f, hom = quad_pair
        monkeypatch.setattr(tracker, "MAX_STEPS", 5)
        result = track_linear(hom, start.roots[0])
        for oracle in (condition_length, theorem_step_bound):
            with pytest.raises(ValueError, match="MaxSteps"):
                oracle(hom, start.roots[0], result)

    def test_untraced_path_has_no_condition_length(self, quad_pair):
        # Without its trace a Success result has the one node s = 0, which
        # would read C = 0 and a bound of 0 steps.
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0], TrackerOptions(record_trace=False))
        assert result.success and result.num_steps > 0
        for oracle in (condition_length, theorem_step_bound):
            with pytest.raises(ValueError, match="without its trace"):
                oracle(hom, start.roots[0], result)

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3), (1, 2, 2, 2, 2)], ids=str)
    def test_integrand_is_mu_times_lifted_speed(self, degrees):
        # At zeros along a tracked path the loop's chi1 is mu and its chi2 is
        # ||(hdot, zetadot)||, zetadot the path's velocity: the integrand
        # condition_length sums.
        start, f, hom = seeded_path(degrees, 23)
        result = track_linear(hom, start.roots[0])
        assert result.success
        buf = tracker._StepBuffers(hom)
        for k in np.linspace(0, len(result.trace) - 1, 8).astype(int):
            rec = result.trace[k]
            h, hdot = reference.homotopy(hom, rec.s)
            zeta = np.array(reference.newton(h, rec.z, steps=8), dtype=complex)
            zetadot = reference.velocity(hom, rec.s, zeta)
            speed = mp.sqrt(reference.bw_norm(*hdot) ** 2 + mp.norm(zetadot) ** 2)
            x1, x2 = buf.chi(rec.s, zeta)
            assert x1 == pytest.approx(float(reference.mu(h, zeta)), rel=1e-13)
            assert x2 == pytest.approx(float(speed), rel=1e-13)

    def test_short_arc_small_length(self, quad_pair):
        start, f, hom = quad_pair
        # truncated reparametrized arc: from g to a nearby point on the circle
        near = normalize_to_sphere(hom.value_at(0.01))
        short = make_linear_homotopy(start.g, near)
        c_short = condition_length(short, start.roots[0], track_linear(short, start.roots[0]))
        full = condition_length(hom, start.roots[0], track_linear(hom, start.roots[0]))
        assert c_short < 0.05 * full

    def test_step_bound_holds(self, quad_pair):
        start, f, hom = quad_pair
        for root in start.roots[:2]:
            result = track_linear(hom, root)
            assert result.status is TrackStatus.SUCCESS
            assert result.num_steps <= theorem_step_bound(hom, root, result)

    @pytest.mark.parametrize("path", ["pinned-0", "pinned-1", "katsura4-4", "katsura4-6"])
    def test_steps_over_bound_is_a_constant(self, path):
        """num_steps / theorem_step_bound sits within 1% of
        1 / (71 C_OVER_P_LINEAR) = 0.29316: the loop takes exact norms and the
        upper end of the certified interval, so t_i phi_i = c/P / d^{3/2} on
        every step but the clipped last one, and the steps are a Riemann sum
        of C.  A chi1 estimated within the rule's factor 2 (ROADMAP item 5,
        stage b) would move the ratio off this constant."""
        hom, z0 = named_path(path)
        result = track_linear(hom, z0)
        ratio = result.num_steps / theorem_step_bound(hom, z0, result)
        assert ratio == pytest.approx(1.0 / (71.0 * C_OVER_P_LINEAR), rel=0.01)


class TestStepConstant:
    """The fixed c/P values against the step rule's constants (c, P) at the
    great circle's curvature: ||hddot|| = ||hdot||^2 = 1 needs H >= d^{-3/2}."""

    def test_constants_zero_curvature(self):
        c, P = step_constants(0.0)
        assert P == pytest.approx(math.sqrt(2.0) + 2.0)
        assert 0.0 < c / P < 1.0

    def test_ratio_decreasing_in_curvature(self):
        # a larger curvature bound than a path needs is still certified
        ratios = [c_over_p(H) for H in np.linspace(0.0, 10.0, 21)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_linear_constant_is_the_degree_two_value(self):
        # d >= 2 needs H = d^{-3/2} <= 2^{-3/2}; the constant rounds down
        reference = c_over_p(2.0**-1.5)
        assert C_OVER_P_LINEAR <= reference
        assert reference - C_OVER_P_LINEAR <= 1e-8

    def test_degree_one_constant(self):
        # d = 1 needs H = 1, a smaller c/P than the degree-two value
        reference = c_over_p(1.0)
        assert C_OVER_P_DEGREE_ONE <= reference < C_OVER_P_LINEAR
        assert reference - C_OVER_P_DEGREE_ONE <= 1e-8

    def test_linear_path_steps_within_degree_one_bound(self):
        # every step of a (1, 1) path, the first from the start included,
        # stays at or below c/P at H = 1
        start, f, hom = seeded_path((1, 1), 11)
        result = track_linear(hom, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        assert result.num_steps > 10
        bound = c_over_p(1.0)
        assert all(rec.t <= bound / rec.phi for rec in result.trace)


class TestNonFiniteStep:
    """A step length that cannot move s ends the path with a status."""

    def test_overflowing_derivative(self, quad_pair, monkeypatch):
        # phi = inf gives t = 0, which must not loop until MAX_STEPS
        hom, z0 = scaled_normal(quad_pair, 1e300)
        monkeypatch.setattr(tracker, "MAX_STEPS", 50)
        with np.errstate(over="ignore"):
            result = track_linear(hom, z0)
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0

    def test_zero_derivative(self, quad_pair, monkeypatch):
        # phi = 0 gives t = inf, which must neither raise nor jump to T
        hom, z0 = scaled_normal(quad_pair, 0.0)
        monkeypatch.setattr(tracker, "MAX_STEPS", 50)
        result = track_linear(hom, z0)
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0


class TestForcedStops:
    """The SingularLinearSolve stops of both trackers and the heuristic's
    MaxSteps stop, forced on a (2, 2) path."""

    @pytest.fixture
    def path(self, quad_pair):
        start, f, hom = quad_pair
        return hom, start.roots[0]

    @staticmethod
    def singular_on_call(monkeypatch, n: int) -> None:
        # linalg.lu_factor_checked, raising on its n-th call.
        factor, calls = linalg.lu_factor_checked, []

        def forced(A):
            calls.append(1)
            if len(calls) == n:
                raise SingularLinearSolveError("forced zero pivot")
            return factor(A)

        monkeypatch.setattr(linalg, "lu_factor_checked", forced)

    def test_certified_singular_solve(self, path, monkeypatch):
        # A step factors twice, for chi and for the Newton step: the 7th
        # factorization is step 4's first, so 3 steps stand.
        hom, z0 = path
        unforced = track_linear(hom, z0)
        self.singular_on_call(monkeypatch, 7)
        result = track_linear(hom, z0)
        assert result.status is TrackStatus.SINGULAR
        assert result.num_steps == 3
        assert len(result.trace) == 3
        assert result.endpoint.tobytes() == unforced.trace.z[2].tobytes()

    def test_heuristic_singular_solve(self, path, monkeypatch):
        # The first attempt factors 4 times to predict and twice to correct;
        # the 7th factorization is the second attempt's first.
        hom, z0 = path
        self.singular_on_call(monkeypatch, 7)
        result = track_heuristic(hom, z0)
        assert result.status is TrackStatus.SINGULAR
        assert result.num_steps == 1
        assert len(result.trace) == 1

    def test_heuristic_max_steps(self, path, monkeypatch):
        hom, z0 = path
        monkeypatch.setattr(heuristic, "MAX_ATTEMPTS", 3)
        result = track_heuristic(hom, z0)
        assert result.status is TrackStatus.MAX_STEPS
        assert result.num_steps == 3
        assert len(result.trace) == 3


class TestEvaluationWork:
    """What each step evaluates: one point matrix per certified step, four
    per RK4 prediction, one per corrector Newton step, and the homotopy's
    (g, p) placed once per path."""

    @pytest.fixture
    def work(self, monkeypatch):
        # Point matrices built, and the coefficient rows of every placement.
        log = {"point_matrix": 0, "place": []}
        point_matrix, place = polysys.Evaluator.point_matrix, polysys.Evaluator.place

        def counted_point_matrix(ev, z):
            log["point_matrix"] += 1
            return point_matrix(ev, z)

        def counted_place(ev, R):
            log["place"].append(np.array(R))
            return place(ev, R)

        monkeypatch.setattr(polysys.Evaluator, "point_matrix", counted_point_matrix)
        monkeypatch.setattr(polysys.Evaluator, "place", counted_place)
        return log

    @staticmethod
    def _homotopy(degrees, seed):
        start, _, hom = seeded_path(degrees, seed)
        return hom, start.roots[0]

    @pytest.mark.parametrize("degrees", [(2, 2), (1, 2, 3)])
    def test_certified_step_builds_one_point_matrix(self, work, degrees):
        hom, z0 = self._homotopy(degrees, 40)
        result = track_linear(hom, z0)
        assert result.success and result.num_steps > 0
        assert work["point_matrix"] == result.num_steps
        assert len(work["place"]) == 1
        assert np.array_equal(work["place"][0], np.stack([hom.g._vec, hom._pvec]))

    @pytest.mark.parametrize("degrees", [(2, 2), (1, 2, 3)])
    def test_rk4_path_places_once_and_predicts_from_four(self, work, monkeypatch, degrees):
        hom, z0 = self._homotopy(degrees, 41)
        built = []  # point matrices built by each predict call
        newton_calls = [0]
        predict, newton_projective = heuristic.predict, newton.newton_projective

        def counted_predict(*args):
            before = work["point_matrix"]
            out = predict(*args)
            built.append(work["point_matrix"] - before)
            return out

        def counted_newton(h, z):
            newton_calls[0] += 1
            return newton_projective(h, z)

        monkeypatch.setattr(heuristic, "predict", counted_predict)
        monkeypatch.setattr(newton, "newton_projective", counted_newton)
        result = track_heuristic(hom, z0)
        assert result.success
        assert len(built) == len(result.trace) and set(built) == {4}
        # Every placement is a pair: (g, p) once, then (h, 0) once per Newton
        # step, whose jacobian and evaluate share it and one point matrix.
        assert [R.shape[0] for R in work["place"]] == [2] * (1 + newton_calls[0])
        assert np.array_equal(work["place"][0], np.stack([hom.g._vec, hom._pvec]))
        assert all(not R[1].any() for R in work["place"][1:])
        assert work["point_matrix"] == sum(built) + newton_calls[0]


class TestStepBuffers:
    """The step's kernels and the aliasing of its work array."""

    def test_kernels_are_looked_up_per_call(self, quad_pair, monkeypatch):
        # Wrappers installed on linalg and numpy.linalg before the call, as the
        # benchmark's tracer installs them, see every kernel call of the step:
        # two bordered solves, each one factorization and one solve, and one
        # spectral norm, one SVD.
        start, f, hom = quad_pair
        calls = {"lu_factor_checked": 0, "lu_solve": 0, "svd": 0, "bordered_solve": 0, "spectral_norm": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(linalg, "lu_factor_checked")
        counted(linalg, "lu_solve")
        counted(np.linalg, "svd")
        counted(linalg, "bordered_solve")
        counted(linalg, "spectral_norm")
        result = track_linear(hom, start.roots[0])
        assert result.success and result.num_steps > 0
        n = result.num_steps
        assert calls == {"lu_factor_checked": 2 * n, "lu_solve": 2 * n, "svd": n,
                         "bordered_solve": 2 * n, "spectral_norm": n}

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3)], ids=str)
    def test_bordered_is_a_view_of_the_rotation(self, degrees):
        # The factorization reads the rotation's output in place: after chi,
        # the rows of bordered are the Jacobian rows of h_s from a fresh
        # product rotated as [h_s; hdot_s], and its strided view factors as
        # a contiguous copy.
        start, f, hom = seeded_path(degrees, 50)
        buf = tracker._StepBuffers(hom)
        n = len(degrees)
        assert np.shares_memory(buf.bordered, buf.rot_real)
        assert np.shares_memory(buf.newton_rhs, buf.rot_real)
        for z, s in zip(start.roots[:3], [0.0, 0.4, hom.T]):
            buf.chi(s, z)
            c, sn = math.cos(s), math.sin(s)
            product = np.dot(buf.basis, buf.ev.point_matrix(z))
            rotated = np.dot(np.array([[c, sn], [-sn, c]]), product.view(np.float64).reshape(2, -1))
            h_block = rotated[0].view(np.complex128).reshape(n, n + 2)
            assert buf.bordered[:n].tobytes() == h_block[:, : n + 1].tobytes()
            assert buf.bordered[n].tobytes() == np.conj(z).tobytes()
            assert buf.newton_rhs.tobytes() == np.append(h_block[:, n + 1], 0.0).tobytes()
            lu, piv = linalg.lu_factor_checked(buf.bordered)
            lu_ref, piv_ref = linalg.lu_factor_checked(np.ascontiguousarray(buf.bordered))
            assert lu.tobytes() == lu_ref.tobytes() and np.array_equal(piv, piv_ref)

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3)], ids=str)
    def test_velocity_is_the_bordered_tangent_system(self, degrees):
        # velocity places a point of any norm: its bordered row is z*/|z|
        # and its system is (Dh_s(z); z*/|z|) over (-hdot_s(z); 0), as the
        # reference builds them.
        start, f, hom = seeded_path(degrees, 51)
        buf = tracker._StepBuffers(hom)
        n = len(degrees)
        for z, s, scale in zip(start.roots[:3], [0.0, 0.4, hom.T], [2.5, 0.3, 7.0]):
            z = scale * np.exp(0.7j) * np.asarray(z)
            bordered, rhs = buf.velocity(s, z)
            assert bordered[n].tobytes() == (np.conj(z) / np.linalg.norm(z)).tobytes()
            h, hdot = reference.homotopy(hom, s)
            want, want_rhs = reference.bordered(h, z)[0], reference.bordered(hdot, z)[1]
            np.testing.assert_allclose(bordered, np.array(want.tolist(), dtype=complex), rtol=1e-13)
            np.testing.assert_allclose(rhs, -np.array(list(want_rhs), dtype=complex), rtol=1e-13)

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3)], ids=str)
    def test_newton_is_the_projective_step_into_two_points(self, degrees):
        # After chi(s, z), newton(s_next, z) is the projective Newton step
        # against h_{s_next}, written into two path-owned points in turn,
        # neither of them z's memory.
        start, f, hom = seeded_path(degrees, 52)
        buf = tracker._StepBuffers(hom)
        z = unit_point(start.roots[0])
        s, outs = 0.0, []
        for _ in range(4):
            x1, x2 = buf.chi(s, z)
            s_next = s + buf.step_length(x1 * x2)
            want = reference.newton(reference.homotopy(hom, s_next)[0], z)
            w = buf.newton(s_next, z)
            np.testing.assert_allclose(w, np.array(want, dtype=complex), rtol=1e-13)
            assert not np.shares_memory(w, z)
            outs.append(w)
            z, s = w, s_next
        assert outs[0] is outs[2] and outs[1] is outs[3] and outs[0] is not outs[1]


class TestTraceCsv:
    def test_columns_and_rows(self, quad_pair, tmp_path):
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0])
        out = tmp_path / "trace.csv"
        write_trace_csv(result, out)
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["step", "s", "t", "phi", "chi1", "chi2", "accepted"]
        assert len(lines) == 1 + result.num_steps

    def test_reproducible_bytes(self, quad_pair, tmp_path):
        start, f, hom = quad_pair
        result = track_linear(hom, start.roots[0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(result, p1)
        write_trace_csv(track_linear(hom, start.roots[0]), p2)
        assert p1.read_bytes() == p2.read_bytes()
