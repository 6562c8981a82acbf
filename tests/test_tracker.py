import dataclasses
import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from certitrack import heuristic, linalg, newton, polysys, tracker
from certitrack.bw import bw_inner_re, bw_norm, normalize_to_sphere, riemann_distance
from certitrack.cli import write_trace_csv
from certitrack.experiments import katsura_system
from certitrack.heuristic import track_heuristic
from certitrack.linalg import SingularLinearSolveError, bordered_solve, make_bordered
from certitrack.newton import U0, condition_mu, refine
from certitrack.polysys import (
    Evaluator,
    PolySystem,
    _power_table,
    homogeneous_exponents,
    homogenize,
    unit_point,
)
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
    certified_step,
    chi1,
    chi2,
    condition_length,
    make_linear_homotopy,
    theorem_step_bound,
    track_linear,
    track_path,
)
from openblas_core import pinned


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


def pinned_target():
    # The (2,2,2) target of default_rng(2024) and its total-degree start.
    rng = np.random.default_rng(2024)
    f = random_system_on_sphere((2, 2, 2), rng)
    return f, total_degree_start((2, 2, 2), rng)


def pinned_trace_digest() -> str:
    f, start = pinned_target()
    hom = make_linear_homotopy(start.g, f)
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
    f, start = pinned_target()
    hom = make_linear_homotopy(start.g, f)
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
    # Status and steps of the 8 paths of the pinned target, certified then
    # heuristic.
    f, start = pinned_target()
    hom = make_linear_homotopy(start.g, f)
    results = [track(hom, z) for track in (track_linear, track_heuristic) for z in start.roots]
    return " ".join(f"{r.status.value}:{r.num_steps}" for r in results)


def run_child(code: str, **env: str) -> str:
    # Standard output of `code`, run in a fresh process that can import this
    # file and starts with the environment variables `env` set.
    src = Path(__import__("certitrack").__file__).resolve().parents[1]
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).parent)])
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.fixture(scope="module")
def quad_pair():
    rng = np.random.default_rng(20)
    f = random_system_on_sphere((2, 2), rng)
    start = total_degree_start((2, 2), rng)
    return start, f


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
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        assert bw_norm(hom.value_at(hom.T / 2)) == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_hits_target(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
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
        start, f = quad_pair
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
    def test_at_zero_is_normal_component(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        r = bw_inner_re(f.degrees, f._vec, start.g._vec)
        normal = (f - r * start.g) * (1.0 / math.sqrt(1.0 - r * r))
        np.testing.assert_allclose(hom._pvec, normal.coeff_vector(), atol=1e-12)
        tan = hom.derivative_at(0.0)
        for a, b in zip(tan.coeffs, normal.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.9])
    def test_unit_speed(self, quad_pair, frac):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        assert bw_norm(hom.derivative_at(frac * hom.T)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.95])
    def test_orthogonal_to_point(self, quad_pair, frac):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        s = frac * hom.T
        ip = bw_inner_re(f.degrees, hom.value_at(s)._vec, hom.derivative_at(s)._vec)
        assert abs(ip) <= 1e-10


class TestChiFactors:
    def test_chi1_good_system_permuted_identity(self):
        # raw conjectured system at e0: bordered inverse times the diagonal is
        # a permutation matrix, so the norm is exactly 1
        from certitrack.start_systems import good_system_raw

        g = good_system_raw((2, 2, 2))
        e0 = unit_point([1.0, 0.0, 0.0, 0.0])
        assert chi1(g, e0) == pytest.approx(1.0, rel=1e-12)

    def test_chi1_positive(self, quad_pair):
        start, _ = quad_pair
        assert chi1(start.g, start.roots[0]) > 0.0

    def test_chi1_singular(self):
        h = PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]])
        with pytest.raises(SingularLinearSolveError):
            chi1(h, unit_point([1.0, 0.0]))

    def test_chi2_zero_tangent(self, quad_pair):
        start, _ = quad_pair
        zero = 0.0 * start.g
        assert chi2(start.g, zero, start.roots[0]) == 0.0

    def test_chi2_tangent_vanishing_at_point(self):
        # unit-norm direction vanishing at e0 contributes only its norm
        pair = good_initial_pair((2, 2))
        gdot = normalize_to_sphere(
            PolySystem.from_terms((2, 2), [[((0, 2, 0), 1.0)], [((0, 0, 2), 1.0)]])
        )
        assert chi2(pair.g, gdot, pair.zeta0) == pytest.approx(1.0, rel=1e-12)

    def test_chi2_at_least_speed(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        gdot = hom.derivative_at(0.0)
        assert chi2(start.g, gdot, start.roots[0]) >= bw_norm(gdot)


class TestCertifiedStep:
    def test_formula_value(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        gdot = hom.derivative_at(0.0)
        z = start.roots[0]
        t, phi = certified_step(start.g, gdot, z)
        assert phi == pytest.approx(chi1(start.g, z) * chi2(start.g, gdot, z), rel=1e-12)
        assert t == pytest.approx(C_OVER_P_LINEAR / (2.0**1.5 * phi), rel=1e-12)

    def test_plugged_constants(self):
        # phi = 1, d = 2 gives t = 0.04804448 / 2^{3/2}
        assert C_OVER_P_LINEAR / 2.0**1.5 == pytest.approx(0.016988, abs=1e-5)

    def test_interval_containment(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        gdot = hom.derivative_at(0.0)
        t, phi = certified_step(start.g, gdot, start.roots[0])
        lo = C_OVER_P_LINEAR / (2.0 * 2.0**1.5 * phi)
        hi = C_OVER_P_LINEAR / (2.0**1.5 * phi)
        assert lo - 1e-15 <= t <= hi + 1e-15

    @pytest.mark.parametrize("degrees", [(2, 2), (1, 2, 2)])
    def test_is_the_loops_first_step(self, degrees):
        # One step rule: the public functions return bitwise what the
        # tracking loop records for its first step.
        rng = np.random.default_rng(21)
        f = random_system_on_sphere(degrees, rng)
        start = total_degree_start(degrees, rng)
        hom = make_linear_homotopy(start.g, f)
        first = track_linear(hom, start.roots[0]).trace[0]
        z0 = start.roots[0] / np.linalg.norm(start.roots[0])
        h0, hdot0 = hom.value_at(0.0), hom.derivative_at(0.0)
        assert certified_step(h0, hdot0, z0) == (first.t, first.phi)
        assert (chi1(h0, z0), chi2(h0, hdot0, z0)) == (first.chi1, first.chi2)

    @pytest.mark.parametrize("degrees", [(1, 2, 2), (2, 2, 2)])
    def test_matches_the_loop_mid_path(self, degrees):
        # Record k+1 holds the step taken from (h_{s_k}, z_k).  The loop
        # combines the blocks of g and p where certified_step builds h_s and
        # hdot_s first, so the two agree to rounding, not bitwise.
        rng = np.random.default_rng(22)
        f = random_system_on_sphere(degrees, rng)
        start = total_degree_start(degrees, rng)
        hom = make_linear_homotopy(start.g, f)
        trace = track_linear(hom, start.roots[1]).trace
        assert len(trace) > 50
        # the last step is clipped to the end of the arc, so it is left out
        for k in np.linspace(5, len(trace) - 3, 6).astype(int):
            rec, nxt = trace[k], trace[k + 1]
            h, hdot = hom.value_at(rec.s), hom.derivative_at(rec.s)
            t, phi = certified_step(h, hdot, rec.z)
            got = [chi1(h, rec.z), chi2(h, hdot, rec.z), t, phi]
            np.testing.assert_allclose(got, [nxt.chi1, nxt.chi2, nxt.t, nxt.phi], rtol=1e-12)

    def test_vanishing_tangent_gives_infinite_step(self, quad_pair):
        # phi = 0: the loop's rule, t = inf, which ends a path MinStepReached
        start, _ = quad_pair
        assert certified_step(start.g, 0.0 * start.g, start.roots[0]) == (math.inf, 0.0)

    def test_point_of_wrong_length_rejected(self, quad_pair):
        start, f = quad_pair
        gdot = make_linear_homotopy(start.g, f).derivative_at(0.0)
        z = start.roots[0]
        for bad in (z[:1], np.append(z, 1.0)):
            with pytest.raises(ValueError):
                certified_step(start.g, gdot, bad)
            with pytest.raises(ValueError):
                chi1(start.g, bad)

    def test_tangent_degrees_must_match(self):
        # (1, 2) and (2, 1) in three variables both have 3 + 6 coefficients.
        rng = np.random.default_rng(5)
        g = random_system_on_sphere((1, 2), rng)
        gdot = random_system_on_sphere((2, 1), rng)
        z = unit_point([1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            chi2(g, gdot, z)
        with pytest.raises(ValueError):
            certified_step(g, gdot, z)


class TestTrackLinear:
    def test_same_system_returns_immediately(self, quad_pair):
        start, _ = quad_pair
        result = track_path(start.g, start.g, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        assert result.num_steps == 0
        assert riemann_distance(result.endpoint, start.roots[0]) <= 1e-12

    def test_equal_target_off_the_sphere_returns_immediately(self, quad_pair):
        # f == g takes no homotopy, so neither needs unit norm; a NaN
        # coefficient compares unequal and meets the sphere check.
        start, _ = quad_pair
        g = 2.0 * start.g
        assert track_path(g, g, start.roots[0]).num_steps == 0
        nan = PolySystem._adopt(g.degrees, np.full_like(g._vec, np.nan))
        with pytest.raises(ValueError, match="unit sphere"):
            track_path(nan, nan, start.roots[0])

    def test_first_record_reads_the_homotopys_speed(self, quad_pair, monkeypatch):
        # chi2 of step 1 is sqrt(||hdot_0||^2 + ||solve||^2), ||hdot_0||^2 read
        # from the homotopy at (cos 0, sin 0): adding 1 to what it reports
        # adds 1 to chi2^2.
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
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
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        zeta = refine(f, result.endpoint)
        assert riemann_distance(result.endpoint, zeta) <= U0 / (
            2.0 * 2.0**1.5 * condition_mu(f, zeta)
        )

    def test_trace_bookkeeping(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[1])
        trace = result.trace
        assert len(trace) == result.num_steps
        assert trace[-1].s == hom.T  # exact assignment on the clipped step
        assert trace[0].s == trace[0].t
        for a, b in zip(trace, trace[1:]):
            assert b.s == a.s + b.t  # exact accumulation
            assert b.s > a.s

    def test_step_interval_on_every_step(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        d32 = 2.0**1.5
        result = track_linear(hom, start.roots[2])
        for rec in result.trace[:-1]:
            lo = C_OVER_P_LINEAR / (2.0 * d32 * rec.phi)
            hi = C_OVER_P_LINEAR / (d32 * rec.phi)
            assert lo * (1 - 1e-12) <= rec.t <= hi * (1 + 1e-12)

    def test_determinism(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        r1 = track_linear(hom, start.roots[3])
        r2 = track_linear(hom, start.roots[3])
        assert r1.num_steps == r2.num_steps
        assert np.array_equal(r1.endpoint, r2.endpoint)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.s, a.t, a.phi, a.chi1, a.chi2) == (b.s, b.t, b.phi, b.chi1, b.chi2)
            assert np.array_equal(a.z, b.z)

    def test_max_steps(self, quad_pair, monkeypatch):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
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
        rng = np.random.default_rng(2024)
        f = random_system_on_sphere((2, 2, 2), rng)
        start = total_degree_start((2, 2, 2), rng)
        hom = make_linear_homotopy(start.g, f)
        opts = TrackerOptions(record_trace=False)
        results = [track_linear(hom, z, opts) for z in start.roots]
        assert [(r.status.value, r.num_steps) for r in results] == [
            ("Success", 921), ("Success", 1608), ("Success", 608), ("Success", 553),
            ("Success", 483), ("Success", 355), ("Success", 741), ("Success", 517),
        ]

    def test_pinned_step_counts_with_one_blas_thread(self):
        # The BLAS thread count may change result bits (a one-column zgetrs
        # does under OpenBLAS), but it must not change a step count.
        src = Path(__import__("certitrack").__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).parent)])
        code = "from test_tracker import TestTrackLinear; TestTrackLinear().test_pinned_step_counts()"
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert child.returncode == 0, child.stderr

    def test_trace_bits_unchanged_with_one_blas_thread(self):
        # Writing into per-path buffers runs the same BLAS calls on the same
        # operands, so every record of the pinned target keeps its bits.
        code = "from test_tracker import pinned_trace_digest; print(pinned_trace_digest())"
        assert run_child(code, OPENBLAS_NUM_THREADS="1").strip() == pinned(PINNED_TRACE_SHA256)

    def test_bits_do_not_depend_on_blas_threads(self):
        # The trackers, refine and condition_mu run on one BLAS thread
        # whatever the process started with, so their results are the same
        # bits under both.
        code = "from test_tracker import thread_sensitive_bits; print(thread_sensitive_bits())"
        assert run_child(code, OPENBLAS_NUM_THREADS="1") == run_child(code, OPENBLAS_NUM_THREADS="2")

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    )
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_step_counts_do_not_depend_on_the_blas_kernel(self, coretype):
        # Other kernels give other last bits (so no digest is compared here),
        # but every path of the pinned target keeps its status and steps.
        code = "from test_tracker import pinned_step_counts; print(pinned_step_counts())"
        certified_steps = [921, 1608, 608, 553, 483, 355, 741, 517]
        heuristic_steps = [13, 14, 10, 10, 10, 10, 13, 10]
        want = " ".join(f"Success:{n}" for n in certified_steps + heuristic_steps)
        assert run_child(code, OPENBLAS_CORETYPE=coretype).strip() == want

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
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0])
        stride = max(1, len(result.trace) // 12)
        for rec in result.trace[::stride]:
            h_s = hom.value_at(rec.s)
            zeta = refine(h_s, rec.z)
            mu = condition_mu(h_s, zeta)
            assert riemann_distance(rec.z, zeta) <= U0 / (2.0 * 2.0**1.5 * mu)

    def test_piecewise_split_step_bound(self, quad_pair):
        # splitting the arc in two adds at most the number of segments to the
        # step bound of the whole path
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        mid = normalize_to_sphere(hom.value_at(hom.T / 2.0))
        first = make_linear_homotopy(start.g, mid)
        res1 = track_linear(first, start.roots[0])
        assert res1.status is TrackStatus.SUCCESS
        second = make_linear_homotopy(mid, f)
        res2 = track_linear(second, res1.endpoint)
        assert res2.status is TrackStatus.SUCCESS
        c0_total = condition_length(hom, start.roots[0])
        bound = 2 + math.ceil(71.0 * 2.0**1.5 * c0_total)
        assert res1.num_steps + res2.num_steps <= bound
        # and both halves land on the same root as the unsplit path
        direct = track_linear(hom, start.roots[0])
        assert riemann_distance(
            refine(f, res2.endpoint), refine(f, direct.endpoint)
        ) <= 1e-8


class TestTraceArray:
    """A path's trace is one read-only record array, row k for step k + 1."""

    @pytest.mark.parametrize("track", [track_linear, track_heuristic], ids=["certified", "heuristic"])
    def test_recording_leaves_the_path_unchanged(self, track):
        f, start = pinned_target()
        hom = make_linear_homotopy(start.g, f)
        for z0 in start.roots:
            traced = track(hom, z0, TrackerOptions(record_trace=True))
            bare = track(hom, z0, TrackerOptions(record_trace=False))
            assert (traced.status, traced.num_steps) == (bare.status, bare.num_steps)
            assert traced.endpoint.tobytes() == bare.endpoint.tobytes()
            assert len(traced.trace) > 0
            assert len(bare.trace) == 0 and bare.trace.dtype == traced.trace.dtype

    def test_certified_columns(self, quad_pair):
        start, f = quad_pair
        result = track_linear(make_linear_homotopy(start.g, f), start.roots[0])
        trace = result.trace
        assert trace.dtype.names == ("s", "t", "phi", "chi1", "chi2", "z")
        assert len(trace) == result.num_steps
        assert trace.z.shape == (result.num_steps, 3)
        assert np.array_equal(trace.phi, trace.chi1 * trace.chi2)
        assert trace[-1].z.tobytes() == result.endpoint.tobytes()

    def test_read_only(self, quad_pair):
        start, f = quad_pair
        trace = track_linear(make_linear_homotopy(start.g, f), start.roots[0]).trace
        assert not trace.flags.writeable
        with pytest.raises(ValueError):
            trace.s[0] = 0.0
        with pytest.raises(ValueError):
            trace[0].z[0] = 0.0

    def test_zero_length_homotopy_has_no_rows(self, quad_pair):
        start, f = quad_pair
        result = track_path(f, f, start.roots[0])
        assert (result.status, result.num_steps) == (TrackStatus.SUCCESS, 0)
        assert len(result.trace) == 0
        assert result.trace.dtype == track_linear(make_linear_homotopy(start.g, f), start.roots[0]).trace.dtype


def named_path(name: str):
    # The homotopy and start root of "pinned-i", path i of the pinned target,
    # or "katsura4-i", path i from the total-degree start of default_rng(1)
    # to Katsura-4 (paths 4 and 6 take 3,000-4,500 certified steps).
    target, i = name.split("-")
    if target == "pinned":
        f, start = pinned_target()
    else:
        f = prepare_target(katsura_system(4))
        start = total_degree_start(f.degrees, np.random.default_rng(1))
    return make_linear_homotopy(start.g, f), start.roots[int(i)]


@linalg.one_blas_thread
def midpoint_rule(hom, z0) -> float:
    # The midpoint rule M on phi over the certified steps of the path through
    # z0, each midpoint's zero refined from the step's starting point, under
    # one BLAS thread as condition_length runs.  With the trapezoid C on the
    # steps' ends, (C + M) / 2 is the trapezoid with every midpoint a node.
    result = track_linear(hom, z0)
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
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        c = condition_length(hom, start.roots[0])
        assert c == pytest.approx(11.911525504322785, rel=1e-12)

    @pytest.mark.parametrize("path", ["pinned-0", "katsura4-4"])
    def test_close_to_the_midpoint_refined_reference(self, path):
        # Adding every step's midpoint as a node moves C by at most 2e-5
        # relative; a uniform grid of 2,000 nodes reads Katsura-4 path 4
        # 5.7% low, as it misses the narrow peaks of phi.
        hom, z0 = named_path(path)
        c = condition_length(hom, z0)
        assert c == pytest.approx((c + midpoint_rule(hom, z0)) / 2.0, rel=2e-5)

    def test_failed_path_has_no_condition_length(self, quad_pair, monkeypatch):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        monkeypatch.setattr(tracker, "MAX_STEPS", 5)
        for oracle in (condition_length, theorem_step_bound):
            with pytest.raises(ValueError, match="MaxSteps"):
                oracle(hom, start.roots[0])

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3), (1, 2, 2, 2, 2)], ids=str)
    def test_integrand_is_mu_times_lifted_speed(self, degrees):
        # At refined zeros along a tracked path the loop's chi1 is mu and its
        # chi2 is ||(hdot, zetadot)||, with zetadot from a bordered solve on
        # the tangent system: the integrand condition_length sums.
        rng = np.random.default_rng(23)
        f = random_system_on_sphere(degrees, rng)
        start = total_degree_start(degrees, rng)
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0])
        assert result.success
        buf = tracker._StepBuffers(hom)
        for k in np.linspace(0, len(result.trace) - 1, 8).astype(int):
            rec = result.trace[k]
            h, hdot = hom.value_at(rec.s), hom.derivative_at(rec.s)
            zeta = refine(h, rec.z)
            B = make_bordered(polysys.jacobian(h, zeta), zeta)
            zetadot = bordered_solve(B, np.concatenate([-polysys.evaluate(hdot, zeta), [0.0]]))
            speed = math.sqrt(bw_norm(hdot) ** 2 + np.linalg.norm(zetadot) ** 2)
            x1, x2 = buf.chi(rec.s, zeta)
            assert x1 == pytest.approx(condition_mu(h, zeta), rel=1e-12)
            assert x2 == pytest.approx(speed, rel=1e-12)

    def test_short_arc_small_length(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        # truncated reparametrized arc: from g to a nearby point on the circle
        near = normalize_to_sphere(hom.value_at(0.01))
        short = make_linear_homotopy(start.g, near)
        c_short = condition_length(short, start.roots[0])
        full = condition_length(hom, start.roots[0])
        assert c_short < 0.05 * full

    def test_step_bound_holds(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        for root in start.roots[:2]:
            result = track_linear(hom, root)
            assert result.status is TrackStatus.SUCCESS
            assert result.num_steps <= theorem_step_bound(hom, root)

    @pytest.mark.parametrize("path", ["pinned-0", "pinned-1", "katsura4-4", "katsura4-6"])
    def test_steps_over_bound_is_a_constant(self, path):
        """num_steps / theorem_step_bound sits within 1% of
        1 / (71 C_OVER_P_LINEAR) = 0.29316: the loop takes exact norms and the
        upper end of the certified interval, so t_i phi_i = c/P / d^{3/2} on
        every step but the clipped last one, and the steps are a Riemann sum
        of C.  A chi1 estimated within the rule's factor 2 (ROADMAP item 5,
        stage b) would move the ratio off this constant."""
        hom, z0 = named_path(path)
        ratio = track_linear(hom, z0).num_steps / theorem_step_bound(hom, z0)
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
        # every step of a (1, 1) path, certified_step's included, stays at or
        # below c/P at H = 1
        rng = np.random.default_rng(11)
        f = random_system_on_sphere((1, 1), rng)
        start = total_degree_start((1, 1), rng)
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        assert result.num_steps > 10
        bound = c_over_p(1.0)
        assert all(rec.t <= bound / rec.phi for rec in result.trace)
        t, phi = certified_step(hom.value_at(0.0), hom.derivative_at(0.0), start.roots[0])
        assert t <= bound / phi


class TestNonFiniteStep:
    """A step length that cannot move s ends the path with a status."""

    @staticmethod
    def _scaled(quad_pair, factor):
        # The homotopy with its normal direction p scaled: 0 stands still
        # (phi = 0), 1e300 overflows (phi = inf).
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        return dataclasses.replace(hom, _pvec=factor * hom._pvec), start.roots[0]

    def test_overflowing_derivative(self, quad_pair, monkeypatch):
        # phi = inf gives t = 0, which must not loop until MAX_STEPS
        hom, z0 = self._scaled(quad_pair, 1e300)
        monkeypatch.setattr(tracker, "MAX_STEPS", 50)
        with np.errstate(over="ignore"):
            result = track_linear(hom, z0)
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0

    def test_zero_derivative(self, quad_pair, monkeypatch):
        # phi = 0 gives t = inf, which must neither raise nor jump to T
        hom, z0 = self._scaled(quad_pair, 0.0)
        monkeypatch.setattr(tracker, "MAX_STEPS", 50)
        result = track_linear(hom, z0)
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0


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
        rng = np.random.default_rng(seed)
        f = random_system_on_sphere(degrees, rng)
        start = total_degree_start(degrees, rng)
        return make_linear_homotopy(start.g, f), start.roots[0]

    @pytest.mark.parametrize("degrees", [(2, 2), (1, 2, 3)])
    def test_certified_step_builds_one_point_matrix(self, work, degrees):
        hom, z0 = self._homotopy(degrees, 40)
        result = track_linear(hom, z0)
        assert result.success and result.num_steps > 0
        assert work["point_matrix"] == result.num_steps
        assert len(work["place"]) == 1
        assert np.array_equal(work["place"][0], np.stack([hom._gvec, hom._pvec]))
        work["point_matrix"] = 0
        certified_step(hom.g, hom.derivative_at(0.0), z0)
        assert work["point_matrix"] == 1

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
        assert np.array_equal(work["place"][0], np.stack([hom._gvec, hom._pvec]))
        assert all(not R[1].any() for R in work["place"][1:])
        assert work["point_matrix"] == sum(built) + newton_calls[0]


class TestStepEngineTables:
    """The point matrix against a plain per-variable product loop."""

    @staticmethod
    def _reference(degree, P):
        # [gradient | value] of every degree-d monomial: a left fold over the
        # variables that multiplies arrays, as the point matrix's product does
        # (NumPy's array and scalar complex products may round differently).
        n_vars = P.shape[0]
        exps = homogeneous_exponents(n_vars, degree)
        out = np.zeros((exps.shape[0], n_vars + 1), dtype=np.complex128)

        def product(e):
            value = P[0, e[:, 0]]
            for j in range(1, n_vars):
                value = value * P[j, e[:, j]]
            return value

        out[:, n_vars] = product(exps)
        for j in range(n_vars):
            sel = exps[:, j] > 0
            de = exps[sel].copy()
            de[:, j] -= 1
            out[sel, j] = exps[sel, j].astype(np.float64) * product(de)
        return out

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 3, 2)])
    def test_bitwise_equal_to_loop(self, degrees):
        eng = Evaluator(degrees)
        rng = np.random.default_rng(len(degrees))
        for _ in range(3):
            z = unit_point(rng.standard_normal(eng.n_vars) + 1j * rng.standard_normal(eng.n_vars))
            P = _power_table(z, eng.max_d, np.ones((eng.max_d + 1, eng.n_vars), dtype=np.complex128))
            # one row block per distinct degree, ascending
            ref = np.concatenate([self._reference(d, P) for d in sorted(set(degrees))])
            assert eng.point_matrix(z).tobytes() == ref.tobytes()


class TestTraceCsv:
    def test_columns_and_rows(self, quad_pair, tmp_path):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0])
        out = tmp_path / "trace.csv"
        write_trace_csv(result, out)
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["step", "s", "t", "phi", "chi1", "chi2", "accepted"]
        assert len(lines) == 1 + result.num_steps

    def test_reproducible_bytes(self, quad_pair, tmp_path):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(result, p1)
        write_trace_csv(track_linear(hom, start.roots[0]), p2)
        assert p1.read_bytes() == p2.read_bytes()
