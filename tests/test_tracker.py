import math

import numpy as np
import pytest

from certitrack.bw import bw_inner, bw_norm, normalize_to_sphere, riemann_distance
from certitrack.experiments import katsura_system
from certitrack.linalg import SingularLinearSolveError
from certitrack.newton import condition_mu, refine
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
    random_system_on_sphere,
    total_degree_start,
)
from certitrack.tracker import (
    C_OVER_P_LINEAR,
    U0,
    CurveHomotopy,
    DegenerateHomotopyError,
    TrackStatus,
    TrackerOptions,
    certified_step,
    chi1,
    chi2,
    condition_length,
    general_step_constants,
    make_linear_homotopy,
    theorem_step_bound,
    track_general,
    track_linear,
    track_path,
    write_trace_csv,
)


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
        r = bw_inner(f, g).real
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


class TestTangent:
    def test_at_zero_is_normal_component(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        tan = hom.derivative_at(0.0)
        for a, b in zip(tan.coeffs, hom.fperp.coeffs):
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
        ip = bw_inner(hom.value_at(s), hom.derivative_at(s))
        assert abs(ip.real) <= 1e-10


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

    def test_half_fraction_halves(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        gdot = hom.derivative_at(0.0)
        t1, _ = certified_step(start.g, gdot, start.roots[0])
        t2, _ = certified_step(
            start.g, gdot, start.roots[0], TrackerOptions(step_fraction=0.5)
        )
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_interval_containment(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        gdot = hom.derivative_at(0.0)
        for frac in (0.5, 0.7, 1.0):
            t, phi = certified_step(
                start.g, gdot, start.roots[0], TrackerOptions(step_fraction=frac)
            )
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

    def test_step_fraction_validation(self):
        with pytest.raises(ValueError):
            TrackerOptions(step_fraction=0.3)


class TestTrackLinear:
    def test_same_system_returns_immediately(self, quad_pair):
        start, _ = quad_pair
        result = track_path(start.g, start.g, start.roots[0])
        assert result.status is TrackStatus.SUCCESS
        assert result.num_steps == 0
        assert riemann_distance(result.endpoint, start.roots[0]) <= 1e-12

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
        for frac in (0.5, 1.0):
            result = track_linear(hom, start.roots[2], TrackerOptions(step_fraction=frac))
            for rec in result.trace[:-1]:
                lo = C_OVER_P_LINEAR / (2.0 * d32 * rec.phi)
                hi = C_OVER_P_LINEAR / (d32 * rec.phi)
                assert lo * (1 - 1e-12) <= rec.t <= hi * (1 + 1e-12)

    def test_lower_fraction_means_more_steps(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        fast = track_linear(hom, start.roots[0], TrackerOptions(step_fraction=1.0))
        slow = track_linear(hom, start.roots[0], TrackerOptions(step_fraction=0.5))
        assert slow.num_steps > fast.num_steps
        assert slow.num_steps <= 2 * fast.num_steps + 2

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

    def test_max_steps(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0], TrackerOptions(max_steps=5))
        assert result.status is TrackStatus.MAX_STEPS
        assert result.num_steps == 5

    def test_min_step_status(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        result = track_linear(hom, start.roots[0], TrackerOptions(t_step_min=1.0))
        assert result.status is TrackStatus.MIN_STEP_REACHED

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


class TestConditionLength:
    def test_short_arc_small_length(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        # truncated reparametrized arc: from g to a nearby point on the circle
        near = normalize_to_sphere(hom.value_at(0.01))
        short = make_linear_homotopy(start.g, near)
        c_short = condition_length(short, start.roots[0], resolution=50)
        full = condition_length(hom, start.roots[0], resolution=400)
        assert c_short < 0.05 * full

    def test_resolution_convergence(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        c1 = condition_length(hom, start.roots[0], resolution=400)
        c2 = condition_length(hom, start.roots[0], resolution=800)
        assert abs(c2 - c1) <= 0.01 * abs(c2)

    def test_step_bound_holds(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        for root in start.roots[:2]:
            result = track_linear(hom, root)
            assert result.status is TrackStatus.SUCCESS
            assert result.num_steps <= theorem_step_bound(hom, root, resolution=800)


class TestTrackGeneral:
    def test_constants_zero_curvature(self):
        c, P = general_step_constants(0.0)
        assert P == pytest.approx(math.sqrt(2.0) + 2.0)
        a = math.sqrt(2.0) * U0 / 2.0
        want_c = ((1 - a) ** math.sqrt(2.0) / (1 + a)) * (
            1 - (1 - U0 / (math.sqrt(2.0) + 2 * U0)) ** (P / math.sqrt(2.0))
        )
        assert c == pytest.approx(want_c, rel=1e-12)
        assert 0.0 < c / P < 1.0

    def test_ratio_decreasing_in_curvature(self):
        values = [general_step_constants(H) for H in np.linspace(0.0, 10.0, 21)]
        ratios = [c / P for c, P in values]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_matches_linear_tracker_endpoint(self, quad_pair):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        # unit-speed great circle: ||hddot|| = ||hdot||^2 = 1, and d >= 1
        wrapped = CurveHomotopy(
            T=hom.T,
            value_at=hom.value_at,
            derivative_at=hom.derivative_at,
            curvature_bound=1.0,
        )
        res_gen = track_general(wrapped, start.roots[0])
        res_lin = track_linear(hom, start.roots[0])
        assert res_gen.status is TrackStatus.SUCCESS
        assert riemann_distance(res_gen.endpoint, res_lin.endpoint) <= 1e-6
        # smaller certified constant means at least as many steps
        assert res_gen.num_steps >= res_lin.num_steps

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
        c0_total = condition_length(hom, start.roots[0], resolution=800)
        bound = 2 + math.ceil(71.0 * 2.0**1.5 * c0_total)
        assert res1.num_steps + res2.num_steps <= bound
        # and both halves land on the same root as the unsplit path
        direct = track_linear(hom, start.roots[0])
        assert riemann_distance(
            refine(f, res2.endpoint), refine(f, direct.endpoint)
        ) <= 1e-8


class TestNonFiniteStep:
    """A step length that cannot move s ends the path with a status."""

    @staticmethod
    def _wrapped(quad_pair, derivative_at):
        start, f = quad_pair
        hom = make_linear_homotopy(start.g, f)
        curve = CurveHomotopy(
            T=hom.T,
            value_at=hom.value_at,
            derivative_at=lambda s: derivative_at(hom, s),
            curvature_bound=1.0,
        )
        return curve, start.roots[0]

    def test_nan_derivative(self, quad_pair):
        def nan_derivative(hom, s):
            vec = hom.derivative_at(s).coeff_vector()
            vec[0] = np.nan
            return PolySystem.from_coeff_vector(hom.g.degrees, vec)

        curve, z0 = self._wrapped(quad_pair, nan_derivative)
        result = track_general(curve, z0, TrackerOptions(max_steps=50))
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0

    def test_overflowing_derivative(self, quad_pair):
        # phi = inf gives t = 0, which must not loop until max_steps
        curve, z0 = self._wrapped(quad_pair, lambda hom, s: 1e300 * hom.derivative_at(s))
        with np.errstate(over="ignore"):
            result = track_general(curve, z0, TrackerOptions(max_steps=50))
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0

    def test_zero_derivative(self, quad_pair):
        # phi = 0 gives t = inf, which must neither raise nor jump to T
        curve, z0 = self._wrapped(quad_pair, lambda hom, s: 0.0 * hom.derivative_at(s))
        result = track_general(curve, z0, TrackerOptions(max_steps=50))
        assert result.status is TrackStatus.MIN_STEP_REACHED
        assert result.num_steps == 0


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
            P = _power_table(z, eng.max_d)
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
