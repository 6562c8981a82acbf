import ast
import hashlib

import numpy as np
import pytest

from certitrack import heuristic, tracker
from certitrack.bw import riemann_distance
from certitrack.heuristic import HeuristicOptions, correct, predict, track_heuristic
from certitrack.newton import refine
from certitrack.polysys import unit_point
from certitrack.tracker import TrackStatus, track_linear
from openblas_core import ONE_THREAD, child_lines, pinned
import reference
from sample_systems import seeded_path


@pytest.fixture(scope="module")
def quad_path():
    return seeded_path((2, 2), 30)


def _pinned_paths(degrees):
    # (status, accepted steps) of the untraced heuristic paths from the
    # total-degree start of one seeded target, and the SHA-256 over their
    # endpoints' bytes, path by path: it pins the heuristic's result bits,
    # which its step counts alone do not.
    start, f, hom = seeded_path(degrees, 2024)
    results = [track_heuristic(hom, z, HeuristicOptions(record_trace=False)) for z in start.roots]
    digest = hashlib.sha256(b"".join(r.endpoint.tobytes() for r in results)).hexdigest()
    return [(r.status.value, r.num_steps) for r in results], digest


# Per degree tuple of test_pinned_step_counts*, the accepted steps of each
# path of _pinned_paths, and its endpoint digest on each OpenBLAS core.
PINNED_STEPS = {(2, 2, 2): [13, 14, 10, 10, 10, 10, 13, 10], (1, 2, 3): [10, 11, 10, 10, 10, 10]}
ENDPOINT_PINS = {
    (2, 2, 2): {
        "SkylakeX": "4b7739336a5b0a60ef147f10a098713aa653109bc2551f06453c2dfae6f48ddd",
        "Haswell": "9d2051d8aec5b55953d41cef575377737845c70b79f91fd348d067d2ffeb50ed",
        "Sandybridge": "631eeaafc4e91a25f5e488e2c2b48884d721ad00669e3aa3ede07c92b193692e",
        "Katmai": "5cf7442c1f0c9f7301f39ae13a59cfca5f97fc9181b67ee8ee6a11c5ce3621ce",
    },
    (1, 2, 3): {
        "SkylakeX": "f50882a325744182e2e0112b56d877d0c1b39ae03efb2c0c861b01d4c13bb2bf",
        "Haswell": "74e16e7f884b4c04b09d36613a1d41c3cf1a9a75634eeea5917c94850edcb441",
        "Sandybridge": "6c9f70eae30345519275e60958994bfb6a3fe19306a9f46785c3de2746e4af6b",
        "Katmai": "8814c66f136d288077f5065c6b3a1703f008db111db5c258ee05b53600a0abb7",
    },
}


def assert_pinned(degrees, paths):
    # paths, _pinned_paths(degrees) read in this process or another, holds
    # the pinned steps and this core's endpoint digest.
    steps, digest = paths
    assert steps == [("Success", n) for n in PINNED_STEPS[degrees]]
    assert digest == pinned(ENDPOINT_PINS[degrees])


class TestPredict:
    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3)])
    def test_matches_the_stagewise_formula(self, degrees):
        # RK4 on the reference's velocity; mixed degrees exercise the
        # scatter of the placed (g, p)
        start, f, hom = seeded_path(degrees, 31)
        buf = tracker._StepBuffers(hom)
        for z in start.roots:
            for s, dt in [(0.0, 0.05), (0.3, 0.2), (hom.T - 0.1, 0.1)]:
                got = predict(buf, s, z, dt)
                want = np.array(reference.rk4(hom, s, z, dt), dtype=complex)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_a_second_call_leaves_the_first_result(self, quad_path):
        # The stages share one buffer of the path; each result is its own.
        start, f, hom = quad_path
        buf = tracker._StepBuffers(hom)
        first = predict(buf, 0.0, start.roots[0], 0.1)
        want = first.tobytes()
        second = predict(buf, 0.2, start.roots[1], 0.1)
        assert first.tobytes() == want
        assert not np.shares_memory(first, second)

    def test_rk4_local_order(self, quad_path):
        # halving the step shrinks the one-step error by about 2^5
        start, f, hom = quad_path
        z = start.roots[0]
        s0 = 0.0
        buf = tracker._StepBuffers(hom)

        def one_step_error(dt):
            predicted = predict(buf, s0, z, dt)
            truth = reference.newton(reference.homotopy(hom, s0 + dt)[0], predicted, steps=8)
            return riemann_distance(predicted, np.array(truth, dtype=complex))

        e1 = one_step_error(0.2)
        e2 = one_step_error(0.1)
        assert e1 / e2 == pytest.approx(32.0, rel=0.7)


class TestCorrect:
    def test_exact_zero_early_exit(self, quad_path):
        start, _, _ = quad_path
        z, err = correct(start.g, start.roots[0])
        assert err <= 1e-10

    def test_certified_start_converges(self, quad_path, monkeypatch):
        start, f, hom = quad_path
        z0 = start.roots[0]
        near = unit_point(np.asarray(z0) + 1e-3 * np.ones(3))
        monkeypatch.setattr(heuristic, "CORRECTOR_TOL", 1e-10)
        z, err = correct(start.g, near)
        assert err < 1e-10

    def test_far_point_reports_large_error(self, quad_path, monkeypatch):
        start, _, _ = quad_path
        far = unit_point([1.0, 0.3, -2.0])
        monkeypatch.setattr(heuristic, "CORRECTOR_ITERS", 1)
        monkeypatch.setattr(heuristic, "CORRECTOR_TOL", 1e-12)
        _, err = correct(start.g, far)
        assert err > 1e-6


class TestTrackHeuristic:
    def test_success_and_agreement_with_certified(self, quad_path):
        start, f, hom = quad_path
        for root in start.roots:
            res_h = track_heuristic(hom, root)
            assert res_h.status is TrackStatus.SUCCESS
            res_c = track_linear(hom, root)
            d = riemann_distance(refine(f, res_h.endpoint), refine(f, res_c.endpoint))
            assert d < 1e-6

    def test_step_count_regime(self, quad_path):
        # orders of magnitude fewer accepted steps than the certified tracker
        start, f, hom = quad_path
        heuristic_steps = []
        certified_steps = []
        for root in start.roots:
            heuristic_steps.append(track_heuristic(hom, root).num_steps)
            certified_steps.append(track_linear(hom, root).num_steps)
        assert 10 <= np.mean(heuristic_steps) <= 100
        assert np.mean(heuristic_steps) < np.mean(certified_steps)

    def test_counts_only_accepted(self, quad_path):
        start, f, hom = quad_path
        res = track_heuristic(hom, start.roots[0])
        accepted = sum(1 for rec in res.trace if rec.accepted)
        assert res.num_steps == accepted
        assert len(res.trace) >= accepted

    def test_min_step_failure(self, quad_path, monkeypatch):
        start, f, hom = quad_path
        monkeypatch.setattr(heuristic, "CORRECTOR_TOL", 1e-16)
        monkeypatch.setattr(heuristic, "T_STEP_MIN", 1e-3)
        monkeypatch.setattr(heuristic, "STEP_INIT", 0.01)
        res = track_heuristic(hom, start.roots[0])
        assert res.status is TrackStatus.MIN_STEP_REACHED

    def test_trace_flags_rejections(self, quad_path, monkeypatch):
        start, f, hom = quad_path
        monkeypatch.setattr(heuristic, "CORRECTOR_TOL", 1e-9)
        monkeypatch.setattr(heuristic, "STEP_INIT", 0.4)
        res = track_heuristic(hom, start.roots[0])
        if res.status is TrackStatus.SUCCESS:
            assert any(not rec.accepted for rec in res.trace) or res.num_steps == len(res.trace)

    def test_trace_columns(self, quad_path, monkeypatch):
        # A tighter tolerance and a long first step make path 1 reject
        # attempts.
        start, f, hom = quad_path
        monkeypatch.setattr(heuristic, "CORRECTOR_TOL", 1e-9)
        monkeypatch.setattr(heuristic, "STEP_INIT", 0.4)
        res = track_heuristic(hom, start.roots[1])
        trace = res.trace
        assert trace.dtype.names == ("s", "t", "error", "accepted", "z")
        assert not trace.flags.writeable
        assert not trace.accepted.all()
        assert trace.accepted.sum() == res.num_steps
        assert np.array_equal(trace.accepted, trace.error <= heuristic.CORRECTOR_TOL)
        assert res.status is TrackStatus.SUCCESS
        assert trace.s[trace.accepted][-1] == hom.T
        assert trace.z[trace.accepted][-1].tobytes() == res.endpoint.tobytes()

    def test_pinned_step_counts(self):
        # (status, accepted steps) of the 8 total-degree paths of one seeded
        # (2,2,2) target: a change to evaluation or step adaptation that
        # moves them fails here, not only in the benchmark's step digest.
        assert_pinned((2, 2, 2), _pinned_paths((2, 2, 2)))

    def test_pinned_step_counts_mixed_degrees(self):
        # The 6 total-degree paths of one seeded (1,2,3) target, whose
        # equations of three degrees place their coefficients apart.
        assert_pinned((1, 2, 3), _pinned_paths((1, 2, 3)))

    def test_pinned_step_counts_with_one_blas_thread(self):
        # track_heuristic runs on one BLAS thread whatever the environment
        # says, so a process started with one has the same counts and bits.
        for degrees, line in zip(PINNED_STEPS, child_lines(ONE_THREAD, OPENBLAS_NUM_THREADS="1")[3:]):
            assert_pinned(degrees, ast.literal_eval(line))
