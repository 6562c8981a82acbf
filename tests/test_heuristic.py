import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from certitrack import heuristic, polysys, tracker
from certitrack.bw import riemann_distance
from certitrack.heuristic import HeuristicOptions, correct, predict, track_heuristic
from certitrack.linalg import bordered_solve, make_bordered
from certitrack.newton import refine
from certitrack.polysys import unit_point
from certitrack.start_systems import random_system_on_sphere, total_degree_start
from certitrack.tracker import TrackStatus, make_linear_homotopy, track_linear
from openblas_core import pinned


@pytest.fixture(scope="module")
def quad_path():
    rng = np.random.default_rng(30)
    f = random_system_on_sphere((2, 2), rng)
    start = total_degree_start((2, 2), rng)
    return start, f, make_linear_homotopy(start.g, f)


def _endpoint_digest(results) -> str:
    # SHA-256 over the endpoints' bytes, path by path: pins the heuristic's
    # result bits, which its step counts alone do not.
    return hashlib.sha256(b"".join(r.endpoint.tobytes() for r in results)).hexdigest()


# Per degree tuple of test_pinned_step_counts*, the endpoint digest on each
# OpenBLAS core.
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


def _reference_predict(hom, s, x, dt):
    # RK4 on systems built at each stage's parameter, each stage evaluated
    # on its own: the formula predict computes from the placed (g, p).
    def tangent(t, z):
        h, hdot = hom.value_at(t), hom.derivative_at(t)
        B = make_bordered(polysys.jacobian(h, z), z / np.linalg.norm(z))
        return bordered_solve(B, np.concatenate([-polysys.evaluate(hdot, z), [0.0]]))

    x = np.asarray(x, dtype=np.complex128)
    k1 = tangent(s, x)
    k2 = tangent(s + dt / 2.0, x + (dt / 2.0) * k1)
    k3 = tangent(s + dt / 2.0, x + (dt / 2.0) * k2)
    k4 = tangent(s + dt, x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out / np.linalg.norm(out)


class TestPredict:
    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 3)])
    def test_matches_the_stagewise_formula(self, degrees):
        # mixed degrees exercise the scatter of the placed (g, p)
        rng = np.random.default_rng(31)
        f = random_system_on_sphere(degrees, rng)
        start = total_degree_start(degrees, rng)
        hom = make_linear_homotopy(start.g, f)
        buf = tracker._StepBuffers(hom)
        for z in start.roots:
            for s, dt in [(0.0, 0.05), (0.3, 0.2), (hom.T - 0.1, 0.1)]:
                got = predict(buf, s, z, dt)
                want = _reference_predict(hom, s, z, dt)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_zero_step_identity(self, quad_path):
        start, f, hom = quad_path
        z = start.roots[0]
        out = predict(tracker._StepBuffers(hom), 0.0, z, 0.0)
        assert np.array_equal(out, np.asarray(z))

    def test_rk4_local_order(self, quad_path):
        # halving the step shrinks the one-step error by about 2^5
        start, f, hom = quad_path
        z = start.roots[0]
        s0 = 0.0
        buf = tracker._StepBuffers(hom)

        def one_step_error(dt):
            predicted = predict(buf, s0, z, dt)
            truth = refine(hom.value_at(s0 + dt), predicted)
            return riemann_distance(predicted, truth)

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
        rng = np.random.default_rng(2024)
        f = random_system_on_sphere((2, 2, 2), rng)
        start = total_degree_start((2, 2, 2), rng)
        hom = make_linear_homotopy(start.g, f)
        opts = HeuristicOptions(record_trace=False)
        results = [track_heuristic(hom, z, opts) for z in start.roots]
        got = [(r.status.value, r.num_steps) for r in results]
        assert got == [
            ("Success", 13), ("Success", 14), ("Success", 10), ("Success", 10),
            ("Success", 10), ("Success", 10), ("Success", 13), ("Success", 10),
        ]
        assert _endpoint_digest(results) == pinned(ENDPOINT_PINS[(2, 2, 2)])

    def test_pinned_step_counts_mixed_degrees(self):
        # The 6 total-degree paths of one seeded (1,2,3) target, whose
        # equations of three degrees place their coefficients apart.
        rng = np.random.default_rng(2024)
        f = random_system_on_sphere((1, 2, 3), rng)
        start = total_degree_start((1, 2, 3), rng)
        hom = make_linear_homotopy(start.g, f)
        opts = HeuristicOptions(record_trace=False)
        results = [track_heuristic(hom, z, opts) for z in start.roots]
        got = [(r.status.value, r.num_steps) for r in results]
        assert got == [
            ("Success", 10), ("Success", 11), ("Success", 10),
            ("Success", 10), ("Success", 10), ("Success", 10),
        ]
        assert _endpoint_digest(results) == pinned(ENDPOINT_PINS[(1, 2, 3)])

    def test_pinned_step_counts_with_one_blas_thread(self):
        # track_heuristic runs on one BLAS thread whatever the environment
        # says, so a process started with one has the same counts and bits.
        src = Path(__import__("certitrack").__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).parent)])
        code = (
            "from test_heuristic import TestTrackHeuristic as T; "
            "T().test_pinned_step_counts(); T().test_pinned_step_counts_mixed_degrees()"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert child.returncode == 0, child.stderr
