"""Uncertified predictor-corrector path tracking, the baseline the certified
tracker is compared against.

The loop alternates a classical fourth-order Runge-Kutta predictor for the
path ODE zdot = -(Dh_t)^{-1} hdot_t with a fixed number of Newton corrector
steps, and adapts the step size from the corrector's error estimate.  It
works on the same homogeneous systems and projective formulation (bordered
solves, renormalization) as the certified tracker, so step counts are
comparable.  The step-adaptation constants below are free parameters of the
heuristic, fixed at the values the comparisons in this package use.

The predictor evaluates the homotopy as the certified loop does, on the
path's tracker._StepBuffers, set up once from the LinearHomotopy: each RK4
stage is one point matrix, one product, one rotation to the stage's
parameter and one bordered solve.  The corrector builds h_{s_next} once per
attempt (LinearHomotopy.value_at) and runs newton.refine's Newton loop on
it, with its own step budget and tolerance: one point matrix per Newton
step, through polysys.evaluate/jacobian and linalg.make_bordered/
bordered_solve.
"""

from __future__ import annotations

import numpy as np

from . import newton, polysys, tracker
from .linalg import SingularLinearSolveError, bordered_solve, one_blas_thread, vector_norm
from .tracker import TrackerOptions, TrackResult, TrackStatus


# Newton steps per correction, and the Newton step size under which a
# correction is accepted; the first step has length STEP_INIT, shrinks by
# STEP_DECREASE on a rejected attempt and grows by STEP_INCREASE after
# SUCCESSES_BEFORE_INCREASE accepted ones in a row; a path gives up
# MinStepReached once the step falls below T_STEP_MIN, and MaxSteps after
# MAX_ATTEMPTS attempts.
CORRECTOR_ITERS = 3
CORRECTOR_TOL = 1e-6
STEP_INIT = 0.05
T_STEP_MIN = 1e-6
STEP_DECREASE = 0.5
STEP_INCREASE = 2.0
SUCCESSES_BEFORE_INCREASE = 3
MAX_ATTEMPTS = 100_000


# The trace columns of an attempt, before its corrected point z.
_COLUMNS = [("s", np.float64), ("t", np.float64), ("error", np.float64), ("accepted", np.bool_)]

# tracker.TrackerOptions configures this tracker too; the second name stays
# for callers that construct it under this one.
HeuristicOptions = TrackerOptions


def predict(buf: tracker._StepBuffers, s: float, x, dt: float) -> np.ndarray:
    """RK4 predictor step of length dt from the point x on the path at
    parameter s, renormalized to the unit representative.

    buf is the path's tracker._StepBuffers, which track_heuristic sets up
    once per path: the stages read its placed (g, p), which stand in for the
    systems h_s and hdot_s, none of which is built here, and write into it.
    """
    x = np.asarray(x, dtype=np.complex128)
    if dt == 0.0:
        return x

    def tangent(t, z):
        # The path velocity at (h_t, z), from one bordered solve.
        buf.at(t, z)
        buf.border /= vector_norm(z)
        np.negative(buf.hdot_val, out=buf.rhs1_top)
        return bordered_solve(buf.bordered, buf.rhs1)

    k1 = tangent(s, x)
    k2 = tangent(s + dt / 2.0, x + (dt / 2.0) * k1)
    k3 = tangent(s + dt / 2.0, x + (dt / 2.0) * k2)
    k4 = tangent(s + dt, x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out /= vector_norm(out)
    return out


def correct(h: polysys.PolySystem, x):
    """At most CORRECTOR_ITERS projective Newton steps; stops early once the
    step size drops under CORRECTOR_TOL.  Returns (point, last step size) —
    the step size is the error estimate the tracker adapts on."""
    return newton._newton_steps(h, x, CORRECTOR_ITERS, CORRECTOR_TOL)


@one_blas_thread
def track_heuristic(hom, z0, opts: TrackerOptions = TrackerOptions()) -> TrackResult:
    """Adaptive predictor-corrector tracking of a linear homotopy.

    num_steps counts accepted steps only; the trace has a row per attempt,
    rejected ones with accepted False.  z0 is checked as in track_linear.  A
    path ends SingularLinearSolve on an exact zero pivot and MinStepReached
    when the step size is exhausted, as near a singular system (see linalg).
    """
    z = polysys.unit_point(polysys._checked_point(hom.g.n_vars, z0))
    T = hom.T
    s = 0.0
    dt = STEP_INIT
    accepted = 0
    attempts = 0
    streak = 0
    status = TrackStatus.SUCCESS
    rows = []
    buf = tracker._StepBuffers(hom)

    while s < T:
        if attempts >= MAX_ATTEMPTS:
            status = TrackStatus.MAX_STEPS
            break
        attempts += 1
        step = min(dt, T - s)
        s_next = T if step >= T - s else s + step
        try:
            z_pred = predict(buf, s, z, s_next - s)
            z_corr, err = correct(hom.value_at(s_next), z_pred)
        except SingularLinearSolveError:
            status = TrackStatus.SINGULAR
            break
        ok = err <= CORRECTOR_TOL
        if opts.record_trace:
            rows.append((s_next, s_next - s, err, ok, z_corr))
        if ok:
            z = z_corr
            s = s_next
            accepted += 1
            streak += 1
            if streak >= SUCCESSES_BEFORE_INCREASE:
                dt *= STEP_INCREASE
                streak = 0
        else:
            dt *= STEP_DECREASE
            streak = 0
            if dt < T_STEP_MIN:
                status = TrackStatus.MIN_STEP_REACHED
                break
    return TrackResult(z, status, accepted, tracker._trace_array(rows, _COLUMNS, buf.ev.n_vars))
