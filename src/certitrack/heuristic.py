"""Uncertified predictor-corrector path tracking, the baseline the certified
tracker is compared against.

The loop alternates a classical fourth-order Runge-Kutta predictor for the
path ODE zdot = -(Dh_t)^{-1} hdot_t with a fixed number of Newton corrector
steps, and adapts the step size from the corrector's error estimate.  It
works on the same homogeneous systems and projective formulation (bordered
solves, renormalization) as the certified tracker, so step counts are
comparable.  The step-adaptation constants below are free parameters of the
heuristic, fixed at the values the comparisons in this package use.

The predictor evaluates the homotopy as the certified loop does, from the
LinearHomotopy's (g, p) coefficient vectors, placed once per path in the
path's tracker._StepBuffers: each RK4 stage is one point matrix, one product
and one rotation to the stage's parameter.  The corrector still runs
newton_projective on h_{s_next}: it is the load on polysys.evaluate/jacobian
and linalg.make_bordered that the heuristic-222 benchmark workload expects,
so it moves onto the placed (g, p) only together with that workload's
expected spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polysys, tracker
from .bw import riemann_distance
from .linalg import SingularLinearSolveError, bordered_solve, one_blas_thread, vector_norm
from .newton import newton_projective
from .tracker import StepRecord, TrackResult, TrackStatus


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


@dataclass(frozen=True)
class HeuristicOptions:
    """record_trace keeps a StepRecord per attempt; the step adaptation is
    fixed by the module constants."""

    record_trace: bool = True


def predict(hom, s: float, x, dt: float, buf: tracker._StepBuffers | None = None) -> np.ndarray:
    """RK4 predictor step of length dt from the point x on the path at
    parameter s, renormalized to the unit representative.

    `hom` is a LinearHomotopy; its (g, p) coefficient vectors stand in for
    the systems h_s and hdot_s, none of which is built here.  The stages
    read (g, p) placed in buf, the path's tracker._StepBuffers for hom,
    which track_heuristic sets up once per path, and write into it; without
    one, predict sets up its own.
    """
    x = np.asarray(x, dtype=np.complex128)
    if dt == 0.0:
        return x
    if buf is None:
        buf = tracker._StepBuffers(polysys.evaluator(hom.g.degrees), hom._gvec, hom._pvec)

    def tangent(t, z):
        # The path velocity at (h_t, z), from one bordered solve.
        buf.load(z)
        buf.rotate(t)
        buf.jac[...] = buf.h_jac
        np.conjugate(z, out=buf.border)
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


def correct(h: polysys.PolySystem, x, iters: int = CORRECTOR_ITERS, tol: float = CORRECTOR_TOL):
    """At most `iters` projective Newton steps; stops early once the step size
    drops under tol.  Returns (point, last step size) — the step size is the
    error estimate the tracker adapts on."""
    z = np.asarray(x, dtype=np.complex128)
    z = z / vector_norm(z)
    achieved = np.inf
    for _ in range(iters):
        nxt = newton_projective(h, z)
        achieved = riemann_distance(nxt, z)
        z = nxt
        if achieved < tol:
            break
    return z, float(achieved)


@one_blas_thread
def track_heuristic(hom, z0, opts: HeuristicOptions = HeuristicOptions()) -> TrackResult:
    """Adaptive predictor-corrector tracking of a linear homotopy.

    num_steps counts accepted steps only; rejected attempts appear in the
    trace flagged accepted=False.  Failure statuses mirror the certified
    tracker: MinStepReached when the step size is exhausted, and
    SingularLinearSolve on a singular system along the way.
    """
    z = np.asarray(z0, dtype=np.complex128)
    z = z / vector_norm(z)
    T = hom.T
    s = 0.0
    dt = STEP_INIT
    accepted = 0
    attempts = 0
    streak = 0
    trace: list[StepRecord] = []
    buf = tracker._StepBuffers(polysys.evaluator(hom.g.degrees), hom._gvec, hom._pvec)

    while s < T:
        if attempts >= MAX_ATTEMPTS:
            return TrackResult(z, TrackStatus.MAX_STEPS, accepted, tuple(trace))
        attempts += 1
        step = min(dt, T - s)
        s_next = T if step >= T - s else s + step
        try:
            z_pred = predict(hom, s, z, s_next - s, buf)
            z_corr, err = correct(hom.value_at(s_next), z_pred, CORRECTOR_ITERS, CORRECTOR_TOL)
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, accepted, tuple(trace))
        ok = err <= CORRECTOR_TOL
        if opts.record_trace:
            # Same record layout as the certified trace; phi carries the
            # corrector error estimate here and the chi columns stay NaN.
            trace.append(
                StepRecord(attempts, s_next, s_next - s, err, np.nan, np.nan, z_corr, ok)
            )
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
                return TrackResult(z, TrackStatus.MIN_STEP_REACHED, accepted, tuple(trace))
    return TrackResult(z, TrackStatus.SUCCESS, accepted, tuple(trace))
