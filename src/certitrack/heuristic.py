"""Uncertified predictor-corrector path tracking, the baseline the certified
tracker is compared against.

The loop alternates a classical fourth-order Runge-Kutta predictor for the
path ODE zdot = -(Dh_t)^{-1} hdot_t with a fixed number of Newton corrector
steps, and adapts the step size from the corrector's error estimate.  It
works on the same homogeneous systems and projective formulation (bordered
solves, renormalization) as the certified tracker, so step counts are
comparable; the specific step-adaptation constants are free parameters of
the heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polysys
from .bw import riemann_distance
from .linalg import SingularLinearSolveError, bordered_solve, make_bordered
from .newton import newton_projective
from .tracker import StepRecord, TrackResult, TrackStatus


@dataclass(frozen=True)
class HeuristicOptions:
    corrector_iters: int = 3
    corrector_tol: float = 1e-6
    step_init: float = 0.05
    step_decrease: float = 0.5
    step_increase: float = 2.0
    successes_before_increase: int = 3
    t_step_min: float = 1e-6
    max_attempts: int = 100_000
    record_trace: bool = True

    def __post_init__(self):
        if not 0.0 < self.step_decrease < 1.0 < self.step_increase:
            raise ValueError("need 0 < step_decrease < 1 < step_increase")


def _ode_tangent(h, hdot, z) -> np.ndarray:
    """Path velocity at (h, z), from one bordered solve."""
    B = make_bordered(polysys.jacobian(h, z), z / np.linalg.norm(z))
    rhs = np.concatenate([-polysys.evaluate(hdot, z), [0.0]])
    return bordered_solve(B, rhs)


def predict(hom, s: float, x, dt: float) -> np.ndarray:
    """RK4 predictor step of length dt from the point x on the path at
    parameter s, renormalized to the unit representative.

    `hom` provides value_at / derivative_at.
    """
    x = np.asarray(x, dtype=np.complex128)
    if dt == 0.0:
        return x
    # Stages k2 and k3 share the midpoint systems.
    s_mid = s + dt / 2.0
    h_mid, hdot_mid = hom.value_at(s_mid), hom.derivative_at(s_mid)
    k1 = _ode_tangent(hom.value_at(s), hom.derivative_at(s), x)
    k2 = _ode_tangent(h_mid, hdot_mid, x + (dt / 2.0) * k1)
    k3 = _ode_tangent(h_mid, hdot_mid, x + (dt / 2.0) * k2)
    k4 = _ode_tangent(hom.value_at(s + dt), hom.derivative_at(s + dt), x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out / np.linalg.norm(out)


def correct(h: polysys.PolySystem, x, iters: int = 3, tol: float = 1e-6):
    """At most `iters` projective Newton steps; stops early once the step size
    drops under tol.  Returns (point, last step size) — the step size is the
    error estimate the tracker adapts on."""
    z = np.asarray(x, dtype=np.complex128)
    z = z / np.linalg.norm(z)
    achieved = np.inf
    for _ in range(iters):
        nxt = newton_projective(h, z)
        achieved = riemann_distance(nxt, z)
        z = nxt
        if achieved < tol:
            break
    return z, float(achieved)


def track_heuristic(hom, z0, opts: HeuristicOptions = HeuristicOptions()) -> TrackResult:
    """Adaptive predictor-corrector tracking of a linear homotopy.

    num_steps counts accepted steps only; rejected attempts appear in the
    trace flagged accepted=False.  Failure statuses mirror the certified
    tracker: MinStepReached when the step size is exhausted, and
    SingularLinearSolve on a singular system along the way.
    """
    z = np.asarray(z0, dtype=np.complex128)
    z = z / np.linalg.norm(z)
    T = hom.T
    s = 0.0
    dt = opts.step_init
    accepted = 0
    attempts = 0
    streak = 0
    trace: list[StepRecord] = []

    while s < T:
        if attempts >= opts.max_attempts:
            return TrackResult(z, TrackStatus.MAX_STEPS, accepted, tuple(trace))
        attempts += 1
        step = min(dt, T - s)
        s_next = T if step >= T - s else s + step
        try:
            z_pred = predict(hom, s, z, s_next - s)
            z_corr, err = correct(
                hom.value_at(s_next), z_pred, opts.corrector_iters, opts.corrector_tol
            )
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, accepted, tuple(trace))
        ok = err <= opts.corrector_tol
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
            if streak >= opts.successes_before_increase:
                dt *= opts.step_increase
                streak = 0
        else:
            dt *= opts.step_decrease
            streak = 0
            if dt < opts.t_step_min:
                return TrackResult(z, TrackStatus.MIN_STEP_REACHED, accepted, tuple(trace))
    return TrackResult(z, TrackStatus.SUCCESS, accepted, tuple(trace))
