"""Certified tracking of homotopy paths on the unit sphere of systems.

The tracker follows the arc-length great-circle homotopy between two
unit-norm systems.  At the current pair (g_i, z_i) it solves a handful of
bordered systems to form

    chi_1 = || (Dg_i(z_i); z_i*)^{-1} Diag(sqrt(d_1), ..., sqrt(d_n), 1) ||
    chi_2 = ( ||gdot_i||^2 + || (Dg_i(z_i); z_i*)^{-1} (gdot_i(z_i); 0) ||^2 )^{1/2}

and advances by any step inside

    c/P / (2 d^{3/2} chi_1 chi_2)  <=  t_i  <=  c/P / (d^{3/2} chi_1 chi_2),

with c/P = 0.04804448 for the arc-length linear homotopy.  One projective
Newton step against the advanced system then restores the start certificate,
so every intermediate point is an approximate zero of its system and the
endpoint is an approximate zero of the target on the same lifted path.  The
final step is clipped so the arc parameter hits the total length exactly.

There is no minimum step: on a regular path the certified steps are bounded
below and their number is finite (at most 71 d^{3/2} times the condition
length), however small some of them get.  A path ends MinStepReached only
when the step is not a finite length that moves the arc parameter in
floating point (s + t == s catches t == 0 and a NaN or infinite phi; phi == 0,
a homotopy standing still, gives t = inf and no certified jump to the end),
or when the caller opts in to a give-up threshold with
TrackerOptions.t_step_min, which only the tracking loop applies.

Exact operator norms are used for chi_1 (the rule only requires a value
within a factor 2), which maximizes the step length at negligible cost for
desk-scale systems.

A step takes two products with one point matrix at z_i (polysys.Evaluator):
the Jacobian and value rows of g_i and gdot_i, for one factorization and one
(n+2)-column solve giving chi_1 and chi_2; then those of the advanced system
at the same z_i, for the Newton step.  The advanced system and its tangent
start the next step.  chi1, chi2 and certified_step run the loop's code.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg, polysys
from .bw import _bw_weights, bw_inner, bw_norm, ensure_on_sphere
from .linalg import SingularLinearSolveError, bordered_solve, make_bordered
from .newton import U0, condition_mu, refine

C_OVER_P_LINEAR = 0.04804448


class DegenerateHomotopyError(Exception):
    """Start and target system coincide up to sign: no great-circle homotopy."""


class TrackStatus(enum.Enum):
    """Why a path stopped.

    MIN_STEP_REACHED: the certified step fell below the tracking loop's
    opt-in TrackerOptions.t_step_min, or is no finite length that advances
    the arc parameter s in floating point (s + t == s, t == 0, or a NaN or
    infinite step length, as phi == 0 gives).  The heuristic tracker reports
    it when its step halving reaches its own t_step_min.
    """

    SUCCESS = "Success"
    MIN_STEP_REACHED = "MinStepReached"
    SINGULAR = "SingularLinearSolve"
    MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class TrackerOptions:
    """Knobs of the certified step rule.

    The certified constants are fixed: C_OVER_P_LINEAR for the linear
    homotopy, and general_step_constants (from U0) for a curved one.
    step_fraction places the step inside the permitted interval: 1.0 is the
    upper end (fewest steps), 0.5 the lower end.  t_step_min is an opt-in
    give-up threshold of the tracking loop on the certified step length, off
    (0.0) by default: the step rule itself needs no floor.
    """

    t_step_min: float = 0.0
    step_fraction: float = 1.0
    max_steps: int = 1_000_000
    record_trace: bool = True

    def __post_init__(self):
        if not 0.5 <= self.step_fraction <= 1.0:
            raise ValueError("step_fraction must lie in [1/2, 1]")


@dataclass(frozen=True)
class StepRecord:
    step: int
    s: float  # arc parameter after the step
    t: float  # step length taken
    phi: float
    chi1: float
    chi2: float
    z: np.ndarray  # point after the step
    accepted: bool = True


@dataclass(frozen=True)
class TrackResult:
    endpoint: np.ndarray
    status: TrackStatus
    num_steps: int
    trace: tuple[StepRecord, ...]

    @property
    def success(self) -> bool:
        return self.status is TrackStatus.SUCCESS


@dataclass(frozen=True)
class LinearHomotopy:
    """Arc-length parametrization of the great circle from g to f on the sphere.

    h_t = g cos(t) + fperp sin(t) with fperp the unit normal component of f
    against g; h_T = f with T = arccos(Re<f, g>).
    """

    g: polysys.PolySystem
    f: polysys.PolySystem
    r: float
    T: float
    fperp: polysys.PolySystem
    _gvec: np.ndarray = field(repr=False)
    _pvec: np.ndarray = field(repr=False)

    def value_at(self, s: float) -> polysys.PolySystem:
        return polysys.PolySystem.from_coeff_vector(
            self.g.degrees, math.cos(s) * self._gvec + math.sin(s) * self._pvec
        )

    def derivative_at(self, s: float) -> polysys.PolySystem:
        return polysys.PolySystem.from_coeff_vector(
            self.g.degrees, -math.sin(s) * self._gvec + math.cos(s) * self._pvec
        )


@dataclass(frozen=True)
class CurveHomotopy:
    """General C^1 homotopy on the sphere with an explicit curvature constant.

    The caller asserts ||hddot_t|| <= d^{3/2} * curvature_bound * ||hdot_t||^2
    almost everywhere; the certified step interval is derived from that bound.
    """

    T: float
    value_at: Callable[[float], polysys.PolySystem]
    derivative_at: Callable[[float], polysys.PolySystem]
    curvature_bound: float


def make_linear_homotopy(g: polysys.PolySystem, f: polysys.PolySystem) -> LinearHomotopy:
    """Great-circle homotopy between unit-norm systems g and f.

    Raises DegenerateHomotopyError when f is (numerically) a real multiple of
    g, where no great circle is determined.
    """
    ensure_on_sphere(g, what="start system")
    ensure_on_sphere(f, what="target system")
    if g.degrees != f.degrees:
        raise ValueError(f"degree mismatch: {g.degrees} vs {f.degrees}")
    r = float(bw_inner(f, g).real)
    if abs(r) >= 1.0 - 1e-12:
        raise DegenerateHomotopyError(f"|Re<f, g>| = {abs(r)!r}; start and target are aligned")
    # T = arccos(r) rather than arcsin(sqrt(1 - r^2)): the two agree for r >= 0
    # and only arccos lands h_T = f when r < 0.
    T = math.acos(r)
    denom = math.sqrt(1.0 - r * r)
    fperp = (f - r * g) * (1.0 / denom)
    return LinearHomotopy(
        g=g,
        f=f,
        r=r,
        T=T,
        fperp=fperp,
        _gvec=g.coeff_vector(),
        _pvec=fperp.coeff_vector(),
    )


def chi1(g: polysys.PolySystem, z) -> float:
    """Operator norm of the bordered inverse times Diag(sqrt(d_i), 1)."""
    # chi1 does not depend on the tangent; g stands in for it.
    return _chi_at(g, g, z)[0]


def chi2(g: polysys.PolySystem, gdot: polysys.PolySystem, z) -> float:
    """Path-speed factor combining ||gdot|| with the bordered solve against gdot(z)."""
    return _chi_at(g, gdot, z)[1]


def certified_step(
    g: polysys.PolySystem,
    gdot: polysys.PolySystem,
    z,
    opts: TrackerOptions = TrackerOptions(),
) -> tuple[float, float]:
    """Certified step length and the factor phi = chi1 * chi2 it came from.

    The returned t equals step_fraction * C_OVER_P_LINEAR / (d^{3/2} phi),
    which lies in the certified interval for any step_fraction in [1/2, 1];
    it is the step the linear-homotopy loop takes from (g, z) when gdot is
    the tangent there (before that loop clips it to the end of the path or
    applies t_step_min).  Raises SingularLinearSolveError on a singular
    bordered system.
    """
    x1, x2 = _chi_at(g, gdot, z)
    phi = x1 * x2
    return opts.step_fraction * C_OVER_P_LINEAR / (g.max_degree**1.5 * phi), phi


def _chi_at(g: polysys.PolySystem, gdot: polysys.PolySystem, z) -> tuple[float, float]:
    if gdot.degrees != g.degrees:
        raise ValueError(f"tangent degrees {gdot.degrees} differ from the system's {g.degrees}")
    ev = polysys.evaluator(g.degrees)
    z = polysys._checked_point(g, z)
    R = np.stack([g.coeff_vector(), gdot.coeff_vector()])
    weights, rhs, bordered = _step_arrays(ev)
    bordered[ev.n] = z.conj()
    return _chi(ev.rows(R, ev.point_matrix(z)), R[1], bordered, weights, rhs)


def _step_arrays(ev: polysys.Evaluator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The Bombieri-Weyl weights of a coefficient vector; the right-hand side
    # of the chi solve: Diag(sqrt(d_i), 1) for chi1, then one column that
    # _chi fills with hdot(z) for chi2; and room for a bordered matrix
    # (Dh(z); z*), which the factorization copies, so it is filled again.
    weights = np.concatenate([_bw_weights(ev.n_vars, d) for d in ev.degrees])
    rhs = np.zeros((ev.n + 1, ev.n + 2), dtype=np.complex128)
    for i, d in enumerate(ev.degrees):
        rhs[i, i] = math.sqrt(d)
    rhs[ev.n, ev.n] = 1.0
    return weights, rhs, np.empty((ev.n + 1, ev.n + 1), dtype=np.complex128)


def _chi(blocks, hdot, bordered, weights, rhs) -> tuple[float, float]:
    """chi1 and chi2 at (h, z) from the [Dh(z) | h(z)] and [Dhdot(z) | hdot(z)]
    blocks of Evaluator.rows and the coefficient vector hdot: one factorization
    of the bordered matrix, whose last row already holds z*, and one solve
    against the n+2 columns of rhs."""
    n = blocks.shape[1]
    bordered[:n] = blocks[0, :, : n + 1]
    lu = linalg.lu_factor_checked(bordered)
    rhs[:n, n + 1] = blocks[1, :, n + 1]
    sol = linalg.lu_solve(lu, rhs)
    x1 = float(np.linalg.svd(sol[:, : n + 1], compute_uv=False)[0])
    speed = math.sqrt(float(np.dot(weights, np.abs(hdot) ** 2)))
    x2 = math.sqrt(speed**2 + _norm(sol[:, n + 1]) ** 2)
    return x1, x2


def _norm(x) -> float:
    # np.linalg.norm's arithmetic for a complex vector, without its dispatch.
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def general_step_constants(curvature_bound: float) -> tuple[float, float]:
    """Constants (c, P) of the certified step rule for a curvature bound H."""
    if curvature_bound < 0:
        raise ValueError("the curvature bound must be nonnegative")
    P = math.sqrt(2.0) + math.sqrt(4.0 + 5.0 * curvature_bound**2)
    a = math.sqrt(2.0) * U0 / 2.0
    c = ((1.0 - a) ** math.sqrt(2.0) / (1.0 + a)) * (
        1.0 - (1.0 - U0 / (math.sqrt(2.0) + 2.0 * U0)) ** (P / math.sqrt(2.0))
    )
    return c, P


def _systems_equal(g: polysys.PolySystem, f: polysys.PolySystem, tol: float = 1e-13) -> bool:
    return g.degrees == f.degrees and all(
        np.max(np.abs(a - b)) <= tol if a.size else True for a, b in zip(g.coeffs, f.coeffs)
    )


def _run_certified_loop(
    rows_at,
    T: float,
    degrees,
    c_over_p: float,
    z0,
    opts: TrackerOptions,
) -> TrackResult:
    # rows_at(s) stacks the coefficient vectors of h_s and hdot_s, (2, N).
    ev = polysys.evaluator(degrees)
    n = ev.n
    weights, rhs, bordered = _step_arrays(ev)
    newton_rhs = np.zeros(n + 1, dtype=np.complex128)
    z = np.asarray(z0, dtype=np.complex128)
    z = z / _norm(z)
    d32 = ev.max_d**1.5
    s = 0.0
    steps = 0
    trace: list[StepRecord] = []
    R = rows_at(s)
    while s != T:
        if steps >= opts.max_steps:
            return TrackResult(z, TrackStatus.MAX_STEPS, steps, tuple(trace))
        M = ev.point_matrix(z)
        bordered[n] = z.conj()
        try:
            x1, x2 = _chi(ev.rows(R, M), R[1], bordered, weights, rhs)
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, steps, tuple(trace))
        phi = x1 * x2
        # phi == 0 (a zero-speed homotopy) gives t = inf: no certified step.
        t = opts.step_fraction * c_over_p / (d32 * phi) if phi else math.inf
        # The step must be finite and move s in floating point; written so
        # that t == 0 and a NaN t stop here too.
        if t < opts.t_step_min or not s < s + t < math.inf:
            return TrackResult(z, TrackStatus.MIN_STEP_REACHED, steps, tuple(trace))
        if t >= T - s:
            # Last step: assign the endpoint exactly so the loop terminates.
            t = T - s
            s_next = T
        else:
            s_next = s + t
        R = rows_at(s_next)
        block = ev.rows(R[:1], M)[0]
        bordered[:n] = block[:, : n + 1]
        try:
            lu = linalg.lu_factor_checked(bordered)
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, steps, tuple(trace))
        newton_rhs[:n] = block[:, n + 1]
        z = z - linalg.lu_solve(lu, newton_rhs)
        z = z / _norm(z)
        steps += 1
        if opts.record_trace:
            trace.append(StepRecord(steps, s_next, t, phi, x1, x2, z))
        s = s_next
    return TrackResult(z, TrackStatus.SUCCESS, steps, tuple(trace))


def track_linear(
    hom: LinearHomotopy, z0, opts: TrackerOptions = TrackerOptions()
) -> TrackResult:
    """Follow the lifted path of a linear homotopy from an approximate zero z0 of g.

    z0 must satisfy the start certificate (exact start zeros always do).  On
    Success the endpoint is an approximate zero of f associated to the end of
    the lifted path through the start pair.
    """
    # h_s = cos(s) g + sin(s) p and hdot_s = -sin(s) g + cos(s) p: one real
    # 2 x 2 product with the stacked (g, p), read as real and imaginary parts.
    gp = np.stack([hom._gvec, hom._pvec]).view(np.float64)

    def rows_at(s):
        c, sn = math.cos(s), math.sin(s)
        return np.array([[c, sn], [-sn, c]]).dot(gp).view(np.complex128)

    return _run_certified_loop(rows_at, hom.T, hom.g.degrees, C_OVER_P_LINEAR, z0, opts)


def track_path(
    g: polysys.PolySystem,
    f: polysys.PolySystem,
    z0,
    opts: TrackerOptions = TrackerOptions(),
) -> TrackResult:
    """Track from a zero of g to the target f; f == g returns immediately."""
    if _systems_equal(g, f):
        z = np.asarray(z0, dtype=np.complex128)
        return TrackResult(z / np.linalg.norm(z), TrackStatus.SUCCESS, 0, ())
    return track_linear(make_linear_homotopy(g, f), z0, opts)


def track_general(
    hom: CurveHomotopy, z0, opts: TrackerOptions = TrackerOptions()
) -> TrackResult:
    """Certified tracking of a general C^{1+Lip} homotopy with curvature bound."""
    c, P = general_step_constants(hom.curvature_bound)
    degrees = hom.value_at(0.0).degrees
    return _run_certified_loop(
        lambda s: np.stack([hom.value_at(s).coeff_vector(), hom.derivative_at(s).coeff_vector()]),
        hom.T,
        degrees,
        c / P,
        z0,
        opts,
    )


def condition_length(hom: LinearHomotopy, z0, resolution: int = 2000) -> float:
    """Numerical condition length of the lifted path through z0.

    Subdivides [0, T], continues the exact zero node to node by Newton
    refinement, computes the lifted velocity through a bordered solve, and
    integrates mu * ||(hdot, zetadot)|| with the trapezoid rule.  This is the
    oracle for the certified step-count bound.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    ts = np.linspace(0.0, hom.T, resolution + 1)
    zeta = refine(hom.value_at(0.0), z0)
    values = np.empty(resolution + 1)
    for k, t in enumerate(ts):
        h_t = hom.value_at(float(t))
        if k > 0:
            zeta = refine(h_t, zeta)
        hdot = hom.derivative_at(float(t))
        B = make_bordered(polysys.jacobian(h_t, zeta), zeta)
        zetadot = bordered_solve(B, np.concatenate([-polysys.evaluate(hdot, zeta), [0.0]]))
        speed = math.sqrt(bw_norm(hdot) ** 2 + float(np.linalg.norm(zetadot)) ** 2)
        values[k] = condition_mu(h_t, zeta) * speed
    dx = hom.T / resolution
    return float(dx * (values[0] / 2.0 + values[1:-1].sum() + values[-1] / 2.0))


def theorem_step_bound(hom: LinearHomotopy, z0, resolution: int = 2000) -> int:
    """ceil(71 * d^{3/2} * condition length): the certified step-count bound."""
    C0 = condition_length(hom, z0, resolution)
    return math.ceil(71.0 * hom.g.max_degree**1.5 * C0)


def write_trace_csv(result: TrackResult, path, float_fmt: str = "%.17g") -> None:
    """Per-step trace: step, s, t, phi, chi1, chi2, then point coordinates."""
    n_coords = result.endpoint.shape[0]
    header = ["step", "s", "t", "phi", "chi1", "chi2", "accepted"]
    header += [f"re{j}" for j in range(n_coords)] + [f"im{j}" for j in range(n_coords)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in result.trace:
            row = [rec.step]
            row += [float_fmt % v for v in (rec.s, rec.t, rec.phi, rec.chi1, rec.chi2)]
            row.append(int(rec.accepted))
            row += [float_fmt % c.real for c in rec.z] + [float_fmt % c.imag for c in rec.z]
            writer.writerow(row)
