"""Certified tracking of homotopy paths on the unit sphere of systems.

The tracker follows the arc-length great-circle homotopy between two
unit-norm systems.  At the current pair (g_i, z_i) it solves a handful of
bordered systems to form

    chi_1 = || (Dg_i(z_i); z_i*)^{-1} Diag(sqrt(d_1), ..., sqrt(d_n), 1) ||
    chi_2 = ( ||gdot_i||^2 + || (Dg_i(z_i); z_i*)^{-1} (gdot_i(z_i); 0) ||^2 )^{1/2}

and advances by the upper end of the certified interval

    c/P / (2 d^{3/2} chi_1 chi_2)  <=  t_i  <=  c/P / (d^{3/2} chi_1 chi_2),

with c/P = 0.04804448 for the arc-length linear homotopy.  That is the
constant of the curved-path step rule at curvature bound H = 2^{-3/2}: the
great circle has ||hddot|| = ||hdot||^2 = 1, so it needs H >= d^{-3/2}, which
holds for d >= 2.  Systems of degree 1 need H = 1 and take the smaller
c/P = 0.04662682.  One projective Newton step against the advanced system
then restores the start certificate, so every intermediate point is an
approximate zero of its system and the endpoint is an approximate zero of
the target on the same lifted path.  The final step is clipped so the arc
parameter hits the total length exactly.

There is no minimum step: on a regular path the certified steps are bounded
below and their number is finite (at most 71 d^{3/2} times the condition
length), however small some of them get.  A path ends MinStepReached only
when the step is not a finite length that moves the arc parameter in
floating point (s + t == s catches t == 0 and a NaN or infinite phi; phi == 0,
a homotopy standing still, gives t = inf and no certified jump to the end),
or when the caller opts in to a give-up threshold with
TrackerOptions.t_step_min, which only the tracking loop applies.

Exact operator norms are used for chi_1 (the rule only requires a value
within a factor 2), which maximizes the step length.  The cost is not
negligible: np.linalg.svd on the 6 x 6 of a Katsura-5 step took 18.4 us, a
quarter of the ~74 us step (2-core Xeon VM).

A step takes one product of the homotopy's (g, p), placed once per path, with
the point matrix at z_i (polysys.Evaluator): on h_s = cos(s) g + sin(s) p the
blocks of h_{s_i}, hdot_{s_i} and the advanced system are real rotations of
theirs.  One factorization and one (n+2)-column solve give chi_1 and chi_2,
one more the Newton step.  chi1, chi2 and certified_step run the loop's code.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, polysys
from .bw import bw_inner, bw_inner_re, bw_norm, ensure_on_sphere
from .linalg import SingularLinearSolveError, bordered_solve, make_bordered
from .newton import condition_mu, refine

# c/P of the step rule on the great circle, rounded down: curvature bound
# H = 2^{-3/2} for largest degree d >= 2, H = 1 for d = 1 (see the module
# docstring); tests/test_tracker.py checks both against the formula for (c, P).
C_OVER_P_LINEAR = 0.04804448
C_OVER_P_DEGREE_ONE = 0.04662682
# Floats in CSV output: 17 significant digits give back every double exactly.
FLOAT_FMT = "%.17g"


class DegenerateHomotopyError(Exception):
    """Start and target system coincide up to sign: no great-circle homotopy."""


class TrackStatus(enum.Enum):
    """Why a path stopped.

    MIN_STEP_REACHED: the certified step fell below the opt-in
    TrackerOptions.t_step_min, or is no finite length that advances the arc
    parameter s in floating point (s + t == s, t == 0, or a NaN or infinite
    step length, as phi == 0 gives).  The heuristic tracker reports it when
    its step halving reaches its own t_step_min.
    """

    SUCCESS = "Success"
    MIN_STEP_REACHED = "MinStepReached"
    SINGULAR = "SingularLinearSolve"
    MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class TrackerOptions:
    """Knobs of the certified tracking loop.

    The step rule has none: every step is the upper end of the certified
    interval, with the constant of the path's largest degree.  t_step_min is
    an opt-in give-up threshold on the certified step length, off (0.0) by
    default: the step rule itself needs no floor.  max_steps bounds the loop,
    and record_trace keeps a StepRecord per step.
    """

    t_step_min: float = 0.0
    max_steps: int = 1_000_000
    record_trace: bool = True


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


def certified_step(g: polysys.PolySystem, gdot: polysys.PolySystem, z) -> tuple[float, float]:
    """Certified step length and the factor phi = chi1 * chi2 it came from.

    The returned t is c/P / (d^{3/2} phi), the upper end of the certified
    interval, with the c/P of g's largest degree d: the step the tracking
    loop takes from (g, z) when gdot is the tangent there (before the loop
    clips it to the end of the path or applies t_step_min).  A tangent with
    phi = 0 gives t = inf, as in the loop, where it ends the path
    MinStepReached.  Raises SingularLinearSolveError on a singular bordered
    system.
    """
    x1, x2 = _chi_at(g, gdot, z)
    phi = x1 * x2
    return _step_length(g.max_degree, phi), phi


def _step_length(max_degree: int, phi: float) -> float:
    # phi == 0 (a zero-speed homotopy) gives t = inf: no certified step.
    c_over_p = C_OVER_P_LINEAR if max_degree >= 2 else C_OVER_P_DEGREE_ONE
    return c_over_p / (max_degree**1.5 * phi) if phi else math.inf


def _chi_at(g: polysys.PolySystem, gdot: polysys.PolySystem, z) -> tuple[float, float]:
    if gdot.degrees != g.degrees:
        raise ValueError(f"tangent degrees {gdot.degrees} differ from the system's {g.degrees}")
    ev = polysys.evaluator(g.degrees)
    z = polysys._checked_point(g.n_vars, z)
    R = np.stack([g.coeff_vector(), gdot.coeff_vector()])
    rhs, bordered = _step_arrays(ev)
    bordered[ev.n] = z.conj()
    return _chi(ev.rows(R, ev.point_matrix(z)), bw_inner_re(g.degrees, R[1], R[1]), bordered, rhs)


def _step_arrays(ev: polysys.Evaluator) -> tuple[np.ndarray, np.ndarray]:
    # The right-hand side of the chi solve: Diag(sqrt(d_i), 1) for chi1, then
    # one column that _chi fills with hdot(z) for chi2; and room for a
    # bordered matrix (Dh(z); z*), which the factorization copies, so it is
    # filled again.
    rhs = np.zeros((ev.n + 1, ev.n + 2), dtype=np.complex128)
    for i, d in enumerate(ev.degrees):
        rhs[i, i] = math.sqrt(d)
    rhs[ev.n, ev.n] = 1.0
    return rhs, np.empty((ev.n + 1, ev.n + 1), dtype=np.complex128)


def _chi(blocks, hdot2: float, bordered, rhs) -> tuple[float, float]:
    """chi1 and chi2 at (h, z) from the [Dh(z) | h(z)] and [Dhdot(z) | hdot(z)]
    blocks and ||hdot||^2: one factorization of the bordered matrix, whose
    last row already holds z*, and one solve against the n+2 columns of
    rhs."""
    n = blocks.shape[1]
    bordered[:n] = blocks[0, :, : n + 1]
    lu = linalg.lu_factor_checked(bordered)
    rhs[:n, n + 1] = blocks[1, :, n + 1]
    sol = linalg.lu_solve(lu, rhs)
    x1 = float(np.linalg.svd(sol[:, : n + 1], compute_uv=False)[0])
    x2 = math.sqrt(hdot2 + _norm(sol[:, n + 1]) ** 2)
    return x1, x2


def _rotation(s: float, gg: float, pp: float, gp: float) -> tuple[np.ndarray, float]:
    # h_s = cos(s) g + sin(s) p and hdot_s = -sin(s) g + cos(s) p: the real
    # 2 x 2 rotation of the (g, p) blocks into those of (h_s, hdot_s), and
    # ||hdot_s||^2 = sin^2(s) <g,g> + cos^2(s) <p,p> - 2 sin(s) cos(s) Re<g,p>.
    c, sn = math.cos(s), math.sin(s)
    return np.array([[c, sn], [-sn, c]]), sn * sn * gg + c * c * pp - 2.0 * sn * c * gp


def _rotate(mix: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    # The (2, n, n+2) blocks of h_s and hdot_s from the stacked (g, p) blocks B.
    return mix.dot(B.view(np.float64).reshape(2, -1)).view(np.complex128).reshape(2, n, -1)


def _start_point(n_vars: int, z0) -> np.ndarray:
    # The unit representative of a start point of finite, nonzero norm.
    z = polysys._checked_point(n_vars, z0)
    norm = _norm(z)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"start point needs a finite, nonzero norm, got {norm!r}")
    return z / norm


def _norm(x) -> float:
    # np.linalg.norm's arithmetic for a complex vector, without its dispatch.
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _systems_equal(g: polysys.PolySystem, f: polysys.PolySystem, tol: float = 1e-13) -> bool:
    return g.degrees == f.degrees and all(
        np.max(np.abs(a - b)) <= tol if a.size else True for a, b in zip(g.coeffs, f.coeffs)
    )


def track_linear(
    hom: LinearHomotopy, z0, opts: TrackerOptions = TrackerOptions()
) -> TrackResult:
    """Follow the lifted path of a linear homotopy from an approximate zero z0 of g.

    z0 must satisfy the start certificate (exact start zeros always do).  On
    Success the endpoint is an approximate zero of f associated to the end of
    the lifted path through the start pair.
    """
    # (g, p) is placed once per path and multiplied by each point matrix once;
    # the rotation to s_next serves the Newton step and then the next step.
    degrees, g, p, T = hom.g.degrees, hom._gvec, hom._pvec, hom.T
    ev = polysys.evaluator(degrees)
    n = ev.n
    basis = ev.place(np.stack([g, p]))
    gg, pp, gp = (bw_inner_re(degrees, a, b) for a, b in ((g, g), (p, p), (g, p)))
    rhs, bordered = _step_arrays(ev)
    newton_rhs = np.zeros(n + 1, dtype=np.complex128)
    z = _start_point(ev.n_vars, z0)
    s = 0.0
    steps = 0
    trace: list[StepRecord] = []
    mix, hdot2 = _rotation(s, gg, pp, gp)
    while s != T:
        if steps >= opts.max_steps:
            return TrackResult(z, TrackStatus.MAX_STEPS, steps, tuple(trace))
        B = basis.dot(ev.point_matrix(z))
        bordered[n] = z.conj()
        try:
            x1, x2 = _chi(_rotate(mix, B, n), hdot2, bordered, rhs)
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, steps, tuple(trace))
        phi = x1 * x2
        t = _step_length(ev.max_d, phi)
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
        mix, hdot2 = _rotation(s_next, gg, pp, gp)
        block = _rotate(mix, B, n)[0]
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


def track_path(
    g: polysys.PolySystem,
    f: polysys.PolySystem,
    z0,
    opts: TrackerOptions = TrackerOptions(),
) -> TrackResult:
    """Track from a zero of g to the target f; f == g returns immediately."""
    if _systems_equal(g, f):
        return TrackResult(_start_point(g.n_vars, z0), TrackStatus.SUCCESS, 0, ())
    return track_linear(make_linear_homotopy(g, f), z0, opts)


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


def write_trace_csv(result: TrackResult, path) -> None:
    """Per-step trace: step, s, t, phi, chi1, chi2, then point coordinates,
    floats in FLOAT_FMT."""
    n_coords = result.endpoint.shape[0]
    header = ["step", "s", "t", "phi", "chi1", "chi2", "accepted"]
    header += [f"re{j}" for j in range(n_coords)] + [f"im{j}" for j in range(n_coords)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in result.trace:
            row = [rec.step]
            row += [FLOAT_FMT % v for v in (rec.s, rec.t, rec.phi, rec.chi1, rec.chi2)]
            row.append(int(rec.accepted))
            row += [FLOAT_FMT % c.real for c in rec.z] + [FLOAT_FMT % c.imag for c in rec.z]
            writer.writerow(row)
