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
a homotopy standing still, gives t = inf and no certified jump to the end).
A path that has taken MAX_STEPS steps ends MaxSteps.

Exact operator norms are used for chi_1 (the rule only requires a value
within a factor 2), which maximizes the step length at the cost of one
small SVD per step.

A step builds one point matrix at z_i (polysys.Evaluator) and takes one
product of it with the homotopy's (g, p), placed once per path: on
h_s = cos(s) g + sin(s) p the blocks of h_{s_i}, hdot_{s_i} and the advanced
system are real rotations of theirs.  One factorization and one
(n+2)-column solve give chi_1 and chi_2, one more the Newton step.  chi1,
chi2 and certified_step run the loop's code.

The path's geometry, speed included, is LinearHomotopy's.

Both trackers set up a path's step buffers once (_StepBuffers): the placed
(g, p), the (2n, n+2) product, the (2, n, n+2) rotated blocks, the 2 x 2
rotation, the bordered matrix and both right-hand sides, with fixed views of
their parts.  A step writes into them (np.dot and np.conjugate with out=,
the rotation's four entries in place) with the same BLAS calls on the same
operands as a step that allocates its arrays, so the bits are those of such
a step.  What a step still allocates comes back from the point matrix,
LAPACK, the SVD and the Newton update.  The trackers run on one BLAS thread
(see linalg).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, polysys
from .bw import bw_inner_re, ensure_on_sphere
from .linalg import SingularLinearSolveError, bordered_solve, make_bordered
from .newton import condition_mu, refine

# c/P of the step rule on the great circle, rounded down: curvature bound
# H = 2^{-3/2} for largest degree d >= 2, H = 1 for d = 1 (see the module
# docstring); tests/test_tracker.py checks both against the formula for (c, P).
C_OVER_P_LINEAR = 0.04804448
C_OVER_P_DEGREE_ONE = 0.04662682
# Steps after which a path gives up with status MaxSteps.
MAX_STEPS = 1_000_000
# Floats in CSV output: 17 significant digits give back every double exactly.
FLOAT_FMT = "%.17g"


class DegenerateHomotopyError(Exception):
    """Start and target system coincide up to sign: no great-circle homotopy."""


class TrackStatus(enum.Enum):
    """Why a path stopped.

    MIN_STEP_REACHED: the certified step is no finite length that advances
    the arc parameter s in floating point (s + t == s, t == 0, or a NaN or
    infinite step length, as phi == 0 gives).  The heuristic tracker reports
    it when its step halving falls below heuristic.T_STEP_MIN.
    SINGULAR: a bordered matrix of the step has an exact zero pivot (see
    linalg); a near-singular one is no failure: it gives a short step.
    MAX_STEPS: the path took MAX_STEPS steps (heuristic.MAX_ATTEMPTS
    attempts) without reaching the end.
    """

    SUCCESS = "Success"
    MIN_STEP_REACHED = "MinStepReached"
    SINGULAR = "SingularLinearSolve"
    MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class TrackerOptions:
    """What the certified tracking loop records: a StepRecord per step when
    record_trace is set.  The step rule has no knob: every step is the upper
    end of the certified interval, with the constant of the path's largest
    degree, and no floor applies to it.
    """

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

    h_s = cos(s) g + sin(s) p with p (_pvec) the unit normal component of f
    against g; h_T = f with T = arccos(Re<f, g>).  Both trackers read the
    speed ||hdot_s|| from it (speed_squared).
    """

    g: polysys.PolySystem
    T: float
    _gvec: np.ndarray = field(repr=False)
    _pvec: np.ndarray = field(repr=False)

    def value_at(self, s: float) -> polysys.PolySystem:
        """The system h_s = cos(s) g + sin(s) p, over a vector built here and
        handed to it without a second copy."""
        vec = math.cos(s) * self._gvec
        vec += math.sin(s) * self._pvec
        return polysys.PolySystem._adopt(self.g.degrees, vec)

    def derivative_at(self, s: float) -> polysys.PolySystem:
        """The tangent -sin(s) g + cos(s) p at h_s, built as value_at is."""
        vec = -math.sin(s) * self._gvec
        vec += math.cos(s) * self._pvec
        return polysys.PolySystem._adopt(self.g.degrees, vec)

    @cached_property
    def _products(self) -> tuple[float, float, float]:
        # <g, g>, <p, p> and Re<g, p> (1, 1 and 0 up to rounding), on first read.
        degrees, g, p = self.g.degrees, self._gvec, self._pvec
        return tuple(bw_inner_re(degrees, a, b) for a, b in ((g, g), (p, p), (g, p)))

    def speed_squared(self, c: float, sn: float) -> float:
        """||hdot_s||^2 at c = cos(s), sn = sin(s):
        sin^2(s) <g,g> + cos^2(s) <p,p> - 2 sin(s) cos(s) Re<g,p>."""
        gg, pp, gp = self._products
        return sn * sn * gg + c * c * pp - 2.0 * sn * c * gp


def make_linear_homotopy(g: polysys.PolySystem, f: polysys.PolySystem) -> LinearHomotopy:
    """Great-circle homotopy between unit-norm systems g and f.

    Raises DegenerateHomotopyError when f is (numerically) a real multiple of
    g, where no great circle is determined.
    """
    ensure_on_sphere(g, what="start system")
    ensure_on_sphere(f, what="target system")
    if g.degrees != f.degrees:
        raise ValueError(f"degree mismatch: {g.degrees} vs {f.degrees}")
    r = bw_inner_re(g.degrees, f._vec, g._vec)
    if abs(r) >= 1.0 - 1e-12:
        raise DegenerateHomotopyError(f"|Re<f, g>| = {abs(r)!r}; start and target are aligned")
    # T = arccos(r) rather than arcsin(sqrt(1 - r^2)): the two agree for r >= 0
    # and only arccos lands h_T = f when r < 0.
    # p = (f - r g) / sqrt(1 - r^2), with PolySystem's complex scalars.
    gvec = g.coeff_vector()
    pvec = complex(1.0 / math.sqrt(1.0 - r * r)) * (f.coeff_vector() - complex(r) * gvec)
    return LinearHomotopy(g=g, T=math.acos(r), _gvec=gvec, _pvec=pvec)


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
    loop takes from (g, z) when gdot is the tangent there, before the loop
    clips it to the end of the path.  No floor applies.  A tangent with
    phi = 0 gives t = inf, as in the loop, where it ends the path
    MinStepReached.  Raises SingularLinearSolveError on an exact zero pivot
    of the bordered matrix; a near-singular one gives a short t.
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
    z = polysys._checked_point(g.n_vars, z)
    gdot_vec = gdot.coeff_vector()
    buf = _StepBuffers(polysys.evaluator(g.degrees), g.coeff_vector(), gdot_vec)
    buf.load(z)
    buf.rot[...] = buf.B.reshape(buf.rot.shape)
    np.conjugate(z, out=buf.border)
    return _chi(buf, bw_inner_re(g.degrees, gdot_vec, gdot_vec))


class _StepBuffers:
    """A path's placed (g, p), the arrays a step writes into, allocated once
    per path, and fixed views of them, so that a step takes no slice either.

    basis: the (2n, rows) placement of the coefficient vectors g and p.
    B: the (2n, n+2) product of basis with a point matrix (load).
    rot: its rotation (rotate) into the (2, n, n+2) blocks [Dh(z) | h(z)]
    and [Dhdot(z) | hdot(z)] of (h_s, hdot_s), by the real 2 x 2 mix
    (written through its flat view mix_flat) applied to the real
    (2, 2n(n+2)) views B_real and rot_real.
    bordered: (Dh(z); z*), which the factorization copies, so it is filled
    again for each one.
    rhs: the n+2 columns of the chi solve, Diag(sqrt(d_i), 1) for chi1 and
    hdot(z) for chi2.  rhs1: one column (v; 0), with v = h(z) for the Newton
    step and v = -hdot(z) for the heuristic predictor's tangent.
    """

    def __init__(self, ev: polysys.Evaluator, g: np.ndarray, p: np.ndarray):
        n = ev.n
        self.ev = ev
        self.basis = ev.place(np.stack([g, p]))
        self.B = np.empty((2 * n, n + 2), dtype=np.complex128)
        self.rot = np.empty((2, n, n + 2), dtype=np.complex128)
        self.B_real = self.B.view(np.float64).reshape(2, -1)
        self.rot_real = self.rot.view(np.float64).reshape(2, -1)
        self.mix = np.empty((2, 2))
        self.mix_flat = self.mix.reshape(-1)
        self.bordered = np.empty((n + 1, n + 1), dtype=np.complex128)
        self.rhs = np.zeros((n + 1, n + 2), dtype=np.complex128)
        for i, d in enumerate(ev.degrees):
            self.rhs[i, i] = math.sqrt(d)
        self.rhs[n, n] = 1.0
        self.rhs1 = np.zeros(n + 1, dtype=np.complex128)
        self.jac, self.border = self.bordered[:n], self.bordered[n]
        self.h_jac, self.h_val = self.rot[0, :, : n + 1], self.rot[0, :, n + 1]
        self.hdot_val = self.rot[1, :, n + 1]
        self.rhs_hdot, self.rhs1_top = self.rhs[:n, n + 1], self.rhs1[:n]

    def load(self, z) -> None:
        """B = basis times the point matrix at z."""
        np.dot(self.basis, self.ev.point_matrix(z), out=self.B)

    def rotate(self, s: float) -> tuple[float, float]:
        """Rotate B into rot at s: h_s = cos(s) g + sin(s) p and
        hdot_s = -sin(s) g + cos(s) p.  Returns (cos(s), sin(s))."""
        c, sn = math.cos(s), math.sin(s)
        mix = self.mix_flat
        mix[0] = mix[3] = c
        mix[1] = sn
        mix[2] = -sn
        np.dot(self.mix, self.B_real, out=self.rot_real)
        return c, sn


def _chi(buf: _StepBuffers, hdot2: float) -> tuple[float, float]:
    """chi1 and chi2 at (h, z) from the blocks in buf.rot and ||hdot||^2: one
    factorization of the bordered matrix, whose last row already holds z*,
    and one solve against the n+2 columns of buf.rhs."""
    buf.jac[...] = buf.h_jac
    lu = linalg.lu_factor_checked(buf.bordered)
    buf.rhs_hdot[...] = buf.hdot_val
    sol = linalg.lu_solve(lu, buf.rhs)
    x1 = float(np.linalg.svd(sol[:, :-1], compute_uv=False)[0])
    x2 = math.sqrt(hdot2 + linalg.vector_norm(sol[:, -1]) ** 2)
    return x1, x2


def _start_point(n_vars: int, z0) -> np.ndarray:
    # The unit representative of a start point of finite, nonzero norm.
    z = polysys._checked_point(n_vars, z0)
    norm = linalg.vector_norm(z)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"start point needs a finite, nonzero norm, got {norm!r}")
    return z / norm


def _systems_equal(g: polysys.PolySystem, f: polysys.PolySystem, tol: float = 1e-13) -> bool:
    # Written so that a NaN coefficient compares unequal.
    return g.degrees == f.degrees and np.max(np.abs(g._vec - f._vec)) <= tol


@linalg.one_blas_thread
def track_linear(
    hom: LinearHomotopy, z0, opts: TrackerOptions = TrackerOptions()
) -> TrackResult:
    """Follow the lifted path of a linear homotopy from an approximate zero z0 of g.

    z0 must lie within Riemann distance newton.certified_radius(g, zeta) of
    a zero zeta of g (exact start zeros do).  On Success the endpoint is an
    approximate zero of f associated to the end of the lifted path through
    the start pair.
    """
    # (g, p) is placed once per path and multiplied by each point matrix once;
    # that product is rotated to s for the step and to s_next for the Newton
    # step.
    ev = polysys.evaluator(hom.g.degrees)
    buf = _StepBuffers(ev, hom._gvec, hom._pvec)
    T = hom.T
    z = _start_point(ev.n_vars, z0)
    s = 0.0
    steps = 0
    trace: list[StepRecord] = []
    while s != T:
        if steps >= MAX_STEPS:
            return TrackResult(z, TrackStatus.MAX_STEPS, steps, tuple(trace))
        buf.load(z)
        np.conjugate(z, out=buf.border)
        c, sn = buf.rotate(s)
        try:
            x1, x2 = _chi(buf, hom.speed_squared(c, sn))
            phi = x1 * x2
            t = _step_length(ev.max_d, phi)
            # The step must be finite and move s in floating point; written
            # so that t == 0 and a NaN t stop here too.
            if not s < s + t < math.inf:
                return TrackResult(z, TrackStatus.MIN_STEP_REACHED, steps, tuple(trace))
            if t >= T - s:
                # Last step: assign the endpoint exactly so the loop terminates.
                t = T - s
                s_next = T
            else:
                s_next = s + t
            buf.rotate(s_next)
            buf.jac[...] = buf.h_jac
            lu = linalg.lu_factor_checked(buf.bordered)
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, steps, tuple(trace))
        buf.rhs1_top[...] = buf.h_val
        z = z - linalg.lu_solve(lu, buf.rhs1)
        z /= linalg.vector_norm(z)
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


@linalg.one_blas_thread
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
    for k, t in enumerate(ts.tolist()):
        h_t = hom.value_at(t)
        if k > 0:
            zeta = refine(h_t, zeta)
        hdot = hom.derivative_at(t)
        B = make_bordered(polysys.jacobian(h_t, zeta), zeta)
        zetadot = bordered_solve(B, np.concatenate([-polysys.evaluate(hdot, zeta), [0.0]]))
        hdot2 = hom.speed_squared(math.cos(t), math.sin(t))
        speed = math.sqrt(hdot2 + linalg.vector_norm(zetadot) ** 2)
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
