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
h_s = cos(s) g + sin(s) p (LinearHomotopy, the path's geometry and speed)
the blocks of h_{s_i}, hdot_{s_i} and the advanced system are real rotations
of theirs.  One factorization and one (n+2)-column solve give chi_1 and
chi_2, one more the Newton step.  They run on the path's step buffers
(_StepBuffers), as do chi1, chi2, certified_step, condition_length and the
heuristic's predictor, with the same BLAS calls on the same operands as a
step that allocates its arrays, so the bits are those of such a step.  The
trackers run on one BLAS thread (see linalg).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, polysys
from .bw import bw_inner_re, ensure_on_sphere
from .linalg import SingularLinearSolveError
from .newton import refine

# c/P of the step rule on the great circle, rounded down: curvature bound
# H = 2^{-3/2} for largest degree d >= 2, H = 1 for d = 1 (see the module
# docstring); tests/test_tracker.py checks both against the formula for (c, P).
C_OVER_P_LINEAR = 0.04804448
C_OVER_P_DEGREE_ONE = 0.04662682
# Steps after which a path gives up with status MaxSteps.
MAX_STEPS = 1_000_000


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
    """What a tracking loop records, for track_linear and
    heuristic.track_heuristic alike: a trace row per step (per attempt for
    the heuristic) when record_trace is set.  No step rule has a knob.
    """

    record_trace: bool = True


@dataclass(frozen=True)
class TrackResult:
    """Where and why a path stopped, after num_steps steps (accepted ones
    for the heuristic).  trace is a read-only NumPy record array, row k for
    step k + 1 (the heuristic: attempt k + 1), read as trace[k].s or by
    column, trace.s; it has 0 rows unless the loop recorded it.  Certified
    columns: s (arc parameter after the step), t (step length), phi = chi1 *
    chi2, chi1, chi2, and z, the (n+1,) point after the step.  Heuristic
    columns: s, t, error (the corrector's last Newton step size), accepted
    (error <= heuristic.CORRECTOR_TOL) and z, the corrected point.
    """

    endpoint: np.ndarray
    status: TrackStatus
    num_steps: int
    trace: np.recarray

    @property
    def success(self) -> bool:
        return self.status is TrackStatus.SUCCESS


def _trace_array(rows: list, columns: list, n_vars: int) -> np.recarray:
    # A loop's rows, tuples of the (name, type) columns and then the point z,
    # as a read-only record array.
    trace = np.array(rows, dtype=columns + [("z", np.complex128, (n_vars,))]).view(np.recarray)
    trace.flags.writeable = False
    return trace


_COLUMNS = [(name, np.float64) for name in ("s", "t", "phi", "chi1", "chi2")]


@dataclass(frozen=True)
class LinearHomotopy:
    """Arc-length parametrization of the great circle from g to f on the sphere.

    h_s = cos(s) g + sin(s) p with p (_pvec) the unit normal component of f
    against g; h_T = f with T = arccos(Re<f, g>).  track_linear and
    condition_length read the speed ||hdot_s|| from it (speed_squared).
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
    # At s = 0, cos(s) g + sin(s) gdot is g with tangent gdot (T is unused).
    hom = LinearHomotopy(g, 0.0, g.coeff_vector(), gdot.coeff_vector())
    return _StepBuffers(hom).chi(0.0, z)


class _StepBuffers:
    """A path's placed (g, p), the arrays a step writes into, allocated once
    per path from its LinearHomotopy hom, and fixed views of them, so that a
    step takes no slice either.

    basis: the (2n, rows) placement of the coefficient vectors g and p.
    B: the (2n, n+2) product of basis with a point matrix (at).
    rot: its rotation (rotate) into the (2, n, n+2) blocks [Dh(z) | h(z)]
    and [Dhdot(z) | hdot(z)] of (h_s, hdot_s), by the real 2 x 2 mix
    (written through its flat view mix_flat) applied to the real
    (2, 2n(n+2)) views B_real and rot_real.
    bordered: (Dh(z); z*), which the factorization copies: at writes its
    row z*, and rotate its Jacobian rows again before each factorization.
    rhs: the n+2 columns of the chi solve, Diag(sqrt(d_i), 1) for chi1 and
    hdot(z) for chi2.  rhs1: one column (v; 0), with v = h(z) for the Newton
    step and v = -hdot(z) for the heuristic predictor's tangent.
    """

    def __init__(self, hom: LinearHomotopy):
        ev = polysys.evaluator(hom.g.degrees)
        n = ev.n
        self.hom = hom
        self.ev = ev
        self.basis = ev.place(np.stack([hom._gvec, hom._pvec]))
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

    def at(self, s: float, z: np.ndarray) -> tuple[float, float]:
        """Place the path at (s, z): B from the point matrix at z, z* in the
        bordered row, and the rotation to s.  Returns (cos(s), sin(s))."""
        np.dot(self.basis, self.ev.point_matrix(z), out=self.B)
        np.conjugate(z, out=self.border)
        return self.rotate(s)

    def rotate(self, s: float) -> tuple[float, float]:
        """Rotate B into rot at s, h_s = cos(s) g + sin(s) p and
        hdot_s = -sin(s) g + cos(s) p, and copy Dh_s(z) into the bordered
        matrix.  Returns (cos(s), sin(s))."""
        c, sn = math.cos(s), math.sin(s)
        mix = self.mix_flat
        mix[0] = mix[3] = c
        mix[1] = sn
        mix[2] = -sn
        np.dot(self.mix, self.B_real, out=self.rot_real)
        self.jac[...] = self.h_jac
        return c, sn

    def chi(self, s: float, z: np.ndarray) -> tuple[float, float]:
        """chi1 and chi2 at (h_s, z), z of unit norm: one factorization of
        (Dh_s(z); z*) and one solve against the n+2 columns of rhs, with the
        homotopy's speed_squared.  z* stays in bordered and z's blocks in B
        for the Newton step."""
        c, sn = self.at(s, z)
        lu = linalg.lu_factor_checked(self.bordered)
        self.rhs_hdot[...] = self.hdot_val
        sol = linalg.lu_solve(lu, self.rhs)
        x1 = linalg.spectral_norm(sol[:, :-1])
        x2 = math.sqrt(self.hom.speed_squared(c, sn) + linalg.vector_norm(sol[:, -1]) ** 2)
        return x1, x2


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
    buf = _StepBuffers(hom)
    T = hom.T
    z = polysys.unit_point(polysys._checked_point(buf.ev.n_vars, z0))
    s = 0.0
    steps = 0
    status = TrackStatus.SUCCESS
    rows = []
    while s != T:
        if steps >= MAX_STEPS:
            status = TrackStatus.MAX_STEPS
            break
        try:
            x1, x2 = buf.chi(s, z)
            phi = x1 * x2
            t = _step_length(buf.ev.max_d, phi)
            # The step must be finite and move s in floating point; written
            # so that t == 0 and a NaN t stop here too.
            if not s < s + t < math.inf:
                status = TrackStatus.MIN_STEP_REACHED
                break
            if t >= T - s:
                # Last step: assign the endpoint exactly so the loop terminates.
                t = T - s
                s_next = T
            else:
                s_next = s + t
            buf.rotate(s_next)
            lu = linalg.lu_factor_checked(buf.bordered)
        except SingularLinearSolveError:
            status = TrackStatus.SINGULAR
            break
        buf.rhs1_top[...] = buf.h_val
        z = z - linalg.lu_solve(lu, buf.rhs1)
        z /= linalg.vector_norm(z)
        steps += 1
        if opts.record_trace:
            rows.append((s_next, t, phi, x1, x2, z))
        s = s_next
    return TrackResult(z, status, steps, _trace_array(rows, _COLUMNS, buf.ev.n_vars))


def track_path(
    g: polysys.PolySystem,
    f: polysys.PolySystem,
    z0,
    opts: TrackerOptions = TrackerOptions(),
) -> TrackResult:
    """Track from a zero of g to the target f.  For f == g the homotopy has
    length 0, and the loop ends Success at the start point without a step."""
    # Written so that a NaN coefficient compares unequal.
    same = g.degrees == f.degrees and np.max(np.abs(g._vec - f._vec)) <= 1e-13
    hom = LinearHomotopy(g, 0.0, g._vec, g._vec) if same else make_linear_homotopy(g, f)
    return track_linear(hom, z0, opts)


@linalg.one_blas_thread
def condition_length(hom: LinearHomotopy, z0) -> float:
    """Numerical condition length of the lifted path through z0, the oracle
    for the certified step-count bound: the trapezoid rule on the loop's
    phi = chi1 * chi2 over the nodes 0, s_1, ..., s_N of the path's certified
    trace (track_linear), at the zeros refined from z0 and the trace's points.

    At a zero zeta of h, phi is the integrand mu(h, zeta) ||(hdot, zetadot)||:
    chi2 is ||(hdot, zetadot)||, zetadot = -(Dh(zeta); zeta*)^{-1} (hdot(zeta); 0),
    and chi1 = max(mu, 1) = mu, because (Dh(zeta); zeta*) maps zeta to the
    last unit vector (Euler), so chi1's matrix is mu's (||h|| = 1) with the
    orthogonal unit column zeta appended.  The steps keep t_i phi_i constant,
    so the nodes are dense where phi peaks.  There is no error bound: finer
    meshes read within 1.1e-5 relative on the paths measured (n = 2, 3 and
    Katsura-4), and an underestimate errs toward a false violation of
    theorem_step_bound.  Raises ValueError if the path does not end Success.
    """
    result = track_linear(hom, z0)
    if not result.success:
        raise ValueError(f"no condition length: the path ended {result.status.value}")
    buf = _StepBuffers(hom)
    nodes = np.concatenate([[0.0], result.trace.s])
    points = zip(nodes.tolist(), [z0, *result.trace.z])
    phi = np.array([math.prod(buf.chi(s, refine(hom.value_at(s), z))) for s, z in points])
    return float(np.dot(np.diff(nodes), phi[1:] + phi[:-1]) / 2.0)


def theorem_step_bound(hom: LinearHomotopy, z0) -> int:
    """ceil(71 * d^{3/2} * C): the certified step-count bound, with C the
    condition_length of the path through z0, on its certified trace's nodes.
    Raises condition_length's ValueError if the path does not end Success."""
    return math.ceil(71.0 * hom.g.max_degree**1.5 * condition_length(hom, z0))
