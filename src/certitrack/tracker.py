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
of theirs.  The path's step engine (_StepBuffers) owns the work array the
rotation writes, whose strided view is the bordered matrix, and the kernels
that read it: chi (linalg.bordered_solve against n+2 columns, then
linalg.spectral_norm, give chi_1 and chi_2), newton (one more bordered_solve,
the Newton step, written into two path-owned points in turn) and the
heuristic predictor's velocity.  condition_length reads the loop's chi; the
step rule is read on a tracked path, whose trace holds each step's t, phi and
both chi factors.  With the point matrix built in the calling thread's
workspace (polysys.Evaluator.point_matrix), a step allocates array data only
for what LAPACK and the SVD return; a trace row keeps a copy of its point.
Every BLAS and LAPACK call has the operands of a step that allocates its
arrays, so the bits are those of such a step; the trackers run on one BLAS
thread (see linalg).
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
    against g, whose vector g._vec is read uncopied; h_T = f with T =
    arccos(Re<f, g>).  track_linear and condition_length read ||hdot_s|| (speed_squared).
    """

    g: polysys.PolySystem
    T: float
    _pvec: np.ndarray = field(repr=False)

    def value_at(self, s: float) -> polysys.PolySystem:
        """The system h_s = cos(s) g + sin(s) p, over a vector built here and
        handed to it without a second copy."""
        vec = math.cos(s) * self.g._vec
        vec += math.sin(s) * self._pvec
        return polysys.PolySystem._adopt(self.g.degrees, vec)

    @cached_property
    def _products(self) -> tuple[float, float, float]:
        # <g, g>, <p, p> and Re<g, p> (1, 1 and 0 up to rounding), on first read.
        degrees, g, p = self.g.degrees, self.g._vec, self._pvec
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
    pvec = complex(1.0 / math.sqrt(1.0 - r * r)) * (f._vec - complex(r) * g._vec)
    return LinearHomotopy(g=g, T=math.acos(r), _pvec=pvec)


class _StepBuffers:
    """A path's step engine: its placed (g, p), the arrays a step writes
    into and the kernels that read them, bound once per path from its
    LinearHomotopy hom, so that a step allocates no work array and takes no
    slice.

    The work array W, (2n+1, n+2), holds [Dhdot(z) | hdot(z)] in rows [:n],
    [Dh(z) | h(z)] in rows [n:2n], and z* and a fixed 0 in row 2n.  Placing
    the path at (s, z) multiplies basis, the (2n, rows) placement of g and
    p, by the point matrix at z, writes z* into row 2n and rotates the
    product into W[:2n] (rot_real, its real view) by the real 2 x 2 mix
    [-sin, cos; cos, sin].  bordered, the strided view W[n:, :n+1], is
    (Dh(z); z*), which zgetrf's wrapper copies: the rotation's output is the
    factorization's input.  newton_rhs, the view W[n:, n+1], is (h(z); 0).
    stage is the point of the heuristic predictor's next RK4 stage.  The
    kernels chi, newton, velocity and step_length are closures over these
    arrays and what a step calls (linalg.bordered_solve, spectral_norm),
    bound here: a wrapper installed before the buffers are made is called.
    """

    def __init__(self, hom: LinearHomotopy):
        ev = polysys.evaluator(hom.g.degrees)
        n = ev.n
        self.ev = ev
        self.basis = ev.place(np.stack([hom.g._vec, hom._pvec]))
        W = np.zeros((2 * n + 1, n + 2), dtype=np.complex128)
        self.rot_real = W[: 2 * n].view(np.float64).reshape(2, -1)
        self.bordered, self.newton_rhs = W[n:, : n + 1], W[n:, n + 1]
        self.stage = np.empty(n + 1, dtype=np.complex128)
        self.chi, self.newton, self.velocity, self.step_length = self._step_kernels(hom, W)

    def _step_kernels(self, hom: LinearHomotopy, W: np.ndarray):
        # chi, newton, velocity and step_length, with every array and kernel
        # they read bound here.  ndarray.dot is np.dot's product without its
        # dispatch.
        ev, n = self.ev, self.ev.n
        B = np.empty((2 * n, n + 2), dtype=np.complex128)
        B_real, rot_real = B.view(np.float64).reshape(2, -1), self.rot_real
        bordered, newton_rhs = self.bordered, self.newton_rhs
        border, hdot_val = W[2 * n, : n + 1], W[:n, n + 1]
        # The chi solve's n+2 columns, Diag(sqrt(d_i), 1) for chi_1 and
        # (hdot(z); 0) for chi_2, and the velocity's one column (-hdot(z); 0).
        rhs = np.zeros((n + 1, n + 2), dtype=np.complex128)
        for i, d in enumerate(ev.degrees):
            rhs[i, i] = math.sqrt(d)
        rhs[n, n] = 1.0
        rhs_hdot = rhs[:-1, -1]
        rhs1 = np.zeros(n + 1, dtype=np.complex128)
        rhs1_top = rhs1[:n]
        # The Newton step z - x is written into the one of two path-owned
        # points that z is not, and normalized there with linalg.vector_norm's
        # ddots on its real and imaginary views, bound once per point.
        first, second = np.empty(n + 1, dtype=np.complex128), np.empty(n + 1, dtype=np.complex128)
        points = [(w, w.real, w.real.dot, w.imag, w.imag.dot) for w in (first, second)]
        mix = np.empty((2, 2))
        mix_flat, mix_dot, basis_dot = mix.reshape(-1), mix.dot, self.basis.dot
        point_matrix, solve, sigma_max = ev.point_matrix, linalg.bordered_solve, linalg.spectral_norm
        speed_squared, norm = hom.speed_squared, linalg.vector_norm
        conjugate, divide, negative, subtract = np.conjugate, np.divide, np.negative, np.subtract
        cos, sin, sqrt = math.cos, math.sin, math.sqrt
        c_over_p = C_OVER_P_LINEAR if ev.max_d >= 2 else C_OVER_P_DEGREE_ONE
        d32 = ev.max_d**1.5

        def rotate(s: float) -> tuple[float, float]:
            # B into W at s: hdot_s = -sin(s) g + cos(s) p and h_s = cos(s) g
            # + sin(s) p, which puts Dh_s(z) in bordered.
            c, sn = cos(s), sin(s)
            mix_flat[0] = -sn
            mix_flat[1] = mix_flat[2] = c
            mix_flat[3] = sn
            mix_dot(B_real, out=rot_real)
            return c, sn

        def place(s: float, z: np.ndarray) -> tuple[float, float]:
            # B from the point matrix at z, z* in the bordered row, and the
            # rotation to s.  Returns (cos(s), sin(s)).
            basis_dot(point_matrix(z), out=B)
            conjugate(z, out=border)
            return rotate(s)

        def chi(s: float, z: np.ndarray) -> tuple[float, float]:
            """chi1 and chi2 at (h_s, z), z of unit norm: one bordered solve
            of (Dh_s(z); z*) against the n+2 columns of rhs, the spectral
            norm of its first n+1, and speed_squared.  z* stays in bordered
            and z's blocks in B for the Newton step."""
            c, sn = place(s, z)
            rhs_hdot[...] = hdot_val
            sol = solve(bordered, rhs)
            return sigma_max(sol[:, :-1]), sqrt(speed_squared(c, sn) + norm(sol[:, -1]) ** 2)

        def newton(s: float, z: np.ndarray) -> np.ndarray:
            """The projective Newton step from z, the point chi placed,
            against h_s, normalized: z - (Dh_s(z); z*)^{-1} (h_s(z); 0) in
            the path-owned point that z is not, which the next call but one
            overwrites."""
            rotate(s)
            w, re, re_dot, im, im_dot = points[z is first]
            subtract(z, solve(bordered, newton_rhs), out=w)
            w /= sqrt(re_dot(re) + im_dot(im))
            return w

        def velocity(s: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """(Dh_s(z); z*/|z|) and (-hdot_s(z); 0), z of any norm: the
            bordered system whose solution is the path's velocity at (s, z).
            Both arrays are the buffers', overwritten by the next placement."""
            place(s, z)
            divide(border, norm(z), out=border)
            negative(hdot_val, out=rhs1_top)
            return bordered, rhs1

        def step_length(phi: float) -> float:
            """c/P / (d^{3/2} phi), with the c/P of the largest degree d;
            phi == 0 (a zero-speed homotopy) gives t = inf: no certified
            step."""
            return c_over_p / (d32 * phi) if phi else math.inf

        return chi, newton, velocity, step_length


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
    # chi rotates that product to s for the step, newton to s_next.
    buf = _StepBuffers(hom)
    chi, newton, step_length = buf.chi, buf.newton, buf.step_length
    record, inf = opts.record_trace, math.inf
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
            x1, x2 = chi(s, z)
            phi = x1 * x2
            t = step_length(phi)
            # The step must be finite and move s in floating point; written
            # so that t == 0 and a NaN t stop here too.
            if not s < s + t < inf:
                status = TrackStatus.MIN_STEP_REACHED
                break
            if t >= T - s:
                # Last step: assign the endpoint exactly so the loop terminates.
                t = T - s
                s_next = T
            else:
                s_next = s + t
            z = newton(s_next, z)
        except SingularLinearSolveError:
            status = TrackStatus.SINGULAR
            break
        steps += 1
        if record:
            rows.append((s_next, t, phi, x1, x2, z.copy()))
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
    hom = LinearHomotopy(g, 0.0, g._vec) if same else make_linear_homotopy(g, f)
    return track_linear(hom, z0, opts)


@linalg.one_blas_thread
def condition_length(hom: LinearHomotopy, z0, result: TrackResult) -> float:
    """Numerical condition length of the lifted path through z0, the oracle
    for the certified step-count bound: the trapezoid rule on the loop's
    phi = chi1 * chi2 over the nodes 0, s_1, ..., s_N of result, the path's
    certified trace (result = track_linear(hom, z0), traced), at the zeros
    refined from z0 and the trace's points.  The path is not tracked again.

    At a zero zeta of h, phi is the integrand mu(h, zeta) ||(hdot, zetadot)||:
    chi2 is ||(hdot, zetadot)||, zetadot = -(Dh(zeta); zeta*)^{-1} (hdot(zeta); 0),
    and chi1 = max(mu, 1) = mu, because (Dh(zeta); zeta*) maps zeta to the
    last unit vector (Euler), so chi1's matrix is mu's (||h|| = 1) with the
    orthogonal unit column zeta appended.  The steps keep t_i phi_i constant,
    so the nodes are dense where phi peaks.  There is no error bound: finer
    meshes read within 1.1e-5 relative on the paths measured (n = 2, 3 and
    Katsura-4), and an underestimate errs toward a false violation of
    theorem_step_bound.  Raises ValueError if the path did not end Success,
    or if result holds no trace row per step (tracked with record_trace off):
    its one node s = 0 would read C = 0.
    """
    if not result.success:
        raise ValueError(f"no condition length: the path ended {result.status.value}")
    if len(result.trace) != result.num_steps:
        raise ValueError("no condition length: the path was tracked without its trace")
    buf = _StepBuffers(hom)
    nodes = np.concatenate([[0.0], result.trace.s])
    points = zip(nodes.tolist(), [z0, *result.trace.z])
    phi = np.array([math.prod(buf.chi(s, refine(hom.value_at(s), z))) for s, z in points])
    return float(np.dot(np.diff(nodes), phi[1:] + phi[:-1]) / 2.0)


def theorem_step_bound(hom: LinearHomotopy, z0, result: TrackResult) -> int:
    """ceil(71 * d^{3/2} * C): the certified step-count bound, with C the
    condition_length of result, the traced path through z0, on its nodes.
    Raises condition_length's ValueError on a failed or untraced result."""
    return math.ceil(71.0 * hom.g.max_degree**1.5 * condition_length(hom, z0, result))
