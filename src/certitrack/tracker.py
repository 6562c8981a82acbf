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
TrackerOptions.t_step_min.

Exact operator norms are used for chi_1 (the rule only requires a value
within a factor 2), which maximizes the step length at negligible cost for
desk-scale systems.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import polysys
from .bw import bw_inner, bw_norm, ensure_on_sphere, riemann_distance
from .linalg import (
    SingularLinearSolveError,
    bordered_solve,
    make_bordered,
    spectral_norm,
)
from .newton import U0, condition_mu, refine

C_OVER_P_LINEAR = 0.04804448


class DegenerateHomotopyError(Exception):
    """Start and target system coincide up to sign: no great-circle homotopy."""


class MinStepError(Exception):
    """The certified step dropped below an explicitly configured t_step_min."""


class TrackStatus(enum.Enum):
    """Why a path stopped.

    MIN_STEP_REACHED: the certified step fell below an opt-in t_step_min, or
    is no finite length that advances the arc parameter s in floating point
    (s + t == s, t == 0, or a NaN or infinite step length, as phi == 0
    gives).  The heuristic tracker reports it when its step halving reaches
    its own t_step_min.
    """

    SUCCESS = "Success"
    MIN_STEP_REACHED = "MinStepReached"
    SINGULAR = "SingularLinearSolve"
    MAX_STEPS = "MaxSteps"


@dataclass(frozen=True)
class TrackerOptions:
    """Knobs of the certified step rule.

    c_over_p and u0 are the certified constants and should only be overridden
    for experiments.  step_fraction places the step inside the permitted
    interval: 1.0 is the upper end (fewest steps), 0.5 the lower end.
    t_step_min is an opt-in give-up threshold on the certified step length,
    off (0.0) by default: the step rule itself needs no floor.
    """

    c_over_p: float = C_OVER_P_LINEAR
    u0: float = U0
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


def homotopy_tangent(hom: LinearHomotopy, s: float) -> polysys.PolySystem:
    """Tangent system hdot_s = -g sin(s) + fperp cos(s); unit norm by arc length."""
    return hom.derivative_at(s)


def chi1(g: polysys.PolySystem, z) -> float:
    """Operator norm of the bordered inverse times Diag(sqrt(d_i), 1)."""
    z = np.asarray(z, dtype=np.complex128)
    B = make_bordered(polysys.jacobian(g, z), z)
    return _chi1_from_factor(B, g.degrees)


def chi2(g: polysys.PolySystem, gdot: polysys.PolySystem, z) -> float:
    """Path-speed factor combining ||gdot|| with the bordered solve against gdot(z)."""
    z = np.asarray(z, dtype=np.complex128)
    B = make_bordered(polysys.jacobian(g, z), z)
    return _chi2_from_factor(B, gdot, z)


def _chi1_from_factor(B, degrees) -> float:
    n = len(degrees)
    rhs = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for i, d in enumerate(degrees):
        rhs[i, i] = math.sqrt(d)
    rhs[n, n] = 1.0
    return spectral_norm(bordered_solve(B, rhs))


def _chi2_from_factor(B, gdot: polysys.PolySystem, z) -> float:
    speed = bw_norm(gdot)
    rhs = np.concatenate([polysys.evaluate(gdot, z), [0.0]])
    w = bordered_solve(B, rhs)
    return math.sqrt(speed * speed + float(np.linalg.norm(w)) ** 2)


def certified_step(
    g: polysys.PolySystem,
    gdot: polysys.PolySystem,
    z,
    opts: TrackerOptions = TrackerOptions(),
) -> tuple[float, float]:
    """Certified step length and the factor phi = chi1 * chi2 it came from.

    The returned t equals step_fraction * (c/P) / (d^{3/2} phi), which lies in
    the certified interval for any step_fraction in [1/2, 1].  Raises
    SingularLinearSolveError on a singular bordered system.  MinStepError is
    raised only under an explicit t_step_min, for a step below it.
    """
    z = np.asarray(z, dtype=np.complex128)
    B = make_bordered(polysys.jacobian(g, z), z)
    phi = _chi1_from_factor(B, g.degrees) * _chi2_from_factor(B, gdot, z)
    t = opts.step_fraction * opts.c_over_p / (g.max_degree**1.5 * phi)
    if t < opts.t_step_min:
        raise MinStepError(f"certified step {t:.3e} fell below t_step_min={opts.t_step_min:.0e}")
    return t, phi


def general_step_constants(curvature_bound: float, u0: float = U0) -> tuple[float, float]:
    """Constants (c, P) of the certified step rule for a curvature bound H."""
    if curvature_bound < 0:
        raise ValueError("the curvature bound must be nonnegative")
    P = math.sqrt(2.0) + math.sqrt(4.0 + 5.0 * curvature_bound**2)
    a = math.sqrt(2.0) * u0 / 2.0
    c = ((1.0 - a) ** math.sqrt(2.0) / (1.0 + a)) * (
        1.0 - (1.0 - u0 / (math.sqrt(2.0) + 2.0 * u0)) ** (P / math.sqrt(2.0))
    )
    return c, P


def _systems_equal(g: polysys.PolySystem, f: polysys.PolySystem, tol: float = 1e-13) -> bool:
    return g.degrees == f.degrees and all(
        np.max(np.abs(a - b)) <= tol if a.size else True for a, b in zip(g.coeffs, f.coeffs)
    )


class _StepEngine:
    """Per-degree-vector workspace for the tracking loop.

    Works on concatenated coefficient vectors instead of system objects, and
    shares the monomial (and derivative-monomial) values at the current point
    between the step-size computation and the Newton correction, which cuts
    the per-step cost by several times at desk scale.
    """

    def __init__(self, degrees):
        from .bw import _bw_weights
        from .polysys import _jacobian_tables

        self.degrees = tuple(int(d) for d in degrees)
        self.n = len(self.degrees)
        self.n_vars = self.n + 1
        self.max_d = max(self.degrees)
        self.uniform = len(set(self.degrees)) == 1
        sizes = [polysys.num_homogeneous_monomials(self.n_vars, d) for d in self.degrees]
        self.slices = []
        off = 0
        for m in sizes:
            self.slices.append(slice(off, off + m))
            off += m
        self.total = off
        self.weights = np.concatenate([_bw_weights(self.n_vars, d) for d in self.degrees])
        self.chi1_rhs = np.zeros((self.n + 1, self.n + 1), dtype=np.complex128)
        for i, d in enumerate(self.degrees):
            self.chi1_rhs[i, i] = math.sqrt(d)
        self.chi1_rhs[self.n, self.n] = 1.0

        # One gather serves a whole step.  Each row of _gather holds, per
        # variable j, the flat index j * (max_d + 1) + e of z_j ** e in the
        # power table: first the monomials of every distinct degree, then,
        # per degree and variable, the monomials of the partial derivatives.
        # Those are scaled by their exponent multipliers and scattered to
        # their flat positions in the per-degree derivative matrices.
        var_offsets = np.arange(self.n_vars) * (self.max_d + 1)
        mono_rows, deriv_rows, scatter, mult = [], [], [], []
        self._mono_rows = {}
        self._dmat_blocks = {}
        n_mono = block = 0
        for d in sorted(set(self.degrees)):
            exps = polysys.homogeneous_exponents(self.n_vars, d)
            n_d = exps.shape[0]
            self._mono_rows[d] = slice(n_mono, n_mono + n_d)
            mono_rows.append(exps + var_offsets)
            n_mono += n_d
            for j, (sel, dexp, m) in enumerate(_jacobian_tables(self.n_vars, d)):
                deriv_rows.append(dexp + var_offsets)
                scatter.append(block + sel * self.n_vars + j)
                mult.append(m)
            self._dmat_blocks[d] = (slice(block, block + n_d * self.n_vars), (n_d, self.n_vars))
            block += n_d * self.n_vars
        self._gather = np.concatenate(mono_rows + deriv_rows)
        self._n_mono = n_mono
        self._scatter = np.concatenate(scatter)
        self._mult = np.concatenate(mult)
        self._dmat_size = block

    def point_tables(self, z):
        """Monomial values and the per-degree derivative matrices at z.

        dmat[d][k, j] is the j-th partial of the k-th degree-d monomial, so a
        Jacobian row is coefficient-vector @ dmat[d].
        """
        P = polysys._power_table(z, self.max_d)
        vals = P.take(self._gather).prod(axis=1)
        flat = np.zeros(self._dmat_size, dtype=np.complex128)
        flat[self._scatter] = self._mult * vals[self._n_mono :]
        mono = {d: vals[rows] for d, rows in self._mono_rows.items()}
        dmat = {d: flat[block].reshape(shape) for d, (block, shape) in self._dmat_blocks.items()}
        return mono, dmat

    # ndarray.dot runs the same BLAS kernels as the @ operator with less
    # per-call overhead; the rows stay separate products (a stacked product
    # would sum in another order).
    def evaluate(self, hvec, mono):
        if self.uniform:
            return hvec.reshape(self.n, -1).dot(mono[self.degrees[0]])
        out = np.empty(self.n, dtype=np.complex128)
        for i, d in enumerate(self.degrees):
            out[i] = hvec[self.slices[i]].dot(mono[d])
        return out

    def bordered(self, hvec, dmat, z):
        matrix = np.empty((self.n + 1, self.n_vars), dtype=np.complex128)
        if self.uniform:
            matrix[: self.n] = hvec.reshape(self.n, -1).dot(dmat[self.degrees[0]])
        else:
            for i, d in enumerate(self.degrees):
                matrix[i] = hvec[self.slices[i]].dot(dmat[d])
        matrix[self.n] = np.conj(z)
        return matrix

    def speed(self, hdotvec) -> float:
        return math.sqrt(float(np.dot(self.weights, np.abs(hdotvec) ** 2)))


def _run_certified_loop(
    coeffs_at,
    dcoeffs_at,
    T: float,
    degrees,
    c_over_p: float,
    z0,
    opts: TrackerOptions,
) -> TrackResult:
    from .linalg import lu_factor_checked, lu_solve

    eng = _StepEngine(degrees)
    z = np.asarray(z0, dtype=np.complex128)
    z = z / np.linalg.norm(z)
    d32 = eng.max_d**1.5
    n = eng.n
    s = 0.0
    steps = 0
    trace: list[StepRecord] = []
    rhs = np.empty((n + 1, n + 2), dtype=np.complex128)
    rhs[:, : n + 1] = eng.chi1_rhs
    rhs[n, n + 1] = 0.0
    newton_rhs = np.zeros(n + 1, dtype=np.complex128)

    hvec = coeffs_at(s)
    while s != T:
        if steps >= opts.max_steps:
            return TrackResult(z, TrackStatus.MAX_STEPS, steps, tuple(trace))
        hdotvec = dcoeffs_at(s)
        mono, dmono = eng.point_tables(z)
        try:
            lu = lu_factor_checked(eng.bordered(hvec, dmono, z))
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, steps, tuple(trace))
        # One multi-column solve covers chi1 (first n+1 columns) and chi2 (last).
        rhs[:n, n + 1] = eng.evaluate(hdotvec, mono)
        sol = lu_solve(lu, rhs)
        x1 = float(np.linalg.svd(sol[:, : n + 1], compute_uv=False)[0])
        x2 = math.sqrt(eng.speed(hdotvec) ** 2 + float(np.linalg.norm(sol[:, n + 1])) ** 2)
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
        # Projective Newton against the advanced system, at the same point z,
        # reusing the monomial values.
        hnext = coeffs_at(s_next)
        try:
            lu2 = lu_factor_checked(eng.bordered(hnext, dmono, z))
        except SingularLinearSolveError:
            return TrackResult(z, TrackStatus.SINGULAR, steps, tuple(trace))
        newton_rhs[:n] = eng.evaluate(hnext, mono)
        z = z - lu_solve(lu2, newton_rhs)
        z = z / np.linalg.norm(z)
        steps += 1
        if opts.record_trace:
            trace.append(StepRecord(steps, s_next, t, phi, x1, x2, z))
        s = s_next
        hvec = hnext
    return TrackResult(z, TrackStatus.SUCCESS, steps, tuple(trace))


def track_linear(
    hom: LinearHomotopy, z0, opts: TrackerOptions = TrackerOptions()
) -> TrackResult:
    """Follow the lifted path of a linear homotopy from an approximate zero z0 of g.

    z0 must satisfy the start certificate (exact start zeros always do).  On
    Success the endpoint is an approximate zero of f associated to the end of
    the lifted path through the start pair.
    """
    gvec, pvec = hom._gvec, hom._pvec
    return _run_certified_loop(
        lambda s: math.cos(s) * gvec + math.sin(s) * pvec,
        lambda s: -math.sin(s) * gvec + math.cos(s) * pvec,
        hom.T,
        hom.g.degrees,
        C_OVER_P_LINEAR,
        z0,
        opts,
    )


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
    c, P = general_step_constants(hom.curvature_bound, opts.u0)
    degrees = hom.value_at(0.0).degrees
    return _run_certified_loop(
        lambda s: hom.value_at(s).coeff_vector(),
        lambda s: hom.derivative_at(s).coeff_vector(),
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
