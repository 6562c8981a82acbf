"""The projective Newton operator, the condition number, Newton refinement,
and the approximate-zero radius built on them.

Every point within Riemann distance u0 / (d^(3/2) mu(h, zeta)) of a zero
zeta, with u0 = 0.17586, is an approximate zero with associated zero zeta
(certified_radius).  identify_roots decides which root an endpoint is by
these balls, for the solve's check and entropy's hits; it trusts the float
zero refine returns.  The restriction of the Jacobian to the
orthogonal complement of z is realized through the bordered matrix:
solutions of (Dh(z); z*) w = (rhs; 0) lie in that complement automatically,
so no explicit orthonormal basis is ever formed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import polysys
from .bw import bw_norm, riemann_distance
from .linalg import (
    SingularLinearSolveError,
    bordered_solve,
    make_bordered,
    one_blas_thread,
    spectral_norm,
    vector_norm,
)

U0 = 0.17586
REFINE_MAX_ITERS = 30
REFINE_TOL = 1e-14


class RefinementError(Exception):
    """Newton refinement failed to converge within the iteration budget."""


class PathCrossingError(RuntimeError):
    """Two roots identify_roots refined lie within twice the largest
    certified radius of each other: two paths went to one root."""


def newton_projective(h: polysys.PolySystem, z) -> np.ndarray:
    """One projective Newton step, renormalized to the unit representative.

    jacobian and then evaluate at the same z read h's one kept block, so a
    step builds one point matrix."""
    z = np.asarray(z, dtype=np.complex128)
    B = make_bordered(polysys.jacobian(h, z), z)
    rhs = np.zeros(h.n + 1, dtype=np.complex128)
    rhs[:-1] = polysys.evaluate(h, z)
    w = bordered_solve(B, rhs)
    out = z - w
    out /= vector_norm(out)
    return out


@one_blas_thread
def condition_mu(h: polysys.PolySystem, z) -> float:
    """Condition number mu(h, z): +inf at an exact zero pivot, large near one.

    Read at z's unit representative (polysys.unit_point, whose ValueError
    names a zero or non-finite norm), as the trackers read a start point."""
    z = polysys.unit_point(z)
    n = h.n
    B = make_bordered(polysys.jacobian(h, z), z)
    rhs = np.zeros((n + 1, n), dtype=np.complex128)
    for i, d in enumerate(h.degrees):
        rhs[i, i] = math.sqrt(d)
    try:
        W = bordered_solve(B, rhs)
    except SingularLinearSolveError:
        return math.inf
    return bw_norm(h) * spectral_norm(W)


def certified_radius(h: polysys.PolySystem, zeta) -> float:
    """Approximate-zero radius U0 / (d^(3/2) condition_mu(h, zeta)), that of
    identify_roots' balls; 0.0 at infinite mu."""
    mu = condition_mu(h, zeta)
    if not math.isfinite(mu):
        return 0.0
    return U0 / (h.max_degree ** 1.5 * mu)


def _newton_steps(h: polysys.PolySystem, z, max_steps: int, tol: float) -> tuple[np.ndarray, float]:
    # At most max_steps projective Newton steps from the unit representative
    # of z, stopping after the first step shorter than tol in d_R.  Returns
    # the last iterate and that last step's length (inf for no step).
    z = polysys.unit_point(z)
    step = math.inf
    for _ in range(max_steps):
        nxt = newton_projective(h, z)
        step = riemann_distance(nxt, z)
        z = nxt
        if step < tol:
            break
    return z, step


@one_blas_thread
def refine(h: polysys.PolySystem, z) -> np.ndarray:
    """Iterate projective Newton until two iterates are within REFINE_TOL in d_R.

    Gives the reference zeros of the solve's endpoint check and of the
    condition length.  Rounding moves an iterate by about u mu (u the unit
    roundoff), so past mu ~ 1e2 the steps can stall above REFINE_TOL; an
    iterate whose last step is at most certified_radius(h, zeta) =
    u0 / (d^(3/2) mu) is accepted then: with that step for beta and
    gamma <= d^(3/2) mu / 2 (Shub-Smale), alpha <= u0 / 2 < alpha0.
    Otherwise raises RefinementError.
    """
    zeta, step = _newton_steps(h, z, REFINE_MAX_ITERS, REFINE_TOL)
    if not step < REFINE_TOL and not (math.isfinite(step) and step <= certified_radius(h, zeta)):
        raise RefinementError(
            f"no convergence within {REFINE_MAX_ITERS} Newton iterations (last step {step:.3e})"
        )
    return zeta


def identify_roots(h: polysys.PolySystem, endpoints) -> tuple[tuple[np.ndarray, ...], tuple[float, ...]]:
    """The zero each endpoint refines to (refine) and its certified_radius,
    in endpoint order: the one root identifier.  Raises PathCrossingError
    when two zeros lie within twice the largest radius, so the open balls
    of those radii, each of approximate zeros of its zero, are disjoint;
    an endpoint that does not refine raises refine's error."""
    roots = tuple(refine(h, z) for z in endpoints)
    radii = tuple(certified_radius(h, zeta) for zeta in roots)
    worst = 2.0 * max(radii)
    for (i, a), (j, b) in itertools.combinations(enumerate(roots), 2):
        if (dist := riemann_distance(a, b)) <= worst:
            raise PathCrossingError(f"endpoints {i} and {j} cluster within {dist:.3e} <= {worst:.3e}: "
                                    "suspected path crossing")
    return roots, radii
