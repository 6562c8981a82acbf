"""The projective Newton operator, the condition number, Newton refinement,
and the approximate-zero radius built on them.

Every point within Riemann distance u0 / (d^(3/2) mu(h, zeta)) of a zero
zeta, with u0 = 0.17586, is an approximate zero with associated zero zeta
(certified_radius).  The solve checks that its refined endpoints lie
farther apart than twice that radius, a check that trusts the float zero
refine returns.  The restriction of the Jacobian to the
orthogonal complement of z is realized through the bordered matrix:
solutions of (Dh(z); z*) w = (rhs; 0) lie in that complement automatically,
so no explicit orthonormal basis is ever formed.
"""

from __future__ import annotations

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
    """Condition number mu(h, z): +inf at an exact zero pivot, large near one."""
    z = np.asarray(z, dtype=np.complex128)
    n = h.n
    nz = vector_norm(z)
    if nz == 0.0:
        raise ValueError("zero vector does not represent a projective point")
    B = make_bordered(polysys.jacobian(h, z), z / nz)
    rhs = np.zeros((n + 1, n), dtype=np.complex128)
    for i, d in enumerate(h.degrees):
        rhs[i, i] = math.sqrt(d) * nz ** (d - 1)
    try:
        W = bordered_solve(B, rhs)
    except SingularLinearSolveError:
        return math.inf
    return bw_norm(h) * spectral_norm(W)


def certified_radius(h: polysys.PolySystem, zeta) -> float:
    """Approximate-zero radius U0 / (d^(3/2) condition_mu(h, zeta)); 0.0 at infinite mu."""
    mu = condition_mu(h, zeta)
    if not math.isfinite(mu):
        return 0.0
    return U0 / (h.max_degree ** 1.5 * mu)


@one_blas_thread
def refine(h: polysys.PolySystem, z) -> np.ndarray:
    """Iterate projective Newton until two iterates are within REFINE_TOL in d_R.

    Gives the reference zeros of the solve's endpoint check and of the
    condition length; raises RefinementError if the iteration does not
    settle within REFINE_MAX_ITERS steps.
    """
    current = np.asarray(z, dtype=np.complex128)
    current = current / vector_norm(current)
    for _ in range(REFINE_MAX_ITERS):
        nxt = newton_projective(h, current)
        if riemann_distance(nxt, current) < REFINE_TOL:
            return nxt
        current = nxt
    raise RefinementError(f"no convergence within {REFINE_MAX_ITERS} Newton iterations")

