"""The projective Newton operator, the condition number, and the
approximate-zero certificates built on it.

A point z is accepted as an approximate zero with associated zero zeta when
its Riemann distance to zeta is below u0 / (d^(3/2) mu), with u0 = 0.17586;
tracking start points must satisfy the radius halved.  The restriction of the
Jacobian to the orthogonal complement of z is realized through the bordered
matrix: solutions of (Dh(z); z*) w = (rhs; 0) lie in that complement
automatically, so no explicit orthonormal basis is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polysys
from .bw import bw_norm, riemann_distance
from .linalg import SingularLinearSolveError, bordered_solve, make_bordered, spectral_norm

U0 = 0.17586


class AffineRootAtInfinityError(Exception):
    """The projective zero has vanishing first coordinate: no affine counterpart."""


class RefinementError(Exception):
    """Newton refinement failed to converge within the iteration budget."""


@dataclass(frozen=True)
class CertifiedZero:
    """Certificate data: a reference zero, its condition number, and the
    approximate-zero radius u0 / (d^(3/2) mu) around it."""

    point: np.ndarray
    mu: float
    radius: float


def newton_projective(h: polysys.PolySystem, z) -> np.ndarray:
    """One projective Newton step, renormalized to the unit representative."""
    z = np.asarray(z, dtype=np.complex128)
    B = make_bordered(polysys.jacobian(h, z), z)
    rhs = np.concatenate([polysys.evaluate(h, z), [0.0]])
    w = bordered_solve(B, rhs)
    out = z - w
    return out / np.linalg.norm(out)


def condition_mu(h: polysys.PolySystem, z) -> float:
    """Condition number mu(h, z); +inf when the restricted Jacobian is singular."""
    z = np.asarray(z, dtype=np.complex128)
    n = h.n
    nz = np.linalg.norm(z)
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


def certified_radius(h: polysys.PolySystem, zeta, mu: float | None = None) -> float:
    """Approximate-zero radius u0 / (d^(3/2) mu(h, zeta)); 0.0 when mu is infinite."""
    if mu is None:
        mu = condition_mu(h, zeta)
    if not math.isfinite(mu):
        return 0.0
    return U0 / (h.max_degree ** 1.5 * mu)


def certify_projective(h: polysys.PolySystem, z, zeta) -> tuple[bool, CertifiedZero]:
    """Is z an approximate zero of h with associated zero zeta?

    zeta is expected to be a refined, high-accuracy zero of h; the check is
    d_R(z, zeta) <= u0 / (d^(3/2) mu(h, zeta)).
    """
    mu = condition_mu(h, zeta)
    radius = certified_radius(h, zeta, mu)
    cert = CertifiedZero(point=np.asarray(zeta, dtype=np.complex128), mu=mu, radius=radius)
    if not math.isfinite(mu):
        return False, cert
    return riemann_distance(z, zeta) <= radius, cert


def certify_start(h: polysys.PolySystem, z, zeta) -> bool:
    """The tracking start certificate: distance within half the certified radius."""
    mu = condition_mu(h, zeta)
    if not math.isfinite(mu):
        return False
    return riemann_distance(z, zeta) <= certified_radius(h, zeta, mu) / 2.0


def refine(h: polysys.PolySystem, z, max_iters: int = 30, tol: float = 1e-14) -> np.ndarray:
    """Iterate projective Newton until successive iterates agree to `tol` in d_R.

    Serves as the reference-zero oracle for certificates; raises
    RefinementError if the iteration does not settle within `max_iters`.
    """
    current = np.asarray(z, dtype=np.complex128)
    current = current / np.linalg.norm(current)
    for _ in range(max_iters):
        nxt = newton_projective(h, current)
        if riemann_distance(nxt, current) < tol:
            return nxt
        current = nxt
    raise RefinementError(f"no convergence within {max_iters} Newton iterations")


def default_affine_norm_bound(degrees, delta: float = 0.01) -> float:
    """Probabilistic bound D*sqrt(pi*n)/delta on the norm of affine roots."""
    n = len(degrees)
    return polysys.bezout_number(tuple(degrees)) * math.sqrt(math.pi * n) / delta


def projective_to_affine(
    h: polysys.PolySystem, z, norm_bound: float | None = None
) -> np.ndarray:
    """Affine approximate zero from a certified projective one.

    Applies ceil(log2(log2(4 (1 + norm_bound^2)))) projective Newton steps and
    dehomogenizes.  norm_bound bounds the norm of the affine root; by default
    the probabilistic bound for delta = 0.01 is used.
    """
    if norm_bound is None:
        norm_bound = default_affine_norm_bound(h.degrees)
    steps = max(0, math.ceil(math.log2(math.log2(4.0 * (1.0 + norm_bound**2)))))
    current = np.asarray(z, dtype=np.complex128)
    current = current / np.linalg.norm(current)
    for _ in range(steps):
        current = newton_projective(h, current)
    if abs(current[0]) < 1e-12:
        raise AffineRootAtInfinityError(
            f"first coordinate {abs(current[0]):.3e} vanishes; the root lies at infinity"
        )
    return current[1:] / current[0]
