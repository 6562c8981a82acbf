"""Small dense complex linear-algebra kernel: bordered solves, operator norms,
kernel vectors, and random unitaries.

The bordered matrix stacks the n x (n+1) Jacobian Dh(z) on top of the row z*,
giving the square system used by the projective Newton operator and every
condition-number style quantity.  Solves go through one pivoted LU
factorization; a smallest pivot below 1e-14 times the largest is treated as a
singular solve, the signal the tracker converts into a path failure.

The factorization and the solve call LAPACK zgetrf and zgetrs directly.  The
matrices are at most a few rows wide, so the checks, warning filters and
batch dispatch of scipy.linalg.lu_factor/lu_solve cost several times the
arithmetic; the LAPACK calls they end in are the same, so the results are
bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgetrf as _zgetrf
from scipy.linalg.lapack import zgetrs as _zgetrs


RCOND_FLOOR = 1e-14


class SingularLinearSolveError(Exception):
    """The bordered (or square) system is numerically singular."""


def lu_factor_checked(A: np.ndarray):
    """Pivoted LU with the singularity policy: the smallest pivot relative to
    the largest must stay above 1e-14, else SingularLinearSolveError.

    Calls LAPACK zgetrf directly: at these sizes the scipy.linalg.lu_factor
    wrapper costs several times the factorization.  An exact zero pivot
    fails the pivot check, so it raises without a warning.  Returns
    (lu, piv) with 0-based pivots, as scipy.linalg.lu_factor does."""
    lu, piv, info = _zgetrf(A)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgetrf")
    # Sorted, NaN last: top is NaN, as max() gives, and the check passes.
    diag = np.abs(lu.diagonal())
    diag.sort()
    lo, top = diag[0], diag[-1]
    if top == 0.0 or lo < RCOND_FLOOR * top:
        ratio = lo / top if top else 0.0
        raise SingularLinearSolveError(
            f"matrix is singular to working precision (pivot ratio {ratio:.3e})"
        )
    return lu, piv


def lu_solve(lu_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs (vector or matrix of columns) from lu_factor_checked's
    factors.  Calls LAPACK zgetrs directly, skipping the batch dispatch of
    scipy.linalg.lu_solve, which costs several times the solve here; rhs is
    left unchanged."""
    lu, piv = lu_piv
    if np.shape(rhs)[0] != lu.shape[0]:
        raise ValueError(f"shapes of lu {lu.shape} and rhs {np.shape(rhs)} are incompatible")
    x, info = _zgetrs(lu, piv, rhs)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of zgetrs")
    return x


@dataclass
class BorderedMatrix:
    """The (n+1) x (n+1) matrix (Dh(z); z*) with its factorization cached."""

    matrix: np.ndarray
    _lu: tuple | None = field(default=None, repr=False)

    def factor(self):
        if self._lu is None:
            self._lu = lu_factor_checked(self.matrix)
        return self._lu


def make_bordered(jac: np.ndarray, z) -> BorderedMatrix:
    """Stack the Jacobian over the adjoint row of the unit representative z."""
    jac = np.asarray(jac, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    n, m = jac.shape
    if m != n + 1 or z.shape != (m,):
        raise ValueError(f"need an n x (n+1) Jacobian and a matching point, got {jac.shape} and {z.shape}")
    matrix = np.empty((m, m), dtype=np.complex128)
    matrix[:n] = jac
    matrix[n] = np.conj(z)
    return BorderedMatrix(matrix)


def bordered_solve(B: BorderedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve B x = rhs (vector or matrix of columns)."""
    return lu_solve(B.factor(), rhs)


def solve_square(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Square solve with the same singularity policy as the bordered solves."""
    A = np.asarray(A, dtype=np.complex128)
    return lu_solve(lu_factor_checked(A), np.asarray(rhs, dtype=np.complex128))


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value (exact operator norm, not a factor-2 estimate)."""
    A = np.asarray(A, dtype=np.complex128)
    return float(np.linalg.svd(A, compute_uv=False)[0])


def kernel_vector(M: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm kernel element of an n x (n+1) matrix of rank n, with a
    uniformly random unit phase."""
    M = np.asarray(M, dtype=np.complex128)
    n, m = M.shape
    if m != n + 1:
        raise ValueError(f"expected an n x (n+1) matrix, got {M.shape}")
    _, s, vh = np.linalg.svd(M)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise SingularLinearSolveError("matrix has rank deficiency beyond corank 1")
    v = np.conj(vh[-1])
    phase = np.exp(2j * np.pi * rng.random())
    v = phase * v / np.linalg.norm(v)
    v.setflags(write=False)
    return v


def random_unitary(size: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase correction."""
    if size < 1:
        raise ValueError("size must be >= 1")
    G = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    Q = Q * (d / np.abs(d))
    return Q


def unitary_mapping_to_e0(zeta, rng: np.random.Generator) -> np.ndarray:
    """A unitary V with V e0 = zeta (equivalently V* zeta = e0).

    First column is zeta itself; the remaining columns complete it to a
    unitary basis via QR of a random Gaussian block.
    """
    zeta = np.asarray(zeta, dtype=np.complex128)
    m = zeta.shape[0]
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-10:
        raise ValueError("zeta must be a unit vector")
    A = np.empty((m, m), dtype=np.complex128)
    A[:, 0] = zeta
    A[:, 1:] = (rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))) / np.sqrt(2.0)
    Q, _ = np.linalg.qr(A)
    # QR returns the first column only up to phase; the completion columns are
    # orthogonal to the complex line of zeta either way, so pin it exactly.
    Q[:, 0] = zeta
    return Q
