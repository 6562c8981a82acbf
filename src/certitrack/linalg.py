"""Small dense complex linear-algebra kernel: bordered solves, vector and
operator norms, kernel vectors, and random unitaries.

The bordered matrix stacks the n x (n+1) Jacobian Dh(z) on top of the row z*,
giving the square system used by the projective Newton operator and every
condition-number style quantity.  It is a plain (n+1) x (n+1) array that
each caller solves once, so a solve factors it afresh: one pivoted LU
factorization.  The one singular solve is an exact zero pivot, where no
inverse exists: SingularLinearSolveError, which the trackers report as
SingularLinearSolve.  No floor applies to a near-singular matrix: it gives
a large finite chi_1 and a short certified step, and the path ends
MinStepReached once s + t == s; condition_mu gives a large finite mu; the
heuristic rejects attempts whose correction does not settle.  A NaN flows
into phi and ends the path MinStepReached.  Rounding is left outside the
certificate here, as it is in evaluation.

The factorization and the solve call LAPACK zgetrf and zgetrs directly.  The
matrices are at most a few rows wide, so the checks, warning filters and
batch dispatch of scipy.linalg.lu_factor/lu_solve cost several times the
arithmetic; the LAPACK calls they end in are the same, so the results are
bitwise equal.

Thread policy: certitrack's public functions that loop over LAPACK calls
(the trackers, the all-roots solve, the condition length, Newton refinement
and the condition number mu) run under one_blas_thread, which sets every loaded OpenBLAS to one thread and gives
the caller back its own counts on the way out.  NumPy and SciPy each load
their own OpenBLAS (NumPy's serves np.linalg.svd, SciPy's zgetrf/zgetrs),
and each starts a thread per core.  On matrices of at most 6 x 6 a second
thread does no useful work: it spins after each call, so a path burns about
twice its wall time in CPU; a fresh process stalls ~8 ms in each of its
first ~100 multi-column zgetrs calls; and a one-column zgetrs returns other
bits under two threads than under one, so endpoints would depend on the
caller's thread setting.  Pinned, every entry point computes the same bits
on one OpenBLAS kernel whatever thread count the process was started or
left with.  Other kernels (OPENBLAS_CORETYPE) may give ddot, zgemm and
zgetrs other last bits, but the same step counts: that half is measured
(the benchmark's step digests under four kernels), not proved.  Within a
kernel, the two routes to a system's values and Jacobian (the trackers'
placed path and polysys.evaluate/jacobian) give the same bits, as both
take one product shape (see polysys); so the tests pin such bits once per
kernel.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading

import numpy as np
from scipy.linalg.lapack import zgetrf as _zgetrf
from scipy.linalg.lapack import zgetrs as _zgetrs


# Thread-count getter and setter of SciPy's (LP64) and NumPy's (ILP64, with
# the 64_ suffix) OpenBLAS builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class SingularLinearSolveError(Exception):
    """The bordered (or square) matrix has an exact zero pivot: no inverse."""


def lu_factor_checked(A: np.ndarray):
    """Pivoted LU under the singularity policy (see the module docstring):
    SingularLinearSolveError exactly when zgetrf meets an exact zero pivot.

    Calls LAPACK zgetrf directly: at these sizes the scipy.linalg.lu_factor
    wrapper costs several times the factorization.  An exact zero pivot
    raises without a warning.  Returns (lu, piv) with 0-based pivots, as
    scipy.linalg.lu_factor does."""
    lu, piv, info = _zgetrf(A)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgetrf")
    if info > 0:
        raise SingularLinearSolveError(f"exact zero pivot U[{info - 1}, {info - 1}]")
    return lu, piv


def lu_solve(lu_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs (vector or matrix of columns) from lu_factor_checked's
    factors.  Calls LAPACK zgetrs directly, skipping the batch dispatch of
    scipy.linalg.lu_solve, which costs several times the solve here; rhs is
    left unchanged; rhs must be an array."""
    lu, piv = lu_piv
    if rhs.shape[0] != lu.shape[0]:
        raise ValueError(f"shapes of lu {lu.shape} and rhs {rhs.shape} are incompatible")
    x, info = _zgetrs(lu, piv, rhs)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of zgetrs")
    return x


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, ...]:
    # (get, set) of each OpenBLAS library mapped into this process, found
    # once by its path in /proc/self/maps; none where there is no such file
    # or no OpenBLAS.
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.rsplit("/", 1)[-1] and ".so" in line
            })
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return tuple(controls)


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator: every loaded OpenBLAS runs on one
    thread inside; the outermost exit, also by an exception, restores the
    counts the outermost entry found.  The counts are process-wide, so
    entries are counted under a lock, and nested or concurrent blocks leave
    the pin to the last one out.  Does nothing where no OpenBLAS is loaded."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[int] = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = _openblas_thread_controls()
                self._saved = [get() for get, _ in controls]
                for _, set_ in controls:
                    set_(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in zip(_openblas_thread_controls(), self._saved):
                    set_(count)
        return False


one_blas_thread = _OneBlasThread()


def make_bordered(jac: np.ndarray, z) -> np.ndarray:
    """The (n+1) x (n+1) matrix (Dh(z); z*): the Jacobian stacked over the
    adjoint row of the unit representative z."""
    jac = np.asarray(jac, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    n, m = jac.shape
    if m != n + 1 or z.shape != (m,):
        raise ValueError(f"need an n x (n+1) Jacobian and a matching point, got {jac.shape} and {z.shape}")
    matrix = np.empty((m, m), dtype=np.complex128)
    matrix[:n] = jac
    np.conjugate(z, out=matrix[n])
    return matrix


def bordered_solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve B x = rhs (vector or matrix of columns) for a bordered matrix B."""
    return lu_solve(lu_factor_checked(B), rhs)


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a complex vector: np.linalg.norm's arithmetic, so
    the same bits, without its argument checks and dispatch.

    The dot of the real parts plus the dot of the imaginary parts, each a
    strided view of x taken once; any stride and memory order is read in
    place, without a copy."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


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
    # Not a solve: a kernel that is not a line has no unit vector to draw.
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
    if not abs(np.linalg.norm(zeta) - 1.0) <= 1e-10:
        raise ValueError("zeta must be a unit vector")
    A = np.empty((m, m), dtype=np.complex128)
    A[:, 0] = zeta
    A[:, 1:] = (rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))) / np.sqrt(2.0)
    Q, _ = np.linalg.qr(A)
    # QR returns the first column only up to phase; the completion columns are
    # orthogonal to the complex line of zeta either way, so pin it exactly.
    Q[:, 0] = zeta
    return Q
