"""Start systems and initial pairs for linear homotopies: the roots-of-unity
total-degree system, the conjectured good pair, and the randomized initial
pair whose output root is equidistributed, the preparation of a target, and
the all-roots solver built on them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polysys
from .bw import normalize_to_sphere, riemann_distance, unitary_compose, weight_table
from .linalg import (
    SingularLinearSolveError,
    kernel_vector,
    one_blas_thread,
    random_unitary,
    unitary_mapping_to_e0,
    vector_norm,
)
from .newton import RefinementError, certified_radius, refine
from .polysys import PolySystem, degree_tuple, evaluate, space_dimension, unit_point
from .tracker import TrackerOptions, TrackResult, track_path

# The solve and the experiments read statuses, steps and endpoints, no trace.
_NO_TRACE = TrackerOptions(record_trace=False)


@dataclass(frozen=True)
class InitialPair:
    """A start system on the sphere together with one exact zero of it."""

    g: PolySystem
    zeta0: np.ndarray

    def __post_init__(self):
        residual = vector_norm(evaluate(self.g, self.zeta0))
        if not residual <= 1e-12:
            raise ValueError(f"zeta0 is not a zero of g (residual {residual:.3e})")


@dataclass(frozen=True)
class StartSet:
    """A start system with its full list of explicit zeros.

    total_degree_start's roots are the rows of one read-only array built
    once per degree tuple: every StartSet of that tuple shares them.
    """

    g: PolySystem
    roots: tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def _total_degree_pattern(degrees: tuple[int, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # The read-only coefficient vector of (X_i^{d_i} - X_0^{d_i}), entries
    # +1, -1 and 0, and its D zeros (1, w_1, ..., w_n), w_i a d_i-th root of
    # unity, each normalized by unit_point: the rows of one read-only array.
    n = len(degrees)
    terms = []
    for i, d in enumerate(degrees):
        lead = [0] * (n + 1)
        lead[i + 1] = d
        terms.append([(tuple(lead), 1.0 + 0.0j), ((d,) + (0,) * n, -1.0 + 0.0j)])
    vec = PolySystem.from_terms(degrees, terms)._vec
    unity = [np.exp(2j * np.pi * np.arange(d) / d) for d in degrees]
    roots = np.array([
        unit_point(np.concatenate([[1.0], np.asarray(combo)]))
        for combo in itertools.product(*unity)
    ])
    roots.setflags(write=False)
    return vec, tuple(roots)


def total_degree_start(degrees, rng: np.random.Generator) -> StartSet:
    """Roots-of-unity start system with all D = prod(d_i) zeros.

    The raw system (X_i^{d_i} - X_0^{d_i}) is multiplied by a random unit
    phase before normalization; one global phase realizes the generic-gamma
    homotopy once the path is normalized to the sphere and reparametrized by
    arc length.  The raw coefficient vector and the roots depend on the
    degrees alone and are built once per degree tuple: a call draws the
    phase, scales the cached vector into a fresh system and normalizes it,
    and its roots are the shared read-only rows of the cached root array.
    """
    degrees = degree_tuple(degrees)
    vec, roots = _total_degree_pattern(degrees)
    phase = np.exp(2j * np.pi * rng.random())
    g = normalize_to_sphere(PolySystem._adopt(degrees, complex(phase) * vec))
    return StartSet(g=g, roots=roots)


def total_degree_initial_pair(degrees, rng: np.random.Generator) -> InitialPair:
    """The total-degree pair with the all-ones root, the start's first."""
    start = total_degree_start(degrees, rng)
    return InitialPair(g=start.g, zeta0=start.roots[0])


def good_system_raw(degrees) -> PolySystem:
    """The unnormalized conjectured start system g_i = sqrt(d_i) X_0^{d_i-1} X_i
    (norm sqrt(n); the sqrt(d_i) factors optimize its condition number)."""
    degrees = degree_tuple(degrees)
    n = len(degrees)
    terms = []
    for i, d in enumerate(degrees):
        expo = [d - 1] + [0] * n
        expo[i + 1] = 1
        terms.append([(tuple(expo), complex(math.sqrt(d)))])
    return PolySystem.from_terms(degrees, terms)


def good_initial_pair(degrees) -> InitialPair:
    """The conjectured pair: the good system normalized to the sphere, zero e0."""
    degrees = degree_tuple(degrees)
    g = normalize_to_sphere(good_system_raw(degrees))
    e0 = np.zeros(len(degrees) + 1, dtype=np.complex128)
    e0[0] = 1.0
    return InitialPair(g=g, zeta0=unit_point(e0))


@lru_cache(maxsize=None)
def _draw_index(degrees: tuple[int, ...]) -> np.ndarray:
    # (2, N) positions in one standard_normal(2N) draw of the real and the
    # imaginary part of each stacked coefficient: equation i's block of
    # 2 m_i draws holds its m_i real parts, then its m_i imaginary parts.
    _, slices = polysys._layout(degrees)
    pos = np.concatenate([
        np.stack([np.arange(sl.start, sl.stop) + sl.start, np.arange(sl.start, sl.stop) + sl.stop])
        for sl in slices
    ], axis=1)
    pos.setflags(write=False)
    return pos


@lru_cache(maxsize=None)
def _restricted_mask(degrees: tuple[int, ...]) -> np.ndarray:
    # The stacked coefficients of the monomials with X0-exponent at most
    # d_i - 2: the coordinates of the systems vanishing doubly at e0.
    n_vars = len(degrees) + 1
    mask = np.concatenate([polysys.homogeneous_exponents(n_vars, d)[:, 0] <= d - 2 for d in degrees])
    mask.setflags(write=False)
    return mask


def random_system_on_sphere(degrees, rng: np.random.Generator) -> PolySystem:
    """Uniform sample on the unit sphere of systems.

    Coefficients are standard complex Gaussians in orthonormal coordinates,
    scaled by bw.weight_table's square-root multinomials; the Gaussian
    direction is uniform on the sphere.  One standard_normal(2N) call draws
    them all, N the number of coefficients, read per equation as its real
    parts and then its imaginary parts: the stream order of one pair of
    draws per equation, so each seed gives the same system.
    """
    degrees = degree_tuple(degrees)
    pos = _draw_index(degrees)
    scale = weight_table(degrees).scales
    re, im = rng.standard_normal(2 * scale.shape[0])[pos]
    vec = (re + 1j * im) / np.sqrt(2.0) * scale
    return normalize_to_sphere(PolySystem._adopt(degrees, vec))


def uniform_ball_point(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit ball of C^dim: Gaussian direction times
    a Beta-distributed radius U^(1/(2 dim)).  The ball of C^0 is a point:
    dim = 0 gives the empty vector and draws nothing."""
    if dim == 0:
        return np.zeros(0, dtype=np.complex128)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= vector_norm(v)
    return v * rng.random() ** (1.0 / (2.0 * dim))


def draw_ball_matrix(degrees, rng: np.random.Generator) -> np.ndarray:
    """The matrix half of a uniform draw from the ball of C^(N+1).

    The first n^2 + n coordinates become the n x (n+1) matrix M; the rest is
    discarded.  Drawing in the full ball rather than a ball of matrices gives
    E ||M||_F^2 = (n^2 + n) / (N + 2), the distribution the construction needs.
    """
    degrees = degree_tuple(degrees)
    n = len(degrees)
    dim = space_dimension(degrees)
    point = uniform_ball_point(dim, rng)
    return point[: n * (n + 1)].reshape(n, n + 1)


def draw_restricted_system(degrees, rng: np.random.Generator) -> PolySystem:
    """Uniform draw from the unit ball of the subspace of systems vanishing to
    second order at e0 (no X0^{d_i} or X0^{d_i - 1} monomials): one ball
    point in orthonormal coordinates, scaled by bw.weight_table's scales."""
    degrees = degree_tuple(degrees)
    mask = _restricted_mask(degrees)
    point = uniform_ball_point(int(np.count_nonzero(mask)), rng)
    vec = np.zeros(mask.shape[0], dtype=np.complex128)
    vec[mask] = point * weight_table(degrees).scales[mask]
    return PolySystem._adopt(degrees, vec)


def random_initial_pair(degrees, rng: np.random.Generator) -> InitialPair:
    """The randomized initial pair whose output root is equidistributed.

    (1) draw the matrix M from the ball of C^(N+1); (2) take the kernel
    direction as zeta0 and conjugate a restricted-ball system to vanish
    doubly at it; (3) add the diagonal first-order part built from M;
    (4) normalize.
    """
    degrees = degree_tuple(degrees)
    M = draw_ball_matrix(degrees, rng)
    zeta0 = kernel_vector(M, rng)
    V = unitary_mapping_to_e0(zeta0, rng)
    h_tilde = draw_restricted_system(degrees, rng)
    h = unitary_compose(h_tilde, V.conj().T)

    # First-order part: sqrt(d_i) <z, zeta0>^{d_i - 1} (M z)_i, collected
    # from the outer product of d_i - 1 copies of conj(zeta0) with M_i.
    frob2 = float(np.sum(np.abs(M) ** 2))
    rest = math.sqrt(max(0.0, 1.0 - frob2))
    coeffs = []
    for i, d in enumerate(degrees):
        term = functools.reduce(np.multiply.outer, [np.conj(zeta0)] * (d - 1) + [M[i]])
        coeffs.append(math.sqrt(d) * polysys.collect(term) + rest * h.coeffs[i])
    g = normalize_to_sphere(PolySystem._adopt(degrees, np.concatenate(coeffs)))
    return InitialPair(g=g, zeta0=zeta0)


def random_initial_pair_unitary(degrees, rng: np.random.Generator) -> InitialPair:
    """Good pair pushed through a Haar-random unitary change of coordinates."""
    pair = good_initial_pair(degrees)
    U = random_unitary(len(degrees) + 1, rng)
    g = unitary_compose(pair.g, U.conj().T)
    zeta0 = unit_point(U @ pair.zeta0)
    return InitialPair(g=g, zeta0=zeta0)


def initial_pair(kind: str, degrees, rng: np.random.Generator) -> InitialPair:
    """The start pair named kind (good draws nothing from rng), its
    constructor looked up when called, so a wrapper on it is seen."""
    if kind == "good":
        return good_initial_pair(degrees)
    if kind == "total":
        return total_degree_initial_pair(degrees, rng)
    if kind == "random":
        return random_initial_pair(degrees, rng)
    if kind == "unitary":
        return random_initial_pair_unitary(degrees, rng)
    raise ValueError(f"unknown start pair {kind!r}")


@dataclass(frozen=True)
class SolveAllReport:
    """Outcome of tracking every root of a start to a target: results in
    root order; roots are the endpoints refined by Newton's method, in path
    order, when every path succeeded, else empty."""

    results: tuple[TrackResult, ...]
    roots: tuple[np.ndarray, ...]

    @property
    def num_failed(self) -> int:
        return sum(0 if r.success else 1 for r in self.results)


class PathCrossingError(RuntimeError):
    """Two refined endpoints of an all-roots solve lie within twice the
    largest certified radius of each other: two paths went to one root."""


# What solve_all_total_degree's endpoint check raises when it rejects the
# endpoints of a solve whose paths all succeeded.
ENDPOINT_CHECK_ERRORS = (RefinementError, SingularLinearSolveError, PathCrossingError)


def prepare_target(system: PolySystem | polysys.AffineSystem) -> PolySystem:
    """The system a path is tracked to, scaled onto the unit sphere.  An
    AffineSystem (katsura_system's) is homogenized first, which reads and
    checks its terms; parse_system_json returns a PolySystem.  Scaling
    changes the last bits of a system already on the sphere, so each target
    goes through here exactly once."""
    if isinstance(system, polysys.AffineSystem):
        system = polysys.homogenize(system)
    return normalize_to_sphere(system)


@one_blas_thread
def solve_all_total_degree(f: PolySystem, start: StartSet) -> SolveAllReport:
    """Track every root of start, without a per-step trace, to the prepared
    target f (experiments.start_paths gives both; a target off the unit
    sphere fails the tracker's ensure_on_sphere).

    When every path succeeds, the refined endpoints are verified pairwise
    farther apart than twice the largest certified radius (a cluster would
    mean crossed paths, which the certified tracker excludes) and kept as
    the report's roots.  A rejected check raises one of
    ENDPOINT_CHECK_ERRORS: refine's RefinementError or
    SingularLinearSolveError, or PathCrossingError.
    """
    results = tuple(track_path(start.g, f, root, _NO_TRACE) for root in start.roots)
    success = all(r.success for r in results)
    roots = _distinct_roots(f, [r.endpoint for r in results]) if success else ()
    return SolveAllReport(results, roots)


def _distinct_roots(f: PolySystem, endpoints) -> tuple[np.ndarray, ...]:
    refined = tuple(refine(f, z) for z in endpoints)
    radii = [certified_radius(f, zeta) for zeta in refined]
    worst = 2.0 * max(radii)
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            dist = riemann_distance(refined[i], refined[j])
            if dist <= worst:
                raise PathCrossingError(
                    f"endpoints {i} and {j} cluster within {dist:.3e} <= {worst:.3e}: "
                    "suspected path crossing"
                )
    return refined
