"""Start systems and initial pairs for linear homotopies: the roots-of-unity
total-degree system, the conjectured good pair, and the randomized initial
pair whose output root is equidistributed, the preparation of a target, and
the all-roots solver built on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import polysys
from .bw import (
    dense_product,
    normalize_to_sphere,
    riemann_distance,
    sqrt_multinomials,
    unitary_compose,
)
from .linalg import kernel_vector, random_unitary, unitary_mapping_to_e0
from .newton import certified_radius, refine
from .polysys import PolySystem, evaluate, space_dimension, unit_point
from .tracker import TrackerOptions, TrackResult, track_path


@dataclass(frozen=True)
class InitialPair:
    """A start system on the sphere together with one exact zero of it."""

    g: PolySystem
    zeta0: np.ndarray
    kind: str

    def __post_init__(self):
        residual = float(np.linalg.norm(evaluate(self.g, self.zeta0)))
        if residual > 1e-12:
            raise ValueError(f"zeta0 is not a zero of g (residual {residual:.3e})")


@dataclass(frozen=True)
class StartSet:
    """A start system with its full list of explicit zeros."""

    g: PolySystem
    roots: tuple[np.ndarray, ...]


def total_degree_start(degrees, rng: np.random.Generator) -> StartSet:
    """Roots-of-unity start system with all D = prod(d_i) zeros.

    The raw system (X_i^{d_i} - X_0^{d_i}) is multiplied by a random unit
    phase before normalization; one global phase realizes the generic-gamma
    homotopy once the path is normalized to the sphere and reparametrized by
    arc length.
    """
    degrees = tuple(int(d) for d in degrees)
    n = len(degrees)
    phase = np.exp(2j * np.pi * rng.random())
    terms = []
    for i, d in enumerate(degrees):
        lead = [0] * (n + 1)
        lead[i + 1] = d
        terms.append([(tuple(lead), 1.0 + 0.0j), ((d,) + (0,) * n, -1.0 + 0.0j)])
    g = normalize_to_sphere(phase * PolySystem.from_terms(degrees, terms))
    roots = []
    unity = [np.exp(2j * np.pi * np.arange(d) / d) for d in degrees]
    for combo in itertools.product(*unity):
        roots.append(unit_point(np.concatenate([[1.0], np.asarray(combo)])))
    return StartSet(g=g, roots=tuple(roots))


def total_degree_initial_pair(degrees, rng: np.random.Generator) -> InitialPair:
    """The total-degree pair with the all-ones root."""
    start = total_degree_start(degrees, rng)
    root = unit_point(np.ones(len(degrees) + 1))
    return InitialPair(g=start.g, zeta0=root, kind="TotalDegree")


def good_system_raw(degrees) -> PolySystem:
    """The unnormalized conjectured start system g_i = sqrt(d_i) X_0^{d_i-1} X_i
    (norm sqrt(n); the sqrt(d_i) factors optimize its condition number)."""
    degrees = tuple(int(d) for d in degrees)
    n = len(degrees)
    terms = []
    for i, d in enumerate(degrees):
        expo = [d - 1] + [0] * n
        expo[i + 1] = 1
        terms.append([(tuple(expo), complex(math.sqrt(d)))])
    return PolySystem.from_terms(degrees, terms)


def good_initial_pair(degrees) -> InitialPair:
    """The conjectured pair: the good system normalized to the sphere, zero e0."""
    degrees = tuple(int(d) for d in degrees)
    g = normalize_to_sphere(good_system_raw(degrees))
    e0 = np.zeros(len(degrees) + 1, dtype=np.complex128)
    e0[0] = 1.0
    return InitialPair(g=g, zeta0=unit_point(e0), kind="GoodPair")


def random_system_on_sphere(degrees, rng: np.random.Generator) -> PolySystem:
    """Uniform sample on the unit sphere of systems.

    Coefficients are standard complex Gaussians in the orthonormal basis of
    monomials scaled by the square-root multinomials; the Gaussian direction
    is uniform on the sphere.
    """
    degrees = tuple(int(d) for d in degrees)
    n_vars = len(degrees) + 1
    coeffs = []
    for d in degrees:
        m = polysys.num_homogeneous_monomials(n_vars, d)
        u = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
        coeffs.append(u * sqrt_multinomials(n_vars, d))
    return normalize_to_sphere(PolySystem(degrees, tuple(coeffs)))


def uniform_ball_point(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit ball of C^dim: Gaussian direction times
    a Beta-distributed radius U^(1/(2 dim)).  The ball of C^0 is a point:
    dim = 0 gives the empty vector and draws nothing."""
    if dim == 0:
        return np.zeros(0, dtype=np.complex128)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v * rng.random() ** (1.0 / (2.0 * dim))


def draw_ball_matrix(degrees, rng: np.random.Generator) -> np.ndarray:
    """The matrix half of a uniform draw from the ball of C^(N+1).

    The first n^2 + n coordinates become the n x (n+1) matrix M; the rest is
    discarded.  Drawing in the full ball rather than a ball of matrices gives
    E ||M||_F^2 = (n^2 + n) / (N + 2), the distribution the construction needs.
    """
    degrees = tuple(int(d) for d in degrees)
    n = len(degrees)
    dim = space_dimension(degrees)
    point = uniform_ball_point(dim, rng)
    return point[: n * (n + 1)].reshape(n, n + 1)


def restricted_monomial_mask(degrees) -> tuple[np.ndarray, ...]:
    """Per equation, the mask of monomials with X0-exponent at most d_i - 2."""
    degrees = tuple(int(d) for d in degrees)
    n_vars = len(degrees) + 1
    masks = []
    for d in degrees:
        exps = polysys.homogeneous_exponents(n_vars, d)
        masks.append(exps[:, 0] <= d - 2)
    return tuple(masks)


def draw_restricted_system(degrees, rng: np.random.Generator) -> PolySystem:
    """Uniform draw from the unit ball of the subspace of systems vanishing to
    second order at e0 (no X0^{d_i} or X0^{d_i - 1} monomials)."""
    degrees = tuple(int(d) for d in degrees)
    n_vars = len(degrees) + 1
    masks = restricted_monomial_mask(degrees)
    dim = int(sum(m.sum() for m in masks))
    point = uniform_ball_point(dim, rng)
    coeffs = []
    offset = 0
    for d, mask in zip(degrees, masks):
        k = int(mask.sum())
        vec = np.zeros(mask.shape[0], dtype=np.complex128)
        vec[mask] = point[offset : offset + k] * sqrt_multinomials(n_vars, d)[mask]
        offset += k
        coeffs.append(vec)
    return PolySystem(degrees, tuple(coeffs))


def random_initial_pair(degrees, rng: np.random.Generator) -> InitialPair:
    """The randomized initial pair whose output root is equidistributed.

    (1) draw the matrix M from the ball of C^(N+1); (2) take the kernel
    direction as zeta0 and conjugate a restricted-ball system to vanish
    doubly at it; (3) add the diagonal first-order part built from M;
    (4) normalize.
    """
    degrees = tuple(int(d) for d in degrees)
    n = len(degrees)
    n_vars = n + 1
    M = draw_ball_matrix(degrees, rng)
    zeta0 = kernel_vector(M, rng)
    V = unitary_mapping_to_e0(zeta0, rng)
    h_tilde = draw_restricted_system(degrees, rng)
    h = unitary_compose(h_tilde, V.conj().T)

    # First-order part: sqrt(d_i) <z, zeta0>^{d_i - 1} (M z)_i, expanded densely.
    pairing = polysys.linear_form(np.conj(zeta0))  # <z, zeta0> as a form in z
    frob2 = float(np.sum(np.abs(M) ** 2))
    coeffs = []
    for i, d in enumerate(degrees):
        term = polysys.linear_form(M[i])
        deg = 1
        for _ in range(d - 1):
            term = dense_product(term, deg, pairing, 1, n_vars)
            deg += 1
        coeffs.append(math.sqrt(d) * term + math.sqrt(max(0.0, 1.0 - frob2)) * h.coeffs[i])
    g_hat = PolySystem(degrees, tuple(coeffs))
    g = normalize_to_sphere(g_hat)
    return InitialPair(g=g, zeta0=zeta0, kind="Random")


def random_initial_pair_unitary(degrees, rng: np.random.Generator) -> InitialPair:
    """Good pair pushed through a Haar-random unitary change of coordinates."""
    pair = good_initial_pair(degrees)
    U = random_unitary(len(degrees) + 1, rng)
    g = unitary_compose(pair.g, U.conj().T)
    zeta0 = unit_point(U @ pair.zeta0)
    return InitialPair(g=g, zeta0=zeta0, kind="Random")


@dataclass(frozen=True)
class SolveAllReport:
    """Outcome of tracking every total-degree path to a target: target is
    the prepared system the paths went to."""

    target: PolySystem
    start: StartSet
    results: tuple[TrackResult, ...]

    @property
    def endpoints(self) -> list[np.ndarray]:
        return [r.endpoint for r in self.results if r.success]

    @property
    def num_failed(self) -> int:
        return sum(0 if r.success else 1 for r in self.results)


def prepare_target(system: PolySystem | polysys.AffineSystem) -> PolySystem:
    """The system a path is tracked to: homogenized if affine, then scaled
    onto the unit sphere.  Scaling changes the last bits of a system already
    on the sphere, so each target goes through here exactly once."""
    if isinstance(system, polysys.AffineSystem):
        system = polysys.homogenize(system)
    return normalize_to_sphere(system)


def solve_all_total_degree(
    f: PolySystem | polysys.AffineSystem,
    opts: TrackerOptions = TrackerOptions(),
    rng: np.random.Generator | None = None,
) -> SolveAllReport:
    """Track all D total-degree paths to the target f, given as it was read:
    prepare_target homogenizes and normalizes it once.

    When every path succeeds, the refined endpoints are verified pairwise
    farther apart than twice the largest certified radius (a cluster would
    mean crossed paths, which the certified tracker excludes).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    f = prepare_target(f)
    start = total_degree_start(f.degrees, rng)
    results = [track_path(start.g, f, root, opts) for root in start.roots]
    report = SolveAllReport(target=f, start=start, results=tuple(results))
    if report.num_failed == 0:
        _check_pairwise_distinct(f, report.endpoints)
    return report


def _check_pairwise_distinct(f: PolySystem, endpoints) -> None:
    refined = [refine(f, z) for z in endpoints]
    radii = [certified_radius(f, zeta) for zeta in refined]
    worst = 2.0 * max(radii)
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            dist = riemann_distance(refined[i], refined[j])
            if dist <= worst:
                raise RuntimeError(
                    f"endpoints {i} and {j} cluster within {dist:.3e} <= {worst:.3e}: "
                    "suspected path crossing"
                )
