"""Seeded systems and paths that several test files draw, built through the
constructors the package itself uses."""

import numpy as np

from certitrack.polysys import PolySystem, num_homogeneous_monomials
from certitrack.start_systems import random_system_on_sphere, total_degree_start
from certitrack.tracker import make_linear_homotopy


def random_system(degrees, seed):
    """Standard complex Gaussian coefficients off the sphere, drawn equation
    by equation from default_rng(seed): per equation the real parts, then
    the imaginary parts."""
    rng = np.random.default_rng(seed)
    coeffs = []
    for d in degrees:
        m = num_homogeneous_monomials(len(degrees) + 1, d)
        coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return PolySystem.from_coeff_vector(degrees, np.concatenate(coeffs))


def random_points(n_vars, count, rng):
    """count standard complex Gaussian points of n_vars coordinates, drawn
    from rng, a Generator or the seed of one."""
    rng = np.random.default_rng(rng)
    return [rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars) for _ in range(count)]


def seeded_path(degrees, seed):
    """(start, f, hom): a target f on the sphere and then the total-degree
    start, both drawn from default_rng(seed), and the homotopy from start.g
    to f."""
    rng = np.random.default_rng(seed)
    f = random_system_on_sphere(degrees, rng)
    start = total_degree_start(degrees, rng)
    return start, f, make_linear_homotopy(start.g, f)
