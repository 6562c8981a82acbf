"""Bombieri-Weyl Hermitian geometry on spaces of homogeneous systems, and the
Riemann distance on complex projective space.

The Hermitian product weights each monomial coefficient pair by the inverse
multinomial coefficient of its exponent tuple; it is invariant under unitary
changes of variables, which is what makes the unit sphere of systems the
natural arena for homotopy paths.

The homotopy needs only the product's real part, and takes it one way:
bw_inner_re, one weighted dot of the real views of two stacked coefficient
vectors.

The norm does its elementwise work in one pass over a system's stacked
coefficient vector and then takes one sum per equation slice, added in
equation order.  Each slice's sum is NumPy's pairwise sum of that equation,
so the bits are those of an equation-by-equation loop.  np.add.reduceat,
one call for all slices, groups each slice's terms otherwise and changes the
last bits of most norms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import vector_norm
from .polysys import (
    PolySystem,
    _layout,
    homogeneous_exponents,
    homogeneous_index,
    linear_form,
)


@lru_cache(maxsize=None)
def _multinomials(n_vars: int, degree: int) -> np.ndarray:
    """multinomial(degree; a0, ..., a_{n_vars-1}) per monomial, exact integers as floats."""
    exps = homogeneous_exponents(n_vars, degree)
    fact = [math.factorial(k) for k in range(degree + 1)]
    out = np.empty(exps.shape[0], dtype=np.float64)
    for i, row in enumerate(exps):
        denom = 1
        for e in row:
            denom *= fact[e]
        out[i] = fact[degree] // denom
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _bw_weights(n_vars: int, degree: int) -> np.ndarray:
    w = 1.0 / _multinomials(n_vars, degree)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def sqrt_multinomials(n_vars: int, degree: int) -> np.ndarray:
    """Square-root multinomials: the scaling from orthonormal coordinates back
    to raw monomial coefficients."""
    w = np.sqrt(_multinomials(n_vars, degree))
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _weights(degrees: tuple[int, ...]) -> np.ndarray:
    # The weights of a system's stacked coefficient vector, equation by
    # equation.
    w = np.concatenate([_bw_weights(len(degrees) + 1, d) for d in degrees])
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def stacked_sqrt_multinomials(degrees: tuple[int, ...]) -> np.ndarray:
    """sqrt_multinomials of each equation, stacked like a system's
    coefficient vector."""
    w = np.concatenate([sqrt_multinomials(len(degrees) + 1, d) for d in degrees])
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _stacked_weights(degrees: tuple[int, ...]) -> np.ndarray:
    # _weights with each weight repeated for the real and the imaginary
    # part of its coefficient.
    w = _weights(degrees).repeat(2)
    w.setflags(write=False)
    return w


def bw_inner_re(degrees: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b> of two stacked coefficient vectors of one degree tuple, by
    one dot of their real views: equal inputs give equal bits wherever it is
    called."""
    return float(np.dot(_stacked_weights(degrees) * a.view(np.float64), b.view(np.float64)))


def bw_norm(h: PolySystem) -> float:
    """Bombieri-Weyl norm; inf past the largest float, NaN for a NaN coefficient.

    A PolySystem is immutable, so its norm is computed on the first call and
    kept on the system; unit_scale, ensure_on_sphere and newton.condition_mu
    read it from there.  It is computed in one pass over the stacked
    coefficient vector, with one sum per equation (see the module notes).
    """
    norm = h._bw_norm
    if norm is None:
        norm = _scaled_norm(h)
        object.__setattr__(h, "_bw_norm", norm)
    return norm


def _scaled_norm(h: PolySystem) -> float:
    # The moduli are scaled by the exact power of two 2^-e, e the binary
    # exponent of the largest one, before they are squared, so no square
    # overflows or goes subnormal.  The scale commutes with every rounding:
    # the bits are those of the unscaled sum wherever that one does neither.
    m = np.abs(h._vec)
    # e >= -1000 keeps 2^-e a float; the largest scaled modulus of a
    # subnormal system is then still above 2^-75.
    e = max(math.frexp(m.max())[1], -1000)
    m *= math.ldexp(1.0, -e)
    np.square(m, out=m)
    m *= _weights(h.degrees)
    total = 0.0
    for sl in _layout(h.degrees)[1]:
        total += float(m[sl].sum())
    try:
        return math.ldexp(math.sqrt(total), e)
    except OverflowError:
        return math.inf


def unit_scale(h: PolySystem) -> float:
    """1 / ||h||, the factor normalize_to_sphere scales h by.

    Raises ValueError unless it is finite and positive: a zero, infinite or
    NaN norm, or one too small for 1 / ||h|| to be a float.
    """
    norm = bw_norm(h)
    scale = 1.0 / norm if norm else math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"cannot normalize a system of norm {norm!r}")
    return scale


def normalize_to_sphere(h: PolySystem) -> PolySystem:
    """Scale to unit Bombieri-Weyl norm: h * unit_scale(h)."""
    return h * unit_scale(h)


def ensure_on_sphere(h: PolySystem, tol: float = 1e-10, what: str = "system") -> PolySystem:
    """Check unit-norm membership; raises ValueError when violated (a NaN
    norm included)."""
    norm = bw_norm(h)
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"{what} must lie on the unit sphere; norm is {norm!r}")
    return h


def riemann_distance(z, w) -> float:
    """Riemann distance on projective space, in [0, pi/2].

    Mathematically arccos(|<z, w>| / (|z| |w|)); computed through the norm of
    the orthogonal component so that tiny distances are not lost to rounding.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    nz = vector_norm(z)
    nw = vector_norm(w)
    if nz == 0.0 or nw == 0.0:
        raise ValueError("zero vector does not represent a projective point")
    z = z / nz
    w = w / nw
    ip = np.vdot(w, z)
    cos_part = min(abs(ip), 1.0)
    sin_part = vector_norm(z - ip * w)
    # Not math.atan2: on some scalar pairs it differs in the last bit.
    return float(np.arctan2(sin_part, cos_part))


def unitary_compose(h: PolySystem, U: np.ndarray) -> PolySystem:
    """The system z -> h(Uz), expanded in the dense monomial basis."""
    U = np.asarray(U, dtype=np.complex128)
    n_vars = h.n_vars
    if U.shape != (n_vars, n_vars):
        raise ValueError(f"U must be {n_vars}x{n_vars}, got {U.shape}")
    defect = np.linalg.norm(U.conj().T @ U - np.eye(n_vars))
    if defect > 1e-10:
        raise ValueError(f"U is not unitary (defect {defect:.3e})")

    # Power cache: linear_powers[j][e] = coefficient vector of ((Uz)_j)**e.
    linear_powers: list[list[np.ndarray]] = [[np.ones(1, dtype=np.complex128)] for _ in range(n_vars)]
    max_d = h.max_degree
    for j in range(n_vars):
        row = linear_form(U[j])
        for e in range(1, max_d + 1):
            power = dense_product(linear_powers[j][e - 1], e - 1, row, 1, n_vars)
            linear_powers[j].append(power)

    coeffs = []
    for i, d in enumerate(h.degrees):
        exps = homogeneous_exponents(n_vars, d)
        vec = np.zeros(exps.shape[0], dtype=np.complex128)
        for pos in np.nonzero(h.coeffs[i])[0]:
            c = h.coeffs[i][pos]
            term = None
            deg_so_far = 0
            for j, e in enumerate(exps[pos]):
                if e == 0:
                    continue
                factor = linear_powers[j][e]
                if term is None:
                    term, deg_so_far = factor, int(e)
                else:
                    term = dense_product(term, deg_so_far, factor, int(e), n_vars)
                    deg_so_far += int(e)
            vec += c * (term if term is not None else np.ones(1, dtype=np.complex128))
        coeffs.append(vec)
    return PolySystem(h.degrees, tuple(coeffs))


@lru_cache(maxsize=None)
def _mul_index(n_vars: int, d1: int, d2: int) -> np.ndarray:
    # Position of the product monomial for every pair of factor monomials.
    e1 = homogeneous_exponents(n_vars, d1)
    e2 = homogeneous_exponents(n_vars, d2)
    index = homogeneous_index(n_vars, d1 + d2)
    out = np.empty((e1.shape[0], e2.shape[0]), dtype=np.int64)
    for a, row_a in enumerate(e1):
        for b, row_b in enumerate(e2):
            out[a, b] = index[tuple(int(x) for x in (row_a + row_b))]
    out.setflags(write=False)
    return out


def dense_product(c1: np.ndarray, d1: int, c2: np.ndarray, d2: int, n_vars: int) -> np.ndarray:
    """Product of dense homogeneous coefficient vectors of degrees d1 and d2."""
    idx = _mul_index(n_vars, d1, d2)
    out = np.zeros(homogeneous_exponents(n_vars, d1 + d2).shape[0], dtype=np.complex128)
    product = np.outer(np.asarray(c1, np.complex128), np.asarray(c2, np.complex128))
    np.add.at(out, idx.ravel(), product.ravel())
    return out
