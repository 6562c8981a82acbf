"""Bombieri-Weyl Hermitian geometry on spaces of homogeneous systems, and the
Riemann distance on complex projective space.

The Hermitian product weights each monomial coefficient pair by the inverse
multinomial coefficient of its exponent tuple; it is invariant under unitary
changes of variables, which is what makes the unit sphere of systems the
natural arena for homotopy paths.  One cached table per degree tuple,
weight_table, holds these weights and the scales sqrt(multinomial) from
orthonormal coordinates to monomial coefficients.

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
from typing import NamedTuple

import numpy as np

from .linalg import vector_norm
from .polysys import PolySystem, _layout, as_tensor, collect, homogeneous_exponents

SPHERE_TOL = 1e-10


class _WeightTable(NamedTuple):
    # Per stacked coefficient, m the exact multinomial of its exponents: the
    # weight 1/m, the scale sqrt(m) from orthonormal coordinates to monomial
    # coefficients, and 1/m again for its real and its imaginary part.
    weights: np.ndarray
    scales: np.ndarray
    re_im_weights: np.ndarray


@lru_cache(maxsize=None)
def weight_table(degrees: tuple[int, ...]) -> _WeightTable:
    """The read-only weights and scales of a validated degree tuple, built once."""
    n_vars = len(degrees) + 1
    fact = [math.factorial(k) for k in range(max(degrees) + 1)]
    m = np.array([
        fact[d] // math.prod(fact[e] for e in row)
        for d in degrees
        for row in homogeneous_exponents(n_vars, d)
    ], dtype=np.float64)
    table = _WeightTable(1.0 / m, np.sqrt(m), (1.0 / m).repeat(2))
    for w in table:
        w.setflags(write=False)
    return table


def bw_inner_re(degrees: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b> of two stacked coefficient vectors of one degree tuple, by
    one dot of their real views: equal inputs give equal bits wherever it is
    called."""
    return float(np.dot(weight_table(degrees).re_im_weights * a.view(np.float64), b.view(np.float64)))


def bw_norm(h: PolySystem) -> float:
    """Bombieri-Weyl norm; inf past the largest float, NaN for a NaN coefficient.

    Computed in one pass over the stacked coefficient vector, with one sum
    per equation (see the module notes).
    """
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
    m *= weight_table(h.degrees).weights
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


def ensure_on_sphere(h: PolySystem, what: str) -> PolySystem:
    """Check unit-norm membership, | ||h|| - 1 | <= SPHERE_TOL; raises
    ValueError naming `what` when violated (a NaN norm included)."""
    norm = bw_norm(h)
    if not abs(norm - 1.0) <= SPHERE_TOL:
        raise ValueError(f"{what} must lie on the unit sphere; norm is {norm!r}")
    return h


def riemann_distance(z, w) -> float:
    """Riemann distance on projective space, in [0, pi/2].

    Mathematically arccos(|<z, w>| / (|z| |w|)); computed through the norm of
    the orthogonal component so that tiny distances are not lost to rounding.
    A point whose norm is 0 or inf, as squares that underflow or overflow
    make it, raises unit_point's ValueError; NaN coordinates give NaN.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    nz = vector_norm(z)
    nw = vector_norm(w)
    if nz in (0.0, math.inf) or nw in (0.0, math.inf):
        raise ValueError(f"a projective point needs a finite, nonzero norm, got {nz!r} and {nw!r}")
    z = z / nz
    w = w / nw
    ip = np.vdot(w, z)
    cos_part = min(abs(ip), 1.0)
    sin_part = vector_norm(z - ip * w)
    # Not math.atan2: on some scalar pairs it differs in the last bit.
    return float(np.arctan2(sin_part, cos_part))


def unitary_compose(h: PolySystem, U: np.ndarray) -> PolySystem:
    """The system z -> h(Uz), expanded in the dense monomial basis.

    Each equation of degree d is laid out as its (n+1) ** d coefficient
    tensor, each of its d axes is contracted with U, and the result is
    collected onto the basis: O(d (n+1) ** (d+1)) work and (n+1) ** d
    entries per equation.
    """
    U = np.asarray(U, dtype=np.complex128)
    n_vars = h.n_vars
    if U.shape != (n_vars, n_vars):
        raise ValueError(f"U must be {n_vars}x{n_vars}, got {U.shape}")
    defect = vector_norm((U.conj().T @ U - np.eye(n_vars)).ravel())
    if not defect <= 1e-10:
        raise ValueError(f"U is not unitary (defect {defect:.3e})")
    coeffs = []
    for d, c in zip(h.degrees, h.coeffs):
        tensor = as_tensor(c, n_vars, d)
        # h(Uz) = sum T[j1, ..., jd] (Uz)_j1 ... (Uz)_jd.  Each contraction
        # sums the leading axis j against U[j, k] and appends k last (as
        # np.tensordot(T, U, axes=(0, 0)) does, with less overhead).
        for _ in range(d):
            tensor = tensor.reshape(n_vars, -1).T @ U
        coeffs.append(collect(tensor.reshape((n_vars,) * d)))
    return PolySystem._adopt(h.degrees, np.concatenate(coeffs))
