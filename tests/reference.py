"""An engine-independent reference for the tests, in mpmath at 40 digits.

A system is a pair (degrees, stacked coefficient vector), as a PolySystem's
_vec or a homotopy's g._vec and _pvec; of certitrack only that layout is
read (polysys._layout, homogeneous_exponents).  Values and Jacobians are
sums over exponent tuples, the Bombieri-Weyl product takes exact
multinomials, and every solve, inverse and singular value is mpmath's: no
point matrix, placement, rotation or LAPACK call of the engine is shared.
Results are mpmath numbers or lists, rounded by float() or np.array(x,
dtype=complex)."""

import math

from mpmath import MPContext

from certitrack.polysys import _layout, homogeneous_exponents

# The module's own context: its 40 digits leave mpmath.mp's precision alone.
mp = MPContext()
mp.dps = 40


def _terms(degrees, *vecs):
    # (equation, degree, exponent tuple, each vector's coefficient) per monomial.
    for i, (d, sl) in enumerate(zip(*_layout(degrees))):
        exps = homogeneous_exponents(len(degrees) + 1, d).tolist()
        coeffs = [[mp.mpc(c) for c in list(v)[sl]] for v in vecs]
        yield from ((i, d, row, *cs) for row, *cs in zip(exps, *coeffs))


def homotopy(hom, s: float):
    """The systems h_s = cos(s) g + sin(s) p and hdot_s = -sin(s) g + cos(s) p."""
    c, sn = mp.cos(s), mp.sin(s)
    pairs = [(mp.mpc(a), mp.mpc(b)) for a, b in zip(hom.g._vec, hom._pvec)]
    return ((hom.g.degrees, [c * a + sn * b for a, b in pairs]),
            (hom.g.degrees, [c * b - sn * a for a, b in pairs]))


def bw_inner(degrees, a, b):
    """<a, b>: the sum of a_k conj(b_k) / multinomial(d; exponents of k)."""
    return mp.fsum(x * mp.conj(y) * math.prod(map(math.factorial, row)) / math.factorial(d)
                   for _, d, row, x, y in _terms(degrees, a, b))


def bw_norm(degrees, vec):
    return mp.sqrt(mp.re(bw_inner(degrees, vec, vec)))


def evaluate(h, z) -> tuple[list, list]:
    """h(z) and the rows of Dh(z), summed term by term."""
    z = [mp.mpc(x) for x in z]
    value, jac = [0] * len(h[0]), [[0] * len(z) for _ in h[0]]
    for i, _, row, c in _terms(*h):
        powers = [x**e for x, e in zip(z, row)]
        value[i] += c * mp.fprod(powers)
        for j, e in enumerate(row):
            if e:
                jac[i][j] += c * e * z[j] ** (e - 1) * mp.fprod(powers[:j] + powers[j + 1:])
    return value, jac


def bordered(h, z) -> tuple:
    """The matrix (Dh(z); z*/|z|) and the column (h(z); 0), z of any norm."""
    (value, jac), norm = evaluate(h, z), mp.norm([mp.mpc(x) for x in z])
    return mp.matrix(jac + [[mp.conj(x) / norm for x in z]]), mp.matrix(value + [0])


def sigma_max(A):
    """The largest singular value of A, a matrix or a list of rows (mp.svd_c)."""
    return max(mp.svd_c(mp.matrix(A), compute_uv=False))


def _scaled_inverse_norm(h, z, columns: int):
    # The largest singular value of (Dh(z); z*/|z|)^{-1} times the first
    # columns of Diag(sqrt(d_1), ..., sqrt(d_n), 1).
    A = mp.inverse(bordered(h, z)[0]) * mp.diag([mp.sqrt(d) for d in h[0]] + [1])[:, :columns]
    return sigma_max(A)


def velocity(hom, s: float, z) -> list:
    """-(Dh_s(z); z*/|z|)^{-1} (hdot_s(z); 0), z of any norm: the path's velocity."""
    h, hdot = homotopy(hom, s)
    return list(-mp.lu_solve(bordered(h, z)[0], bordered(hdot, z)[1]))


def chi(hom, s: float, z) -> tuple:
    """chi1 = ||(Dh_s(z); z*)^{-1} Diag(sqrt(d_i), 1)||, chi2 = (||hdot_s||^2
    + ||velocity(hom, s, z)||^2)^{1/2} and phi = chi1 chi2, z of unit norm."""
    h, hdot = homotopy(hom, s)
    chi1 = _scaled_inverse_norm(h, z, len(h[0]) + 1)
    chi2 = mp.sqrt(bw_norm(*hdot) ** 2 + mp.norm(velocity(hom, s, z)) ** 2)
    return chi1, chi2, chi1 * chi2


def rk4(hom, s: float, x, dt: float) -> list:
    """One classical RK4 step of the velocity from x at s, normalized."""
    x, ks = [mp.mpc(c) for c in x], []
    for t in (0.0, dt / 2.0, dt / 2.0, dt):
        ks.append(velocity(hom, s + t, [a + t * k for a, k in zip(x, ks[-1])] if ks else x))
    out = [a + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4) for a, k1, k2, k3, k4 in zip(x, *ks)]
    return [c / mp.norm(out) for c in out]


def newton(h, z, steps: int = 1) -> list:
    """`steps` projective Newton steps, each from x = z/|z| to x - (Dh(x);
    x*)^{-1} (h(x); 0), normalized: 8 from an approximate zero reach its zero."""
    for _ in range(steps):
        z = mp.matrix([mp.mpc(c) for c in z])
        z = z / mp.norm(z) - mp.lu_solve(*bordered(h, z / mp.norm(z)))
        z = list(z / mp.norm(z))
    return z


def mu(h, z):
    """mu(h, z) = ||h|| ||(Dh(x); x*)^{-1} Diag(sqrt(d_i))||, x = z/|z| and
    the diagonal n+1 by n."""
    z = mp.matrix([mp.mpc(c) for c in z])
    return bw_norm(*h) * _scaled_inverse_norm(h, z / mp.norm(z), len(h[0]))
