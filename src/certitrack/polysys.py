"""Complex polynomial systems: the dense homogeneous representation, its
evaluation and differentiation, and the homogenization of affine input.

A homogeneous system of n equations in n+1 variables is stored as one dense
complex coefficient vector per equation, indexed by the monomial basis of the
equation's degree.  The monomial order is ascending lexicographic on the
exponent tuple (a0, ..., an); the bijection between positions and exponent
tuples is deterministic and cached per (variable count, degree).

The basis has one map to and from coefficient tensors, also cached per
(variable count, degree): a form of degree d is the sum of
T[j1, ..., jd] x_j1 ... x_jd over an (n+1) ** d tensor T.  as_tensor puts
each coefficient at the entry of its monomial with sorted indices and zeros
elsewhere, and collect sums any tensor's entries monomial by monomial.
Products and changes of variables are contractions of such tensors
(bw.unitary_compose, the random pair's first-order part), collected once.

A PolySystem owns one read-only coefficient vector, concatenated equation by
equation, of which `coeffs` holds views.  from_coeff_vector copies the
caller's vector into it; from_terms and the other builders make that vector
once and the system adopts it (_adopt), uncopied.
Degrees and exponents pass one check, which reads 2.0 as 2 and refuses 2.5,
inf, NaN, "2" and booleans; each degree tuple is checked once (cached), which
keeps `_adopt` cheap for the systems a homotopy builds per step.

Homogeneous systems have one evaluator, `evaluator(degrees)`, built once per
degree tuple.  Its point matrix at z has one row [dm/dz_0 ... dm/dz_n | m(z)]
per monomial m of each distinct degree.  Each entry is a product of at most
K factors from one table [1, z, z^2, ..., z^D, 0, 1, ..., D]: the powers of
the coordinates and the exponent multipliers, K <= min(D, n+1) non-unit
powers padded with ones, then the entry's multiplier.  The plan of those
indices is built with the evaluator, and so is a read-only template of the
table, whose ones and multipliers are filled once.  Each thread that builds
a point matrix gets one workspace per evaluator on its first call: a
writable copy of the template, the gather and the product.  A point matrix
writes z, z^2, ..., z^D into that table in place, gathers along the plan and
takes the product, all into the workspace, so a call allocates no array.  Its
result is the workspace's product, overwritten by the thread's next call;
every caller consumes it at once.  The non-unit powers are multiplied
in variable order, as a left fold over all n+1 powers would, and a factor
1 + 0j is the identity up to the sign of a zero: the values are those of
that fold, and only a zero's sign may differ (an entry that is -0 there may
be +0 here).  `Evaluator.place` lays the stacked coefficient vectors of
several systems out as one matrix whose product with a point matrix gives
their [Jacobian | value] blocks.  Every product is of a pair: both trackers
place a path's (g, p) once, and `evaluate` and `jacobian` place one system
h as (h, 0).  In the (2n, rows) shape zgemm gave a row the same bits
whatever the other rows held, on each OpenBLAS kernel measured (SkylakeX,
Haswell, Sandybridge, Prescott), so a system's values and Jacobian are the
loop's bits there; an (n, rows) product of h alone is blocked otherwise,
and differs in the last place on all but SkylakeX.

A system keeps the block of the last point `evaluate` or `jacobian` read,
keyed by the bytes of that point as a complex vector, so the two calls at
one point cost one point matrix and one product.  Their results are views
of that shared block and therefore read-only.  The memo is one (key, block)
tuple replaced whole, so threads that share a system each read a block
that belongs to the key they compared.

Affine input has no basis of its own.  PolySystem.from_terms is the one
reader and check of terms, and lifts an affine term x^a to X0^(d-|a|) x^a in
the basis above, X0 first.  homogenize hands it an AffineSystem's terms and
parse_system_json either kind of record, so every system that is evaluated is
a PolySystem.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .linalg import vector_norm


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # All exponent tuples with the given sum, in ascending lexicographic order.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def homogeneous_exponents(n_vars: int, degree: int) -> np.ndarray:
    """Exponent matrix of the degree-`degree` monomials in `n_vars` variables."""
    exps = np.array(list(_compositions(degree, n_vars)), dtype=np.int64)
    exps.setflags(write=False)
    return exps


@lru_cache(maxsize=None)
def homogeneous_index(n_vars: int, degree: int) -> dict[tuple[int, ...], int]:
    """Inverse of `homogeneous_exponents`: exponent tuple -> position."""
    exps = homogeneous_exponents(n_vars, degree)
    return {tuple(int(e) for e in row): i for i, row in enumerate(exps)}


@lru_cache(maxsize=None)
def monomial_tensor(n_vars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The map between n_vars ** degree tensors and the degree's monomial basis.

    Returns (position, entry): per entry (j1, ..., jd) of the tensor, read
    flat, the basis position of its monomial x_j1 ... x_jd; and per monomial,
    the flat entry whose index tuple is sorted.  Every entry has the monomial
    of its sorted index tuple.
    """
    exps = homogeneous_exponents(n_vars, degree)
    shape = (n_vars,) * degree
    # Index k of a monomial's sorted tuple is the number of leading
    # variables whose exponents sum to at most k.
    tuples = (np.cumsum(exps, axis=1)[:, None, :] <= np.arange(degree)[:, None]).sum(axis=2)
    entry = np.ravel_multi_index(tuples.T, shape)
    by_entry = np.empty(n_vars ** degree, dtype=np.int64)
    by_entry[entry] = np.arange(exps.shape[0])
    indices = np.indices(shape).reshape(degree, -1)
    position = by_entry[np.ravel_multi_index(np.sort(indices, axis=0), shape)]
    position.setflags(write=False)
    entry.setflags(write=False)
    return position, entry


def as_tensor(vec: np.ndarray, n_vars: int, degree: int) -> np.ndarray:
    """The (n_vars,) * degree tensor T of a coefficient vector, so that the
    form is the sum of T[j1, ..., jd] x_j1 ... x_jd: each coefficient at its
    monomial's sorted entry and zeros elsewhere, so no coefficient is
    divided by a multinomial."""
    tensor = np.zeros(n_vars ** degree, dtype=np.complex128)
    tensor[monomial_tensor(n_vars, degree)[1]] = vec
    return tensor.reshape((n_vars,) * degree)


def collect(tensor: np.ndarray) -> np.ndarray:
    """The coefficient vector of the form sum T[j1, ..., jd] x_j1 ... x_jd of
    an (n_vars,) * d tensor: its entries summed monomial by monomial, one
    np.bincount on the real parts and one on the imaginary parts."""
    n_vars, degree = tensor.shape[0], tensor.ndim
    position = monomial_tensor(n_vars, degree)[0]
    flat = tensor.reshape(-1)
    m = num_homogeneous_monomials(n_vars, degree)
    vec = np.empty(m, dtype=np.complex128)
    vec.real = np.bincount(position, weights=flat.real, minlength=m)
    vec.imag = np.bincount(position, weights=flat.imag, minlength=m)
    return vec


def num_homogeneous_monomials(n_vars: int, degree: int) -> int:
    return math.comb(n_vars - 1 + degree, degree)


def space_dimension(degrees: tuple[int, ...] | list[int]) -> int:
    """Complex dimension N+1 of the space of systems with these degrees."""
    return _layout(degrees)[1][-1].stop


def degree_tuple(degrees) -> tuple[int, ...]:
    """The degrees as a tuple of ints, checked once per tuple: a ValueError
    unless there is at least one and each is a positive integer (2 and 2.0
    pass; 2.5, inf, NaN and "2" do not)."""
    return _layout(degrees)[0]


# True equals 1 and hashes like it: _integers refuses booleans by type.
_BOOLEANS = frozenset({bool, np.bool_})


def _integers(values, equation: int | None = None) -> tuple[int, ...]:
    # values as a tuple of ints when each equals its int and none is a
    # boolean, else a ValueError about the degrees or, given its equation,
    # about exponents.
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
        if ints == values and _BOOLEANS.isdisjoint(map(type, values)):
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    what = "degrees" if equation is None else f"equation {equation}: exponents"
    raise ValueError(f"{what} must be integers, got {values!r}")


def _layout(degrees) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    # The checked degree tuple and each equation's block of the coefficient
    # vector, cached per tuple; unhashable degrees are checked uncached, and
    # any but a checked tuple for booleans, which the cache takes for ints.
    try:
        degrees = tuple(degrees)
        layout = _cached_layout(degrees)
    except TypeError:
        return _cached_layout(_integers(degrees))
    if layout[0] is not degrees and not _BOOLEANS.isdisjoint(map(type, degrees)):
        _integers(degrees)
    return layout


@lru_cache(maxsize=None)
def _cached_layout(degrees: tuple) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    degrees = _integers(degrees)
    if not degrees or min(degrees) < 1:
        raise ValueError(f"degrees must be one or more positive integers, got {degrees}")
    n_vars = len(degrees) + 1
    ends = list(itertools.accumulate(num_homogeneous_monomials(n_vars, d) for d in degrees))
    return degrees, tuple(map(slice, [0] + ends, ends))


@dataclass(frozen=True, init=False, eq=False)
class PolySystem:
    """Square homogeneous system: n equations of degrees d_i in n+1 variables.

    Built over one read-only coefficient vector by from_coeff_vector,
    from_terms or _adopt; there is no per-equation constructor.  == and hash
    are those of the object (eq=False): whether two systems are equal is a
    question about their coefficients, with a tolerance, which callers ask
    of `_vec` themselves.
    """

    degrees: tuple[int, ...]
    coeffs: tuple[np.ndarray, ...]
    # (key, block): the [Dh(z) | h(z)] block of the last point _block read,
    # keyed by that point's bytes.
    _last_block = None

    def _own(self, degrees, slices, vec: np.ndarray) -> None:
        # vec, a fresh 1-d complex array, becomes the system's storage.
        vec.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "coeffs", tuple(vec[sl] for sl in slices))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def n_vars(self) -> int:
        return len(self.degrees) + 1

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    def __reduce__(self):
        # Unpickled systems own a read-only vector too (default pickling
        # would restore writable, separate per-equation copies).
        return PolySystem.from_coeff_vector, (self.degrees, self._vec)

    @classmethod
    def from_coeff_vector(cls, degrees: tuple[int, ...], vec: np.ndarray) -> "PolySystem":
        """The system over a copy of vec, its equations' coefficients in turn."""
        return cls._adopt(degrees, np.array(vec, dtype=np.complex128))

    @classmethod
    def _adopt(cls, degrees, vec: np.ndarray) -> "PolySystem":
        # The system over vec itself, a fresh complex vector no one else
        # holds: it is made read-only, not copied.
        degrees, slices = _layout(degrees)
        if vec.shape != (slices[-1].stop,):
            raise ValueError(f"expected {slices[-1].stop} coefficients, got shape {vec.shape}")
        h = cls.__new__(cls)
        h._own(degrees, slices, vec)
        return h

    @classmethod
    def from_terms(cls, degrees, terms) -> "PolySystem":
        """Build from sparse terms: per equation, a list of (exponents, coefficient).

        The one reader and check of a term; its exponents pass _integers once.
        In an equation of degree d, n+1 exponents are a monomial X^a of sum
        d, and n exponents the affine x^a, |a| <= d, read as X0^(d-|a|) x^a.
        A monomial's coefficients add up in the order given.  A bad tuple is
        a ValueError naming its equation and the tuple as given.
        """
        degrees, slices = _layout(degrees)
        n = len(degrees)
        if len(terms) != n:
            raise ValueError(f"expected {n} term lists, got {len(terms)}")
        vec = np.zeros(slices[-1].stop, dtype=np.complex128)
        for i, (d, sl, eq_terms) in enumerate(zip(degrees, slices, terms)):
            block, index = vec[sl], homogeneous_index(n + 1, d)
            for exponents, c in eq_terms:
                a = _integers(exponents, i)
                # The index holds exactly the valid homogeneous tuples.
                pos = index.get((d - sum(a),) + a if len(a) == n else a)
                if pos is None:
                    raise ValueError(
                        f"equation {i}: exponents {a} invalid for degree {d}: need {n + 1} "
                        f"non-negative integers of sum {d}, or {n} of sum at most {d}"
                    )
                block[pos] += c
        return cls._adopt(degrees, vec)

    def __add__(self, other: "PolySystem") -> "PolySystem":
        if not isinstance(other, PolySystem) or other.degrees != self.degrees:
            return NotImplemented
        return PolySystem._adopt(self.degrees, self._vec + other._vec)

    def __mul__(self, scalar) -> "PolySystem":
        scalar = complex(scalar)
        return PolySystem._adopt(self.degrees, scalar * self._vec)

    __rmul__ = __mul__


@dataclass(frozen=True)
class AffineSystem:
    """Square affine system: n equations of degrees <= d_i in n variables,
    as sparse terms.

    terms holds one list per equation of (exponents, coefficient) pairs,
    kept as given: the constructor checks the degrees (degree_tuple) and
    nothing else.  An affine system is input only: homogenize reads and
    checks its terms (PolySystem.from_terms) into the PolySystem that is
    evaluated and tracked.
    """

    degrees: tuple[int, ...]
    terms: list

    def __post_init__(self):
        object.__setattr__(self, "degrees", degree_tuple(self.degrees))


def unit_point(coords) -> np.ndarray:
    """Unit-norm representative of a projective point (read-only array).

    A norm whose squares overflow raises the ValueError alone, without
    NumPy's overflow warning ahead of it."""
    z = np.ascontiguousarray(coords, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError("a point is a 1-d coordinate vector")
    with np.errstate(over="ignore"):
        norm = vector_norm(z)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"a projective point needs a finite, nonzero norm, got {norm!r}")
    z = z / norm
    z.setflags(write=False)
    return z


class _PointMatrixWorkspace(threading.local):
    """One thread's arrays for the point matrices of one evaluator, made on
    the thread's first call: a writable copy of the template (its power
    rows z ** 1 ... z ** D rewritten by each call), the (K + 1, entries)
    gather and the entries' product.  build(z) fills them and returns the
    product as a (rows, n_cols) view, the same array on every call."""

    def __init__(self, template: np.ndarray, plan: np.ndarray, max_d: int, n_cols: int):
        table = template.copy()
        gather = np.empty(plan.shape, dtype=np.complex128)
        product = np.empty(plan.shape[1], dtype=np.complex128)
        result = product.reshape(-1, n_cols)
        first = table[1]
        # (z ** (k-1), z ** k) row pairs for k = 2 ... D.
        powers = [(table[k - 1], table[k]) for k in range(2, max_d + 1)]
        take, reduce, multiply = table.reshape(-1).take, np.multiply.reduce, np.multiply

        def build(z) -> np.ndarray:
            first[...] = z
            for prev, row in powers:
                multiply(prev, z, out=row)
            # mode="clip" writes the gather into out directly (the plan's
            # positions are in range); np.multiply.reduce is np.prod
            # without its Python wrapper.
            take(plan, out=gather, mode="clip")
            reduce(gather, axis=0, out=product)
            return result

        self.build = build


class Evaluator:
    """Values and Jacobians of every homogeneous system with one degree tuple.

    The point matrix has one row [dm/dz_0 ... dm/dz_n | m(z)] per monomial m
    of each distinct degree, degrees ascending and monomials in basis order;
    equations of one degree share its rows.  A placed system (place) has one
    row per equation over those rows, so it depends on the system alone and
    multiplies the point matrix of any point.
    """

    def __init__(self, degrees):
        self.degrees, self.slices = _layout(degrees)
        self.n = len(self.degrees)
        self.n_vars = self.n + 1
        self.max_d = max(self.degrees)
        self.uniform = len(set(self.degrees)) == 1

        exponents, mults, first_row = [], [], {}
        n_rows = 0
        for d in sorted(set(self.degrees)):
            exps = homogeneous_exponents(self.n_vars, d)
            first_row[d] = n_rows
            n_rows += exps.shape[0]
            # [k, c]: the exponents of dm_k/dz_c for c <= n, then of m_k, and
            # the multiplier of that product.  A derivative by an absent
            # variable is the empty product times 0, an exact +0.
            lowered = exps[:, None, :] - np.eye(self.n_vars, dtype=np.int64)
            idx = np.concatenate([lowered, exps[:, None, :]], axis=1)
            mult = np.concatenate([exps, np.ones_like(exps[:, :1])], axis=1)
            idx[mult == 0] = 0
            exponents.append(idx.reshape(-1, self.n_vars))
            mults.append(mult.ravel())
        # The table, read flat: rows z ** 0 ... z ** D of the power table
        # (z_j ** e at e (n+1) + j), then the multipliers 0 ... D, in rows of
        # n+1 padded with zeros.  Only the rows z ** 1 ... z ** D depend on
        # z: the template holds the rest, filled once, and is read-only.
        # Per entry, the plan lists the table positions of its non-unit
        # powers in variable order, padded with a 1 (a z_j ** 0), and last
        # its multiplier.  Stored (K + 1, entries), so the product runs
        # along axis 0.
        exps = np.concatenate(exponents)
        nonunit = exps > 0
        K = int(nonunit.sum(axis=1).max())
        order = np.argsort(~nonunit, axis=1, kind="stable")[:, :K]
        positions = exps * self.n_vars + np.arange(self.n_vars)
        n_powers = (self.max_d + 1) * self.n_vars
        table_rows = -(-(n_powers + self.max_d + 1) // self.n_vars)
        template = np.zeros((table_rows, self.n_vars), dtype=np.complex128)
        template[0] = 1.0
        template.reshape(-1)[n_powers: n_powers + self.max_d + 1] = np.arange(self.max_d + 1)
        template.setflags(write=False)
        self._template = template
        self._plan = np.ascontiguousarray(np.column_stack(
            [np.take_along_axis(positions, order, axis=1), n_powers + np.concatenate(mults)]
        ).T)
        # Mixed degrees: flat positions of a system's coefficients in its
        # (n, rows) block matrix, whose row i carries equation i's
        # coefficients at the rows of its degree.
        self._place = np.concatenate(
            [i * n_rows + first_row[d] + np.arange(sl.stop - sl.start)
             for i, (d, sl) in enumerate(zip(self.degrees, self.slices))]
        )
        self._block_size = self.n * n_rows
        self._workspace = _PointMatrixWorkspace(template, self._plan, self.max_d, self.n + 2)

    def point_matrix(self, z) -> np.ndarray:
        """The (rows, n+2) point matrix at z: every monomial's gradient and value.

        Built in the calling thread's workspace (_PointMatrixWorkspace): the
        thread's next call overwrites it, so a caller that keeps it copies it."""
        return self._workspace.build(z)

    def place(self, R) -> np.ndarray:
        """The (K n, rows) matrix of the K systems whose coefficient vectors are
        the rows of R: row k n + i holds equation i of system k at the point
        matrix rows of its degree, so its product with M gives their blocks."""
        K = R.shape[0]
        if self.uniform:
            return R.reshape(K * self.n, -1)
        placed = np.zeros((K, self._block_size), dtype=np.complex128)
        placed[:, self._place] = R
        return placed.reshape(K * self.n, -1)


def evaluator(degrees) -> Evaluator:
    """The Evaluator of a degree tuple, checked by degree_tuple and built on first use."""
    return _evaluator(degree_tuple(degrees))


@lru_cache(maxsize=None)
def _evaluator(degrees: tuple[int, ...]) -> Evaluator:
    # Cached per checked degree tuple, which a system's degrees already are.
    return Evaluator(degrees)


def _checked_point(n_vars: int, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (n_vars,):
        raise ValueError(f"point must have {n_vars} coordinates, got {z.shape}")
    return z


def _block(h: PolySystem, z) -> np.ndarray:
    # [Dh(z) | h(z)], (n, n+2): rows :n of the placed pair [h; 0] times the
    # point matrix at z, in the product shape of a path's [g; p], so that
    # both round alike (see the module docstring).
    # h keeps the block of its last point, keyed by the checked point's
    # bytes: an equal key is an identical point, so a hit returns the bits a
    # miss computes.  Every reader shares the block, so it is read-only.
    # The memo is one (key, block) tuple replaced whole: a thread reads the
    # old tuple or the new one, and checks the key stored with its block.
    z = _checked_point(h.n_vars, z)
    key = z.tobytes()
    memo = h._last_block
    if memo is not None and memo[0] == key:
        return memo[1]
    ev = _evaluator(h.degrees)
    pair = np.zeros((2, h._vec.shape[0]), dtype=np.complex128)
    pair[0] = h._vec
    block = ev.place(pair).dot(ev.point_matrix(z))[: h.n]
    block.setflags(write=False)
    object.__setattr__(h, "_last_block", (key, block))
    return block


def evaluate(h: PolySystem, z) -> np.ndarray:
    """Value vector (h_1(z), ..., h_n(z)) at a representative z (read-only)."""
    return _block(h, z)[:, -1]


def jacobian(h: PolySystem, z) -> np.ndarray:
    """The n x (n+1) Jacobian matrix Dh(z) (read-only)."""
    return _block(h, z)[:, :-1]


def homogenize(f: AffineSystem) -> PolySystem:
    """The homogeneous system of f in the variables (X0, x), read and checked
    by PolySystem.from_terms: each term x^a of an equation of degree d
    becomes X0^(d-|a|) x^a, and the terms that share a monomial add up."""
    return PolySystem.from_terms(f.degrees, f.terms)


def parse_system_json(text: str) -> PolySystem:
    """Parse the text input format for systems into a PolySystem.

    The record carries "degrees": [d_1, ..., d_n] and "terms": one list per
    equation of {"exponents": [...], "re": float, "im": float}.  Exponent
    lists of length n+1 describe a homogeneous system in (X0, ..., Xn), and
    lists of length n an affine one in (x1, ..., xn); a record that mixes
    them is a ValueError.  PolySystem.from_terms reads and checks the terms
    of either kind.  A coefficient of the resulting system that is not
    finite (NaN, Infinity, a literal such as 1e400 that overflows, or a sum
    that does) is a ValueError naming its equation.
    """
    record = json.loads(text)
    try:
        degrees = degree_tuple(record["degrees"])
        raw_terms = list(record["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            "system record needs a 'degrees' list of positive integers and a 'terms' list "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    terms = [_parse_terms(i, eq) for i, eq in enumerate(raw_terms)]
    # A sum that overflows is reported below as a ValueError, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        system = PolySystem.from_terms(degrees, terms)
    # Every exponent list passed from_terms, so each has a length.
    lengths = {len(exponents) for eq in terms for exponents, _ in eq}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent exponent lengths {sorted(lengths)} for n={system.n}")
    for i, vec in enumerate(system.coeffs):
        if not np.isfinite(vec).all():
            raise ValueError(f"equation {i}: coefficients must be finite numbers")
    return system


def _parse_terms(i: int, raw) -> list[tuple[object, complex]]:
    # One equation's term list as (exponents, coefficient) pairs: the JSON
    # shape alone, the exponents as given for from_terms to read.
    try:
        return [(t["exponents"], complex(float(t.get("re", 0.0)), float(t.get("im", 0.0)))) for t in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"equation {i}: every term needs an 'exponents' list of integers "
            f"and numeric 're'/'im' ({type(exc).__name__}: {exc})"
        ) from exc
