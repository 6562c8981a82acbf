import hashlib
import itertools
import json
import math
import pickle
import platform
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from certitrack import experiments, start_systems
from certitrack.polysys import (
    AffineSystem,
    Evaluator,
    PolySystem,
    as_tensor,
    collect,
    degree_tuple,
    evaluate,
    evaluator,
    homogeneous_exponents,
    homogeneous_index,
    homogenize,
    jacobian,
    monomial_tensor,
    parse_system_json,
    space_dimension,
    unit_point,
)
from certitrack.experiments import katsura_system
from certitrack.start_systems import good_initial_pair, total_degree_start
from openblas_core import OTHER_KERNEL, child_lines
import reference
from sample_systems import random_points, random_system
from system_io import affine_json, system_to_json


def random_affine_system(degrees, seed):
    """An affine system with a random coefficient on every monomial of degree
    <= d_i: the affine parts x^a of the homogeneous basis X0^(d-|a|) x^a."""
    rng = np.random.default_rng(seed)
    n = len(degrees)
    terms = []
    for d in degrees:
        exps = homogeneous_exponents(n + 1, d)[:, 1:]
        c = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
        terms.append(list(zip(map(tuple, exps), c)))
    return AffineSystem(tuple(degrees), terms)


class TestMonomialBasis:
    @pytest.mark.parametrize("n_vars,degree", [(n, d) for n in range(2, 7) for d in range(1, 7)])
    def test_index_roundtrip(self, n_vars, degree):
        # The exponent tuples in ascending lex order, each at its index.
        exps = homogeneous_exponents(n_vars, degree)
        index = homogeneous_index(n_vars, degree)
        assert exps.shape[0] == math.comb(n_vars - 1 + degree, degree)
        as_tuples = [tuple(int(e) for e in row) for row in exps]
        assert as_tuples == sorted(as_tuples)
        for pos, key in enumerate(as_tuples):
            assert sum(key) == degree
            assert index[key] == pos


class TestMonomialTensor:
    @pytest.mark.parametrize("n_vars,degree", [(2, 1), (3, 2), (4, 3), (3, 4), (6, 2)])
    def test_entries_map_to_their_monomials(self, n_vars, degree):
        position, entry = monomial_tensor(n_vars, degree)
        exps = homogeneous_exponents(n_vars, degree)
        for flat, js in enumerate(itertools.product(range(n_vars), repeat=degree)):
            counts = tuple(js.count(j) for j in range(n_vars))
            assert position[flat] == homogeneous_index(n_vars, degree)[counts]
        # Each monomial's entry is the one with sorted indices.
        for pos, row in enumerate(exps):
            js = np.unravel_index(entry[pos], (n_vars,) * degree)
            assert list(js) == sorted(js)
            assert position[entry[pos]] == pos

    def test_layout_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        tensor = as_tensor(vec, 3, 4)
        assert tensor.shape == (3, 3, 3, 3)
        assert np.count_nonzero(tensor) == 15
        assert np.array_equal(collect(tensor), vec)

    def test_linear_times_linear(self):
        # (X0 + 2 X1)(3 X0 + X1) = 3 X0^2 + 7 X0 X1 + 2 X1^2
        prod = collect(np.multiply.outer([1.0, 2.0], [3.0, 1.0]))
        want = PolySystem.from_terms(
            (2,), [[((2, 0), 3.0), ((1, 1), 7.0), ((0, 2), 2.0)]]
        ).coeffs[0]
        assert np.array_equal(prod, want)


class TestSpaceDimension:
    @pytest.mark.parametrize("degrees, dimension", [((2, 2), 12), ((1,), 2), ((2, 2, 2), 30)],
                             ids=["two-quadrics", "single-linear", "three-quadrics"])
    def test_value(self, degrees, dimension):
        assert space_dimension(degrees) == dimension

    def test_bad_degrees(self):
        with pytest.raises(ValueError):
            space_dimension((0, 2))


def _rng():
    return np.random.default_rng(0)


# Every public function that takes a degree tuple, called on `degrees`, and
# PolySystem's _adopt, the constructor every system is built by.
TAKES_DEGREES = {
    "degree_tuple": degree_tuple,
    "space_dimension": space_dimension,
    "PolySystem": lambda d: PolySystem._adopt(d, np.zeros(12, dtype=complex)),
    "from_coeff_vector": lambda d: PolySystem.from_coeff_vector(d, np.zeros(12)),
    "from_terms": lambda d: PolySystem.from_terms(d, [[], []]),
    "AffineSystem": lambda d: AffineSystem(d, [[], []]),
    "evaluator": evaluator,
    "random_system_on_sphere": lambda d: start_systems.random_system_on_sphere(d, _rng()),
    "total_degree_start": lambda d: start_systems.total_degree_start(d, _rng()),
    "total_degree_initial_pair": lambda d: start_systems.total_degree_initial_pair(d, _rng()),
    "good_system_raw": start_systems.good_system_raw,
    "good_initial_pair": start_systems.good_initial_pair,
    "draw_ball_matrix": lambda d: start_systems.draw_ball_matrix(d, _rng()),
    "draw_restricted_system": lambda d: start_systems.draw_restricted_system(d, _rng()),
    "random_initial_pair": lambda d: start_systems.random_initial_pair(d, _rng()),
    "random_initial_pair_unitary": lambda d: start_systems.random_initial_pair_unitary(d, _rng()),
    "initial_pair": lambda d: start_systems.initial_pair("random", d, _rng()),
    "run_entropy": lambda d: experiments.run_entropy(d, runs=1),
    "run_bench": lambda d: experiments.run_bench("random", d, trials=1),
}


class TestIntegralDegrees:
    """Degrees and exponents pass one check: a value equal to its int passes
    as that int, and any other value is a ValueError, never truncated (a
    list, which the layout cache cannot hash, and a boolean, which it takes
    for its int, included)."""

    @pytest.mark.parametrize("degrees", [(2.5, 2), (2, math.inf), (2, math.nan), ("2", 2), ([2], 2), (True, 2),
                                         (2, np.True_), [2.5, 2]],
                             ids=["fraction", "infinity", "nan", "string", "list", "boolean", "numpy-boolean",
                                  "fraction-in-a-list"])
    @pytest.mark.parametrize("name", sorted(TAKES_DEGREES))
    def test_non_integral_degree_raises(self, name, degrees):
        with pytest.raises(ValueError, match="degrees must be integers"):
            TAKES_DEGREES[name](degrees)

    def test_integral_floats_give_the_bits_of_ints(self):
        assert degree_tuple((2.0, np.float64(2.0))) == (2, 2)
        vectors = []
        for degrees in [(2, 2), (2.0, 2.0), (np.float64(2.0), np.int64(2))]:
            systems = [
                start_systems.random_system_on_sphere(degrees, _rng()),
                start_systems.total_degree_start(degrees, _rng()).g,
                start_systems.good_initial_pair(degrees).g,
                start_systems.random_initial_pair(degrees, _rng()).g,
                homogenize(AffineSystem(degrees, [[((1, 1), 1.0)], [((2.0, 0.0), 2.0)]])),
            ]
            assert all(h.degrees == (2, 2) and type(h.degrees[0]) is int for h in systems)
            vectors.append([h._vec.tobytes() for h in systems])
        assert vectors[1] == vectors[0] and vectors[2] == vectors[0]


class TestEvaluate:
    def test_hand_expansion(self):
        # X1^2 - X0^2 at its zero, X0^2 at a point where it vanishes, and
        # X0*X1 + X1^2 at (1, 2)/sqrt(5): 2/5 + 4/5 = 6/5.
        for terms, z, want in [
            ([((0, 2), 1.0), ((2, 0), -1.0)], unit_point([1.0, 1.0]), pytest.approx(0.0, abs=1e-15)),
            ([((2, 0), 1.0)], np.array([0.0, 1.0], dtype=complex), 0.0),
            ([((1, 1), 1.0), ((0, 2), 1.0)], unit_point([1.0, 2.0]), pytest.approx(1.2, abs=1e-14)),
        ]:
            assert evaluate(PolySystem.from_terms((2,), [terms]), z)[0] == want

    @pytest.mark.parametrize("degrees,seed", [((2, 2), 0), ((3, 1, 2), 1), ((4,), 2)])
    def test_against_brute_force(self, degrees, seed):
        # The reference's value is the brute-force sum over exponent tuples.
        h = random_system(degrees, seed)
        (z,) = random_points(h.n_vars, 1, seed + 100)
        want = reference.evaluate((h.degrees, h._vec), z)[0]
        np.testing.assert_allclose(evaluate(h, z), np.array(want, dtype=complex), rtol=1e-13)

    def test_homogeneity_scaling(self):
        h = random_system((2, 3), 5)
        (z,) = random_points(3, 1, 6)
        lam = 0.7 - 1.3j
        scaled = evaluate(h, lam * z)
        base = evaluate(h, z)
        expect = np.array([lam**d for d in h.degrees]) * base
        np.testing.assert_allclose(scaled, expect, rtol=1e-10)

    def test_dimension_mismatch(self):
        h = random_system((2,), 0)
        with pytest.raises(ValueError):
            evaluate(h, np.zeros(3, dtype=complex))


class TestJacobian:
    def test_difference_of_squares_row(self):
        h = PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]])
        a, b = 0.3 + 0.1j, -0.5 + 0.9j
        J = jacobian(h, np.array([a, b]))
        np.testing.assert_allclose(J[0], [-2 * a, 2 * b], rtol=1e-14)

    def test_bilinear_monomial(self):
        h = PolySystem.from_terms((2,), [[((1, 1), 1.0)]])
        J = jacobian(h, np.array([1.0, 0.0], dtype=complex))
        np.testing.assert_allclose(J[0], [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("degrees,seed", [((2, 2), 3), ((3, 2, 2), 4), ((1, 2, 2, 2, 2), 5)])
    def test_against_the_reference(self, degrees, seed):
        h = random_system(degrees, seed)
        (z,) = random_points(h.n_vars, 1, seed + 50)
        z /= np.linalg.norm(z)
        want = reference.evaluate((h.degrees, h._vec), z)[1]
        np.testing.assert_allclose(jacobian(h, z), np.array(want, dtype=complex), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_euler_identity(self, seed):
        # Dh(z) z = Diag(d_i) h(z) for homogeneous systems
        h = random_system((2, 3), seed)
        (z,) = random_points(3, 1, seed + 10)
        z /= np.linalg.norm(z)
        lhs = jacobian(h, z) @ z
        rhs = np.array(h.degrees) * evaluate(h, z)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


LOOP_ROW_DEGREES = [(2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 3, 2)]


def loop_row_mismatches(degrees) -> int:
    """Points, of 3 seeded ones, at which jacobian or evaluate differ in any
    bit from the loop's rows: the product of a system stacked over its
    tangent, as a path places (g, p), with the point matrix."""
    ev = evaluator(degrees)
    h = random_system(degrees, len(degrees))
    hdot = random_system(degrees, len(degrees) + 1)
    R = np.stack([h._vec, hdot._vec])
    rng = np.random.default_rng(sum(degrees))
    mismatches = 0
    for _ in range(3):
        z = unit_point(rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars))
        blocks = ev.place(R).dot(ev.point_matrix(z))
        mismatches += (jacobian(h, z).tobytes() != blocks[: h.n, :-1].tobytes()
                       or evaluate(h, z).tobytes() != blocks[: h.n, -1].tobytes())
    return mismatches


class TestSingleEvaluator:
    """evaluate and jacobian are the certified loop's rows of the same point matrix."""

    @pytest.mark.parametrize("degrees", LOOP_ROW_DEGREES)
    def test_bitwise_equal_to_loop_rows(self, degrees):
        assert evaluator(degrees) is evaluator(degrees)
        assert loop_row_mismatches(degrees) == 0

    def test_degree_list_is_its_tuple(self):
        assert evaluator([2, 2]) is evaluator((2, 2))

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    )
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_bitwise_equal_to_loop_rows_on_other_kernels(self, coretype):
        # evaluate and jacobian multiply the pair [h; 0] in the loop's
        # (2n, rows) shape; an (n, rows) product of h alone differed from
        # the loop's rows in the last place on these two kernels.
        assert child_lines(OTHER_KERNEL, OPENBLAS_CORETYPE=coretype)[1] == "[0, 0, 0, 0]"


def gather_and_fold(degrees, z) -> np.ndarray:
    """The point matrix as a left fold over all n+1 coordinate powers, the
    unit powers z_j ** 0 included, then a scaling by the entry's multiplier:
    the evaluator's formula before its product plan."""
    n_vars, max_d = len(degrees) + 1, max(degrees)
    P = np.empty((n_vars, max_d + 1), dtype=np.complex128)
    P[:, 0] = 1.0
    P[:, 1] = z
    for k in range(2, max_d + 1):
        P[:, k] = P[:, k - 1] * z
    blocks = []
    for d in sorted(set(degrees)):
        exps = homogeneous_exponents(n_vars, d)
        # [k, c]: the exponents of dm_k/dz_c for c <= n, then of m_k, and
        # the multiplier; a derivative by an absent variable is 1 * 0, an
        # exact +0.
        lowered = exps[:, None, :] - np.eye(n_vars, dtype=np.int64)
        idx = np.concatenate([lowered, exps[:, None, :]], axis=1)
        mult = np.concatenate([exps, np.ones_like(exps[:, :1])], axis=1)
        idx[mult == 0] = 0
        vals = P[0, idx[:, :, 0]]
        for j in range(1, n_vars):
            vals = vals * P[j, idx[:, :, j]]
        blocks.append(vals * mult.astype(np.float64))
    return np.concatenate(blocks)


class TestPointMatrixPlan:
    """The product plan gives the bits of the full gather-and-fold, but for
    the sign of a zero at the all -0 point."""

    @staticmethod
    def _points(degrees):
        n_vars = len(degrees) + 1
        rng = np.random.default_rng(sum(degrees) + n_vars)
        points = random_points(n_vars, 20, rng)
        # Exact real coordinates: start roots, e_j and the good pair's e0.
        points += total_degree_start(degrees, rng).roots
        points += list(np.eye(n_vars, dtype=np.complex128))
        points.append(good_initial_pair(degrees).zeta0)
        return points

    # (1, 2, 3) stands for every order of its degrees: the point matrix
    # depends only on the set of degrees.
    @pytest.mark.parametrize("degrees", [(1,), (2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 2, 3)])
    def test_equal_to_gather_and_fold(self, degrees):
        ev = evaluator(degrees)
        for z in self._points(degrees):
            assert ev.point_matrix(z).tobytes() == gather_and_fold(degrees, z).tobytes()
        z = np.full(len(degrees) + 1, -0.0 - 0.0j)
        got, want = ev.point_matrix(z), gather_and_fold(degrees, z)
        assert np.array_equal(got, want)
        got, want = got.view(np.float64), want.view(np.float64)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert not (got[differ] != 0.0).any()

    # The step engine's case: unit points, on a fresh Evaluator, whose first
    # call makes its workspace; (1, 3, 2) is another order of (1, 2, 3).
    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 3, 2)])
    def test_fresh_evaluator_at_unit_points(self, degrees):
        ev = Evaluator(degrees)
        for z in random_points(ev.n_vars, 3, len(degrees)):
            z = unit_point(z)
            assert ev.point_matrix(z).tobytes() == gather_and_fold(degrees, z).tobytes()


class TestPointMatrixTemplate:
    """Each thread builds its point matrices in its own workspace: a copy of
    the evaluator's template and the gather and product arrays, reused by
    every call of the thread."""

    DEGREES = [(1,), (2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 3, 2)]

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_writing_a_result_changes_nothing(self, degrees):
        ev = evaluator(degrees)
        template = ev._template.copy()
        assert not ev._template.flags.writeable
        z, y = random_points(ev.n_vars, 2, len(degrees))
        want_z, want_y = ev.point_matrix(z).tobytes(), ev.point_matrix(y).tobytes()
        got = ev.point_matrix(z)
        got[...] = np.nan
        assert ev._template.tobytes() == template.tobytes()
        assert ev.point_matrix(y).tobytes() == want_y
        assert ev.point_matrix(z).tobytes() == want_z

    def test_one_thread_reuses_one_array(self):
        ev = evaluator((1, 3, 2))
        z, y = random_points(ev.n_vars, 2, 1)
        assert ev.point_matrix(z) is ev.point_matrix(y)

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_each_call_rewrites_every_power(self, degrees):
        # A power row left from the previous point would show at D >= 2.
        ev = evaluator(degrees)
        z, y = random_points(ev.n_vars, 2, sum(degrees))
        for point in (z, 3.0 * y, z):
            got = ev.point_matrix(point)
            assert got.tobytes() == gather_and_fold(degrees, point).tobytes()

    def test_kept_results_hold_no_data_of_their_own(self):
        # Once the thread's workspace is made, 100 kept results add no
        # NumPy data block: each is the workspace's product.
        ev = evaluator((1, 2, 2, 2, 2))
        points = random_points(ev.n_vars, 100, 2)
        ev.point_matrix(points[0])
        numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            kept = [ev.point_matrix(z) for z in points]
            blocks = len(tracemalloc.take_snapshot().filter_traces(numpy_data).traces)
        finally:
            tracemalloc.stop()
        assert len(kept) == 100
        assert blocks == 0

    def test_two_threads_give_the_serial_bits(self, fast_thread_switching):
        # A short switch interval lets the threads interleave inside calls,
        # where a table shared between calls would be overwritten.
        work = [
            (degrees, z)
            for degrees in self.DEGREES
            for z in random_points(len(degrees) + 1, 200, sum(degrees))
        ]

        def build(item):
            degrees, z = item
            return evaluator(degrees).point_matrix(z).tobytes()

        serial = [build(item) for item in work]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                assert list(pool.map(build, work, timeout=60)) == serial


class TestBlockMemo:
    """A system keeps the [Dh | h] block of its last point: jacobian then
    evaluate at one point build one point matrix, and every result has the
    bits of a fresh system's."""

    DEGREES = [(2, 2, 2), (1, 3, 2)]

    @staticmethod
    def _fresh(h, z):
        # jacobian and evaluate, each on its own copy of h that has read no point.
        def copy():
            return PolySystem.from_coeff_vector(h.degrees, h._vec)

        return jacobian(copy(), z).tobytes(), evaluate(copy(), z).tobytes()

    @staticmethod
    def _read(h, z):
        return jacobian(h, z).tobytes(), evaluate(h, z).tobytes()

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_jacobian_then_evaluate_builds_one_point_matrix(self, degrees, spy):
        built = spy(Evaluator, "point_matrix")
        h = random_system(degrees, 11)
        z = unit_point(np.arange(1, len(degrees) + 2) + 0.5j)
        want = self._fresh(h, z)
        built.clear()
        assert self._read(h, z) == want
        assert len(built) == 1

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_a_point_mutated_in_place_and_alternating_points(self, degrees):
        h = random_system(degrees, 12)
        (z,) = random_points(h.n_vars, 1, 12)
        first = self._fresh(h, z)
        assert self._read(h, z) == first
        y = z.copy()
        z[0] *= 1.5
        second = self._fresh(h, z)
        assert second != first
        assert self._read(h, z) == second
        assert self._read(h, y) == first
        assert self._read(h, z) == second
        assert self._read(h, y) == first
        # A signed zero is a different key; both read their own point's bits.
        z[1], y[1] = 0.0, -0.0
        for point in (z, y, z):
            assert self._read(h, point) == self._fresh(h, point)

    def test_results_are_read_only(self):
        h = random_system((2, 2), 13)
        z = unit_point([1.0, 2.0j, 3.0])
        for result in (jacobian(h, z), evaluate(h, z)):
            assert result.flags.writeable is False
            with pytest.raises(ValueError):
                result[0] = 1.0
        assert self._read(h, z) == self._fresh(h, z)

    def test_two_threads_on_one_system_read_their_own_point(self, fast_thread_switching):
        h = random_system((1, 2, 2, 2, 2), 14)
        points = random_points(h.n_vars, 2, 14)
        want = [self._fresh(h, z) for z in points]

        def hammer(k):
            return all(self._read(h, points[k]) == want[k] for _ in range(2000))

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(hammer, [0, 1], timeout=60)) == [True, True]


class TestCoefficientOwnership:
    def test_coefficients_read_only(self):
        h = PolySystem.from_coeff_vector((2, 2), np.arange(12, dtype=complex))
        for c in h.coeffs:
            with pytest.raises(ValueError):
                c[0] = 1.0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            PolySystem.from_coeff_vector((2, 2), np.zeros(11, dtype=complex))

    @pytest.mark.parametrize("terms", [[[]], [[], [], []]], ids=["too-few", "too-many"])
    def test_one_term_list_per_equation(self, terms):
        with pytest.raises(ValueError, match="expected 2 term lists, got"):
            PolySystem.from_terms((2, 2), terms)

    def test_coeff_vector_round_trip(self):
        # from_coeff_vector copies: a later write to its input changes
        # neither the system's coefficients nor its values.
        for h in (random_system((1, 3, 2), 7), PolySystem._adopt((2, 2), np.arange(12, dtype=complex))):
            vec = h._vec.copy()
            assert np.concatenate(h.coeffs).tobytes() == vec.tobytes()
            again = PolySystem.from_coeff_vector(h.degrees, vec)
            assert again._vec.tobytes() == vec.tobytes()
            z = unit_point(np.arange(1.0, h.n_vars + 1))
            before = evaluate(again, z).tobytes()
            vec[0] = 99.0
            assert again._vec[0] == h._vec[0] != 99.0
            assert evaluate(again, z).tobytes() == before

    def test_equality_is_identity(self):
        # Equal coefficients make two systems, not one: == and hash are the
        # objects', never an elementwise comparison of arrays.
        h = random_system((2, 2), 9)
        twin = PolySystem.from_coeff_vector(h.degrees, h._vec)
        assert h == h and h != twin and hash(h) == hash(h)
        assert {h: "h", twin: "twin"}[h] == "h"
        with pytest.raises(TypeError):
            PolySystem(h.degrees, h.coeffs)  # no per-equation constructor

    def test_pickle_round_trip(self):
        h = random_system((1, 3, 2), 8)
        again = pickle.loads(pickle.dumps(h))
        assert again.degrees == h.degrees
        assert again._vec.tobytes() == h._vec.tobytes()
        assert not any(c.flags.writeable for c in again.coeffs)


class TestHomogenization:
    @pytest.mark.parametrize("degrees, terms, zero, tol", [
        ((2,), [[((2,), 1.0), ((0,), -1.0)]], [1.0], 1e-15),  # x^2 - 1 -> X1^2 - X0^2
        ((1,), [[((1,), 1.0), ((0,), 2.0)]], [-2.0], 1e-15),  # x + 2 -> X1 + 2 X0
        ((2, 1), [
            [((2, 0), 1.0), ((0, 1), -1.0)],  # x^2 - y
            [((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), -2.0)],  # x + y - 2
        ], [1.0, 1.0], 1e-14),
    ], ids=["square-minus-one", "linear-with-constant", "two-equations"])
    def test_affine_zero_lifts_to_a_zero(self, degrees, terms, zero, tol):
        # A zero x of f lifts to the zero (1, x) of its homogenization, and of
        # the system its JSON record reads to.
        f = AffineSystem(degrees, terms)
        for h in (homogenize(f), parse_system_json(affine_json(f))):
            assert isinstance(h, PolySystem)
            assert np.linalg.norm(evaluate(h, unit_point((1.0, *zero)))) < tol

    def test_round_trip(self):
        f = random_affine_system((2, 3), 11)
        h = homogenize(f)
        # Read each coefficient back at the monomial that X0 completes.
        for d, terms, hom in zip(f.degrees, f.terms, h.coeffs):
            index = homogeneous_index(3, d)
            for a, c in terms:
                assert hom[index[(d - sum(a),) + a]] == c


# SHA-256 of homogenize(katsura_system(n))._vec.tobytes(), read
# when affine input still went through a dense affine basis.
KATSURA_HOMOGENIZED_SHA256 = {
    2: "7f3fef1ddb31f687118b65b3a25b58ef80672d8b80866813d8bc6274050491ea",
    3: "ed58e59a1434aeb234545c1b372b2c30f8f62070077d08940abfb634ab4ba826",
    4: "abc7b86a9072375f552c286815b4eb1d668ed4957c6361a85faf0d69a1c1abe2",
    5: "1bb0e7e5c8f8ab934100a6648b2e8165e58e38f7a4c5a556d24e093f4e8af259",
    6: "ce5d2e48d5ab9b1d3a8b4d81082eaad6fffee139aada2d4f25af9a8e11208818",
}

# Repeated monomials (two of them cancel to 0), -0.0 and 0 terms and a tiny
# imaginary part, in two equations.
AFFINE_RECORD = (
    '{"degrees": [2, 1], "terms": ['
    '[{"exponents": [1, 1], "re": 0.5, "im": -1.25}, {"exponents": [0, 0], "re": 3.0},'
    ' {"exponents": [1, 1], "re": 0.25, "im": 2.0}, {"exponents": [2, 0], "re": -0.0, "im": -0.0},'
    ' {"exponents": [0, 2], "re": 0.0}, {"exponents": [0, 0], "re": -3.0}],'
    ' [{"exponents": [1, 0], "re": 1.0}, {"exponents": [0, 1], "re": -0.0, "im": 1.5},'
    ' {"exponents": [0, 0], "re": 0, "im": -0.0}, {"exponents": [1, 0], "im": 1e-300}]]}'
)
# The coefficient bytes the same record gave through the dense affine basis.
AFFINE_RECORD_BYTES = bytes.fromhex(
    "00000000000000000000000000000000000000000000e83f000000000000e83f"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000f83f000000000000f03f59f3f8c21f6ea501"
    "00000000000000000000000000000000"
)


NON_INTEGRAL = " must be integers"
# A valid tuple of the other kind than the system's first term.
MIXED = " {} mix affine and homogeneous"


class TestAffineInput:
    @pytest.mark.parametrize("n", sorted(KATSURA_HOMOGENIZED_SHA256))
    def test_katsura_homogenized_bits_pinned(self, n):
        vec = homogenize(katsura_system(n))._vec
        assert hashlib.sha256(vec.tobytes()).hexdigest() == KATSURA_HOMOGENIZED_SHA256[n]

    def test_parsed_record_bits_pinned(self):
        h = parse_system_json(AFFINE_RECORD)
        assert isinstance(h, PolySystem)
        assert h._vec.tobytes() == AFFINE_RECORD_BYTES

    @pytest.mark.parametrize("exponents", [[1, 0, 0], [1, 0]], ids=["homogeneous", "affine"])
    def test_overflowing_sum_names_its_equation(self, exponents):
        # Each term is finite; their sum on one monomial is not.
        term = '{"exponents": %s, "re": 1e308}' % exponents
        first = '{"exponents": %s, "re": 1.0}' % exponents
        text = f'{{"degrees": [1, 1], "terms": [[{first}], [{term}, {term}]]}}'
        with pytest.raises(ValueError, match="equation 1: coefficients must be finite"):
            parse_system_json(text)

    # A system of degrees (1, 2) whose equation 1 has a term with bad
    # exponents, read by homogenize(AffineSystem(...)) (the ids without a
    # prefix), PolySystem.from_terms and parse_system_json (affine or
    # homogeneous as the exponents' length says); the error names the
    # equation.  AffineSystem keeps its terms unread, so from_terms checks
    # them all, and refuses the valid homogeneous (0, 1, 1) after affine
    # terms and the valid affine (1, 1) after a homogeneous one.
    @pytest.mark.parametrize("read, exponents, match", [
        *[("affine", e, "") for e in [(2, 1), (-1, 1), (1,), (1, 0, 0)]],
        *[("affine", e, NON_INTEGRAL) for e in [(0.9, 1.1), (1, math.inf), (1, "1"), 3, (True, 0), (0, np.True_)]],
        *[("terms", e, NON_INTEGRAL) for e in [(0, 0.9, 1.1), (0, 1, math.inf), (0, 1, "1"), 3, (0, True, True)]],
        *[("json", e, "") for e in [[2, 1], [-1, 1], [1, 0, 0]]],
        *[("json", e, NON_INTEGRAL + r", got \(.*2\.9") for e in [[2.9, 0], [0, 2.9, 0]]],
        ("json", [False, True, True], NON_INTEGRAL),
        ("affine", (0, 1, 1), MIXED.format(r"\(0, 1, 1\)")),
        ("terms", (1, 1), MIXED.format(r"\(1, 1\)")),
    ], ids=["sum-above-degree", "negative", "short", "long", "fraction", "infinity", "string", "not-a-list",
            "boolean", "numpy-boolean",
            "terms-fraction", "terms-infinity", "terms-string", "terms-not-a-list", "terms-boolean",
            "json-sum-above-degree", "json-negative", "json-homogeneous-sum-below-degree", "json-affine-fraction",
            "json-homogeneous-fraction", "json-boolean", "homogeneous-after-affine", "terms-affine-after-homogeneous"])
    def test_constructor_names_the_equation(self, read, exponents, match):
        with pytest.raises(ValueError, match="equation 1: exponents" + match):
            if read == "affine":
                homogenize(AffineSystem((1, 2), [[((1, 0), 1.0)], [((0, 0), 1.0), (exponents, 1.0)]]))
            elif read == "terms":
                PolySystem.from_terms((1, 2), [[((1, 0, 0), 1.0)], [(exponents, 1.0)]])
            else:
                first = [1, 0, 0][: len(exponents)]
                parse_system_json(f'{{"degrees": [1, 2], "terms": [[{{"exponents": {first}, "re": 1.0}}], '
                                  f'[{{"exponents": {json.dumps(exponents)}, "re": 1.0}}]]}}')

    def test_one_term_list_per_equation(self):
        with pytest.raises(ValueError, match="expected 2 term lists, got 1"):
            homogenize(AffineSystem((1, 2), [[((1, 0), 1.0)]]))

    @pytest.mark.parametrize("n", sorted(KATSURA_HOMOGENIZED_SHA256))
    def test_katsura_record_bits_pinned(self, n):
        # The affine record of Katsura-n reads to the bits of its
        # homogenization: the two ways in for affine input agree.
        vec = parse_system_json(affine_json(katsura_system(n)))._vec
        assert hashlib.sha256(vec.tobytes()).hexdigest() == KATSURA_HOMOGENIZED_SHA256[n]

    # (make, args): the affine system make(*args).
    @pytest.mark.parametrize("make, args", [
        (AffineSystem, ((2, 1), [
            [((1, 1), 0.5 - 1.25j), ((0, 0), 3.0), ((1, 1), 0.25 + 2j), ((2, 0), -0.0), ((0, 0), -3.0)],
            [((1, 0), 1.0), ((0, 1), -0.0 + 1.5j), ((0, 0), 0.0), ((1, 0), 1e-300j)],
        ])),
        (AffineSystem, ((1,), [[((1,), 2.0), ((0,), -1.0), ((1,), -2.0)]])),
        (katsura_system, (4,)),
        (random_affine_system, ((2, 3), 11)),
    ], ids=["repeated-and-signed-zeros", "cancelling", "katsura-4", "random-2-3"])
    def test_affine_and_homogeneous_spellings_agree(self, make, args):
        # from_terms reads the affine x^a as X0^(d-|a|) x^a, adding the
        # coefficients in the order given.
        f = make(*args)
        lifted = [[((d - sum(a),) + tuple(a), c) for a, c in eq] for d, eq in zip(f.degrees, f.terms)]
        want = PolySystem.from_terms(f.degrees, lifted)._vec.tobytes()
        assert PolySystem.from_terms(f.degrees, f.terms)._vec.tobytes() == want
        assert homogenize(f)._vec.tobytes() == want

    @pytest.mark.parametrize("read", ["affine", "homogeneous"])
    def test_numpy_terms_give_the_bits_of_plain_ones(self, read):
        # Exponents as NumPy integer and integral float arrays, coefficients
        # as NumPy complexes, floats and integers: the bits of the same terms
        # as tuples of Python ints with Python complexes.
        f = random_affine_system((2, 3), 5)
        lift = (lambda d, a: a) if read == "affine" else (lambda d, a: (d - sum(a),) + tuple(a))
        kinds = [np.complex128, lambda c: np.float64(c.real), lambda c: np.int64(round(c.real))]
        numpy_terms, plain_terms = [], []
        for d, eq in zip(f.degrees, f.terms):
            numpy_terms.append([(np.array(lift(d, a), dtype=np.int64 if k % 2 else np.float64), kinds[k % 3](c))
                                for k, (a, c) in enumerate(eq)])
            plain_terms.append([(tuple(int(e) for e in lift(d, a)), complex(kinds[k % 3](c)))
                                for k, (a, c) in enumerate(eq)])
        got = PolySystem.from_terms(f.degrees, numpy_terms)._vec
        assert got.tobytes() == PolySystem.from_terms(f.degrees, plain_terms)._vec.tobytes()


class TestAffineJacobian:
    def test_against_the_reference(self):
        # Df(x) is the Jacobian of the homogenization at (1, x) without its
        # X0 column.
        h = homogenize(random_affine_system((2, 2), 13))
        z = np.concatenate([[1.0], *random_points(2, 1, 13)])
        want = np.array(reference.evaluate((h.degrees, h._vec), z)[1], dtype=complex)
        np.testing.assert_allclose(jacobian(h, z)[:, 1:], want[:, 1:], rtol=1e-12, atol=1e-15)


class TestUnitPoint:
    def test_normalizes(self):
        z = unit_point([3.0, 4.0])
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_point([0.0, 0.0])

    def test_read_only(self):
        z = unit_point([1.0, 2.0])
        with pytest.raises(ValueError):
            z[0] = 5.0


class TestSystemIO:
    def test_parse_homogeneous(self):
        text = (
            '{"degrees": [2], "terms": [[{"exponents": [1, 1], "re": 1.0, "im": 0.0},'
            ' {"exponents": [0, 2], "re": 0.0, "im": -1.0}]]}'
        )
        h = parse_system_json(text)
        assert isinstance(h, PolySystem)
        z = unit_point([1.0, 2.0])
        assert evaluate(h, z)[0] == pytest.approx((2 - 4j) / 5)

    def test_round_trip(self):
        h = random_system((2, 2), 21)
        back = parse_system_json(system_to_json(h))
        for a, b in zip(h.coeffs, back.coeffs):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-16)

    @pytest.mark.parametrize(
        "text",
        ['{"degrees": [1], "terms": 5}', '{"degrees": ["a"], "terms": [[]]}', "[1]", '{"terms": []}'],
    )
    def test_malformed_record(self, text):
        with pytest.raises(ValueError, match="system record needs"):
            parse_system_json(text)

    @pytest.mark.parametrize("degrees", ["[2.7]", "[Infinity]", '["2"]', "[true]"],
                             ids=["fraction", "infinity", "string", "boolean"])
    def test_non_integral_degree_raises(self, degrees):
        terms = '[[{"exponents": [2, 0], "re": 1.0}, {"exponents": [0, 2], "re": -1.0}]]'
        with pytest.raises(ValueError, match="system record needs .*degrees must be integers"):
            parse_system_json(f'{{"degrees": {degrees}, "terms": {terms}}}')

    def test_rejects_mixed_lengths(self):
        # Either kind may come first; the first term of the other kind is
        # refused, named with its equation and its exponents.
        affine, homogeneous = '{"exponents": [1, 0], "re": 1.0}', '{"exponents": [0, 1, 0], "re": 1.0}'
        for first, second, shown in [(affine, homogeneous, r"\(0, 1, 0\)"), (homogeneous, affine, r"\(1, 0\)")]:
            text = f'{{"degrees": [1, 1], "terms": [[{first}], [{second}]]}}'
            with pytest.raises(ValueError, match=rf"equation 1: exponents {shown} mix affine and homogeneous"):
                parse_system_json(text)

    @pytest.mark.parametrize(
        "term",
        [
            '{"re": 1.0}',
            '{"exponents": 1}',
            '{"exponents": [1, "a"]}',
            '{"exponents": [1, 0], "re": []}',
            '{"exponents": [1, 0], "re": 1' + "0" * 400 + "}",
            "3",
            '{"exponents": [1, 0, 0], "re": NaN}',
            '{"exponents": [1, 0, 0], "im": -Infinity}',
            '{"exponents": [1, 0, 0], "re": 1e400}',
            '{"exponents": [1, 0], "re": null}',
            '{"exponents": [1, 0], "re": true}',
            '{"exponents": [1, 0], "im": false}',
            '{"exponents": [1, 0], "re": "1.5"}',
        ],
        ids=["no-exponents", "exponents-not-a-list", "exponent-not-an-integer", "re-not-a-number",
             "re-overflows", "term-not-an-object", "re-nan", "im-infinite", "re-1e400-is-inf", "re-null",
             "re-boolean", "im-boolean", "re-string"],
    )
    def test_malformed_term_names_its_equation(self, term):
        text = f'{{"degrees": [1, 1], "terms": [[{{"exponents": [0, 1, 0]}}], [{term}]]}}'
        with pytest.raises(ValueError, match="equation 1"):
            parse_system_json(text)
