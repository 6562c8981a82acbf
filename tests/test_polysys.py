import hashlib
import itertools
import math
import pickle
import platform
import sys

import numpy as np
import pytest

from certitrack.polysys import (
    AffineSystem,
    Evaluator,
    PolySystem,
    as_tensor,
    collect,
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
from system_io import system_to_json
from test_tracker import run_child


def brute_evaluate(h: PolySystem, z) -> np.ndarray:
    """Independent oracle: direct sum over exponent tuples with Python pow."""
    z = np.asarray(z, dtype=np.complex128)
    out = []
    for d, coeff in zip(h.degrees, h.coeffs):
        exps = homogeneous_exponents(h.n_vars, d)
        total = 0.0 + 0.0j
        for pos, row in enumerate(exps):
            term = complex(coeff[pos])
            for j, e in enumerate(row):
                term *= complex(z[j]) ** int(e)
            total += term
        out.append(total)
    return np.array(out)


def fd_jacobian(h: PolySystem, z, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences along each coordinate (holomorphic systems)."""
    z = np.asarray(z, dtype=np.complex128)
    J = np.zeros((h.n, h.n_vars), dtype=np.complex128)
    for j in range(h.n_vars):
        dz = np.zeros_like(z)
        dz[j] = eps
        J[:, j] = (brute_evaluate(h, z + dz) - brute_evaluate(h, z - dz)) / (2 * eps)
    return J


def random_system(degrees, seed):
    rng = np.random.default_rng(seed)
    n_vars = len(degrees) + 1
    coeffs = []
    for d in degrees:
        m = homogeneous_exponents(n_vars, d).shape[0]
        coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return PolySystem(tuple(degrees), tuple(coeffs))


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
        exps = homogeneous_exponents(n_vars, degree)
        index = homogeneous_index(n_vars, degree)
        assert exps.shape[0] == math.comb(n_vars - 1 + degree, degree)
        for pos, row in enumerate(exps):
            key = tuple(int(e) for e in row)
            assert sum(key) == degree
            assert index[key] == pos

    def test_ascending_lex_order(self):
        for degree in (1, 2):
            exps = homogeneous_exponents(3, degree)
            as_tuples = [tuple(int(e) for e in row) for row in exps]
            assert as_tuples == sorted(as_tuples)


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
    def test_two_quadrics(self):
        assert space_dimension((2, 2)) == 12

    def test_single_linear(self):
        assert space_dimension((1,)) == 2

    def test_three_quadrics(self):
        assert space_dimension((2, 2, 2)) == 30

    def test_bad_degrees(self):
        with pytest.raises(ValueError):
            space_dimension((0, 2))


class TestEvaluate:
    def test_difference_of_squares_at_its_zero(self):
        h = PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]])
        z = unit_point([1.0, 1.0])
        assert abs(evaluate(h, z)[0]) < 1e-15

    def test_monomial_vanishes(self):
        h = PolySystem.from_terms((2,), [[((2, 0), 1.0)]])
        assert evaluate(h, np.array([0.0, 1.0], dtype=complex))[0] == 0.0

    def test_hand_expansion(self):
        # X0*X1 + X1^2 at (1, 2)/sqrt(5): 2/5 + 4/5 = 6/5
        h = PolySystem.from_terms((2,), [[((1, 1), 1.0), ((0, 2), 1.0)]])
        z = unit_point([1.0, 2.0])
        assert evaluate(h, z)[0] == pytest.approx(1.2, abs=1e-14)

    @pytest.mark.parametrize("degrees,seed", [((2, 2), 0), ((3, 1, 2), 1), ((4,), 2)])
    def test_against_brute_force(self, degrees, seed):
        h = random_system(degrees, seed)
        rng = np.random.default_rng(seed + 100)
        z = rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars)
        got = evaluate(h, z)
        want = brute_evaluate(h, z)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_homogeneity_scaling(self):
        h = random_system((2, 3), 5)
        rng = np.random.default_rng(6)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
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
    def test_against_finite_differences(self, degrees, seed):
        h = random_system(degrees, seed)
        rng = np.random.default_rng(seed + 50)
        z = rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars)
        z /= np.linalg.norm(z)
        np.testing.assert_allclose(jacobian(h, z), fd_jacobian(h, z), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_euler_identity(self, seed):
        # Dh(z) z = Diag(d_i) h(z) for homogeneous systems
        h = random_system((2, 3), seed)
        rng = np.random.default_rng(seed + 10)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
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
    R = np.stack([h.coeff_vector(), hdot.coeff_vector()])
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

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    )
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_bitwise_equal_to_loop_rows_on_other_kernels(self, coretype):
        # evaluate and jacobian multiply the pair [h; 0] in the loop's
        # (2n, rows) shape; an (n, rows) product of h alone differed from
        # the loop's rows in the last place on these two kernels.
        code = ("from test_polysys import LOOP_ROW_DEGREES, loop_row_mismatches; "
                "print([loop_row_mismatches(d) for d in LOOP_ROW_DEGREES])")
        assert run_child(code, OPENBLAS_CORETYPE=coretype).strip() == "[0, 0, 0, 0]"


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
        # the multiplier; a derivative by an absent variable is 1 * 0.
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
    """The product plan gives the values of the full gather-and-fold."""

    @staticmethod
    def _points(degrees):
        n_vars = len(degrees) + 1
        rng = np.random.default_rng(sum(degrees) + n_vars)
        points = [rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars) for _ in range(20)]
        # Exact real coordinates: start roots, e_j and the good pair's e0.
        points += total_degree_start(degrees, rng).roots
        points += list(np.eye(n_vars, dtype=np.complex128))
        points.append(good_initial_pair(degrees).zeta0)
        return points

    @pytest.mark.parametrize("degrees", [(1,), (2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 2, 3)])
    def test_equal_to_gather_and_fold(self, degrees):
        ev = evaluator(degrees)
        for z in self._points(degrees) + [np.full(len(degrees) + 1, -0.0 - 0.0j)]:
            got, want = ev.point_matrix(z), gather_and_fold(degrees, z)
            assert np.array_equal(got, want)
            # Bits differ at most in the sign of a zero (the all -0 point).
            got, want = got.view(np.float64), want.view(np.float64)
            differ = got.view(np.uint64) != want.view(np.uint64)
            assert not (got[differ] != 0.0).any()


class TestPointMatrixTemplate:
    """Each point matrix comes from its own copy of the evaluator's template."""

    DEGREES = [(1,), (2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 3, 2)]

    @staticmethod
    def _points(n_vars, count, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars) for _ in range(count)]

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_writing_a_result_changes_nothing(self, degrees):
        ev = evaluator(degrees)
        template = ev._template.copy()
        assert not ev._template.flags.writeable
        z, y = self._points(ev.n_vars, 2, len(degrees))
        want_z, want_y = ev.point_matrix(z).tobytes(), ev.point_matrix(y).tobytes()
        got = ev.point_matrix(z)
        got[...] = np.nan
        assert ev._template.tobytes() == template.tobytes()
        assert ev.point_matrix(y).tobytes() == want_y
        assert ev.point_matrix(z).tobytes() == want_z

    def test_two_threads_give_the_serial_bits(self):
        # A short switch interval lets the threads interleave inside calls,
        # where a table shared between calls would be overwritten.
        from concurrent.futures import ThreadPoolExecutor

        work = [
            (degrees, z)
            for degrees in self.DEGREES
            for z in self._points(len(degrees) + 1, 200, sum(degrees))
        ]

        def build(item):
            degrees, z = item
            return evaluator(degrees).point_matrix(z).tobytes()

        serial = [build(item) for item in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for _ in range(3):
                    assert list(pool.map(build, work, timeout=60)) == serial
        finally:
            sys.setswitchinterval(interval)


class TestBlockMemo:
    """A system keeps the [Dh | h] block of its last point: jacobian then
    evaluate at one point build one point matrix, and every result has the
    bits of a fresh system's."""

    DEGREES = [(2, 2, 2), (1, 3, 2)]

    @staticmethod
    def _fresh(h, z):
        # jacobian and evaluate, each on its own copy of h that has read no point.
        def copy():
            return PolySystem.from_coeff_vector(h.degrees, h.coeff_vector())

        return jacobian(copy(), z).tobytes(), evaluate(copy(), z).tobytes()

    @staticmethod
    def _read(h, z):
        return jacobian(h, z).tobytes(), evaluate(h, z).tobytes()

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_jacobian_then_evaluate_builds_one_point_matrix(self, degrees, monkeypatch):
        built = [0]
        point_matrix = Evaluator.point_matrix

        def counted_point_matrix(ev, z):
            built[0] += 1
            return point_matrix(ev, z)

        monkeypatch.setattr(Evaluator, "point_matrix", counted_point_matrix)
        h = random_system(degrees, 11)
        z = unit_point(np.arange(1, len(degrees) + 2) + 0.5j)
        want = self._fresh(h, z)
        built[0] = 0
        assert self._read(h, z) == want
        assert built[0] == 1

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_a_point_mutated_in_place_and_alternating_points(self, degrees):
        h = random_system(degrees, 12)
        rng = np.random.default_rng(12)
        z = rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars)
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

    def test_two_threads_on_one_system_read_their_own_point(self):
        from concurrent.futures import ThreadPoolExecutor

        h = random_system((1, 2, 2, 2, 2), 14)
        rng = np.random.default_rng(14)
        points = [rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars) for _ in range(2)]
        want = [self._fresh(h, z) for z in points]

        def hammer(k):
            return all(self._read(h, points[k]) == want[k] for _ in range(2000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(hammer, [0, 1], timeout=60)) == [True, True]
        finally:
            sys.setswitchinterval(interval)


class TestCoefficientOwnership:
    def test_constructor_copies(self):
        coeffs = [np.arange(6, dtype=complex), np.ones(6, dtype=complex)]
        h = PolySystem((2, 2), tuple(coeffs))
        coeffs[0][0] = 99.0
        assert h.coeffs[0][0] == 0.0
        assert coeffs[0].flags.writeable

    def test_from_coeff_vector_copies(self):
        v = np.arange(12, dtype=complex)
        h = PolySystem.from_coeff_vector((2, 2), v)
        z = unit_point([1.0, 2.0, 3.0])
        before = evaluate(h, z)
        v[0] = 99.0
        assert h.coeffs[0][0] == 0.0
        assert evaluate(h, z).tobytes() == before.tobytes()

    def test_coefficients_read_only(self):
        h = PolySystem.from_coeff_vector((2, 2), np.arange(12, dtype=complex))
        for c in h.coeffs:
            with pytest.raises(ValueError):
                c[0] = 1.0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            PolySystem.from_coeff_vector((2, 2), np.zeros(11, dtype=complex))
        with pytest.raises(ValueError):
            PolySystem((2, 2), (np.zeros(6), np.zeros(5)))

    def test_coeff_vector_round_trip(self):
        h = random_system((1, 3, 2), 7)
        vec = h.coeff_vector()
        assert np.concatenate(h.coeffs).tobytes() == vec.tobytes()
        again = PolySystem.from_coeff_vector(h.degrees, vec)
        assert again.coeff_vector().tobytes() == vec.tobytes()
        vec[0] = 99.0
        assert h.coeff_vector()[0] != 99.0

    def test_pickle_round_trip(self):
        h = random_system((1, 3, 2), 8)
        again = pickle.loads(pickle.dumps(h))
        assert again.degrees == h.degrees
        assert again.coeff_vector().tobytes() == h.coeff_vector().tobytes()
        assert not any(c.flags.writeable for c in again.coeffs)


class TestHomogenization:
    def test_square_minus_one(self):
        f = AffineSystem((2,), [[((2,), 1.0), ((0,), -1.0)]])
        h = homogenize(f)
        # X1^2 - X0^2: affine zero 1 lifts to (1, 1)
        assert abs(evaluate(h, unit_point([1.0, 1.0]))[0]) < 1e-15
        eta = np.array([1.0], dtype=complex)
        assert np.linalg.norm(evaluate(h, unit_point((1.0, *eta)))) < 1e-15

    def test_linear_with_constant(self):
        f = AffineSystem((1,), [[((1,), 1.0), ((0,), 2.0)]])
        h = homogenize(f)
        # x + 2 -> X1 + 2 X0
        val = evaluate(h, np.array([1.0, -2.0], dtype=complex) / math.sqrt(5))
        assert abs(val[0]) < 1e-15

    def test_round_trip(self):
        f = random_affine_system((2, 3), 11)
        h = homogenize(f)
        # Read each coefficient back at the monomial that X0 completes.
        for d, terms, hom in zip(f.degrees, f.terms, h.coeffs):
            index = homogeneous_index(3, d)
            for a, c in terms:
                assert hom[index[(d - sum(a),) + a]] == c

    def test_zero_correspondence(self):
        # zero eta of f lifts to (1, eta) for h
        rng = np.random.default_rng(12)
        f = AffineSystem(
            (2, 1),
            [
                [((2, 0), 1.0), ((0, 1), -1.0)],  # x^2 - y
                [((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), -2.0)],  # x + y - 2
            ],
        )
        eta = np.array([1.0, 1.0], dtype=complex)  # x=1, y=1
        h = homogenize(f)
        assert np.linalg.norm(evaluate(h, unit_point((1.0, *eta)))) < 1e-14
        lifted = unit_point(np.concatenate([[1.0], eta]))
        assert np.linalg.norm(evaluate(h, lifted)) < 1e-14


# SHA-256 of homogenize(katsura_system(n)).coeff_vector().tobytes(), read
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


class TestAffineInput:
    @pytest.mark.parametrize("n", sorted(KATSURA_HOMOGENIZED_SHA256))
    def test_katsura_homogenized_bits_pinned(self, n):
        vec = homogenize(katsura_system(n)).coeff_vector()
        assert hashlib.sha256(vec.tobytes()).hexdigest() == KATSURA_HOMOGENIZED_SHA256[n]

    def test_parsed_record_bits_pinned(self):
        h = parse_system_json(AFFINE_RECORD)
        assert isinstance(h, PolySystem)
        assert h.coeff_vector().tobytes() == AFFINE_RECORD_BYTES

    @pytest.mark.parametrize("exponents", [[1, 0, 0], [1, 0]], ids=["homogeneous", "affine"])
    def test_overflowing_sum_names_its_equation(self, exponents):
        # Each term is finite; their sum on one monomial is not.
        term = '{"exponents": %s, "re": 1e308}' % exponents
        first = '{"exponents": %s, "re": 1.0}' % exponents
        text = f'{{"degrees": [1, 1], "terms": [[{first}], [{term}, {term}]]}}'
        with pytest.raises(ValueError, match="equation 1: coefficients must be finite"):
            parse_system_json(text)

    @pytest.mark.parametrize("exponents", [[2, 1], [-1, 1]], ids=["sum-above-degree", "negative"])
    def test_bad_exponents_name_their_equation(self, exponents):
        bad = '{"exponents": %s, "re": 1.0}' % exponents
        text = f'{{"degrees": [1, 2], "terms": [[{{"exponents": [1, 0]}}], [{bad}]]}}'
        with pytest.raises(ValueError, match="equation 1: exponents"):
            parse_system_json(text)

    @pytest.mark.parametrize(
        "exponents", [(2, 1), (-1, 1), (1,), (1, 0, 0)],
        ids=["sum-above-degree", "negative", "short", "long"],
    )
    def test_constructor_names_the_equation(self, exponents):
        with pytest.raises(ValueError, match="equation 1: exponents"):
            AffineSystem((1, 2), [[((1, 0), 1.0)], [((0, 0), 1.0), (exponents, 1.0)]])

    def test_one_term_list_per_equation(self):
        with pytest.raises(ValueError, match="one term list per equation"):
            AffineSystem((1, 2), [[((1, 0), 1.0)]])

    def test_terms_kept_as_ints_and_complex(self):
        f = AffineSystem([2], [[(np.array([2]), np.float64(1.5)), ([0], -1)]])
        assert f.degrees == (2,)
        assert f.terms == ((((2,), 1.5 + 0j), ((0,), -1 + 0j)),)
        assert all(type(e) is int for eq in f.terms for a, _ in eq for e in a)
        assert all(type(c) is complex for eq in f.terms for _, c in eq)


class TestAffineJacobian:
    def test_against_finite_differences(self):
        # Df(x) is the Jacobian of the homogenization at (1, x) without its
        # X0 column; f(x) its value there.
        rng = np.random.default_rng(13)
        f = random_affine_system((2, 2), 13)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eps = 1e-6
        h = homogenize(f)
        J = jacobian(h, np.concatenate([[1.0], x]))[:, 1:]
        for j in range(2):
            dx = np.zeros(2, dtype=complex)
            dx[j] = eps
            plus = evaluate(h, np.concatenate([[1.0], x + dx]))
            minus = evaluate(h, np.concatenate([[1.0], x - dx]))
            col = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(J[:, j], col, rtol=1e-6, atol=1e-8)


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

    def test_parse_affine(self):
        text = '{"degrees": [2], "terms": [[{"exponents": [2], "re": 1.0}, {"exponents": [0], "re": -1.0}]]}'
        h = parse_system_json(text)
        assert isinstance(h, PolySystem)
        assert np.linalg.norm(evaluate(h, unit_point((1.0, 1.0)))) < 1e-15

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

    def test_rejects_mixed_lengths(self):
        text = (
            '{"degrees": [1, 1], "terms": [[{"exponents": [1, 0], "re": 1.0}],'
            ' [{"exponents": [0, 1, 0], "re": 1.0}]]}'
        )
        with pytest.raises(ValueError):
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
        ],
        ids=["no-exponents", "exponents-not-a-list", "exponent-not-an-integer", "re-not-a-number",
             "re-overflows", "term-not-an-object", "re-nan", "im-infinite", "re-1e400-is-inf"],
    )
    def test_malformed_term_names_its_equation(self, term):
        text = f'{{"degrees": [1, 1], "terms": [[{{"exponents": [0, 1, 0]}}], [{term}]]}}'
        with pytest.raises(ValueError, match="equation 1"):
            parse_system_json(text)

    def test_rejects_wrong_degree(self):
        text = '{"degrees": [2], "terms": [[{"exponents": [1, 0], "re": 1.0}]]}'
        with pytest.raises(ValueError):
            parse_system_json(text)
