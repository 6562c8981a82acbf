import math
import pickle

import numpy as np
import pytest

from certitrack.polysys import (
    AffineSystem,
    PolySystem,
    affine_exponents,
    affine_index,
    evaluate,
    evaluator,
    homogeneous_exponents,
    homogeneous_index,
    homogenize,
    jacobian,
    linear_form,
    parse_system_json,
    space_dimension,
    system_to_json,
    unit_point,
)
from certitrack.start_systems import good_initial_pair, total_degree_start


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
        exps = homogeneous_exponents(3, 2)
        as_tuples = [tuple(int(e) for e in row) for row in exps]
        assert as_tuples == sorted(as_tuples)

    def test_affine_enumeration(self):
        exps = affine_exponents(2, 2)
        as_tuples = [tuple(int(e) for e in row) for row in exps]
        assert as_tuples == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_linear_form_positions(self):
        vec = linear_form([10.0, 20.0, 30.0])
        exps = homogeneous_exponents(3, 1)
        for pos, row in enumerate(exps):
            j = int(np.argmax(row))
            assert vec[pos] == pytest.approx([10.0, 20.0, 30.0][j])


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


class TestSingleEvaluator:
    """evaluate and jacobian are the certified loop's rows of the same point matrix."""

    @pytest.mark.parametrize("degrees", [(2, 2, 2), (1, 2, 2, 2, 2), (3, 3, 3, 3), (1, 3, 2)])
    def test_bitwise_equal_to_loop_rows(self, degrees):
        ev = evaluator(degrees)
        assert evaluator(degrees) is ev
        h = random_system(degrees, len(degrees))
        hdot = random_system(degrees, len(degrees) + 1)
        # The loop's product: a system and its tangent stacked.
        R = np.stack([h.coeff_vector(), hdot.coeff_vector()])
        rng = np.random.default_rng(sum(degrees))
        for _ in range(3):
            z = unit_point(rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars))
            blocks = ev.rows(R, ev.point_matrix(z))
            assert jacobian(h, z).tobytes() == blocks[0, :, :-1].tobytes()
            assert evaluate(h, z).tobytes() == blocks[0, :, -1].tobytes()


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
        f = AffineSystem.from_terms((2,), [[((2,), 1.0), ((0,), -1.0)]])
        h = homogenize(f)
        # X1^2 - X0^2: affine zero 1 lifts to (1, 1)
        assert abs(evaluate(h, unit_point([1.0, 1.0]))[0]) < 1e-15
        eta = np.array([1.0], dtype=complex)
        assert np.linalg.norm(evaluate(h, unit_point((1.0, *eta)))) < 1e-15

    def test_linear_with_constant(self):
        f = AffineSystem.from_terms((1,), [[((1,), 1.0), ((0,), 2.0)]])
        h = homogenize(f)
        # x + 2 -> X1 + 2 X0
        val = evaluate(h, np.array([1.0, -2.0], dtype=complex) / math.sqrt(5))
        assert abs(val[0]) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        coeffs = []
        for d in (2, 3):
            m = affine_exponents(2, d).shape[0]
            coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        f = AffineSystem((2, 3), tuple(coeffs))
        h = homogenize(f)
        # Read each coefficient back at the monomial that X0 completes.
        for d, a, hom in zip(f.degrees, f.coeffs, h.coeffs):
            index = affine_index(2, d)
            back = np.zeros_like(a)
            for row, c in zip(homogeneous_exponents(3, d), hom):
                back[index[tuple(int(e) for e in row[1:])]] += c
            np.testing.assert_allclose(a, back, rtol=1e-15)

    def test_zero_correspondence(self):
        # zero eta of f lifts to (1, eta) for h
        rng = np.random.default_rng(12)
        f = AffineSystem.from_terms(
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


class TestAffineJacobian:
    def test_against_finite_differences(self):
        # Df(x) is the Jacobian of the homogenization at (1, x) without its
        # X0 column; f(x) its value there.
        rng = np.random.default_rng(13)
        coeffs = []
        for d in (2, 2):
            m = affine_exponents(2, d).shape[0]
            coeffs.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        f = AffineSystem((2, 2), tuple(coeffs))
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
        f = parse_system_json(text)
        assert isinstance(f, AffineSystem)
        assert np.linalg.norm(evaluate(homogenize(f), unit_point((1.0, 1.0)))) < 1e-15

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
