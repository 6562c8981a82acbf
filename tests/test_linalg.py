import math
import re
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from certitrack import linalg
from certitrack.linalg import (
    SingularLinearSolveError,
    bordered_solve,
    kernel_vector,
    lu_factor_checked,
    lu_solve,
    make_bordered,
    one_blas_thread,
    random_unitary,
    spectral_norm,
    unitary_mapping_to_e0,
    vector_norm,
)
from certitrack.bw import normalize_to_sphere
from certitrack.polysys import PolySystem, jacobian, unit_point
from certitrack.tracker import _StepBuffers, make_linear_homotopy, track_linear
from openblas_core import core_name, openblas_cores, pinned
import reference
from sample_systems import seeded_path


class TestBorderedSolve:
    def test_identity(self):
        B = make_bordered(np.array([[1.0, 0.0]], dtype=complex), np.array([0.0, 1.0], dtype=complex))
        x = bordered_solve(B, np.array([1.0, 0.0], dtype=complex))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)

    def test_singular_by_hand(self):
        # difference of squares at (1, 0): Jacobian row (-2, 0), border (1, 0)
        h = PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]])
        z = np.array([1.0, 0.0], dtype=complex)
        B = make_bordered(jacobian(h, z), z)
        with pytest.raises(SingularLinearSolveError):
            bordered_solve(B, np.array([1.0, 0.0], dtype=complex))

    @pytest.mark.parametrize("size,seed", [(3, 0), (8, 1), (20, 2)])
    def test_residual_contract(self, size, seed):
        rng = np.random.default_rng(seed)
        jac = rng.standard_normal((size - 1, size)) + 1j * rng.standard_normal((size - 1, size))
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        z /= np.linalg.norm(z)
        B = make_bordered(jac, z)
        rhs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x = bordered_solve(B, rhs)
        assert np.linalg.norm(B @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        jac = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        z = unit_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        B = make_bordered(jac, z)
        rhs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        x = bordered_solve(B, rhs)
        np.testing.assert_allclose(B @ x, rhs, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_bordered(np.zeros((2, 2)), np.zeros(2))


class TestLapackLU:
    """The direct zgetrf/zgetrs calls against the SciPy wrappers they replace."""

    @staticmethod
    def _complex(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rhs_shape", [(6,), (6, 7)])
    def test_bitwise_equal_to_scipy(self, seed, rhs_shape):
        rng = np.random.default_rng(seed)
        A = self._complex(rng, (6, 6))
        rhs = self._complex(rng, rhs_shape)
        lu, piv = lu_factor_checked(A)
        ref_lu, ref_piv = scipy.linalg.lu_factor(A)
        assert lu.tobytes() == ref_lu.tobytes()
        assert np.array_equal(piv, ref_piv)
        x = lu_solve((lu, piv), rhs)
        ref_x = scipy.linalg.lu_solve((ref_lu, ref_piv), rhs)
        assert x.shape == ref_x.shape == rhs_shape
        assert x.tobytes() == ref_x.tobytes()

    def test_inputs_untouched(self):
        rng = np.random.default_rng(9)
        A = self._complex(rng, (4, 4))
        rhs = self._complex(rng, (4,))
        A0, rhs0 = A.copy(), rhs.copy()
        lu_solve(lu_factor_checked(A), rhs)
        assert np.array_equal(A, A0) and np.array_equal(rhs, rhs0)

    def test_exact_zero_pivot_raises_without_warning(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularLinearSolveError):
                lu_factor_checked(A)

    def test_near_singular_is_not_singular(self):
        # X1^2 - X0^2 bordered 1e-16 away from (1, 0), where its bordered
        # matrix is singular: pivot ratio 1e-16, but no zero pivot.
        h = PolySystem.from_terms((2,), [[((0, 2), 1.0), ((2, 0), -1.0)]])
        z = unit_point([1.0, 1e-16])
        B = make_bordered(jacobian(h, z), z)
        lu, piv = lu_factor_checked(B)
        ref_lu, ref_piv = scipy.linalg.lu_factor(B)
        assert lu.tobytes() == ref_lu.tobytes()
        assert np.array_equal(piv, ref_piv)
        pivots = np.abs(lu.diagonal())
        assert pivots.min() / pivots.max() == pytest.approx(1e-16, rel=1e-12)
        # The step rule answers it on the path from h toward X0 X1: a huge
        # chi1 (5e15 sqrt(2) for h on the sphere) and a short, finite step.
        tangent = normalize_to_sphere(PolySystem.from_terms((2,), [[((1, 1), 1.0)]]))
        buf = _StepBuffers(make_linear_homotopy(normalize_to_sphere(h), tangent))
        x1, x2 = buf.chi(0.0, z)
        assert x1 == pytest.approx(7.07e15, rel=1e-3)
        assert 0.0 < buf.step_length(x1 * x2) < 1e-14

    def test_rhs_length_mismatch(self):
        lu_piv = lu_factor_checked(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            lu_solve(lu_piv, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            lu_solve(lu_piv, np.ones((2, 3), dtype=complex))


class TestVectorNorm:
    """vector_norm gives np.linalg.norm's bits on the vectors certitrack
    measures."""

    @staticmethod
    def _same(x):
        assert vector_norm(x) == np.linalg.norm(x)
        assert np.float64(vector_norm(x)).tobytes() == np.linalg.norm(x).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 4, 6, 7, 16])
    def test_contiguous(self, size):
        rng = np.random.default_rng(size)
        for scale in (1e-200, 1e-3, 1.0, 7.5, 1e150):
            self._same(scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_strided(self, n):
        # The columns of zgetrs's F-ordered result, as the step reads them,
        # and its rows and every other entry, which are strided.
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        rhs = rng.standard_normal((n + 1, n + 2)) + 1j * rng.standard_normal((n + 1, n + 2))
        sol = lu_solve(lu_factor_checked(A), rhs)
        assert sol.flags.f_contiguous and not sol.flags.c_contiguous
        for k in range(n + 2):
            self._same(sol[:, k])
        for i in range(n + 1):
            assert sol[i].strides[0] != sol.itemsize
            self._same(sol[i])
        self._same(sol.ravel(order="F")[::2])

    def test_zero_imaginary_and_zero(self):
        rng = np.random.default_rng(9)
        for size in (1, 3, 5):
            self._same(rng.standard_normal(size).astype(np.complex128))
            self._same(unit_point(np.ones(size)))
            self._same(np.zeros(size, dtype=np.complex128))


class TestSpectralNorm:
    def test_diagonal(self):
        for A, want in [(np.diag([3.0, 1.0]), 3.0), (np.eye(5), 1.0)]:
            assert spectral_norm(A) == pytest.approx(want)

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        A = np.outer(u, np.conj(v))
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        assert spectral_norm(A) == pytest.approx(float(reference.sigma_max(A.tolist())), rel=1e-13)


class TestKernelVector:
    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1)], ids=["one-by-two", "two-by-three"])
    def test_kernel_of_e1_to_en_rows_is_e0(self, n, seed):
        # The rows e_1 .. e_n of n + 1 coordinates: e0 times a phase.
        v = kernel_vector(np.eye(n + 1, dtype=complex)[1:], np.random.default_rng(seed))
        assert abs(abs(v[0]) - 1.0) < 1e-12
        assert np.all(np.abs(v[1:]) < 1e-12)

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (7, 2)])
    def test_residual(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n + 1)) + 1j * rng.standard_normal((n, n + 1))
        v = kernel_vector(M, rng)
        assert np.linalg.norm(M @ v) <= 1e-10
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ratio, rank_one, seed", [(0.0, True, 3), (1e-10, True, 0), (1.005e-10, False, 0)],
                             ids=["0-True", "1e-10-True", "1.005e-10-False"])
    def test_rank_floor_boundary(self, ratio, rank_one, seed):
        # The SVD of this matrix is exact: s[-1] / s[0] is the ratio itself,
        # 0 (rank 1: the kernel has dimension 2), at the floor
        # (rank-deficient) or half a percent above it.
        M = np.array([[1.0, 0.0, 0.0], [0.0, ratio, 0.0]], dtype=complex)
        if rank_one:
            with pytest.raises(SingularLinearSolveError):
                kernel_vector(M, np.random.default_rng(seed))
        else:
            assert abs(kernel_vector(M, np.random.default_rng(seed))[2]) == 1.0

    def test_random_phase_varies(self):
        M = np.array([[0.0, 1.0]], dtype=complex)
        v1 = kernel_vector(M, np.random.default_rng(10))
        v2 = kernel_vector(M, np.random.default_rng(11))
        assert abs(v1[0] - v2[0]) > 1e-3  # different phases


class TestRandomUnitary:
    def test_size_one(self):
        U = random_unitary(1, np.random.default_rng(0))
        assert abs(abs(U[0, 0]) - 1.0) < 1e-12

    def test_unitary_contract(self):
        # U* U = I, whose diagonal holds the squared column norms.
        for size, seed in [(8, 1), (6, 2)]:
            U = random_unitary(size, np.random.default_rng(seed))
            np.testing.assert_allclose(U.conj().T @ U, np.eye(size), atol=1e-10)

    def test_haar_first_entry_moment(self):
        # |U_00|^2 ~ Beta(1, 3) at size 4: mean 1/4, var 3/80
        rng = np.random.default_rng(3)
        n_draws = 10_000
        vals = np.array([abs(random_unitary(4, rng)[0, 0]) ** 2 for _ in range(n_draws)])
        se = np.sqrt(3.0 / 80.0 / n_draws)
        assert abs(vals.mean() - 0.25) <= 3 * se


class TestUnitaryMappingToE0:
    def test_e0_fixed(self):
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        V = unitary_mapping_to_e0(e0, np.random.default_rng(0))
        np.testing.assert_allclose(V[:, 0], e0, atol=1e-12)

    def test_e1_target(self):
        e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
        V = unitary_mapping_to_e0(e1, np.random.default_rng(1))
        np.testing.assert_allclose(V @ np.array([1.0, 0, 0]), e1, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_contract(self, seed):
        rng = np.random.default_rng(seed)
        zeta = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        zeta /= np.linalg.norm(zeta)
        V = unitary_mapping_to_e0(zeta, rng)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(5), atol=1e-10)
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        assert np.linalg.norm(V.conj().T @ zeta - e0) <= 1e-10

    def test_unit_check_boundary(self):
        # | |zeta| - 1 | is a multiple of the spacing u of the floats next to
        # 1 (2^-52 above, 2^-53 below), never 1e-10 itself, so < and <=
        # agree: on each side the largest defect under 1e-10 passes and the
        # next one fails.  A norm of 2 and a NaN one fail too.
        for zeta in ([2.0, 0.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="unit vector"):
                unitary_mapping_to_e0(np.array(zeta, dtype=complex), np.random.default_rng(0))
        for sign, u in [(1, 2**-52), (-1, 2**-53)]:
            k = math.floor(1e-10 / u)
            for steps, ok in [(k, True), (k + 1, False)]:
                zeta = np.array([1.0 + sign * steps * u, 0.0, 0.0], dtype=complex)
                if ok:
                    assert unitary_mapping_to_e0(zeta, np.random.default_rng(0))[0, 0] == zeta[0]
                else:
                    with pytest.raises(ValueError, match="unit vector"):
                        unitary_mapping_to_e0(zeta, np.random.default_rng(0))


class TestOneBlasThread:
    @pytest.fixture
    def controls(self):
        # Every loaded OpenBLAS on 2 threads for the test, the caller's
        # setting the pin must give back; the counts it found afterwards.
        controls = linalg._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        yield controls
        for (_, set_), count in zip(controls, saved):
            set_(count)

    @staticmethod
    def counts(controls):
        return [get() for get, _ in controls]

    def test_restored_after_an_exception(self, controls):
        with pytest.raises(RuntimeError):
            with one_blas_thread:
                assert self.counts(controls) == [1] * len(controls)
                raise RuntimeError("inside")
        assert self.counts(controls) == [2] * len(controls)

    def test_nested_and_as_decorator(self, controls):
        # One thread inside a block, alone, nested or as a decorator, and the
        # caller's setting after it.
        seen = []

        @one_blas_thread
        def outer():
            with one_blas_thread:
                seen.append(self.counts(controls))
            seen.append(self.counts(controls))

        with one_blas_thread:
            seen.append(self.counts(controls))
        assert self.counts(controls) == [2] * len(controls)
        outer()
        assert seen == [[1] * len(controls)] * 3
        assert self.counts(controls) == [2] * len(controls)

    def test_tracker_solves_on_one_thread_and_leaves_setting(self, controls, monkeypatch):
        seen = set()

        def spy(lu_piv, rhs):
            seen.add(tuple(self.counts(controls)))
            return lu_solve(lu_piv, rhs)

        monkeypatch.setattr(linalg, "lu_solve", spy)
        start, _, hom = seeded_path((2, 2), 5)
        assert track_linear(hom, start.roots[0]).success
        assert seen == {(1,) * len(controls)}
        assert self.counts(controls) == [2] * len(controls)

    def test_overlapping_blocks_in_two_threads(self, controls):
        # A enters, B enters, A leaves while B is still inside: B keeps one
        # thread, and B, the last one out, restores the caller's setting.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def a():
            with one_blas_thread:
                a_in.set()
                b_in.wait(30)
            a_out.set()

        def b():
            a_in.wait(30)
            with one_blas_thread:
                b_in.set()
                a_out.wait(30)
                seen.append(self.counts(controls))

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert seen == [[1] * len(controls)]
        assert self.counts(controls) == [2] * len(controls)

    def test_many_threads_keep_the_pin(self, controls, fast_thread_switching):
        # More threads than cores entering and leaving at once: none sees a
        # restored count while another is inside, and the setting survives.
        start = threading.Barrier(4)
        seen = set()

        def work():
            start.wait(30)
            for _ in range(300):
                with one_blas_thread:
                    seen.add(tuple(self.counts(controls)))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert seen == {(1,) * len(controls)}
        assert self.counts(controls) == [2] * len(controls)


def test_kernel_pins_fail_on_an_unrecorded_core(monkeypatch):
    # A pin of kernel-dependent bits is read for this process's OpenBLAS
    # core; one without a recorded digest fails with the core's name, not a
    # skip.
    assert pinned({core_name(): "digest"}) == "digest"
    with pytest.raises(pytest.fail.Exception, match=f"no digest recorded for OpenBLAS core '{core_name()}'"):
        pinned({})
    # The digests were read under openblas_core.PINNED_VERSIONS: under any
    # other numpy, scipy or OpenBLAS version a recorded core fails too,
    # named with the four versions of the process.
    import openblas_core

    assert openblas_core.versions() == openblas_core.PINNED_VERSIONS
    monkeypatch.setattr(openblas_core, "versions", lambda: ("2.4.6", "0.3.31.188.0", "1.17.1", "0.3.29"))
    want = (f"no digest recorded for OpenBLAS core '{core_name()}' under numpy 2.4.6 "
            "(OpenBLAS 0.3.31.188.0) and scipy 1.17.1 (OpenBLAS 0.3.29)")
    with pytest.raises(pytest.fail.Exception, match=re.escape(want)):
        pinned({core_name(): "digest"})


def test_openblas_scan_without_proc_maps(monkeypatch):
    # Where /proc/self/maps cannot be read, the one scan finds no library:
    # no thread controls, no cores, and the test process's core "unknown".
    import builtins

    def no_maps(*args, **kwargs):
        raise OSError("no /proc/self/maps")

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", no_maps)
        libraries = linalg._openblas_libraries.__wrapped__()
    assert libraries == ()
    monkeypatch.setattr(linalg, "_openblas_libraries", lambda: libraries)
    assert linalg._openblas_thread_controls.__wrapped__() == ()
    assert openblas_cores() == ()
    assert core_name.__wrapped__() == "unknown"
