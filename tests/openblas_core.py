"""The OpenBLAS core of the test process, for pins of kernel-dependent bits.

ddot, zgemm and zgetrs return other last bits on other OpenBLAS kernels, so a
digest of such bits is recorded once per core: natively (SkylakeX on the host
that recorded them) and under OPENBLAS_CORETYPE=Haswell, Sandybridge and
Prescott, which reports its generic core, Katmai.  Every digest was read
with the numpy and scipy versions of PINNED_VERSIONS, and their OpenBLAS
builds.  A core without a recorded digest fails, naming the core and the
versions of the test process, and so does any core under other versions.
openblas_cores reads each core through certitrack.linalg's one scan of the
loaded OpenBLAS libraries, which also finds the thread controls.  run_child
runs code in a fresh process, for pins read under another OpenBLAS core or
thread count, and child_lines shares one such process between the tests of
a setting.
"""

from __future__ import annotations

import ctypes
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from certitrack import linalg


# numpy, its OpenBLAS, scipy and its OpenBLAS, as numpy.show_config and
# scipy.show_config (mode="dicts") report them.
PINNED_VERSIONS = ("2.4.6", "0.3.31.188.0", "1.17.1", "0.3.30")


def openblas_cores() -> tuple[tuple[str, str, str], ...]:
    """(symbol, core, path) of each core-name getter in the loaded OpenBLAS
    libraries: the kernel set each picked, which OPENBLAS_CORETYPE
    overrides.  NumPy's build answers to scipy_openblas_get_corename64_,
    SciPy's to scipy_openblas_get_corename; empty where /proc/self/maps is
    missing."""
    cores = []
    for path, lib in linalg._openblas_libraries():
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_char_p
                cores.append((name, get().decode(), path))
    return tuple(cores)


@functools.cache
def versions() -> tuple[str, str, str, str]:
    """The four versions of PINNED_VERSIONS in this process."""

    def openblas(module) -> str:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    return numpy.__version__, openblas(numpy), scipy.__version__, openblas(scipy)


@functools.cache
def core_name() -> str:
    """The core of NumPy's OpenBLAS (ILP64, symbols with the 64_ suffix) in
    openblas_cores; "unknown" where there is no /proc/self/maps or no
    such library."""
    return next(
        (core for name, core, _ in openblas_cores() if name == "scipy_openblas_get_corename64_"),
        "unknown",
    )


def pinned(by_core: dict[str, str]) -> str:
    """The digest recorded for this process's core; a test failure naming the
    core and the four versions when none is, or when the versions are not
    PINNED_VERSIONS."""
    core = core_name()
    if core not in by_core or versions() != PINNED_VERSIONS:
        np_version, np_blas, sp_version, sp_blas = versions()
        pytest.fail(
            f"no digest recorded for OpenBLAS core {core!r} under numpy {np_version} "
            f"(OpenBLAS {np_blas}) and scipy {sp_version} (OpenBLAS {sp_blas})"
        )
    return by_core[core]


def run_child(code: str, **env: str) -> str:
    """Standard output of `code`, run in a fresh process that can import the
    test files and starts with the environment variables `env` set; a test
    failure showing the child's standard error when it exits nonzero."""
    src = Path(__import__("certitrack").__file__).resolve().parents[1]
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).parent)])
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


# Pinned work printed a line at a time by a fresh process: under one BLAS
# thread (the thread count's tests), and under another kernel.
ONE_THREAD = ("import test_heuristic as h, test_tracker as t; print(t.thread_sensitive_bits(), "
              "t.pinned_step_counts(), t.pinned_trace_digest(), h._pinned_paths((2, 2, 2)), "
              "h._pinned_paths((1, 2, 3)), sep='\\n')")
OTHER_KERNEL = ("import test_polysys as p, test_tracker as t; print(t.pinned_step_counts(), "
                "[p.loop_row_mismatches(d) for d in p.LOOP_ROW_DEGREES], sep='\\n')")


@functools.cache
def child_lines(code: str, **env: str) -> tuple[str, ...]:
    """run_child's output lines, read once per code and environment: the
    tests that read one OpenBLAS setting share its process."""
    return tuple(run_child(code, **env).splitlines())
