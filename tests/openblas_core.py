"""The OpenBLAS core of the test process, for pins of kernel-dependent bits.

ddot, zgemm and zgetrs return other last bits on other OpenBLAS kernels, so a
digest of such bits is recorded once per core: natively (SkylakeX on the host
that recorded them) and under OPENBLAS_CORETYPE=Haswell, Sandybridge and
Prescott, which reports its generic core, Katmai.  A core without a recorded
digest fails, naming the core.  The callers import NumPy first, which maps
its OpenBLAS into the process.
"""

from __future__ import annotations

import ctypes
import functools

import pytest


@functools.cache
def core_name() -> str:
    """openblas_get_corename of NumPy's OpenBLAS (ILP64, symbols with the
    64_ suffix), found through /proc/self/maps; "unknown" where there is no
    such file or library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1] and ".so" in line})
    except OSError:
        return "unknown"
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            get = lib.scipy_openblas_get_corename64_
            get.restype = ctypes.c_char_p
            return get().decode()
    return "unknown"


def pinned(by_core: dict[str, str]) -> str:
    """The digest recorded for this process's core; a test failure naming the
    core when none is."""
    core = core_name()
    if core not in by_core:
        pytest.fail(f"no digest recorded for OpenBLAS core {core!r}")
    return by_core[core]
