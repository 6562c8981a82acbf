"""The OpenBLAS core of the test process, for pins of kernel-dependent bits.

ddot, zgemm and zgetrs return other last bits on other OpenBLAS kernels, so a
digest of such bits is recorded once per core: natively (SkylakeX on the host
that recorded them) and under OPENBLAS_CORETYPE=Haswell, Sandybridge and
Prescott, which reports its generic core, Katmai.  A core without a recorded
digest fails, naming the core.  The core is read by certitrack.linalg's
one scan of the loaded OpenBLAS libraries, which also finds the thread
controls.
"""

from __future__ import annotations

import functools

import pytest

from certitrack.linalg import openblas_cores


@functools.cache
def core_name() -> str:
    """The core of NumPy's OpenBLAS (ILP64, symbols with the 64_ suffix) in
    linalg.openblas_cores; "unknown" where there is no /proc/self/maps or no
    such library."""
    return next(
        (core for name, core, _ in openblas_cores() if name == "scipy_openblas_get_corename64_"),
        "unknown",
    )


def pinned(by_core: dict[str, str]) -> str:
    """The digest recorded for this process's core; a test failure naming the
    core when none is."""
    core = core_name()
    if core not in by_core:
        pytest.fail(f"no digest recorded for OpenBLAS core {core!r}")
    return by_core[core]
