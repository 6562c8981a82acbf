"""Correction of measured times for the drifting speed of a shared machine.

On a VM shared with other tenants the speed of a core drifts by about 20%
either way, in phases of seconds to minutes: the same work item, with the
same step counts, took from 1010 to 1610 us per step in ten runs made one
after another.  That drift, not the program, would set the spread of every
time metric, and would decide whether two sets of runs agree.

So a fixed reference loop, which calls no certitrack code, is timed between
paths (never inside a timed path, at most every EVERY_S), and each timed
interval is scaled by NOMINAL_S over the reference times measured around it.
The loop is the mix of the tracker's step loop: LU factor and solve and an
SVD of small complex matrices through LAPACK, and interpreted complex
arithmetic.  Interleaved with heuristic-222 items for 150 s on a 2-core
x86-64 VM, the raw item time moved between 0.75 and 1.16 of its first value,
the corrected one between 0.98 and 1.05.

A corrected time reads as the wall time the interval would have taken at the
speed where the reference loop takes NOMINAL_S.  A change to certitrack moves
it as much as it moves the wall time; only work that slows the reference loop
itself (threads or processes left running beside the benchmark) would be
partly hidden by it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

NOMINAL_S = 0.011
EVERY_S = 0.3
_REPS = 40


class SpeedProbe:
    """Samples of the reference loop: start, end and NOMINAL_S / duration."""

    def __init__(self, every_s: float = EVERY_S):
        rng = np.random.default_rng(20091204)
        self._mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
        self._rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        self.every_s = every_s
        self.start: list[float] = []
        self.end: list[float] = []
        self.factor: list[float] = []
        self._reference()  # warm-up, not recorded

    def _reference(self) -> None:
        for _ in range(_REPS):
            for m in self._mats:
                lu = scipy.linalg.lu_factor(m, check_finite=False)
                x = scipy.linalg.lu_solve(lu, self._rhs, check_finite=False)
                np.linalg.svd(m, compute_uv=False)
                z = 0j
                for v in x.tolist():
                    z += v * v.conjugate()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._reference()
        t1 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t1)
        self.factor.append(NOMINAL_S / (t1 - t0))

    def maybe_sample(self) -> None:
        """Sample unless the last sample ended less than every_s ago."""
        if not self.end or time.perf_counter() - self.end[-1] >= self.every_s:
            self.sample()

    def seconds(self, t0: float, t1: float, corrected: bool = True) -> float:
        """Time of [t0, t1] spent outside the samples, scaled (when
        `corrected`) by the median factor of the samples around it: the last
        that ended by t0, those inside, and the first that starts after t1."""
        i = bisect.bisect_right(self.end, t0)
        j = bisect.bisect_left(self.start, t1)
        inside = sum(min(e, t1) - max(s, t0) for s, e in zip(self.start[i:j], self.end[i:j]))
        if not corrected:
            return t1 - t0 - inside
        return (t1 - t0 - inside) * statistics.median(self.factor[max(i - 1, 0): j + 1])

    def median_factor(self) -> float:
        return statistics.median(self.factor)
