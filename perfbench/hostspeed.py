"""Host-speed calibration for the end-to-end times.

On a shared host the machine's speed drifts by tens of percent within a
minute, and every numpy kernel slows alike.  A fixed numpy kernel, with the
same kinds of work as the package (batched small eig/eigh and a structure
constant contraction) and no package code, is timed next to each op.  An
op's wall time times REF_S over that calibration time is its time in
reference seconds: the time on a host where the kernel takes REF_S.  Package
changes cannot move the kernel, so the ratio keeps their effect and drops
the host's.  Each timed interval is bracketed by two calibration points,
so drift over seconds cancels too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on a 2-vCPU Xeon with OpenBLAS 0.3.31, at rest;
# fixed, so that results of different commits share one unit
REF_S = 0.0045
POINT_REPEATS = 5

_rng = np.random.default_rng(0)
_U4 = _rng.standard_normal((120, 4, 4)) + 1j * _rng.standard_normal((120, 4, 4))
_H8 = _rng.standard_normal((120, 8, 8)) + 1j * _rng.standard_normal((120, 8, 8))
_H8 = _H8 + _H8.conj().swapaxes(-1, -2)
_X = _rng.standard_normal((1200, 8))
_F = _rng.standard_normal((8, 8, 8))


def _kernel() -> float:
    t0 = time.perf_counter()
    np.linalg.eig(_U4)
    np.linalg.eigh(_H8)
    np.einsum("...a,...b,abc->...c", _X, _X, _F)
    return time.perf_counter() - t0


def point() -> float:
    """Median kernel time now, in seconds."""
    return statistics.median(_kernel() for _ in range(POINT_REPEATS))


class HostClock:
    """Calibration marks on the run's timeline.

    Work is timed between marks; `ref_seconds(a, b)` scales the wall interval
    [a, b] by the kernel times of the marks just before and just after it.
    """

    def __init__(self):
        self.marks = []  # (begin, end, kernel_s)

    def mark(self) -> float:
        """Take a calibration point; returns the wall time it ended."""
        begin = time.perf_counter()
        kernel = point()
        end = time.perf_counter()
        self.marks.append((begin, end, kernel))
        return end

    def ref_seconds(self, a: float, b: float) -> float:
        before = max((m for m in self.marks if m[1] <= a), key=lambda m: m[1])
        after = min((m for m in self.marks if m[0] >= b), key=lambda m: m[0])
        return (b - a) * REF_S / (0.5 * (before[2] + after[2]))


class WallClock:
    """Same interface without calibration: traced runs report wall seconds."""

    def mark(self) -> float:
        return time.perf_counter()

    def ref_seconds(self, a: float, b: float) -> float:
        return b - a
