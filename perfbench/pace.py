"""Host pace: a fixed reference, in Python, timed beside the workload's calls.

On a shared virtual machine the speed of the same code drifts by up to a
factor of two, in phases of a few seconds to minutes.  The drift hits the
reference and the package's Python code alike, so a call's time divided by
the reference time measured around it is steady where the raw time is not.
The benchmark reports such times in **paced seconds**: raw seconds scaled by
``NOMINAL_S / reference time``, that is, seconds on a host that runs the
reference in ``NOMINAL_S``.  Raw times are kept beside them.

The reference is fixed here and does not touch ``bitableaux``, so no change to
the package can move it.  It uses NumPy whether or not the package does.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.00075  # the reference's time on a quiet 2-vCPU KVM guest (Xeon, Python 3.11)
EVERY_S = 0.1  # sample the host's pace about this often, between calls
CATCH_UP = 10  # samples owed after a long call, at most
NEIGHBOURS = 10  # samples taken on each side of a call to pace it


def reference() -> None:
    """The kinds of Python work the package does, in about equal shares of
    time: dictionary, tuple and sort work; indexing and arithmetic on NumPy
    integer scalars; the same on list elements."""
    table: dict = {}
    keys = []
    for i in range(500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        keys.append(key)
    keys.sort()
    for slots, rounds in ((np.zeros(64, dtype=np.int64), 300), ([0] * 64, 1000)):
        total = 0
        for i in range(rounds):
            j = i % 64
            if slots[j] >= 0:
                slots[j] += 1
            total += slots[(i * 7) % 64] // 3 % 5


def burst(runs: int = 5) -> float:
    """Median time of a few back-to-back reference runs, seconds."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Reference samples taken between calls, and the pace of each call."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []  # its duration
        self._last = -EVERY_S

    def sample(self) -> None:
        """One sample: the median of three reference runs, robust to one interruption."""
        start = perf_counter()
        self.took.append(burst(3))
        self.at.append(start)
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Take the samples owed since the last one: one per EVERY_S, so
        that a long call, which no sample can interrupt, is paced by as many
        samples as short calls of the same total length."""
        owed = int((perf_counter() - self._last) / EVERY_S)
        for _ in range(min(owed, CATCH_UP)):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the reference time around [start, end]: the
        median of up to NEIGHBOURS samples before it and NEIGHBOURS after."""
        lo = bisect.bisect_right(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        near = self.took[max(lo - NEIGHBOURS, 0):lo] + self.took[hi:hi + NEIGHBOURS]
        return NOMINAL_S / statistics.median(near) if near else 1.0

    def median_scale(self) -> float:
        return NOMINAL_S / statistics.median(self.took) if self.took else 1.0
