"""Host-speed reference for the benchmark's timings.

On a shared host the same work runs up to 1.5x slower for tens of seconds
at a time, in CPU time as much as in wall time, so raw times of runs made
minutes apart differ by more than a useful regression bound.  Each run
therefore times a fixed reference kernel (plain Python and small NumPy
calls, no ``repro`` code) at *marks* between its operations and reports
each operation's time scaled to the kernel's speed on the reference host::

    scaled time = raw time * REFERENCE_S / kernel time around the operation

where the kernel time around an operation is the mean of the marks just
before and just after it.  Rates are divided by the same factor.  Runs
print the raw wall-clock figures next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

#: The kernel's median time on the reference host (a 2-vCPU VM on a shared
#: Xeon, Python 3.11, NumPy 2.4) in its fast state.
REFERENCE_S = 0.003

_SYSTEMS = np.random.default_rng(0).normal(size=(64, 12, 12)) + 12.0 * np.eye(12)
_RIGHT = np.ones((64, 12, 1))


def kernel() -> float:
    """Fixed work of the kinds the workloads do: interpreted scalar code,
    element-wise array passes and small batched solves."""
    total = 0.0
    for i in range(15000):
        total += (i * 0.5) % 7
    x = np.arange(4096.0)
    for _ in range(40):
        x = np.sqrt(x * x + 1.0)
    for _ in range(8):
        total += float(np.linalg.solve(_SYSTEMS, _RIGHT)[0, 0, 0])
    return total + float(x[-1])


class HostSpeed:
    """Kernel marks taken between the operations of one measured phase."""

    def __init__(self, runs_per_mark: int = 3) -> None:
        self.runs_per_mark = runs_per_mark
        self.marks = array("d")  # median kernel time of each mark

    def mark(self) -> int:
        """Time the kernel at this point; returns the mark's index."""
        times = []
        for _ in range(self.runs_per_mark):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.marks.append(statistics.median(times))
        return len(self.marks) - 1

    def factor(self, index: int) -> float:
        """Scale for work done between mark ``index`` and the next mark."""
        return REFERENCE_S / (0.5 * (self.marks[index] + self.marks[index + 1]))

    def overall(self) -> float:
        """Scale for the whole phase (all marks)."""
        return REFERENCE_S / statistics.median(self.marks)
