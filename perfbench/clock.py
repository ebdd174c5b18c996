"""CPU clocks and the host-speed reference the end-to-end times are scaled by.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent from one minute to the next: the hypervisor steals CPU time, and
neighbours on the same cores slow every instruction.  Wall times carry all
of that, so the end-to-end times are not wall times but

* CPU times, read from the scheduler's clock of every process that serves
  an op (this one, and any server or worker process).  That clock leaves
  out stolen time and time spent waiting for a CPU; and
* scaled to a fixed host speed.  Right after each measured op the benchmark
  times a fixed computation, the *reference*, made of the two kinds of
  work the engine does: bulk NumPy over arrays of a few MB (a sort, a
  random gather, row-wise dot products, as in the distance filter and the
  CSR build) and a Python loop of small-array NumPy steps (as in the walk
  over grid-cell offsets).  Host load slows the two kinds by different
  amounts, and the self-joins' scaled times tracked host speed better
  with both than with the bulk part alone.  An op that took ``c`` CPU
  seconds while the reference took ``r`` is reported as
  ``c * REFERENCE_S / r``: the CPU time it would take on a host where the
  reference takes ``REFERENCE_S``.

Wall times are still measured; they are printed in the report line.
"""

from __future__ import annotations

import resource
import time
from typing import Iterable, List

import numpy as np

#: CPU seconds of one reference computation on an unloaded 2-vCPU x86-64
#: host; scaled times read as if measured there.
REFERENCE_S = 0.032
#: Reference computations per sample; the sample is their median.
REPEATS = 3


def _process_clock(pid: int) -> int:
    """The CPU clock id of another process, as ``clock_getcpuclockid(3)``
    builds it on Linux: ``~pid << 3`` with the scheduler-clock type 2."""
    return (~pid << 3) | 2


def cpu_s(pids: Iterable[int] = ()) -> float:
    """CPU seconds used so far by this process and the processes ``pids``."""
    return time.process_time() + sum(time.clock_gettime(_process_clock(pid))
                                     for pid in pids)


def children_cpu_s() -> float:
    """CPU seconds of every child process that has ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Reference:
    """The fixed reference computation and the samples taken of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(1 << 19)
        self._picks = rng.integers(0, 1 << 19, 1 << 20)
        self._rows = rng.random((1 << 18, 3))
        self._cell = rng.random((2000, 6))
        self._offsets = rng.integers(-1, 2, (300, 6))
        self.samples: List[float] = []
        self._compute()  # first-touch page faults are not host speed

    def _compute(self) -> float:
        gathered = np.sort(self._values)[self._picks]
        diff = self._rows[1:] - self._rows[:-1]
        total = float(gathered[0] + np.einsum("ij,ij->i", diff, diff)[0])
        for offset in self._offsets:
            shifted = self._cell + 0.1 * offset
            total += float(shifted[shifted[:, 0] > 0.5].sum())
        return total

    def sample(self) -> float:
        """CPU seconds of one reference computation now."""
        times = []
        for _ in range(REPEATS):
            start = time.process_time()
            self._compute()
            times.append(time.process_time() - start)
        self.samples.append(float(np.median(times)))
        return self.samples[-1]

    def scale(self, cpu_seconds: float) -> float:
        """``cpu_seconds`` just spent, scaled by a fresh sample."""
        return cpu_seconds * REFERENCE_S / self.sample()
