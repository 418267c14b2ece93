"""The core's speed, sampled while a workload runs, to put timings on one scale.

The benchmark's machine gives it a share of a host whose cores change speed
from one slice to the next and drift by a fifth or more over minutes, while
the process keeps the core to itself (its CPU time stays within a few percent
of its wall time). A raw wall time then measures the host as much as the
program. `SpeedProbe` times a fixed kernel every `interval`
seconds from a SIGALRM handler, in the benchmark's own thread, so that the
samples fall in among the workload's own steps. A window's relative speed is
the mean of `REFERENCE_S / kernel time` over the samples taken in it; a time
measured in the window, less the time spent in the handler, times that speed
gives the time the same work takes on a core that runs the kernel in
`REFERENCE_S`.

The kernel is an interpreter loop of tuple hashing, dict updates and integer
arithmetic, the kind of code cfair spends most of its time in. No cfair code
runs in it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Kernel time on the reference core (seconds). A fixed constant: it sets the
# scale of the scaled timings and must not change between compared runs.
REFERENCE_S = 1.0e-3


def kernel(n: int = 1650) -> int:
    """A fixed amount of interpreter work: about 1 ms on a 2020s server core."""
    acc, table = 0, {}
    for i in range(n):
        key = (i & 63, acc & 1023)  # ints only: their hashes do not vary by process
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + hash(key)) & 0xFFFFFFFF
    return acc


class SpeedProbe:
    """Samples the kernel's time every `interval` seconds while started."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []  # kernel wall times, in order
        self.spent_wall = 0.0  # wall and CPU time spent inside the handler
        self.spent_cpu = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        w1 = time.perf_counter()
        self.samples.append(w1 - w0)
        self.spent_wall += w1 - w0
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[int, float, float]:
        """A point in the sample stream, for `window`."""
        return len(self.samples), self.spent_wall, self.spent_cpu

    def window(self, lo, hi) -> tuple[float, float, float]:
        """(relative speed, handler wall s, handler CPU s) between two marks.

        A window shorter than `interval` may hold no sample; the kernel is
        then timed once on the spot.
        """
        samples = self.samples[lo[0]:hi[0]]
        if not samples:
            w0 = time.perf_counter()
            kernel()
            samples = [time.perf_counter() - w0]
        speed = statistics.fmean(REFERENCE_S / s for s in samples)
        return speed, hi[1] - lo[1], hi[2] - lo[2]
