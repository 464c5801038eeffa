"""Speed calibration: host time measured against a reference kernel.

The reference box is a shared 2-vCPU VM whose effective CPU speed
wanders by tens of percent over seconds (a fixed arithmetic loop pinned
to one CPU took 8.8-14.1 ms per 200 000 iterations within one minute;
neither steal time nor pre-emption shows it).  Raw wall time therefore
cannot resolve the 10 % the ledger exists for, however many rounds are
taken: the drift is slower than a round and as large as the bound.

So every round runs a small fixed kernel every ``INTERVAL_S`` of wall
time, from a ``SIGALRM`` handler inside the measured process, and
rescales each stretch of host time between two samples by how fast the
kernel ran around it:

    calibrated = sum(net_i * NOMINAL_S / ref_i)

``net_i`` is host time between two samples with the handler's own time
taken out, ``ref_i`` the mean of the two kernel timings that bracket
it.  A calibrated second is a host second on a box that runs the kernel
in ``NOMINAL_S``; on the reference box at its usual speed the two are
about equal.  The values are still host measurements -- they differ
from run to run and move when the program gets faster or slower -- but
the box's speed drift, which hits the kernel and the program alike,
cancels to first order (measured: per-round spread 6-12 % raw, 3-4 %
calibrated; see README.md).
"""

import signal
import time
from typing import List, Tuple

#: Wall time between two reference samples.
INTERVAL_S = 0.025
#: Iterations of the reference kernel per sample.
KERNEL_ITERATIONS = 16000
#: The kernel time that defines a calibrated second: about the middle
#: of the 0.70-1.13 ms the reference box takes for it.
NOMINAL_S = 0.85e-3


def reference_kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Fixed interpreter work: no allocation that outlives it, no I/O."""
    x = 0
    for i in range(iterations):
        x += i * i % 7
    return x


class Sampler:
    """Times the reference kernel on a wall-clock timer.

    ``wall()`` and ``cpu()`` are clocks with the sampler's own time
    taken out, so spans and regions measured with them do not include
    it.  ``mark()`` takes a sample now and returns its index;
    ``calibrated(a, b)`` rescales the stretch between two marks.
    """

    def __init__(self) -> None:
        #: ``(net wall at start, net cpu at start, kernel wall seconds)``
        self.samples: List[Tuple[float, float, float]] = []
        self._own_wall = 0.0
        self._own_cpu = 0.0

    def wall(self) -> float:
        return time.perf_counter() - self._own_wall

    def cpu(self) -> float:
        return time.process_time() - self._own_cpu

    def _sample(self, signum=None, frame=None) -> None:
        wall_0 = time.perf_counter()
        cpu_0 = time.process_time()
        reference_kernel()
        kernel = time.perf_counter() - wall_0
        self.samples.append((wall_0 - self._own_wall, cpu_0 - self._own_cpu, kernel))
        self._own_cpu += time.process_time() - cpu_0
        self._own_wall += time.perf_counter() - wall_0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def mark(self) -> int:
        self._sample()
        return len(self.samples) - 1

    def calibrated(self, first: int, last: int) -> Tuple[float, float]:
        """Calibrated ``(wall, cpu)`` seconds between two marks."""
        wall = cpu = 0.0
        rows = self.samples[first:last + 1]
        for (w0, c0, k0), (w1, c1, k1) in zip(rows, rows[1:]):
            factor = NOMINAL_S / (0.5 * (k0 + k1))
            wall += (w1 - w0) * factor
            cpu += (c1 - c0) * factor
        return wall, cpu
