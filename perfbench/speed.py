"""The machine's speed while an op runs, for normalising op times.

The benchmark runs on a few cores of a shared host, whose speed for
pure-Python code drifts by up to 2x for seconds to minutes at a time as
other tenants load it; CPU time drifts with wall time.  ``SpeedProbe``
samples that speed during the timed interval itself: a ``SIGALRM`` timer
interrupts the op every ``INTERVAL_S`` of wall time and the handler times
``kernel``, a fixed piece of work that shares no code with the package.
The handler's own time is kept apart, so it can be taken out of the op's
wall time.

An op's normalised time is its wall time, handler excluded, divided by the
mean kernel time sampled during it and multiplied by ``REFERENCE_S``: the
seconds the op would take if the machine ran at the reference speed all
along.  A change to the package moves it in proportion to the op's own
cost; a slow spell of the host slows the op and the kernel alike and
cancels out.

Multi-word integer arithmetic is the kernel because its time tracked the
ops' times best.  On a 2-vCPU cloud machine the per-op correlation with the
``hull`` op time was 0.95; a small loop of word-sized arithmetic, lists and
dicts reached 0.54, and a walk over a 20 MB list 0.43.  Normalising by the
integer kernel cut the spread of single op times by two thirds on ``hull``
and by half on ``grid`` and ``scan``.
"""

from __future__ import annotations

import signal
import time

#: Wall time between two samples; the handler takes about 1% of it.
INTERVAL_S = 0.01
#: The kernel's time at the reference speed: its fastest tenth on a
#: 2-vCPU cloud machine read 95-100 us.  A constant, so that normalised
#: times of different runs and commits compare directly.
REFERENCE_S = 100e-6


def kernel() -> int:
    """About 0.1 ms of multiplying and dividing integers of 900-1,800 bits."""
    x, y, acc = 7 ** 300, 11 ** 280, 0
    for k in range(60):
        acc ^= x * y // (k + 3)
        x += acc & 0xFFFF
    return acc


class SpeedProbe:
    """Samples ``kernel``'s time every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean sampled kernel time over ``REFERENCE_S``.

        An interval too short for the timer gets one sample taken now.
        """
        if not self.samples:
            spent = self.spent
            self._sample()
            self.spent = spent
        return sum(self.samples) / len(self.samples) / REFERENCE_S
