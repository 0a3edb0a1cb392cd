"""Machine-speed calibration for the benchmark's end-to-end timings.

On a shared host the CPU speed available to one process drifts by tens of
percent within seconds, and CPU time drifts with wall time.  Two runs of
the same code minutes apart can then differ by more than any useful bound.
The benchmark therefore times a fixed kernel while each measured interval
runs, and reports the interval as it would read on a machine where the
kernel takes ``REFERENCE_S``:

    reported = (elapsed - kernel time inside it) * REFERENCE_S / kernel median

For a call in this process, the kernel runs once just before the call and
then from a SIGALRM handler every ``PERIOD_S`` of it, so a slow spell in
the middle of a long call is sampled where it happens.  The handler runs
between two bytecodes of the pipeline, and its time is taken out of the
call.  A fresh interpreter timed from outside runs the kernel itself, right
after the work it is timed for (see ``run.py``).

The kernel mixes the two kinds of work the pipeline does, interpreted
Python loops and many small numpy operations, so a slowdown of the machine
moves it and the pipeline alike.  Its arrays are tiny, so it adds nothing
to the measured process's peak RSS.  It calls no BLAS routine, so its time
does not depend on the BLAS thread count of the process that runs it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# A round value near the kernel's time on a 2-core x86-64 host, so reported
# times stay close to that host's wall times.
REFERENCE_S = 0.004
# About 4% of an interval goes to the kernel.
PERIOD_S = 0.1

_A = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48) / 8.0


def kernel() -> float:
    """Seconds taken by one fixed unit of mixed interpreter and array work."""
    start = time.perf_counter()
    total = 0
    for i in range(24_000):
        total += i * i % 7
    x = _A
    for _ in range(140):
        x = np.tanh(x * _A) + x.sum(axis=0) * 1e-3
    return time.perf_counter() - start


class Calibration:
    """Measured intervals, each with the kernel times sampled during it."""

    def __init__(self):
        self.raw: list[float] = []
        self.kernel_medians: list[float] = []

    def add(self, seconds: float, samples: list[float]) -> None:
        """Record an interval of ``seconds``, kernel time already taken out."""
        self.raw.append(seconds)
        self.kernel_medians.append(statistics.median(samples))

    @contextmanager
    def interval(self):
        """Time the body, which runs in this process."""
        samples = [kernel()]
        ticks: list[float] = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(kernel()))
        # Restart interrupted system calls, also those made from C code.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.add(elapsed - sum(ticks), samples + ticks)

    def scaled(self) -> list[float]:
        return at_reference(self.raw, self.kernel_medians)


def at_reference(raw: list[float], kernel_medians: list[float]) -> list[float]:
    """Each interval at the reference machine speed."""
    return [t * REFERENCE_S / k for t, k in zip(raw, kernel_medians)]
