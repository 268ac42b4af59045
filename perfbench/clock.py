"""Wall time rescaled to a fixed reference speed of the machine.

The machines this benchmark runs on are shared.  Measured on a 2-vCPU VM
when this benchmark was written, the same two sphere fits took anywhere from
0.46 s to 1.03 s within five minutes: slow stretches last from one second to
about forty, and they slow the CPU itself, so CPU time moves with wall time.  A median over
one run cannot average that out.

While the measured work runs, a timer signal interrupts it every
``INTERVAL_S`` seconds to run a short fixed loop of the kind of work riempoly
does: small numpy operations and Python calls.  Each loop's duration gives
the machine's speed at that moment.  The measured interval, minus the time
spent in the loop, is rescaled to the speed at which the loop takes
``REFERENCE_S`` seconds.  On a 3-minute series of one fixed operation, the
medians of 30-second windows spread by 18% (IQR over median) in wall time
and by 4% after rescaling.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 1.0e-3
_ITERATIONS = 25


def speed_loop() -> float:
    """Fixed work: small-vector numpy calls, as in one geometry step."""
    x = np.linspace(0.1, 1.0, 16)
    y = x[::-1].copy()
    acc = 0.0
    for _ in range(_ITERATIONS):
        a = float(np.dot(x, y))
        z = x - (a / 16.0) * y
        n = np.sqrt(np.sum(z * z, axis=-1))
        c = np.cross(x[:3], y[:3])
        acc += float(n) + float(c[0])
        x, y = y, np.abs(z) / n + 0.1
    return acc


class CalibratedClock:
    """Times a call in wall seconds and in reference seconds."""

    def __init__(self):
        self._samples = []
        self._in_loop = 0.0

    def _sample(self):
        t0 = perf_counter()
        speed_loop()
        dt = perf_counter() - t0
        self._samples.append(dt)
        return dt

    def _on_timer(self, signum, frame):
        self._in_loop += self._sample()

    def time(self, fn):
        """Run fn(); return (its result, wall seconds, reference seconds)."""
        self._samples = []
        self._in_loop = 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - self._in_loop
        self._sample()
        # samples are spread evenly over wall time, so the work done is the
        # wall time times the mean speed, not divided by the mean loop time
        speed = float(np.mean([REFERENCE_S / k for k in self._samples]))
        return result, wall, wall * speed
