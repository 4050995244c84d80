"""Timing that corrects for other load on the machine.

On a small shared VM the speed of a core changes by a quarter or more
from one second to the next, and slow phases last tens of seconds, so
elapsed times of the same work spread widely between runs.  A sampler
therefore interrupts the timed code every INTERVAL_S with a timer signal
and times one fixed calibration unit, in the same process on the same
core at the same moment.  The calibrated time of the block is its elapsed
time, less the calibration's own, scaled by UNIT_REF_S over the mean
duration of the unit during the block: the seconds the block would take
at the speed where the unit takes UNIT_REF_S.
"""

from __future__ import annotations

import signal
import time

# Scale of calibrated seconds: about the duration of one unit on an idle
# core of a 2-core x86_64 VM at 2.1 GHz under Python 3.11.7, so that
# calibrated seconds read close to elapsed seconds on that machine.
UNIT_REF_S = 1.0e-4
INTERVAL_S = 0.01

_PATTERN = (3, 1, 4, 1, 5, 9, 2, 6)


def _unit():
    # Tuple slicing, dict stores and integer arithmetic, like the library;
    # no Python-level calls, so a profiler adds nothing inside.
    d = {}
    s = 0
    for i in range(300):
        j = i % 8
        d[_PATTERN[j:] + _PATTERN[:j]] = i
        s += (i * i) % 7
    return s


class Sampler:
    """Context manager that samples the calibration unit while it is open.

    Afterwards `elapsed` is the block's elapsed time, `unit_s` and
    `samples` the total time and count of calibration units, and
    `seconds` the calibrated time.  The unit also runs once on entry and
    once on exit, so blocks shorter than INTERVAL_S are covered too.
    """

    def __enter__(self):
        self.unit_s = 0.0
        self.samples = 0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        self.elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = calibrated(self.elapsed, self.unit_s, self.samples)
        return False

    def _sample(self, *_):
        t = time.perf_counter()
        _unit()
        self.unit_s += time.perf_counter() - t
        self.samples += 1


def calibrated(elapsed, unit_s, samples):
    """Elapsed seconds less unit_s, at the reference speed."""
    return (elapsed - unit_s) * UNIT_REF_S * samples / unit_s
