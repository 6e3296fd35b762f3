"""The machine's speed, sampled while a run measures.

The machine this benchmark was built on runs the same code 10-30 %
faster or slower from one minute to the next, which no run length
averages away.  A fixed pure-Python probe loop is timed every 50 ms from
a SIGALRM handler, so that the samples spread evenly over the run, long
operations and waits for child processes included.  The probe costs
about 0.4 % of the run.  Times are reported scaled by
REFERENCE_S / (median probe time): what they would read on a machine
where the probe takes REFERENCE_S.  The program's own speed moves the
scaled times; the machine's speed moves the probe as much as the times.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# About the probe's time on the 2-vCPU machine of README.md when it is quiet.
REFERENCE_S = 150e-6


def _probe():
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager that samples the probe's time until it exits."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_s(self):
        return statistics.median(self.samples)

    def scale(self):
        """Factor that takes a time measured in this run to the reference speed."""
        return REFERENCE_S / self.median_s()
