"""A yardstick for the host's current speed: a fixed pure-Python loop,
timed every INTERVAL seconds of wall time while a workload runs.

On a shared host the speed of the same code drifts by tens of percent
within minutes.  Dividing a job's time by the median time of this loop,
sampled evenly over the same measurement, cancels most of that drift.
On the host the benchmark was written on, 30-second windows of a fixed
job gave quartile spreads of 0.16 to 0.27 of the median in seconds,
and 0.06 to 0.07 as such a ratio.

The loop runs from a SIGALRM handler, which Python calls between
bytecodes of the main thread.  ``clock`` leaves the loop's own time
out, so the job's timings do not include it.
"""

import signal
from time import perf_counter

INTERVAL = 0.05  # seconds between samples
LOOP_ITERATIONS = 20000  # about 2 ms per sample


def reference_loop():
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


class Reference:
    """Context manager that samples the reference loop while it is active."""

    def __init__(self):
        self.samples = []  # seconds per loop
        self._stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        self.samples.append(took)
        self._stolen += took

    def clock(self):
        """perf_counter() minus the time spent in the reference loop."""
        while True:
            stolen = self._stolen
            now = perf_counter()
            if stolen == self._stolen:  # no sample ran in between
                return now - stolen

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
