"""Machine-speed reference used to normalize the benchmark's times.

On a shared machine the same job can take 30% longer from one minute
to the next.  While in-process work is timed, a timer signal every
INTERVAL_S runs a fixed pure-Python reference chunk (exact integer
cycle finding from oracle.py, which does not depend on portraitdyn) and
records how long it took and when.  Each item's time is reported
multiplied by REFERENCE_S / (trimmed mean of the chunk times sampled
within WINDOW_S of it): the time it would have taken on a machine where
the chunk takes REFERENCE_S.  A change to portraitdyn does not change
the chunk, so it moves a normalized time as it moves the raw one.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager

import oracle

INTERVAL_S = 0.1
WINDOW_S = 0.5           # samples this close to an item give its local speed
MIN_LOCAL = 4            # fewest samples a local speed is taken from
REFERENCE_S = 0.0017     # chunk time on a quiet machine
TRIM = 0.05              # share of samples dropped at each end of the mean
_MAPS = (((1, 0, -1), (0, 0, 1)), ((1, 2, 0), (0, 1, 1)), ((2, -1, 3), (1, 0, -2)),
         ((1, -3, 1), (3, 0, 1)), ((0, 1, -2), (2, -2, -1)))


def reference_chunk():
    for f0, f1 in _MAPS:
        oracle.cycle_counts(f0, f1, (1, 2, 3))


class SpeedProbe:
    """Samples the reference chunk on a timer; `spent` is the time the
    samples took, which in-process timings subtract."""

    def __init__(self):
        self.samples: list = []
        self.stamps: list = []          # perf_counter at the end of each sample
        self.spent = 0.0

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()            # do not collect the workload's garbage here
        try:
            start = time.perf_counter()
            reference_chunk()
            took = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(took)
        self.stamps.append(start + took)
        self.spent += took

    def clock(self) -> float:
        """perf_counter minus the time spent in samples."""
        return time.perf_counter() - self.spent

    @contextmanager
    def sampling(self):
        """Collect samples during the block; yields the list they go to."""
        self.samples, self.stamps = [], []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


    def local_factor(self, start: float, end: float) -> float:
        """Speed factor from the samples taken within WINDOW_S of the
        interval [start, end] of perf_counter time, widening the window
        until it holds MIN_LOCAL samples."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        while hi - lo < min(MIN_LOCAL, len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return factor(self.samples[lo:hi])


def factor(samples) -> float:
    """REFERENCE_S over the trimmed mean chunk time; 1.0 without samples."""
    if not samples:
        return 1.0
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return REFERENCE_S / (sum(kept) / len(kept))
