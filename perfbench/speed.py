"""The machine's current speed, for reporting times at a fixed speed.

On a shared machine the same work takes up to 40% longer in one half
minute than in the next.  So a run samples a fixed pure-Python loop every
``SAMPLE_EVERY_S`` seconds from a timer signal (between two bytecodes of
whatever is running, long library calls included), and subtracts the
sampling time from every interval it measures.  A request's latency is
then multiplied by ``REFERENCE_S`` over the median loop time of the
samples taken while it ran: the result is in seconds at the speed where
the loop takes ``REFERENCE_S``, a typical time on the 2-core x86-64 VM
(CPython 3.11) where the baseline was taken.  The raw times are printed
alongside.
"""
from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.25
MIN_SAMPLES = 9


def reference_work() -> int:
    table: dict[int, int] = {}
    for i in range(20000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * 3
    return sorted(table.values())[-1]


class Speedometer:
    """Samples of the reference loop as ``(start, seconds)``; ``spent`` is
    the total time sampling took, to subtract from measured intervals."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._sampling = False

    def sample(self, *_signal_args) -> float:
        """Time the reference loop once; return its seconds."""
        if self._sampling:  # the timer fired during a sample taken directly
            return 0.0
        begin = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        self._sampling = True
        try:
            start = perf_counter()
            reference_work()
            seconds = perf_counter() - start
            self.samples.append((start, seconds))
        finally:
            self._sampling = False
            if enabled:
                gc.enable()
        self.spent += perf_counter() - begin
        return seconds

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, since: float, until: float | None = None) -> float:
        """Scale for a time measured from ``since`` until ``until`` (now by
        default), from the samples taken then.  With fewer than
        ``MIN_SAMPLES`` of them the window widens, one sampling period to
        each side at a time; while the run has too few samples in all,
        more are taken now."""
        until = perf_counter() if until is None else until
        while len(self.samples) < MIN_SAMPLES:
            self.sample()
        starts = [t for t, _ in self.samples]
        widen = 0.0
        while True:
            lo = bisect_left(starts, since - widen)
            hi = bisect_right(starts, until + widen)
            if hi - lo >= MIN_SAMPLES:
                break
            widen += SAMPLE_EVERY_S
        return REFERENCE_S / statistics.median(d for _, d in self.samples[lo:hi])
