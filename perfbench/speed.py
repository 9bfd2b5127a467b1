"""Host-speed sampling, so that times taken minutes apart compare.

The host this benchmark was written on changes speed by up to 1.7x within
seconds (the same pure-Python loop alternates between two rates), and no
hardware cycle counter is exposed.  So while a measurement runs, a SIGALRM
handler runs a short fixed loop every PERIOD_S and records how long it
took.  A timed interval, with the handler's own time taken out, is scaled
to nominal seconds: seconds on a host where the loop takes NOMINAL_LOOP_S.
The loop is benchmark code, so a faster simulator still shows as a smaller
scaled time.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

PERIOD_S = 0.05
LOOP_STEPS = 2000
NOMINAL_LOOP_S = 0.0015
clock = time.perf_counter


def loop_s() -> float:
    """Seconds for a fixed loop of heap, dict and list work like the simulator's."""
    t0 = clock()
    heap, table, acc = [], {}, 0
    for k in range(LOOP_STEPS):
        heapq.heappush(heap, (k * 7919 % 10007, k))
        table[k % 997] = acc
        acc += len(heap)
        if len(heap) > 100:
            heapq.heappop(heap)
    return clock() - t0


class SpeedSampler:
    """Context manager that samples host speed every PERIOD_S.

    ``stolen_s`` is the cumulative time spent in the handler; take its
    growth out of every interval timed meanwhile.  ``scale(mark)`` turns
    such an interval into nominal seconds, from the loops run since
    ``mark`` (a value of ``mark()`` taken when the interval began).
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.stolen_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the host stalled past a whole period inside the loop
            return
        self._busy = True
        t0 = clock()
        self.loops.append(loop_s())
        self.stolen_s += clock() - t0
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.loops)

    def scale(self, mark: int) -> float:
        """Nominal over actual speed, averaged in time over the loops since
        mark (speed is the reciprocal of a loop's duration)."""
        window = self.loops[mark:] or [loop_s()]
        return NOMINAL_LOOP_S * statistics.fmean(1 / d for d in window)
