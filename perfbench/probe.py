"""Machine-speed probe that makes timings comparable on a shared, noisy host.

On a small shared virtual machine the same Python code runs up to about 1.5x
slower for seconds at a time while neighbours load the host, so raw times of
identical work spread by 10-35% from run to run. The probe measures that
slowdown while the workload runs: every TICK_S a SIGALRM handler times a
fixed pure-Python reference slice in the same thread. Each stretch of time
until the next tick is scaled by REFERENCE_S / (that slice's time), giving
"seconds at reference speed". The slice builds its own small dict, so its
speed follows the core's speed rather than the program's memory use.

Each factor is the median of the last WINDOW slices, so one slice caught by
an interrupt does not rescale a whole tick. The probe's own time is left out
of scaled time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

TICK_S = 0.05
# The slice's median time while the workloads ran on a 2-vCPU 2.1 GHz Xeon
# virtual machine, so scaled seconds stay close to raw seconds there.
REFERENCE_S = 1.0e-3
WINDOW = 3                  # slices in the moving median behind each factor


def reference_slice() -> None:
    """Fixed work in the style of the workloads: tuple keys, dict updates, calls.

    The collector is paused meanwhile, so that the slice's short-lived tuples
    do not move the program's own collections to other operations.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts: dict[tuple[int, int], int] = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
        sum(counts.values())
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Scale factor from machine-speed samples taken on a timer signal.

    Before start() the factor is 1, so differences of scaled_now() are plain
    seconds; that is how the untimed modes use it.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spent = 0.0
        self._slices: deque[float] = deque(maxlen=WINDOW)
        # (scaled seconds up to mark, mark, factor since mark), replaced as a
        # whole so that a tick between two reads cannot tear it.
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def _next_state(self, scaled: float) -> tuple[float, float, float]:
        start = self.clock()
        reference_slice()
        end = self.clock()
        self._slices.append(end - start)
        self.spent += end - start
        return scaled, end, REFERENCE_S / statistics.median(self._slices)

    def _tick(self, signum, frame) -> None:
        scaled, mark, factor = self._state
        self._state = self._next_state(scaled + (self.clock() - mark) * factor)

    def start(self) -> None:
        for _ in range(WINDOW):
            self._state = self._next_state(0.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scaled_now(self) -> float:
        """Seconds at reference speed since start(), the probe's own time left out."""
        scaled, mark, factor = self._state
        return scaled + (self.clock() - mark) * factor
