"""Host speed, sampled while a process runs, to normalise its host times.

The shared host the benchmark was sized on switches between a fast and a
slow phase, by a factor of about 1.7, for seconds at a time, and CPU time
slows with wall time (the guest's vCPUs are not descheduled; they run
slower).  Two runs of the same code therefore differ by up to the same
factor, whatever the median over passes.

:class:`HostClock` measures the host's speed alongside the program: a
``SIGALRM`` handler runs a fixed pure-Python loop, independent of the code
under test, every :data:`INTERVAL_S` seconds and records how long it took.
The loop runs twice and only the second run is timed: a cold first run
also measures how far the program pushed the loop out of the caches, and it
overstated the slowdown of the slowest phases.
:meth:`HostClock.seconds` turns a span of wall time into *reference
seconds*: each stretch between two samples is scaled by the host's speed,
``REFERENCE_LOOP_S / loop time`` averaged over the samples at its two ends,
and the handler's own time is left out.  On a host whose loop takes
:data:`REFERENCE_LOOP_S`, reference seconds are wall seconds; on a slower
phase of the same host the same work reads the same number of reference
seconds.  A change to the program moves them; the loop does not change.

This module imports only the standard library, so a process can start the
clock at its first statement and time its own imports.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Seconds between samples.
INTERVAL_S = 0.02

#: Iterations of the timed calibration loop (about 0.1-0.2 ms).
LOOP_ITERATIONS = 400

#: Loop time, in seconds, of the reference host; a little slower than the
#: fast phase (about 90 us) of the host the benchmark was sized on.
REFERENCE_LOOP_S = 100e-6


class _Cell:
    __slots__ = ("step", "total")

    def __init__(self, step: int) -> None:
        self.step = step
        self.total = 0


def _advance(cell: _Cell, table: dict, i: int) -> int:
    cell.total += cell.step
    table[i & 255] = cell.total
    return table.get((i * 7) & 255, 0)


def calibration_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """The fixed work whose duration measures the host's speed: calls,
    attribute updates, dictionary reads and writes and integer arithmetic,
    the interpreter operations the simulator is made of."""
    cell, table, acc = _Cell(3), {}, 0
    for i in range(iterations):
        acc ^= _advance(cell, table, i)
    return acc


class HostClock:
    """Samples the calibration loop every :data:`INTERVAL_S` while running.

    Use one clock per process: it owns ``SIGALRM`` and ``ITIMER_REAL``.
    """

    def __init__(self) -> None:
        #: ``(start, end, loop seconds)`` of every sample, ``start`` and
        #: ``end`` bounding the handler on the perf counter.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        calibration_loop()  # warm-up
        warm = time.perf_counter()
        calibration_loop()
        ended = time.perf_counter()
        self.samples.append((started, ended, ended - warm))

    def start(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop sampling and restore the previous ``SIGALRM`` handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the perf-counter span ``[start, end]``."""
        return reference_seconds(list(self.samples), start, end)

    def slowdown(self) -> float:
        """Median loop time over :data:`REFERENCE_LOOP_S` (1 = reference)."""
        loops = sorted(loop_s for _start, _end, loop_s in self.samples)
        if not loops:
            raise RuntimeError("the host clock took no samples")
        return loops[len(loops) // 2] / REFERENCE_LOOP_S


def reference_seconds(samples: List[Tuple[float, float, float]],
                      start: float, end: float) -> float:
    """``[start, end]`` minus the samples inside it, each stretch scaled by
    the reference loop time over the loop time of the samples around it.

    Before the first sample and after the last, the nearest sample's speed
    applies.
    """
    if not samples:
        raise RuntimeError("the host clock took no samples")

    def part(low: float, high: float, speed: float) -> float:
        low, high = max(low, start), min(high, end)
        return (high - low) * speed if high > low else 0.0

    speeds = [REFERENCE_LOOP_S / loop_s for _start, _end, loop_s in samples]
    total = part(float("-inf"), samples[0][0], speeds[0])
    for index in range(len(samples) - 1):
        total += part(samples[index][1], samples[index + 1][0],
                      (speeds[index] + speeds[index + 1]) / 2)
    return total + part(samples[-1][1], float("inf"), speeds[-1])
