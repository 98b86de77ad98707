"""Lightweight statistics counters shared by every simulated component.

Each hardware module and runtime keeps a :class:`Stats` instance.  Counters
are created lazily on first use, so modules simply call ``stats.incr(name)``
or ``stats.add(name, value)`` and the evaluation harness later merges all
scopes into a single report.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

__all__ = ["Stats", "Histogram", "geometric_mean", "merge_stats"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly-positive values.

    The paper reports geometric-mean speedups (2.13x, 13.19x, 6.20x); this is
    the helper every harness uses to compute the same statistic.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Histogram:
    """A tiny streaming histogram: count, sum, min, max, sum of squares."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the recorded samples (0.0 when empty)."""
        if not self.count:
            return 0.0
        mean = self.mean
        return max(self.total_sq / self.count - mean * mean, 0.0)

    @property
    def stddev(self) -> float:
        """Population standard deviation of the recorded samples."""
        return math.sqrt(self.variance)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one."""
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class Stats:
    """Named counters and histograms for one simulated component."""

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self._counters: Dict[str, float] = defaultdict(float)
        self._histograms: Dict[str, Histogram] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        self._counters[name] += amount

    def add(self, name: str, amount: float) -> None:
        """Alias of :meth:`incr` that reads better for non-unit amounts."""
        self._counters[name] += amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        if name not in self._histograms:
            self._histograms[name] = Histogram()
        self._histograms[name].observe(value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name`` (an empty one if never observed)."""
        return self._histograms.get(name, Histogram())

    def counter_map(self) -> Dict[str, float]:
        """The live counter mapping, for hot paths that bind it once.

        Absent names read as 0.0 and appear once touched, so
        ``counter_map()[name] += amount`` is :meth:`incr` without the call.
        :meth:`reset` clears it in place, so a bound mapping stays live.
        """
        return self._counters

    def counters(self) -> Mapping[str, float]:
        """Read-only view of all counters."""
        return dict(self._counters)

    def histograms(self) -> Mapping[str, Histogram]:
        """Read-only view of all histograms."""
        return dict(self._histograms)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate over ``(qualified_name, value)`` counter pairs."""
        prefix = f"{self.scope}." if self.scope else ""
        for name, value in self._counters.items():
            yield prefix + name, value

    def reset(self) -> None:
        """Zero every counter and drop every histogram."""
        self._counters.clear()
        self._histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stats(scope={self.scope!r}, counters={dict(self._counters)!r})"


def merge_stats(stats: Iterable[Stats]) -> Dict[str, float]:
    """Merge many scoped :class:`Stats` into one flat counter dictionary."""
    merged: Dict[str, float] = defaultdict(float)
    for stat in stats:
        for name, value in stat.items():
            merged[name] += value
    return dict(merged)
