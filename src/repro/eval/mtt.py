"""Maximum Task Throughput (MTT) and the speedup bounds of Equation 1.

Section VI-B2 of the paper derives a simple performance bound: a runtime
whose mean lifetime scheduling overhead per task is ``Lo`` cycles can retire
at most ``K = 1 / Lo`` tasks per cycle (its MTT), so a workload of uniform
tasks of ``t`` cycles can achieve at most

    MS(Lo, t) = t / Lo

speedup over serial execution, additionally capped by the number of cores.
Figure 6 plots this bound for the four platforms using the Task-Chain
(1 dependence) overheads of Figure 7; Figure 10 overlays the measured
speedups of every benchmark run on the same bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.errors import EvaluationError

__all__ = [
    "maximum_task_throughput",
    "speedup_bound",
    "bound_curve",
    "saturation_task_size",
    "MttBound",
]


def maximum_task_throughput(lifetime_overhead_cycles: float) -> float:
    """Tasks per cycle the platform can retire (``K = 1 / Lo``)."""
    if lifetime_overhead_cycles <= 0:
        raise EvaluationError("lifetime overhead must be positive")
    return 1.0 / lifetime_overhead_cycles


def speedup_bound(task_size_cycles: float, lifetime_overhead_cycles: float,
                  num_cores: int) -> float:
    """Equation 1 capped at the core count: ``min(N, t / Lo)``."""
    if task_size_cycles <= 0:
        raise EvaluationError("task size must be positive")
    if num_cores <= 0:
        raise EvaluationError("num_cores must be positive")
    raw = task_size_cycles / lifetime_overhead_cycles
    return min(float(num_cores), raw)


def saturation_task_size(lifetime_overhead_cycles: float,
                         num_cores: int) -> float:
    """Smallest task size at which the bound saturates to ``num_cores``."""
    if num_cores <= 0:
        raise EvaluationError("num_cores must be positive")
    if lifetime_overhead_cycles <= 0:
        raise EvaluationError("lifetime overhead must be positive")
    return lifetime_overhead_cycles * num_cores


@dataclass(frozen=True)
class MttBound:
    """One point of an MTT-derived bound curve."""

    task_size_cycles: float
    max_speedup: float


def bound_curve(lifetime_overhead_cycles: float, num_cores: int,
                task_sizes: Sequence[float]) -> List[MttBound]:
    """The Figure 6 curve of one platform over the given task sizes."""
    if not task_sizes:
        raise EvaluationError("task_sizes must not be empty")
    return [
        MttBound(task_size, speedup_bound(task_size,
                                          lifetime_overhead_cycles, num_cores))
        for task_size in task_sizes
    ]


def default_task_sizes(start_exponent: int = 2, end_exponent: int = 5,
                       points_per_decade: int = 6) -> List[float]:
    """Logarithmically spaced task sizes (10^2 .. 10^5 cycles by default)."""
    if end_exponent <= start_exponent or points_per_decade <= 0:
        raise EvaluationError("invalid task size range")
    sizes: List[float] = []
    decades = end_exponent - start_exponent
    total_points = decades * points_per_decade + 1
    for i in range(total_points):
        exponent = start_exponent + i * decades / (total_points - 1)
        sizes.append(10.0 ** exponent)
    return sizes
