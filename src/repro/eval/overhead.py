"""Lifetime Task Scheduling overhead measurement (Figure 7).

The lifetime overhead ``Lo`` of a platform is the mean number of cycles the
scheduling machinery adds per task over its whole life (submission,
dependence handling, work fetch, retirement).  The paper measures it with
the Task-Free and Task-Chain micro-benchmarks: tasks with (near-)empty
payloads, so every elapsed cycle beyond the payload is overhead, divided by
the task count.

Measurements run on a single worker so that no overhead is hidden by
overlapping it with other cores' payload execution — which matches the
definition of MTT as the *serial* scheduling capacity of the platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Type

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.apps.granularity import task_chain_program, task_free_program
from repro.runtime.base import Runtime

__all__ = [
    "OVERHEAD_WORKLOADS",
    "OVERHEAD_PLATFORMS",
    "OverheadMeasurement",
    "measure_lifetime_overhead",
    "overhead_table",
    "PAPER_FIGURE7_CYCLES",
    "DEFAULT_NUM_TASKS",
]

#: The four workloads of Figure 7: (label, generator, dependence count).
OVERHEAD_WORKLOADS = [
    ("Task-Free 1 dep", "task-free", 1),
    ("Task-Free 15 deps", "task-free", 15),
    ("Task-Chain 1 dep", "task-chain", 1),
    ("Task-Chain 15 deps", "task-chain", 15),
]

#: The four platforms of Figure 7, in the paper's order.
OVERHEAD_PLATFORMS: Dict[str, Type[Runtime]] = {
    name: registry.runtime(name).cls
    for name in ("phentos", "nanos-rv", "nanos-axi", "nanos-sw")
}

#: The values the paper reports in Figure 7 (Rocket-Chip-equivalent cycles),
#: keyed by platform and workload label.  Used by the calibration tests
#: that check we land in the right bands.
PAPER_FIGURE7_CYCLES: Dict[str, Dict[str, int]] = {
    "phentos": {
        "Task-Free 1 dep": 185, "Task-Free 15 deps": 320,
        "Task-Chain 1 dep": 329, "Task-Chain 15 deps": 423,
    },
    "nanos-rv": {
        "Task-Free 1 dep": 12348, "Task-Free 15 deps": 13143,
        "Task-Chain 1 dep": 12835, "Task-Chain 15 deps": 12393,
    },
    "nanos-axi": {
        "Task-Free 1 dep": 13426, "Task-Free 15 deps": 17042,
        "Task-Chain 1 dep": 18459, "Task-Chain 15 deps": 18668,
    },
    "nanos-sw": {
        "Task-Free 1 dep": 25208, "Task-Free 15 deps": 99008,
        "Task-Chain 1 dep": 35867, "Task-Chain 15 deps": 58214,
    },
}

#: Default task count of an overhead measurement (large enough to amortise
#: program start-up, small enough to keep wall-clock time reasonable).
DEFAULT_NUM_TASKS = 150


@dataclass(frozen=True)
class OverheadMeasurement:
    """One cell of the Figure 7 table."""

    platform: str
    workload: str
    cycles_per_task: float
    paper_cycles_per_task: Optional[int] = None

    @property
    def ratio_to_paper(self) -> Optional[float]:
        """Measured / paper value (None when the paper has no number)."""
        if not self.paper_cycles_per_task:
            return None
        return self.cycles_per_task / self.paper_cycles_per_task


def _build_workload(kind: str, num_dependences: int, num_tasks: int,
                    payload_cycles: int):
    if kind == "task-free":
        return task_free_program(num_tasks, num_dependences, payload_cycles)
    if kind == "task-chain":
        return task_chain_program(num_tasks, num_dependences, payload_cycles)
    raise EvaluationError(f"unknown overhead workload kind {kind!r}")


def _resolve_platform(platform: str) -> Type[Runtime]:
    """Resolve a platform name to a runtime class via the plugin registry.

    Any registered non-baseline runtime — the Figure 7 platforms and
    drop-in plugins alike — is measurable, so scaling bounds can be
    computed for new runtimes with no edits here.
    """
    try:
        spec = registry.runtime(platform)
    except registry.RegistryError as exc:
        raise EvaluationError(str(exc)) from exc
    if "baseline" in spec.tags:
        raise EvaluationError(
            f"platform {platform!r} is the serial baseline; it has no "
            f"scheduling machinery to measure"
        )
    return spec.cls


def measure_lifetime_overhead(
    platform: str,
    workload_kind: str = "task-chain",
    num_dependences: int = 1,
    num_tasks: int = DEFAULT_NUM_TASKS,
    config: Optional[SimConfig] = None,
) -> float:
    """Measure ``Lo`` (cycles per task) of ``platform`` on one workload."""
    runtime = _resolve_platform(platform)(config)
    program = _build_workload(workload_kind, num_dependences, num_tasks,
                              payload_cycles=0)
    result = runtime.run(program, num_workers=1)
    return result.elapsed_cycles / num_tasks


def overhead_table(config: Optional[SimConfig] = None,
                   num_tasks: int = DEFAULT_NUM_TASKS,
                   platforms: Optional[Sequence[str]] = None
                   ) -> List[OverheadMeasurement]:
    """Reproduce the full Figure 7 matrix (platforms × workloads)."""
    selected = list(platforms) if platforms else list(OVERHEAD_PLATFORMS)
    measurements: List[OverheadMeasurement] = []
    for platform in selected:
        for label, kind, deps in OVERHEAD_WORKLOADS:
            cycles = measure_lifetime_overhead(
                platform, kind, deps, num_tasks, config
            )
            paper = PAPER_FIGURE7_CYCLES.get(platform, {}).get(label)
            measurements.append(
                OverheadMeasurement(platform=platform, workload=label,
                                    cycles_per_task=cycles,
                                    paper_cycles_per_task=paper)
            )
    return measurements
