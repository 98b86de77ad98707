"""Application-facing task model: tasks, dependences and task programs.

A *task program* is what a benchmark application hands to a runtime: an
ordered sequence of tasks, each with

* a payload cost in core cycles (what the task body would take to execute
  serially on one Rocket core),
* a set of monitored pointer parameters (address + directionality) from
  which the runtime — in software or through Picos — infers dependences,
* optionally a Python callable (``kernel``) that performs the real numeric
  computation, used by correctness tests on small inputs,

plus the positions of ``taskwait`` barriers.  The same program object is
consumed by every runtime model and by the serial baseline, which is what
makes speedup comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import WorkloadError
from repro.picos.dependence import TaskGraph
from repro.picos.packets import MAX_DEPENDENCES, Direction, TaskDependence

__all__ = ["Task", "TaskProgram", "dependence", "in_dep", "out_dep", "inout_dep"]


def dependence(address: int, direction: Direction) -> TaskDependence:
    """Build one monitored pointer parameter."""
    return TaskDependence(address=address, direction=direction)


def in_dep(address: int) -> TaskDependence:
    """A read-only (``in``) dependence on ``address``."""
    return TaskDependence(address=address, direction=Direction.IN)


def out_dep(address: int) -> TaskDependence:
    """A write-only (``out``) dependence on ``address``."""
    return TaskDependence(address=address, direction=Direction.OUT)


def inout_dep(address: int) -> TaskDependence:
    """A read-write (``inout``) dependence on ``address``."""
    return TaskDependence(address=address, direction=Direction.INOUT)


@dataclass(frozen=True)
class Task:
    """One task instance of a task-parallel program."""

    index: int
    payload_cycles: int
    dependences: Tuple[TaskDependence, ...] = ()
    name: str = ""
    kernel: Optional[Callable[[], None]] = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise WorkloadError(f"task index must be non-negative, got {self.index}")
        if self.payload_cycles < 0:
            raise WorkloadError(
                f"payload_cycles must be non-negative, got {self.payload_cycles}"
            )
        if len(self.dependences) > MAX_DEPENDENCES:
            raise WorkloadError(
                f"task {self.index} has {len(self.dependences)} dependences; "
                f"Picos supports at most {MAX_DEPENDENCES}"
            )
        if not isinstance(self.dependences, tuple):
            object.__setattr__(self, "dependences", tuple(self.dependences))

    @property
    def num_dependences(self) -> int:
        """Number of monitored pointer parameters."""
        return len(self.dependences)

    def run_kernel(self) -> None:
        """Execute the real numeric kernel, if the program carries one."""
        if self.kernel is not None:
            self.kernel()


@dataclass
class TaskProgram:
    """An ordered task-parallel program plus its barrier structure."""

    name: str
    tasks: List[Task] = field(default_factory=list)
    #: Task indices after which the generating thread executes a taskwait.
    #: A final taskwait at the end of the program is always implied.
    taskwait_after: Set[int] = field(default_factory=set)
    #: Cycles of serial (non-task) work the program performs outside tasks,
    #: charged to the main thread of every runtime and to the serial run.
    serial_sections_cycles: int = 0
    #: Free-form description of the input (block size, problem size, ...).
    parameters: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation and derived metrics
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check internal consistency; raises :class:`WorkloadError`."""
        if not self.name:
            raise WorkloadError("a task program needs a non-empty name")
        for position, task in enumerate(self.tasks):
            if task.index != position:
                raise WorkloadError(
                    f"task at position {position} has index {task.index}; "
                    "indices must match submission order"
                )
        for index in self.taskwait_after:
            if not 0 <= index < len(self.tasks):
                raise WorkloadError(
                    f"taskwait after task {index} refers to a missing task"
                )
        if self.serial_sections_cycles < 0:
            raise WorkloadError("serial_sections_cycles must be non-negative")

    @property
    def num_tasks(self) -> int:
        """Number of tasks in the program."""
        return len(self.tasks)

    @property
    def total_payload_cycles(self) -> int:
        """Sum of all task payloads (the serial task-execution time)."""
        return sum(task.payload_cycles for task in self.tasks)

    @property
    def serial_cycles(self) -> int:
        """Cycles of a perfect serial execution (payloads + serial sections)."""
        return self.total_payload_cycles + self.serial_sections_cycles

    @property
    def mean_task_cycles(self) -> float:
        """Mean task payload duration — the paper's *task granularity*."""
        if not self.tasks:
            return 0.0
        return self.total_payload_cycles / len(self.tasks)

    @property
    def max_dependences(self) -> int:
        """Largest dependence count of any task."""
        return max((task.num_dependences for task in self.tasks), default=0)

    def phases(self) -> List[List[Task]]:
        """Split the program into the regions separated by taskwaits."""
        phases: List[List[Task]] = [[]]
        for task in self.tasks:
            phases[-1].append(task)
            if task.index in self.taskwait_after:
                phases.append([])
        if not phases[-1]:
            phases.pop()
        return phases

    # ------------------------------------------------------------------ #
    # Analytical helpers used by the evaluation harness
    # ------------------------------------------------------------------ #
    def critical_path_cycles(self) -> int:
        """Length (in payload cycles) of the program's dependence-critical path.

        Computed with the same RAW/WAW/WAR inference the runtimes use, per
        taskwait phase (a taskwait joins every outstanding task).  Gives the
        ideal lower bound on parallel execution time with infinite cores and
        zero scheduling overhead.
        """
        total = self.serial_sections_cycles
        for phase in self.phases():
            graph = TaskGraph(capacity=max(len(phase), 1))
            finish: Dict[int, int] = {}
            predecessors: Dict[int, List[int]] = {}
            for task in phase:
                task_id, _ready = graph.submit(task.index, task.dependences)
                record = graph.task(task_id)
                predecessors[task.index] = [
                    graph.task(pred).sw_id
                    for pred in self._predecessor_ids(graph, task_id)
                ]
            by_index = {task.index: task for task in phase}
            for task in phase:
                start = 0
                for pred_index in predecessors[task.index]:
                    start = max(start, finish.get(pred_index, 0))
                finish[task.index] = start + task.payload_cycles
            total += max(finish.values(), default=0)
        return total

    @staticmethod
    def _predecessor_ids(graph: TaskGraph, task_id: int) -> List[int]:
        record = graph.task(task_id)
        return [
            other.task_id
            for other in (graph.task(tid) for tid in list(graph._tasks))
            if task_id in other.successors
        ]

    def ideal_speedup(self, num_cores: int) -> float:
        """Upper bound on speedup given the DAG and ``num_cores`` cores."""
        if not self.tasks:
            return 1.0
        critical = self.critical_path_cycles()
        if critical <= 0:
            return float(num_cores)
        work_bound = self.serial_cycles / max(self.serial_cycles / num_cores, 1)
        dag_bound = self.serial_cycles / critical
        return min(float(num_cores), dag_bound, work_bound)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskProgram({self.name!r}, tasks={self.num_tasks}, "
            f"mean_task={self.mean_task_cycles:.0f}cy)"
        )
