"""Dependence tracking: the task-graph logic inside Picos.

Picos infers, in hardware, the same data-dependence relations a software
runtime would (Section III-A of the paper): a task *B* depends on an earlier
task *A* when one of RAW, WAW or WAR holds between their monitored pointer
parameters.  This module implements that inference over 64-bit addresses and
maintains the in-flight task graph:

* :class:`DependenceTracker` — per-address version records (last writer and
  readers since the last write) from which predecessor sets are computed,
* :class:`TaskGraph` — per-task state (pending predecessor count, successor
  lists) and the ready/retire transitions.

The same classes back both the hardware Picos model and the pure-software
dependence inference of Nanos-SW; only the cycle costs charged around them
differ, which is exactly the paper's point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import PicosError
from repro.picos.packets import TaskDependence

__all__ = ["TaskState", "TrackedTask", "DependenceTracker", "TaskGraph"]


class TaskState(enum.Enum):
    """Lifecycle of a task inside the dependence tracker."""

    __slots__ = ()

    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    RETIRED = "retired"


@dataclass
class TrackedTask:
    """Book-keeping record of one in-flight task."""

    task_id: int
    sw_id: int
    dependences: Tuple[TaskDependence, ...]
    state: TaskState = TaskState.PENDING
    pending_predecessors: int = 0
    successors: List[int] = field(default_factory=list)

    @property
    def is_ready(self) -> bool:
        """True when no unfinished predecessor remains."""
        return self.pending_predecessors == 0 and self.state is TaskState.PENDING


@dataclass
class _AddressRecord:
    """Per-address version record used for dependence inference."""

    last_writer: Optional[int] = None
    readers_since_last_write: Set[int] = field(default_factory=set)


class DependenceTracker:
    """Computes RAW / WAW / WAR predecessors for newly submitted tasks."""

    __slots__ = ("_records", "raw_edges", "waw_edges", "war_edges")

    def __init__(self) -> None:
        self._records: Dict[int, _AddressRecord] = {}
        self.raw_edges = 0
        self.waw_edges = 0
        self.war_edges = 0

    def predecessors_for(
        self,
        task_id: int,
        dependences: Sequence[TaskDependence],
        is_active: "callable",
    ) -> Set[int]:
        """Register ``task_id``'s accesses and return its active predecessors.

        ``is_active(other_id)`` must return True while ``other_id`` has not
        retired; edges to retired tasks are trivially satisfied and are not
        reported.
        """
        predecessors: Set[int] = set()
        records = self._records
        for address, direction in dependences:
            record = records.get(address)
            if record is None:
                record = records[address] = _AddressRecord()
            reads = direction.reads
            writes = direction.writes
            last_writer = record.last_writer
            if reads:
                if last_writer is not None and last_writer != task_id \
                        and is_active(last_writer):
                    predecessors.add(last_writer)
                    self.raw_edges += 1
            if writes:
                if last_writer is not None and last_writer != task_id \
                        and is_active(last_writer):
                    predecessors.add(last_writer)
                    self.waw_edges += 1
                for reader in record.readers_since_last_write:
                    if reader != task_id and is_active(reader):
                        predecessors.add(reader)
                        self.war_edges += 1
                # Update the version record *after* computing edges.
                record.last_writer = task_id
                record.readers_since_last_write = set()
            elif reads:
                record.readers_since_last_write.add(task_id)
        return predecessors

    @property
    def tracked_addresses(self) -> int:
        """Number of distinct addresses with a version record."""
        return len(self._records)

    def forget_task(self, task_id: int,
                    dependences: Sequence[TaskDependence]) -> None:
        """Drop references to a retired task (keeps records bounded).

        A task only ever appears in the records of addresses it named, so
        only ``dependences`` (the ones it was submitted with) are visited.
        """
        records = self._records
        for dependence in dependences:
            address = dependence.address
            record = records.get(address)
            if record is None:
                continue
            if record.last_writer == task_id:
                record.last_writer = None
            readers = record.readers_since_last_write
            readers.discard(task_id)
            if record.last_writer is None and not readers:
                del records[address]


class TaskGraph:
    """The in-flight task graph maintained by Picos (or by Nanos-SW).

    Capacity-bounded: the hardware task reservation station holds at most
    ``capacity`` non-retired tasks; :meth:`has_capacity` is what produces the
    back-pressure that ultimately makes submission instructions fail.
    """

    __slots__ = ("capacity", "tracker", "_tasks", "_next_task_id",
                 "total_submitted", "total_retired", "max_concurrent")

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise PicosError("task graph capacity must be positive")
        self.capacity = capacity
        self.tracker = DependenceTracker()
        self._tasks: Dict[int, TrackedTask] = {}
        self._next_task_id = 0
        self.total_submitted = 0
        self.total_retired = 0
        self.max_concurrent = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Tasks submitted and not yet retired."""
        return len(self._tasks)

    def has_capacity(self) -> bool:
        """True when one more task can be accepted."""
        return len(self._tasks) < self.capacity

    def task(self, task_id: int) -> TrackedTask:
        """The tracked record of ``task_id`` (must be in flight)."""
        try:
            return self._tasks[task_id]
        except KeyError as exc:
            raise PicosError(f"unknown or retired task id {task_id}") from exc

    def is_active(self, task_id: int) -> bool:
        """True while ``task_id`` is in flight (not retired)."""
        return task_id in self._tasks

    def pending_tasks(self) -> List[int]:
        """Ids of tasks still waiting on predecessors."""
        return [t.task_id for t in self._tasks.values()
                if t.state is TaskState.PENDING and t.pending_predecessors > 0]

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def submit(self, sw_id: int,
               dependences: Sequence[TaskDependence]) -> Tuple[int, bool]:
        """Insert a new task; returns ``(task_id, immediately_ready)``."""
        if not self.has_capacity():
            raise PicosError("task graph is full (reservation station overflow)")
        task_id = self._next_task_id
        self._next_task_id += 1
        record = TrackedTask(task_id=task_id, sw_id=sw_id,
                             dependences=tuple(dependences))
        predecessors = self.tracker.predecessors_for(
            task_id, record.dependences, self.is_active
        )
        record.pending_predecessors = len(predecessors)
        self._tasks[task_id] = record
        for predecessor_id in predecessors:
            self._tasks[predecessor_id].successors.append(task_id)
        self.total_submitted += 1
        self.max_concurrent = max(self.max_concurrent, len(self._tasks))
        ready = record.pending_predecessors == 0
        if ready:
            record.state = TaskState.READY
        return task_id, ready

    def mark_running(self, task_id: int) -> None:
        """Record that a ready task has been handed to a core."""
        record = self.task(task_id)
        if record.state is not TaskState.READY:
            raise PicosError(
                f"task {task_id} fetched while in state {record.state.value}"
            )
        record.state = TaskState.RUNNING

    def retire(self, task_id: int) -> List[int]:
        """Retire ``task_id`` and return ids of tasks that became ready."""
        record = self.task(task_id)
        if record.state is TaskState.PENDING and record.pending_predecessors > 0:
            raise PicosError(f"task {task_id} retired before becoming ready")
        newly_ready: List[int] = []
        for successor_id in record.successors:
            successor = self._tasks.get(successor_id)
            if successor is None:
                continue
            successor.pending_predecessors -= 1
            if successor.pending_predecessors < 0:
                raise PicosError(
                    f"task {successor_id} has negative predecessor count"
                )
            if successor.pending_predecessors == 0 and \
                    successor.state is TaskState.PENDING:
                successor.state = TaskState.READY
                newly_ready.append(successor_id)
        record.state = TaskState.RETIRED
        del self._tasks[task_id]
        self.tracker.forget_task(task_id, record.dependences)
        self.total_retired += 1
        return newly_ready
