"""Shared model of the Nanos runtime machinery (Section V-A).

Nanos is a mature, plugin-based OmpSs runtime.  Its flexibility costs
per-event overhead that the paper calls out explicitly:

* the plugin interface relies heavily on virtual functions (extra dependent
  loads per submission, fetch and retirement),
* shared data structures are guarded by mutexes and condition variables
  (atomic traffic plus futex system calls),
* ready tasks — whether found in software or fetched from Picos — are
  funnelled through a single central Scheduler singleton queue that every
  core contends on.

:class:`NanosMachinery` charges those costs against the simulated machine.
It is shared by the three Nanos-based runtime models (Nanos-SW, Nanos-RV and
Nanos-AXI); the software dependence-inference parts are only used by
Nanos-SW.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.config import CACHE_LINE_BYTES, NanosCosts
from repro.common.errors import RuntimeModelError
from repro.common.stats import Stats
from repro.cpu.core import Core
from repro.cpu.soc import SoC
from repro.memory.hierarchy import SharedCounter, SoftwareMutex
from repro.picos.dependence import TaskGraph
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import ProcessGen
from repro.sim.queues import DecoupledQueue

__all__ = ["NanosMachinery"]

#: Shared cache lines that back the Nanos descriptor pool and scheduler
#: queue; accesses rotate over them so that different cores keep stealing
#: the same lines from each other (the bouncing the paper describes).
_SHARED_POOL_LINES = 64


class NanosMachinery:
    """Cost and bookkeeping model of the Nanos runtime core."""

    def __init__(self, soc: SoC, program: TaskProgram, costs: NanosCosts,
                 software_graph: bool) -> None:
        self.soc = soc
        self.program = program
        self.costs = costs
        self.software_graph = software_graph
        self.stats = Stats("nanos_machinery")
        memory = soc.memory
        #: Descriptor pool + scheduler structures shared between all threads.
        self.shared_pool = memory.allocate(
            "nanos.shared_pool", _SHARED_POOL_LINES * CACHE_LINE_BYTES
        )
        self._pool_cursor = 0
        #: The central Scheduler singleton queue every ready task goes
        #: through (both in Nanos-SW and in Nanos-RV, per the paper).
        self.scheduler_queue: DecoupledQueue = DecoupledQueue(
            soc.engine, max(program.num_tasks, 1) + 1, name="nanos.scheduler_queue"
        )
        self.scheduler_mutex: SoftwareMutex = memory.mutex(
            "nanos.scheduler_mutex", syscall_cycles=costs.syscall_cycles
        )
        self.graph_mutex: SoftwareMutex = memory.mutex(
            "nanos.graph_mutex", syscall_cycles=costs.syscall_cycles
        )
        #: Retirement counter used by taskwait (guarded accesses).
        self.retired: SharedCounter = memory.shared_counter("nanos.retired")
        # Software dependence graph (only exercised by Nanos-SW).
        self.sw_graph: Optional[TaskGraph] = (
            TaskGraph(capacity=max(program.num_tasks, 1)) if software_graph
            else None
        )
        self._sw_ids: Dict[int, int] = {}
        self._known_addresses: Set[int] = set()
        self.idle_checks: List[int] = [0] * soc.num_cores

    # ------------------------------------------------------------------ #
    # Generic cost helpers
    # ------------------------------------------------------------------ #
    def _touch_shared_lines(self, core: Core, count: int) -> ProcessGen:
        """Access ``count`` lines of the shared pool, alternating writes."""
        for offset in range(count):
            index = (self._pool_cursor + offset) % _SHARED_POOL_LINES
            address = self.shared_pool.address_of(index * CACHE_LINE_BYTES)
            if offset % 2:
                yield from core.store(address)
            else:
                yield from core.load(address)
        self._pool_cursor = (self._pool_cursor + count) % _SHARED_POOL_LINES

    def _virtual_calls(self, core: Core, count: int) -> ProcessGen:
        yield from core.charge(count * self.costs.virtual_call_cycles)

    def _mutex_ops(self, core: Core, mutex: SoftwareMutex,
                   count: int) -> ProcessGen:
        for _ in range(count):
            yield from core.charge(mutex.acquire(core.core_id))
            yield from core.charge(mutex.release(core.core_id))

    # ------------------------------------------------------------------ #
    # Submission / fetch / retirement bookkeeping (all Nanos flavours)
    # ------------------------------------------------------------------ #
    def charge_submission(self, core: Core, task: Task) -> ProcessGen:
        """Per-task submission bookkeeping of the Nanos core runtime."""
        costs = self.costs
        self.stats.incr("submissions")
        yield from core.execute(costs.submit_instructions)
        yield from self._virtual_calls(core, costs.submit_virtual_calls)
        yield from self._touch_shared_lines(core, costs.submit_shared_lines)
        yield from self._mutex_ops(core, self.scheduler_mutex,
                                   costs.submit_mutex_ops)

    def charge_plugin_marshalling(self, core: Core, task: Task) -> ProcessGen:
        """Extra picos-plugin work proportional to the dependence count."""
        yield from core.execute(
            self.costs.plugin_per_dependence_instructions * task.num_dependences
        )

    def charge_fetch(self, core: Core) -> ProcessGen:
        """Per-fetch bookkeeping: scheduler singleton pop under its lock."""
        costs = self.costs
        self.stats.incr("fetches")
        yield from core.execute(costs.fetch_instructions)
        yield from self._virtual_calls(core, costs.fetch_virtual_calls)
        yield from self._touch_shared_lines(core, costs.fetch_shared_lines)
        yield from self._mutex_ops(core, self.scheduler_mutex,
                                   costs.fetch_mutex_ops)

    def charge_retirement(self, core: Core) -> ProcessGen:
        """Per-retirement bookkeeping common to every Nanos flavour."""
        costs = self.costs
        self.stats.incr("retirements")
        yield from core.execute(costs.retire_instructions)
        yield from self._virtual_calls(core, costs.retire_virtual_calls)
        yield from self._touch_shared_lines(core, costs.retire_shared_lines)
        yield from self._mutex_ops(core, self.graph_mutex,
                                   costs.retire_mutex_ops)

    def charge_idle_check(self, core: Core) -> ProcessGen:
        """One failed work-fetch iteration; occasionally a futex sleep."""
        costs = self.costs
        self.idle_checks[core.core_id] += 1
        yield from core.execute(costs.taskwait_poll_instructions)
        if self.idle_checks[core.core_id] % costs.idle_checks_per_syscall == 0:
            yield from core.syscall(costs.syscall_cycles)

    def record_retirement_counter(self, core: Core) -> ProcessGen:
        """Bump the shared retirement counter (used by taskwait)."""
        yield from core.charge(self.retired.add(core.core_id))

    # ------------------------------------------------------------------ #
    # Software dependence inference and graph management (Nanos-SW only)
    # ------------------------------------------------------------------ #
    def software_submit(self, core: Core, task: Task) -> ProcessGen:
        """Infer dependences in software and insert the task in the graph.

        Returns True when the task is immediately ready (and has been pushed
        to the central scheduler queue).
        """
        if self.sw_graph is None:
            raise RuntimeModelError("software_submit on a hardware-graph Nanos")
        costs = self.costs
        yield from core.execute(costs.graph_insert_instructions)
        yield from self._touch_shared_lines(core, costs.graph_insert_shared_lines)
        yield from self._mutex_ops(core, self.graph_mutex, 1)
        for dependence in task.dependences:
            if dependence.address in self._known_addresses:
                yield from core.execute(costs.dep_known_address_instructions)
                yield from self._touch_shared_lines(
                    core, costs.dep_known_address_shared_lines
                )
            else:
                self._known_addresses.add(dependence.address)
                yield from core.execute(costs.dep_new_address_instructions)
                yield from self._touch_shared_lines(
                    core, costs.dep_new_address_shared_lines
                )
        graph_id, ready = self.sw_graph.submit(task.index, task.dependences)
        self._sw_ids[task.index] = graph_id
        if ready:
            yield from self._push_ready(core, task.index)
        return ready

    def software_retire(self, core: Core, task_index: int) -> ProcessGen:
        """Retire a task in the software graph, waking its successors."""
        if self.sw_graph is None:
            raise RuntimeModelError("software_retire on a hardware-graph Nanos")
        graph_id = self._sw_ids.pop(task_index)
        record = self.sw_graph.task(graph_id)
        has_successors = bool(record.successors)
        newly_ready = self.sw_graph.retire(graph_id)
        if has_successors:
            costs = self.costs
            yield from core.execute(costs.retire_successor_update_instructions)
            yield from self._touch_shared_lines(
                core, costs.retire_successor_shared_lines
            )
        for graph_ready_id in newly_ready:
            yield from self._push_ready(
                core, self._index_of_graph_id(graph_ready_id)
            )

    def _index_of_graph_id(self, graph_id: int) -> int:
        if self.sw_graph is None:
            raise RuntimeModelError("no software graph")
        return self.sw_graph.task(graph_id).sw_id

    def _push_ready(self, core: Core, task_index: int) -> ProcessGen:
        """Push a ready task into the central scheduler queue."""
        yield from self._mutex_ops(core, self.scheduler_mutex, 1)
        if not self.scheduler_queue.try_put(task_index):
            raise RuntimeModelError("Nanos scheduler queue overflowed")

    def pop_ready(self, core: Core) -> ProcessGen:
        """Pop one ready task index from the scheduler queue, or ``None``."""
        yield from self._mutex_ops(core, self.scheduler_mutex, 1)
        return self.scheduler_queue.try_get()
