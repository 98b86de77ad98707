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

:class:`NanosMachinery` charges those costs against the simulated machine
and owns the scheduler queue.  :class:`~repro.runtime.nanos.NanosRuntime`
uses it under every dependence back-end (Nanos-SW, Nanos-RV and Nanos-AXI);
the software task graph of Nanos-SW belongs to its back-end.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, List, Optional

from repro.common.config import CACHE_LINE_BYTES, NanosCosts
from repro.common.errors import RuntimeModelError
from repro.common.stats import Stats
from repro.cpu.core import CYCLES_PER_INSTRUCTION, Core
from repro.cpu.soc import SoC
from repro.memory.hierarchy import SharedCounter, SoftwareMutex
from repro.memory.mesi import AccessType
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import Charge, ProcessGen
from repro.sim.queues import DecoupledQueue

__all__ = ["NanosMachinery"]

#: Shared cache lines that back the Nanos descriptor pool and scheduler
#: queue; accesses rotate over them so that different cores keep stealing
#: the same lines from each other (the bouncing the paper describes).
_SHARED_POOL_LINES = 64

#: Access kind of a pool access by its parity: reads and writes alternate.
_POOL_KINDS = (AccessType.READ, AccessType.WRITE)


class NanosMachinery:
    """Cost and bookkeeping model of the Nanos runtime core."""

    __slots__ = ("soc", "program", "costs", "stats",
                 "shared_pool", "_pool_lines", "_pool_cursor",
                 "scheduler_queue", "scheduler_mutex", "graph_mutex",
                 "retired", "idle_checks")

    def __init__(self, soc: SoC, program: TaskProgram,
                 costs: NanosCosts) -> None:
        self.soc = soc
        self.program = program
        self.costs = costs
        self.stats = Stats("nanos_machinery")
        memory = soc.memory
        #: Descriptor pool + scheduler structures shared between all threads.
        self.shared_pool = memory.allocate(
            "nanos.shared_pool", _SHARED_POOL_LINES * CACHE_LINE_BYTES
        )
        #: Directory line of each pool line's first word, repeated so that
        #: the cursor (below the pool size) plus any offset within one
        #: charge indexes it without a modulo.  Every charge's line count
        #: is one of the ``*_shared_lines`` fields of ``costs``.
        longest = max(value
                      for name, value in dataclasses.asdict(costs).items()
                      if name.endswith("_shared_lines"))
        self._pool_lines = tuple(
            self.shared_pool.address_of(
                index % _SHARED_POOL_LINES * CACHE_LINE_BYTES)
            // memory.line_bytes
            for index in range(_SHARED_POOL_LINES + longest)
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
        self.idle_checks: List[int] = [0] * soc.num_cores

    # ------------------------------------------------------------------ #
    # Generic cost helper
    # ------------------------------------------------------------------ #
    def _charge(self, core: Core, instructions: Optional[int],
                virtual_calls: int, lines: int,
                mutex: Optional[SoftwareMutex], pairs: int
                ) -> Generator[int, int, None]:
        """The steps of one bookkeeping sequence, in a single frame.

        In order: ``instructions`` plain instructions, charged and counted
        as :meth:`Core.execute` does (skipped, counter included, when
        None); ``virtual_calls`` virtual calls, charged as
        :meth:`Core.charge` does; ``lines`` accesses to the shared pool,
        alternating reads and writes; and ``pairs`` acquire/release pairs
        of ``mutex``.  Zero-cycle instruction, call and mutex charges yield
        nothing.  A pool access is charged even at zero cycles, as
        ``if not engine.advance(c): yield Delay(c)`` would.  The counts
        come from ``NanosCosts``, which holds no negative value.

        Each step moves the clock in place when it ends by the engine's
        :meth:`~repro.sim.engine.Engine.run_ahead_limit`, read once at the
        start, and otherwise yields its cycles and receives the limit
        again when the step has ended.  A caller starts the steps with
        ``next()``, so a charge that fits in place never leaves it; on the
        first refused step it yields :class:`~repro.sim.engine.Charge`
        once, and the engine loop drives the rest.  That is exact, because
        only the directory, the mutexes and counters run between two
        steps, and none of them schedules an event.

        Each pool access is one 8-byte word at a line's start, so it goes
        straight to the directory as the single line access
        ``MemorySystem`` would make.  The core's ``loads`` and ``stores``
        counters are bumped once per run of accesses, ``loads`` first, as
        the first access is a read.
        """
        engine = self.soc.engine
        limit = engine.run_ahead_limit()
        counters = core.stats.counter_map()
        execute = 0
        if instructions is not None:
            execute = int(round(instructions * CYCLES_PER_INSTRUCTION))
            counters["instructions"] += instructions
        for cycles in (execute, virtual_calls * self.costs.virtual_call_cycles):
            core.overhead_cycles += cycles
            if cycles:
                due = engine.now + cycles
                if due <= limit:
                    engine.now = due
                else:
                    limit = yield cycles
        core_id = core.core_id
        if lines:
            access = self.soc.memory.directory.access
            pool_lines = self._pool_lines
            kinds = _POOL_KINDS
            counters["loads"] += (lines + 1) // 2
            if lines > 1:
                counters["stores"] += lines // 2
            for offset in range(lines):
                # Read the cursor live: another core's call may advance it
                # while this one waits on an access.
                cycles = access(core_id,
                                pool_lines[self._pool_cursor + offset],
                                kinds[offset & 1])
                core.overhead_cycles += cycles
                due = engine.now + cycles
                if due <= limit:
                    engine.now = due
                else:
                    limit = yield cycles
            self._pool_cursor = (self._pool_cursor + lines) % _SHARED_POOL_LINES
        for step in range(2 * pairs):
            if step % 2:
                cycles = mutex.release(core_id)
            else:
                cycles = mutex.acquire(core_id)
            core.overhead_cycles += cycles
            if cycles:
                due = engine.now + cycles
                if due <= limit:
                    engine.now = due
                else:
                    limit = yield cycles

    # ------------------------------------------------------------------ #
    # Submission / fetch / retirement bookkeeping (all Nanos flavours)
    # ------------------------------------------------------------------ #
    def charge_submission(self, core: Core, task: Task) -> ProcessGen:
        """Per-task submission bookkeeping of the Nanos core runtime."""
        costs = self.costs
        self.stats.incr("submissions")
        steps = self._charge(core, costs.submit_instructions,
                             costs.submit_virtual_calls,
                             costs.submit_shared_lines,
                             self.scheduler_mutex, costs.submit_mutex_ops)
        cycles = next(steps, None)
        if cycles is not None:
            yield Charge(cycles, steps)

    def charge_plugin_marshalling(self, core: Core, task: Task) -> ProcessGen:
        """Extra picos-plugin work proportional to the dependence count."""
        yield from core.execute(
            self.costs.plugin_per_dependence_instructions * task.num_dependences
        )

    def fetch_ready(self, core: Core) -> ProcessGen:
        """Per-fetch bookkeeping, then one pop of the scheduler singleton
        under its lock: the popped task index, or ``None``."""
        costs = self.costs
        self.stats.incr("fetches")
        steps = self._charge(core, costs.fetch_instructions,
                             costs.fetch_virtual_calls,
                             costs.fetch_shared_lines,
                             self.scheduler_mutex, costs.fetch_mutex_ops + 1)
        cycles = next(steps, None)
        if cycles is not None:
            yield Charge(cycles, steps)
        return self.scheduler_queue.try_get()

    def charge_retirement(self, core: Core) -> ProcessGen:
        """Per-retirement bookkeeping common to every Nanos flavour."""
        costs = self.costs
        self.stats.incr("retirements")
        steps = self._charge(core, costs.retire_instructions,
                             costs.retire_virtual_calls,
                             costs.retire_shared_lines,
                             self.graph_mutex, costs.retire_mutex_ops)
        cycles = next(steps, None)
        if cycles is not None:
            yield Charge(cycles, steps)

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
    # The central scheduler queue
    # ------------------------------------------------------------------ #
    def push_ready(self, core: Core, task_index: int) -> ProcessGen:
        """Push a ready task into the central scheduler queue."""
        steps = self._charge(core, None, 0, 0, self.scheduler_mutex, 1)
        cycles = next(steps, None)
        if cycles is not None:
            yield Charge(cycles, steps)
        if not self.scheduler_queue.try_put(task_index):
            raise RuntimeModelError("Nanos scheduler queue overflowed")

    def pop_ready(self, core: Core) -> ProcessGen:
        """Pop one ready task index from the scheduler queue, or ``None``."""
        steps = self._charge(core, None, 0, 0, self.scheduler_mutex, 1)
        cycles = next(steps, None)
        if cycles is not None:
            yield Charge(cycles, steps)
        return self.scheduler_queue.try_get()
