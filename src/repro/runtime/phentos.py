"""Phentos: the fly-weight, header-only task-scheduling runtime (Section V-B).

Phentos was written from scratch for the tightly-integrated architecture and
pursues six design goals:

1. no non-IO syscalls (no mutexes, no condition variables),
2. minimal cache-line invalidations per submission,
3. minimal cache-line moves per work fetch,
4. inlinable API methods (header-only library),
5. minimal writes to shared atomic variables (no cache bouncing),
6. no false sharing (cache-aware data packing).

The model reproduces the corresponding mechanisms:

* the **Task Metadata Array**, whose elements are exactly one cache line
  (up to 7 dependences) or two cache lines (up to 15), chosen per program;
  an element is only ever touched by the thread holding the matching SW ID;
* a single **shared atomic retirement counter**, updated lazily from
  per-core private counters — a core only flushes after a work-fetch
  failure, and the taskwait loop polls the counter at a coarse interval;
* direct use of the seven custom instructions for everything else.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.common.config import CACHE_LINE_BYTES, PhentosCosts, SimConfig
from repro.cpu.soc import SoC
from repro.registry import register_runtime
from repro.memory.hierarchy import SharedCounter
from repro.runtime.base import Runtime
from repro.runtime.hw_interface import retire_task_hw, submit_task_hw
from repro.runtime.task import Task, TaskProgram
from repro.runtime.worker import HwWorkerContext
from repro.sim.engine import Event, ProcessGen

__all__ = ["PhentosRuntime"]


@register_runtime("phentos", tags=("case", "compared", "hardware"),
                  rank=40,
                  description="Phentos: hardware-centric runtime over "
                              "Picos")
class PhentosRuntime(Runtime):
    """Hardware-accelerated fly-weight runtime model."""

    name = "phentos"
    uses_picos = True

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        super().__init__(config)
        self.costs: PhentosCosts = self.config.costs.phentos

    # ------------------------------------------------------------------ #
    # Program execution
    # ------------------------------------------------------------------ #
    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        state = _PhentosState(self, soc, program)
        self._run_threads(soc, self._main_thread(state),
                          partial(self._worker_thread, state), num_workers)

    # ------------------------------------------------------------------ #
    # Main thread: submits tasks, helps execute, owns the taskwaits
    # ------------------------------------------------------------------ #
    def _main_thread(self, state: "_PhentosState") -> ProcessGen:
        soc, program = state.soc, state.program
        core = soc.core(0)
        context = state.contexts[0]
        if program.serial_sections_cycles:
            yield from core.compute(program.serial_sections_cycles)
        submitted = 0
        for task in program.tasks:
            yield from self._submit(state, core, context, task)
            submitted += 1
            if task.index in program.taskwait_after:
                yield from self._taskwait(state, core, context, submitted)
        yield from self._taskwait(state, core, context, submitted)
        state.done.trigger(None)

    def _submit(self, state: "_PhentosState", core, context: HwWorkerContext,
                task: Task) -> ProcessGen:
        # Inlined bookkeeping: fill the Task Metadata Array element that the
        # SW ID will later index.  The element lives on one or two private
        # cache lines, so this is a local store (design goals 2 and 6).
        yield from core.execute(
            self.costs.submit_instructions
            + self.costs.submit_per_dependence_instructions
            * task.num_dependences
        )
        element_address = state.metadata_address(task.index)
        for line in range(state.metadata_lines):
            yield from core.store(element_address + line * CACHE_LINE_BYTES)

        def help_while_stalled() -> ProcessGen:
            # Role switching (Section IV-C): if submission back-pressures,
            # run one ready task instead of spinning.
            yield from self._help_once(state, core, context)

        yield from submit_task_hw(core, task, sw_id=task.index,
                                  stall_handler=help_while_stalled)

    def _taskwait(self, state: "_PhentosState", core, context: HwWorkerContext,
                  target: int) -> ProcessGen:
        """Execute ready tasks until ``target`` tasks have retired."""
        while True:
            yield from self._flush_private_counter(state, core.core_id, core)
            value, cycles = state.retired.read(core.core_id)
            yield from core.charge(cycles)
            if value + state.private_counters[core.core_id] >= target and \
                    state.private_counters[core.core_id]:
                yield from self._flush_private_counter(state, core.core_id, core,
                                                       force=True)
                value, cycles = state.retired.read(core.core_id)
                yield from core.charge(cycles)
            if value >= target:
                return
            helped = yield from self._help_once(state, core, context)
            if not helped:
                # Nothing to run: poll the counter at the configured coarse
                # interval (design goal 5) by sleeping until it changes.
                yield from core.execute(2)
                yield from self._wait_counter_or_work(state, context, target)

    # ------------------------------------------------------------------ #
    # Worker threads
    # ------------------------------------------------------------------ #
    def _worker_thread(self, state: "_PhentosState", core_id: int) -> ProcessGen:
        soc = state.soc
        core = soc.core(core_id)
        context = state.contexts[core_id]
        while True:
            if state.done.triggered:
                yield from self._flush_private_counter(state, core_id, core,
                                                       force=True)
                return
            fetched = yield from context.acquire_task()
            if fetched is None:
                yield from self._flush_private_counter(state, core_id, core,
                                                       force=True)
                return
            yield from self._run_task(state, core, fetched.sw_id,
                                      fetched.picos_id)
            # Flushing the private counter is throttled while work keeps
            # arriving; a work-fetch failure (empty private queue) forces the
            # flush so taskwait can observe the retirements (Section V-B).
            queue_empty = soc.manager.core_ready_queue(core_id).empty
            yield from self._flush_private_counter(state, core_id, core,
                                                   force=queue_empty)

    # ------------------------------------------------------------------ #
    # Task execution, retirement, counter management
    # ------------------------------------------------------------------ #
    def _help_once(self, state: "_PhentosState", core,
                   context: HwWorkerContext) -> ProcessGen:
        """Fetch and run at most one ready task; returns True if one ran."""
        requested = yield from context.ensure_request()
        if not requested:
            return False
        fetched = yield from context.try_fetch()
        if fetched is None:
            return False
        yield from self._run_task(state, core, fetched.sw_id, fetched.picos_id)
        return True

    def _run_task(self, state: "_PhentosState", core, sw_id: int,
                  picos_id: int) -> ProcessGen:
        task = state.program.tasks[sw_id]
        # Read the task metadata element (one or two cache-line transfers —
        # design goal 3), run the payload, retire through the instruction.
        yield from core.execute(self.costs.fetch_instructions)
        element_address = state.metadata_address(sw_id)
        for line in range(state.metadata_lines):
            yield from core.load(element_address + line * CACHE_LINE_BYTES)
        task.run_kernel()
        yield from core.compute(task.payload_cycles)
        yield from core.execute(self.costs.retire_instructions)
        yield from retire_task_hw(core, picos_id)
        state.private_counters[core.core_id] += 1
        state.executed_by_core[core.core_id] += 1

    def _flush_private_counter(self, state: "_PhentosState", core_id: int,
                               core, force: bool = False) -> ProcessGen:
        pending = state.private_counters[core_id]
        if not pending:
            return
        if not force and pending < self.costs.fetch_failures_per_counter_update:
            # Keep accumulating unless the caller saw a work-fetch failure.
            return
        cycles = state.retired.add(core_id, pending)
        state.private_counters[core_id] = 0
        yield from core.charge(cycles)

    def _wait_counter_or_work(self, state: "_PhentosState",
                              context: HwWorkerContext,
                              target: int) -> ProcessGen:
        """Sleep until the retirement counter moves or work shows up."""
        from repro.runtime.base import wait_for_signals

        soc = state.soc
        queue = soc.manager.core_ready_queue(context.core_id)
        yield from wait_for_signals(
            soc,
            queues=(queue,),
            counters=(state.retired,),
            # The main thread's unflushed retirements count towards the
            # target, as they do in _taskwait: a worker's flush that lands
            # between that read and this wait would otherwise be lost.
            predicate=lambda: (state.retired.value
                               + state.private_counters[context.core_id]
                               >= target),
        )


class _PhentosState:
    """Shared state of one Phentos program run."""

    def __init__(self, runtime: PhentosRuntime, soc: SoC,
                 program: TaskProgram) -> None:
        self.runtime = runtime
        self.soc = soc
        self.program = program
        self.done: Event = soc.engine.event(name="phentos_done")
        costs = runtime.costs
        #: One or two cache lines per Task Metadata Array element, selected
        #: from the program's maximum dependence count (a compile-time macro
        #: in the real Phentos).
        self.metadata_lines = (
            costs.metadata_lines_small
            if program.max_dependences <= costs.small_element_max_deps
            else costs.metadata_lines_large
        )
        element_bytes = self.metadata_lines * CACHE_LINE_BYTES
        self.metadata_region = soc.memory.allocate_array(
            "phentos.task_metadata", element_bytes, max(program.num_tasks, 1)
        )
        self.retired: SharedCounter = soc.memory.shared_counter(
            "phentos.retired_counter"
        )
        self.private_counters: List[int] = [0] * soc.num_cores
        self.executed_by_core: List[int] = [0] * soc.num_cores
        self.contexts: Dict[int, HwWorkerContext] = {
            core_id: HwWorkerContext(soc, core_id, self.done)
            for core_id in range(soc.num_cores)
        }

    def metadata_address(self, sw_id: int) -> int:
        """Address of the Task Metadata Array element for ``sw_id``."""
        element_bytes = self.metadata_lines * CACHE_LINE_BYTES
        return self.metadata_region.element(sw_id, element_bytes)
