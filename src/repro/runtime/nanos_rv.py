"""Nanos-RV: Nanos with the ``picos`` dependence plugin (Section V-A).

Nanos-RV keeps the whole Nanos runtime core — plugin dispatch, descriptor
allocation, the central Scheduler singleton queue, mutexes and condition
variables — but offloads dependence inference to Picos through the custom
instructions.  The paper activates it with ``NX_ARGS="-deps=picos"``.

Two properties of the port matter for performance and are modelled here:

* submission, work-fetch and retirement each still pay the heavy Nanos
  bookkeeping (the dominant ~12k cycles/task of Figure 7),
* ready descriptors fetched from Picos are *not* run directly by the core
  that fetched them; they are pushed through the central Scheduler queue and
  popped again, adding shared-line traffic (the inefficiency the paper
  calls out when motivating Phentos).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import SimConfig
from repro.cpu.core import Core
from repro.cpu.soc import SoC
from repro.registry import register_runtime
from repro.runtime.base import Runtime
from repro.runtime.hw_interface import retire_task_hw, submit_task_hw
from repro.runtime.nanos_machinery import NanosMachinery
from repro.runtime.task import TaskProgram
from repro.runtime.worker import HwWorkerContext
from repro.sim.engine import Event, ProcessGen

__all__ = ["NanosRVRuntime"]


@register_runtime("nanos-rv", tags=("case", "compared", "hardware"),
                  rank=20,
                  description="Nanos++ over Picos via RoCC custom "
                              "instructions")
class NanosRVRuntime(Runtime):
    """Nanos ported to the custom task-scheduling instructions."""

    name = "nanos-rv"
    uses_picos = True

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        super().__init__(config)
        self.costs = self.config.costs.nanos

    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        machinery = NanosMachinery(soc, program, self.costs, software_graph=False)
        done = soc.engine.event(name="nanos_rv_done")
        contexts = {
            core_id: HwWorkerContext(soc, core_id, done)
            for core_id in range(num_workers)
        }
        #: Picos IDs of fetched-but-not-yet-retired tasks, keyed by SW ID.
        picos_ids: Dict[int, int] = {}
        main = soc.spawn_worker(
            0,
            self._main_thread(soc, program, machinery, contexts, picos_ids, done),
            name="nanos_rv_main",
        )
        workers = [main]
        for core_id in range(1, num_workers):
            workers.append(
                soc.spawn_worker(
                    core_id,
                    self._worker_thread(soc, program, machinery, contexts,
                                        picos_ids, done, core_id),
                    name=f"nanos_rv_worker{core_id}",
                )
            )
        soc.run(workers)

    # ------------------------------------------------------------------ #
    # Main thread
    # ------------------------------------------------------------------ #
    def _main_thread(self, soc: SoC, program: TaskProgram,
                     machinery: NanosMachinery, contexts, picos_ids,
                     done: Event) -> ProcessGen:
        core = soc.core(0)
        context = contexts[0]
        if program.serial_sections_cycles:
            yield from core.compute(program.serial_sections_cycles)
        submitted = 0
        def help_while_stalled() -> ProcessGen:
            # Role switching on submission back-pressure (Section IV-C).
            yield from self._run_one(soc, program, machinery, contexts,
                                     picos_ids, core, context)

        for task in program.tasks:
            yield from machinery.charge_submission(core, task)
            yield from machinery.charge_plugin_marshalling(core, task)
            yield from submit_task_hw(core, task, sw_id=task.index,
                                      stall_handler=help_while_stalled)
            submitted += 1
            if task.index in program.taskwait_after:
                yield from self._taskwait(soc, program, machinery, contexts,
                                          picos_ids, core, context, submitted)
        yield from self._taskwait(soc, program, machinery, contexts, picos_ids,
                                  core, context, submitted)
        done.trigger(None)

    def _taskwait(self, soc: SoC, program: TaskProgram,
                  machinery: NanosMachinery, contexts, picos_ids, core: Core,
                  context: HwWorkerContext, target: int) -> ProcessGen:
        while True:
            value, cycles = machinery.retired.read(core.core_id)
            yield from core.charge(cycles)
            if value >= target:
                return
            ran = yield from self._run_one(soc, program, machinery, contexts,
                                           picos_ids, core, context)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from self._wait_for_work_or_counter(
                    soc, machinery, context,
                    predicate=lambda: machinery.retired.value >= target,
                )

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_thread(self, soc: SoC, program: TaskProgram,
                       machinery: NanosMachinery, contexts, picos_ids,
                       done: Event, core_id: int) -> ProcessGen:
        core = soc.core(core_id)
        context = contexts[core_id]
        while True:
            if done.triggered:
                return
            ran = yield from self._run_one(soc, program, machinery, contexts,
                                           picos_ids, core, context)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from self._wait_for_work_or_counter(soc, machinery,
                                                          context, done)

    # ------------------------------------------------------------------ #
    # Fetch / execute / retire path
    # ------------------------------------------------------------------ #
    def _run_one(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, contexts, picos_ids, core: Core,
                 context: HwWorkerContext) -> ProcessGen:
        """Execute at most one task found via Picos or the Scheduler queue."""
        # First drain anything already redirected to the Scheduler singleton.
        yield from machinery.charge_fetch(core)
        pending_index = yield from machinery.pop_ready(core)
        if pending_index is None:
            # Ask Picos for one descriptor; if one arrives, Nanos pushes it
            # through the Scheduler queue before running it.
            requested = yield from context.ensure_request()
            if not requested:
                return False
            fetched = yield from context.try_fetch()
            if fetched is None:
                return False
            picos_ids[fetched.sw_id] = fetched.picos_id
            yield from machinery._push_ready(core, fetched.sw_id)
            pending_index = yield from machinery.pop_ready(core)
            if pending_index is None:
                # Another worker stole the descriptor we just published.
                return False
        task = program.tasks[pending_index]
        task.run_kernel()
        yield from core.compute(task.payload_cycles)
        yield from machinery.charge_retirement(core)
        picos_id = picos_ids.pop(pending_index)
        yield from retire_task_hw(core, picos_id)
        yield from machinery.record_retirement_counter(core)
        return True

    def _wait_for_work_or_counter(self, soc: SoC, machinery: NanosMachinery,
                                  context: HwWorkerContext,
                                  done: Optional[Event] = None,
                                  predicate=None) -> ProcessGen:
        """Sleep until Picos routes work here, the Scheduler queue fills,
        a retirement bumps the counter, or the program ends."""
        from repro.runtime.base import wait_for_signals

        ready_queue = soc.manager.core_ready_queue(context.core_id)
        yield from wait_for_signals(
            soc,
            queues=(ready_queue, machinery.scheduler_queue),
            counters=(machinery.retired,),
            events=(done,) if done is not None else (),
            predicate=predicate,
        )
