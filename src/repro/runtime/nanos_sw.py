"""Nanos-SW: the software-only OmpSs runtime baseline.

Nanos-SW is stock Nanos with its default ``plain`` dependence plugin: every
part of task scheduling — dependence inference, task-graph management, ready
queue, retirement — happens in software on the cores, guarded by mutexes and
condition variables.  It is the baseline against which the paper reports its
2.13x (Nanos-RV) and 13.19x (Phentos) geometric-mean speedups.

The model runs the program with:

* a main thread (core 0) that performs submission bookkeeping, software
  dependence inference and graph insertion for every task, and then helps
  execute tasks during taskwaits,
* worker threads that pop ready tasks from the central scheduler queue,
  execute them, and perform the software retirement path (waking successor
  tasks under the graph lock).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SimConfig
from repro.cpu.core import Core
from repro.cpu.soc import SoC
from repro.registry import register_runtime
from repro.runtime.base import Runtime, wait_for_queue_or_event
from repro.runtime.nanos_machinery import NanosMachinery
from repro.runtime.task import TaskProgram
from repro.sim.engine import Event, ProcessGen

__all__ = ["NanosSWRuntime"]


@register_runtime("nanos-sw", tags=("case", "compared", "software"),
                  rank=10,
                  description="Nanos++ with pure-software scheduling")
class NanosSWRuntime(Runtime):
    """Software-only Nanos runtime model (the paper's Nanos-SW)."""

    name = "nanos-sw"
    uses_picos = False

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        super().__init__(config)
        self.costs = self.config.costs.nanos

    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        machinery = NanosMachinery(soc, program, self.costs, software_graph=True)
        done = soc.engine.event(name="nanos_sw_done")
        main = soc.spawn_worker(
            0, self._main_thread(soc, program, machinery, done), name="nanos_sw_main"
        )
        workers = [main]
        for core_id in range(1, num_workers):
            workers.append(
                soc.spawn_worker(
                    core_id,
                    self._worker_thread(soc, program, machinery, done, core_id),
                    name=f"nanos_sw_worker{core_id}",
                )
            )
        soc.run(workers)

    # ------------------------------------------------------------------ #
    # Main thread
    # ------------------------------------------------------------------ #
    def _main_thread(self, soc: SoC, program: TaskProgram,
                     machinery: NanosMachinery, done: Event) -> ProcessGen:
        core = soc.core(0)
        if program.serial_sections_cycles:
            yield from core.compute(program.serial_sections_cycles)
        submitted = 0
        for task in program.tasks:
            yield from machinery.charge_submission(core, task)
            yield from machinery.software_submit(core, task)
            submitted += 1
            if task.index in program.taskwait_after:
                yield from self._taskwait(soc, program, machinery, core, submitted)
        yield from self._taskwait(soc, program, machinery, core, submitted)
        done.trigger(None)

    def _taskwait(self, soc: SoC, program: TaskProgram,
                  machinery: NanosMachinery, core: Core,
                  target: int) -> ProcessGen:
        while True:
            value, cycles = machinery.retired.read(core.core_id)
            yield from core.charge(cycles)
            if value >= target:
                return
            ran = yield from self._run_one(soc, program, machinery, core)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from self._wait_for_ready_or_counter(
                    soc, machinery,
                    predicate=lambda: machinery.retired.value >= target,
                )

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_thread(self, soc: SoC, program: TaskProgram,
                       machinery: NanosMachinery, done: Event,
                       core_id: int) -> ProcessGen:
        core = soc.core(core_id)
        while True:
            if done.triggered:
                return
            ran = yield from self._run_one(soc, program, machinery, core)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from wait_for_queue_or_event(
                    soc, machinery.scheduler_queue, done
                )

    # ------------------------------------------------------------------ #
    # Task execution path
    # ------------------------------------------------------------------ #
    def _run_one(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, core: Core) -> ProcessGen:
        """Pop one ready task, execute it and retire it; True if one ran."""
        yield from machinery.charge_fetch(core)
        task_index = yield from machinery.pop_ready(core)
        if task_index is None:
            return False
        task = program.tasks[task_index]
        task.run_kernel()
        yield from core.compute(task.payload_cycles)
        yield from machinery.charge_retirement(core)
        yield from machinery.software_retire(core, task_index)
        yield from machinery.record_retirement_counter(core)
        return True

    def _wait_for_ready_or_counter(self, soc: SoC, machinery: NanosMachinery,
                                   predicate=None) -> ProcessGen:
        """Sleep until a ready task or a retirement shows up."""
        from repro.runtime.base import wait_for_signals

        yield from wait_for_signals(
            soc,
            queues=(machinery.scheduler_queue,),
            counters=(machinery.retired,),
            predicate=predicate,
        )
