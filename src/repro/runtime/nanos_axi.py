"""Nanos-AXI: the Picos++/MMIO baseline from Tan et al. (2017).

The paper compares against the best previous Picos-based system, in which
the scheduler sits behind an AXI interconnect on a Zynq SoC and the runtime
reaches it through MMIO transactions driven by a DMA-like module.  The model
is identical to Nanos-RV except that every scheduler interaction goes
through :class:`~repro.picos.axi.AxiPicosInterface` — hundreds of cycles per
transaction — instead of the 2-cycle custom instructions.  (The figures the
paper quotes for this platform are already scaled from the Cortex-A9 to
Rocket-Chip cycles; our cost table is calibrated to the scaled values.)
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import SimConfig
from repro.cpu.core import Core
from repro.cpu.soc import SoC
from repro.picos.axi import AxiPicosInterface
from repro.registry import register_runtime
from repro.picos.packets import TaskDescriptor
from repro.runtime.base import Runtime
from repro.runtime.nanos_machinery import NanosMachinery
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import Event, ProcessGen

__all__ = ["NanosAXIRuntime"]


@register_runtime("nanos-axi", tags=("hardware",), rank=30,
                  description="Nanos++ over Picos via the AXI bus "
                              "(Figure 7 only)")
class NanosAXIRuntime(Runtime):
    """Nanos on Picos++ behind an AXI interconnect (the literature baseline)."""

    name = "nanos-axi"
    uses_picos = True
    #: The baseline reaches Picos through MMIO/AXI; there is no Manager and
    #: there are no Delegates in that system.
    uses_rocc = False

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        super().__init__(config)
        self.costs = self.config.costs.nanos

    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        machinery = NanosMachinery(soc, program, self.costs, software_graph=False)
        axi = soc.axi_interface()
        done = soc.engine.event(name="nanos_axi_done")
        picos_ids: Dict[int, int] = {}
        main = soc.spawn_worker(
            0,
            self._main_thread(soc, program, machinery, axi, picos_ids, done),
            name="nanos_axi_main",
        )
        workers = [main]
        for core_id in range(1, num_workers):
            workers.append(
                soc.spawn_worker(
                    core_id,
                    self._worker_thread(soc, program, machinery, axi, picos_ids,
                                        done, core_id),
                    name=f"nanos_axi_worker{core_id}",
                )
            )
        soc.run(workers)

    # ------------------------------------------------------------------ #
    # Main thread
    # ------------------------------------------------------------------ #
    def _main_thread(self, soc: SoC, program: TaskProgram,
                     machinery: NanosMachinery, axi: AxiPicosInterface,
                     picos_ids, done: Event) -> ProcessGen:
        core = soc.core(0)
        if program.serial_sections_cycles:
            yield from core.compute(program.serial_sections_cycles)
        submitted = 0
        for task in program.tasks:
            yield from machinery.charge_submission(core, task)
            yield from machinery.charge_plugin_marshalling(core, task)
            yield from self._submit_axi(axi, task)
            submitted += 1
            if task.index in program.taskwait_after:
                yield from self._taskwait(soc, program, machinery, axi,
                                          picos_ids, core, submitted)
        yield from self._taskwait(soc, program, machinery, axi, picos_ids,
                                  core, submitted)
        done.trigger(None)

    @staticmethod
    def _submit_axi(axi: AxiPicosInterface, task: Task) -> ProcessGen:
        descriptor = TaskDescriptor(sw_id=task.index,
                                    dependences=task.dependences)
        yield from axi.submit_task(descriptor)

    def _taskwait(self, soc: SoC, program: TaskProgram,
                  machinery: NanosMachinery, axi: AxiPicosInterface, picos_ids,
                  core: Core, target: int) -> ProcessGen:
        while True:
            value, cycles = machinery.retired.read(core.core_id)
            yield from core.charge(cycles)
            if value >= target:
                return
            ran = yield from self._run_one(soc, program, machinery, axi,
                                           picos_ids, core)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from self._wait_for_work_or_counter(
                    soc, machinery,
                    predicate=lambda: machinery.retired.value >= target,
                )

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_thread(self, soc: SoC, program: TaskProgram,
                       machinery: NanosMachinery, axi: AxiPicosInterface,
                       picos_ids, done: Event, core_id: int) -> ProcessGen:
        core = soc.core(core_id)
        while True:
            if done.triggered:
                return
            ran = yield from self._run_one(soc, program, machinery, axi,
                                           picos_ids, core)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from self._wait_for_work_or_counter(soc, machinery, done)

    # ------------------------------------------------------------------ #
    # Fetch / execute / retire
    # ------------------------------------------------------------------ #
    def _run_one(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, axi: AxiPicosInterface, picos_ids,
                 core: Core) -> ProcessGen:
        pending_index = yield from machinery.fetch_ready(core)
        if pending_index is None:
            fetched = yield from axi.fetch_ready_task()
            if fetched is None:
                return False
            picos_ids[fetched.sw_id] = fetched.picos_id
            yield from machinery._push_ready(core, fetched.sw_id)
            pending_index = yield from machinery.pop_ready(core)
            if pending_index is None:
                return False
        task = program.tasks[pending_index]
        task.run_kernel()
        yield from core.compute(task.payload_cycles)
        yield from machinery.charge_retirement(core)
        picos_id = picos_ids.pop(pending_index)
        yield from axi.retire_task(picos_id)
        yield from machinery.record_retirement_counter(core)
        return True

    def _wait_for_work_or_counter(self, soc: SoC, machinery: NanosMachinery,
                                  done: Optional[Event] = None,
                                  predicate=None) -> ProcessGen:
        """Sleep until the device publishes ready packets, the Scheduler
        queue fills, the retirement counter moves, or the program ends."""
        from repro.runtime.base import wait_for_signals

        yield from wait_for_signals(
            soc,
            queues=(soc.picos.ready_queue, machinery.scheduler_queue),
            counters=(machinery.retired,),
            events=(done,) if done is not None else (),
            predicate=predicate,
        )
