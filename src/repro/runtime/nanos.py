"""Nanos over its three dependence back-ends (Section V-A).

Nanos is one runtime core — plugin dispatch, descriptor allocation, the
central Scheduler singleton queue, mutexes and condition variables — whose
dependence handling is a plugin.  The paper measures it three ways, and
:class:`NanosRuntime` models all three with one main thread (core 0:
submission, taskwaits, helping) and one worker loop, charging the shared
bookkeeping through :class:`~repro.runtime.nanos_machinery.NanosMachinery`.
A back-end supplies only what the plugin changes: submission, the fetch of
a ready task from the plugin, retirement, and the queues an idle thread
watches.

* **Nanos-SW** (:class:`SoftwareBackend`) is stock Nanos with its
  ``plain`` plugin: dependence inference, the task graph and the wake-up
  of successors run in software under the graph lock.  Submission and
  retirement push ready tasks into the scheduler queue themselves, so the
  plugin has nothing more to fetch.  It is the baseline of the paper's
  2.13x (Nanos-RV) and 13.19x (Phentos) geometric-mean speedups.
* **Nanos-RV** (:class:`RoccBackend`) is Nanos with the ``picos`` plugin
  (``NX_ARGS="-deps=picos"``) over the custom instructions.
* **Nanos-AXI** (:class:`AxiBackend`) is the Picos++ baseline of Tan et
  al. (2017): the same plugin, but every scheduler interaction goes
  through :class:`~repro.picos.axi.AxiPicosInterface` — hundreds of cycles
  per transaction — instead of the 2-cycle custom instructions.  (The
  paper's figures for that platform are already scaled from the Cortex-A9
  to Rocket-Chip cycles; the cost table is calibrated to the scaled
  values.)

Three properties of the Picos ports matter and are modelled here:

* submission, work-fetch and retirement each still pay the heavy Nanos
  bookkeeping (the dominant ~12k cycles/task of Figure 7);
* ready descriptors fetched from Picos are *not* run directly by the core
  that fetched them; they are pushed through the central Scheduler queue
  and popped again, adding shared-line traffic (the inefficiency the paper
  calls out when motivating Phentos);
* while Picos cannot take the next descriptor, the main thread runs one
  ready task instead of blocking (role switching, Section IV-C).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import SimConfig
from repro.cpu.core import Core
from repro.cpu.soc import SoC
from repro.picos.dependence import TaskGraph
from repro.picos.packets import TaskDescriptor
from repro.registry import register_runtime
from repro.runtime.base import Runtime, wait_for_signals
from repro.runtime.hw_interface import retire_task_hw, submit_task_hw
from repro.runtime.nanos_machinery import NanosMachinery
from repro.runtime.task import Task, TaskProgram
from repro.runtime.worker import HwWorkerContext
from repro.sim.engine import Charge, ProcessGen
from repro.sim.queues import DecoupledQueue

__all__ = ["NanosRuntime", "NanosSWRuntime", "NanosRVRuntime",
           "NanosAXIRuntime", "SoftwareBackend", "RoccBackend", "AxiBackend"]


class _Backend:
    """One Nanos run's state, and what its dependence plugin does.

    A back-end provides ``submit(core, task, stall_handler)``,
    ``fetch(core)`` (a :class:`~repro.runtime.hw_interface.FetchedTask` or
    ``None``), ``retire(core, task_index)`` and ``wake_queues(core_id)``:
    the queues an idle thread on ``core_id`` sleeps on, the scheduler
    queue last.  ``stall_handler`` runs one ready task on the submitting
    core while the plugin cannot take the task.
    """

    __slots__ = ("soc", "program", "machinery", "done", "picos_ids")

    #: Whether idle workers also wake when the retirement counter moves.
    workers_watch_counter = True

    def __init__(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, num_workers: int,
                 done_name: str) -> None:
        self.soc = soc
        self.program = program
        self.machinery = machinery
        self.done = soc.engine.event(name=done_name)
        #: Picos IDs of fetched-but-not-yet-retired tasks, keyed by SW ID.
        self.picos_ids: Dict[int, int] = {}


class SoftwareBackend(_Backend):
    """Nanos-SW's ``plain`` plugin: a task graph kept in software."""

    __slots__ = ("graph", "_graph_ids", "_known_addresses")

    #: Workers wait for the scheduler queue and the end of the program only.
    workers_watch_counter = False

    def __init__(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, num_workers: int,
                 done_name: str) -> None:
        super().__init__(soc, program, machinery, num_workers, done_name)
        self.graph = TaskGraph(capacity=max(program.num_tasks, 1))
        self._graph_ids: Dict[int, int] = {}
        self._known_addresses: Set[int] = set()

    def submit(self, core: Core, task: Task, stall_handler) -> ProcessGen:
        """Infer dependences in software and insert the task in the graph.

        Returns True when the task is immediately ready (and has been pushed
        to the central scheduler queue).
        """
        machinery = self.machinery
        costs = machinery.costs
        steps = machinery._charge(core, costs.graph_insert_instructions, 0,
                                  costs.graph_insert_shared_lines,
                                  machinery.graph_mutex, 1)
        cycles = next(steps, None)
        if cycles is not None:
            yield Charge(cycles, steps)
        for dependence in task.dependences:
            if dependence.address in self._known_addresses:
                steps = machinery._charge(
                    core, costs.dep_known_address_instructions, 0,
                    costs.dep_known_address_shared_lines, None, 0)
            else:
                self._known_addresses.add(dependence.address)
                steps = machinery._charge(
                    core, costs.dep_new_address_instructions, 0,
                    costs.dep_new_address_shared_lines, None, 0)
            cycles = next(steps, None)
            if cycles is not None:
                yield Charge(cycles, steps)
        graph_id, ready = self.graph.submit(task.index, task.dependences)
        self._graph_ids[task.index] = graph_id
        if ready:
            yield from machinery.push_ready(core, task.index)
        return ready

    def fetch(self, core: Core) -> ProcessGen:
        """Nothing beyond the scheduler queue: always ``None``."""
        return None
        yield  # pragma: no cover - makes this a generator

    def retire(self, core: Core, task_index: int) -> ProcessGen:
        """Retire a task in the software graph, waking its successors."""
        machinery = self.machinery
        graph_id = self._graph_ids.pop(task_index)
        has_successors = bool(self.graph.task(graph_id).successors)
        newly_ready = self.graph.retire(graph_id)
        if has_successors:
            costs = machinery.costs
            steps = machinery._charge(
                core, costs.retire_successor_update_instructions, 0,
                costs.retire_successor_shared_lines, None, 0)
            cycles = next(steps, None)
            if cycles is not None:
                yield Charge(cycles, steps)
        for graph_ready_id in newly_ready:
            yield from machinery.push_ready(
                core, self._index_of_graph_id(graph_ready_id)
            )

    def _index_of_graph_id(self, graph_id: int) -> int:
        return self.graph.task(graph_id).sw_id

    def wake_queues(self, core_id: int) -> Tuple[DecoupledQueue, ...]:
        return (self.machinery.scheduler_queue,)


class RoccBackend(_Backend):
    """Nanos-RV's ``picos`` plugin over the custom instructions."""

    __slots__ = ("contexts",)

    def __init__(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, num_workers: int,
                 done_name: str) -> None:
        super().__init__(soc, program, machinery, num_workers, done_name)
        self.contexts: List[HwWorkerContext] = [
            HwWorkerContext(soc, core_id, self.done)
            for core_id in range(num_workers)
        ]

    def submit(self, core: Core, task: Task, stall_handler) -> ProcessGen:
        yield from self.machinery.charge_plugin_marshalling(core, task)
        yield from submit_task_hw(core, task, sw_id=task.index,
                                  stall_handler=stall_handler)

    def fetch(self, core: Core) -> ProcessGen:
        """Request one descriptor from Picos and try to fetch it."""
        context = self.contexts[core.core_id]
        requested = yield from context.ensure_request()
        if not requested:
            return None
        return (yield from context.try_fetch())

    def retire(self, core: Core, task_index: int) -> ProcessGen:
        return retire_task_hw(core, self.picos_ids.pop(task_index))

    def wake_queues(self, core_id: int) -> Tuple[DecoupledQueue, ...]:
        return (self.soc.manager.core_ready_queue(core_id),
                self.machinery.scheduler_queue)


class AxiBackend(_Backend):
    """Nanos-AXI's ``picos`` plugin over MMIO/AXI transactions."""

    __slots__ = ("axi",)

    def __init__(self, soc: SoC, program: TaskProgram,
                 machinery: NanosMachinery, num_workers: int,
                 done_name: str) -> None:
        self.axi = soc.axi_interface()
        super().__init__(soc, program, machinery, num_workers, done_name)

    def submit(self, core: Core, task: Task, stall_handler) -> ProcessGen:
        yield from self.machinery.charge_plugin_marshalling(core, task)
        yield from self.axi.submit_task(
            TaskDescriptor(sw_id=task.index, dependences=task.dependences),
            stall_handler)

    def fetch(self, core: Core) -> ProcessGen:
        return self.axi.fetch_ready_task()

    def retire(self, core: Core, task_index: int) -> ProcessGen:
        return self.axi.retire_task(self.picos_ids.pop(task_index))

    def wake_queues(self, core_id: int) -> Tuple[DecoupledQueue, ...]:
        return (self.soc.picos.ready_queue, self.machinery.scheduler_queue)


class NanosRuntime(Runtime):
    """The Nanos runtime over the dependence back-end ``backend``."""

    #: The :class:`_Backend` subclass a run is built on.
    backend: type

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        super().__init__(config)
        self.costs = self.config.costs.nanos

    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        machinery = NanosMachinery(soc, program, self.costs)
        state = self.backend(soc, program, machinery, num_workers,
                             f"{self.name.replace('-', '_')}_done")
        self._run_threads(soc, self._main_thread(state),
                          partial(self._worker_thread, state), num_workers)

    # ------------------------------------------------------------------ #
    # Main thread
    # ------------------------------------------------------------------ #
    def _main_thread(self, state: _Backend) -> ProcessGen:
        program, machinery = state.program, state.machinery
        core = state.soc.core(0)
        if program.serial_sections_cycles:
            yield from core.compute(program.serial_sections_cycles)
        help_while_stalled = partial(self._run_one, state, core)
        submitted = 0
        for task in program.tasks:
            yield from machinery.charge_submission(core, task)
            yield from state.submit(core, task, help_while_stalled)
            submitted += 1
            if task.index in program.taskwait_after:
                yield from self._taskwait(state, core, submitted)
        yield from self._taskwait(state, core, submitted)
        state.done.trigger(None)

    def _taskwait(self, state: _Backend, core: Core,
                  target: int) -> ProcessGen:
        machinery = state.machinery
        retired = machinery.retired
        queues = state.wake_queues(core.core_id)
        while True:
            value, cycles = retired.read(core.core_id)
            yield from core.charge(cycles)
            if value >= target:
                return
            ran = yield from self._run_one(state, core)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from wait_for_signals(
                    state.soc, queues=queues, counters=(retired,),
                    predicate=lambda: retired.value >= target,
                )

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_thread(self, state: _Backend, core_id: int) -> ProcessGen:
        soc, machinery, done = state.soc, state.machinery, state.done
        core = soc.core(core_id)
        queues = state.wake_queues(core_id)
        counters = ((machinery.retired,) if state.workers_watch_counter
                    else ())
        events = (done,)
        while True:
            if done.triggered:
                return
            ran = yield from self._run_one(state, core)
            if not ran:
                yield from machinery.charge_idle_check(core)
                yield from wait_for_signals(soc, queues, counters, events)

    # ------------------------------------------------------------------ #
    # Fetch / execute / retire path
    # ------------------------------------------------------------------ #
    def _run_one(self, state: _Backend, core: Core) -> ProcessGen:
        """Execute at most one ready task; True if one ran.

        The task comes from the scheduler queue or else from the plugin,
        in which case Nanos pushes it through the scheduler queue before
        running it.
        """
        machinery = state.machinery
        task_index = yield from machinery.fetch_ready(core)
        if task_index is None:
            fetched = yield from state.fetch(core)
            if fetched is None:
                return False
            state.picos_ids[fetched.sw_id] = fetched.picos_id
            yield from machinery.push_ready(core, fetched.sw_id)
            task_index = yield from machinery.pop_ready(core)
            if task_index is None:
                # Another worker stole the descriptor just published.
                return False
        task = state.program.tasks[task_index]
        task.run_kernel()
        yield from core.compute(task.payload_cycles)
        yield from machinery.charge_retirement(core)
        yield from state.retire(core, task_index)
        yield from machinery.record_retirement_counter(core)
        return True


@register_runtime("nanos-sw", tags=("case", "compared", "software"),
                  rank=10,
                  description="Nanos++ with pure-software scheduling")
class NanosSWRuntime(NanosRuntime):
    """Software-only Nanos runtime model (the paper's Nanos-SW)."""

    name = "nanos-sw"
    uses_picos = False
    backend = SoftwareBackend


@register_runtime("nanos-rv", tags=("case", "compared", "hardware"),
                  rank=20,
                  description="Nanos++ over Picos via RoCC custom "
                              "instructions")
class NanosRVRuntime(NanosRuntime):
    """Nanos ported to the custom task-scheduling instructions."""

    name = "nanos-rv"
    uses_picos = True
    backend = RoccBackend


@register_runtime("nanos-axi", tags=("hardware",), rank=30,
                  description="Nanos++ over Picos via the AXI bus "
                              "(Figure 7 only)")
class NanosAXIRuntime(NanosRuntime):
    """Nanos on Picos++ behind an AXI interconnect (the literature baseline)."""

    name = "nanos-axi"
    uses_picos = True
    #: The baseline reaches Picos through MMIO/AXI; there is no Manager and
    #: there are no Delegates in that system.
    uses_rocc = False
    backend = AxiBackend
