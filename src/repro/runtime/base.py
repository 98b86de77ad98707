"""Runtime base classes and the result record every runtime produces.

A *runtime model* takes a :class:`~repro.runtime.task.TaskProgram` and a
:class:`~repro.cpu.soc.SoC` and executes the program the way the real
runtime would: a main thread on core 0 submits tasks (and helps execute
them), worker threads on the remaining cores fetch and execute ready tasks,
and every scheduling action is charged to the simulated machine.  The result
is a :class:`RuntimeResult` with the elapsed cycles and enough bookkeeping
for the evaluation harness to compute speedups, utilisation and lifetime
scheduling overheads.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.errors import RuntimeModelError
from repro.common.stats import Stats
from repro.cpu.soc import SoC
from repro.runtime.task import TaskProgram
from repro.sim.engine import Event, ProcessGen, Wait
from repro.sim.queues import DecoupledQueue

__all__ = ["RuntimeResult", "Runtime", "wait_for_signals",
           "wait_for_queue_or_event"]


@dataclass
class RuntimeResult:
    """Outcome of running one program on one runtime."""

    runtime: str
    program: str
    num_cores: int
    elapsed_cycles: int
    tasks_executed: int
    serial_cycles: int
    mean_task_cycles: float
    busy_cycles: int
    overhead_cycles: int
    per_core_busy: List[int] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    parameters: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup_vs_serial(self) -> float:
        """Speedup of this run with respect to the serial execution."""
        if self.elapsed_cycles <= 0:
            raise RuntimeModelError("elapsed_cycles must be positive")
        return self.serial_cycles / self.elapsed_cycles

    @property
    def utilization(self) -> float:
        """Fraction of core-cycles spent executing task payloads."""
        total = self.elapsed_cycles * self.num_cores
        return self.busy_cycles / total if total else 0.0

    @property
    def lifetime_overhead_per_task(self) -> float:
        """Mean task-scheduling overhead per task, in cycles.

        This is the paper's *lifetime Task Scheduling overhead* (Figure 7):
        the wall-clock cost the scheduling machinery adds per task once the
        payload cycles executed on the critical core are removed.  It is
        measured on single-worker runs of the Task-Free / Task-Chain
        micro-benchmarks, where every non-payload cycle is scheduling.
        """
        if self.tasks_executed <= 0:
            raise RuntimeModelError("no tasks executed")
        if self.num_cores == 1:
            # Single worker: everything beyond the payload is scheduling.
            overhead_total = self.elapsed_cycles - self.serial_cycles
        else:
            # For multi-worker runs fall back to the accounted overhead.
            overhead_total = self.overhead_cycles / self.num_cores
        return max(overhead_total, 0) / self.tasks_executed


class Runtime(abc.ABC):
    """Common driver logic shared by every runtime model."""

    # Concrete subclasses that add instance state keep their __dict__
    # unless they declare __slots__ themselves; the base attributes stay
    # slotted either way.
    __slots__ = ("config", "stats", "tasks_executed")

    #: Short identifier used in reports ("serial", "nanos-sw", "phentos", ...).
    name: str = "abstract"

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = config if config is not None else SimConfig()
        self.stats = Stats(self.name)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, program: TaskProgram,
            num_workers: Optional[int] = None) -> RuntimeResult:
        """Execute ``program`` on a freshly built SoC and report the result."""
        program.validate()
        workers = self._resolve_workers(num_workers)
        soc = self.build_soc(workers)
        # Task bodies this run executes: each runtime's execution path
        # adds one next to ``task.run_kernel()``.
        self.tasks_executed = 0
        self._execute(soc, program, workers)
        elapsed = soc.now
        if elapsed <= 0:
            # Guard against empty programs finishing at cycle zero.
            elapsed = 1
        stats = soc.stats_report()
        return RuntimeResult(
            runtime=self.name,
            program=program.name,
            num_cores=workers,
            elapsed_cycles=elapsed,
            tasks_executed=self.tasks_executed,
            serial_cycles=max(program.serial_cycles, 1),
            mean_task_cycles=program.mean_task_cycles,
            busy_cycles=soc.total_busy_cycles(),
            overhead_cycles=soc.total_overhead_cycles(),
            per_core_busy=[core.busy_cycles for core in soc.cores],
            stats=stats,
            parameters=dict(program.parameters),
        )

    def build_soc(self, num_workers: int) -> SoC:
        """Build the SoC this runtime runs on (Picos-enabled by default)."""
        config = self.config.with_cores(num_workers)
        return SoC(config, with_picos=self.uses_picos,
                   with_rocc=self.uses_rocc)

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    #: Whether the SoC must instantiate the Picos device at all.
    uses_picos: bool = True
    #: Whether the SoC must instantiate the tightly-integrated path (Picos
    #: Manager + per-core Delegates).  The AXI baseline turns this off.
    uses_rocc: bool = True

    @abc.abstractmethod
    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        """Spawn the runtime's processes on ``soc`` and run to completion."""

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _run_threads(self, soc: SoC, main: ProcessGen,
                     worker: Callable[[int], ProcessGen],
                     num_workers: int) -> None:
        """Run ``main`` on core 0 and ``worker(core_id)`` on every other
        core until all of them end.

        The threads are named ``<prefix>_main`` and ``<prefix>_worker<N>``,
        ``<prefix>`` being the runtime's name with ``_`` for ``-``;
        deadlock reports name them.
        """
        prefix = self.name.replace("-", "_")
        threads = [soc.spawn_worker(0, main, name=f"{prefix}_main")]
        for core_id in range(1, num_workers):
            threads.append(soc.spawn_worker(core_id, worker(core_id),
                                            name=f"{prefix}_worker{core_id}"))
        soc.run(threads)

    def _resolve_workers(self, num_workers: Optional[int]) -> int:
        workers = (self.config.machine.num_cores if num_workers is None
                   else num_workers)
        if workers <= 0:
            raise RuntimeModelError("num_workers must be positive")
        return workers


def wait_for_signals(soc: SoC, queues=(), counters=(), events=(),
                     predicate=None) -> ProcessGen:
    """Sleep until one of several wake-up sources shows activity.

    Worker loops use this to model "spin until something happens" without
    generating one simulation event per polling iteration — the worker is
    idle either way, so wall-clock time is unaffected while the event count
    stays proportional to useful work.

    Wake-up sources:

    * ``queues`` — any enqueue on these :class:`DecoupledQueue`s,
    * ``counters`` — any update of these shared counters,
    * ``events`` — any of these one-shot events firing,
    * ``predicate`` — if it already evaluates to True (checked before
      sleeping, with no intervening yield), the helper returns immediately.
      This closes the lost-wake-up window between a failed fetch and the
      subscription of the observers.
    """
    # Hot path: every worker idle period passes through here, so the
    # activity scans are plain loops over internal state (no generator
    # expressions, no property descriptors).
    if predicate is not None and predicate():
        return
    for queue in queues:
        if queue._items:
            return
    for event in events:
        if event._triggered:
            return
    wake = soc.engine.event(name="worker_wake")

    def on_signal(_value=None) -> None:
        if not wake.triggered:
            wake.trigger(None)

    for queue in queues:
        queue.subscribe_enqueue(on_signal)
    for counter in counters:
        counter.subscribe(on_signal)
    for event in events:
        event.add_callback(on_signal)
    try:
        yield Wait(wake)
    finally:
        for queue in queues:
            queue.unsubscribe_enqueue(on_signal)
        for counter in counters:
            counter.unsubscribe(on_signal)


def wait_for_queue_or_event(soc: SoC, queue: DecoupledQueue,
                            event: Event) -> ProcessGen:
    """Sleep until ``queue`` has an item or ``event`` fires."""
    yield from wait_for_signals(soc, queues=(queue,), events=(event,))
