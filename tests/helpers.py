"""Workload factories, sweep and telemetry helpers, a reference MESI
directory, a polling Picos device, a per-packet Submission Handler and a
reference engine loop shared by the test suite."""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import MemoryCosts, SimConfig
from repro.common.errors import MemoryModelError, SimulationError
from repro.common.stats import Stats
from repro.harness.executor import ProcessPoolBackend, SerialBackend
from repro.harness.runner import CaseUnit, run_units
from repro.harness.telemetry import TelemetrySink
from repro.manager.submission import SubmissionHandler
from repro.memory.mesi import AccessType, LineState
from repro.picos.dependence import TaskGraph
from repro.picos.device import PicosDevice, ReadyTask
from repro.picos.packets import TaskDescriptor
from repro.runtime.phentos import PhentosRuntime
from repro.runtime.task import Task, TaskProgram, in_dep, inout_dep, out_dep
from repro.sim.engine import Charge, Delay, Engine, ProcessGen


class PluginRuntime(PhentosRuntime):
    """A module-level non-``repro`` runtime class for transport tests."""

def make_chain_program(num_tasks: int = 10, payload: int = 200,
                       num_deps: int = 1, name: str = "chain") -> TaskProgram:
    """A dependence chain: every task inout-touches the same addresses."""
    addresses = [0x9000_0000 + 4096 * i for i in range(num_deps)]
    tasks = [
        Task(index=i, payload_cycles=payload,
             dependences=tuple(inout_dep(a) for a in addresses))
        for i in range(num_tasks)
    ]
    return TaskProgram(name=name, tasks=tasks)


def make_independent_program(num_tasks: int = 16, payload: int = 500,
                             name: str = "independent") -> TaskProgram:
    """Fully independent tasks, each writing its own block."""
    tasks = [
        Task(index=i, payload_cycles=payload,
             dependences=(out_dep(0xA000_0000 + 4096 * i),))
        for i in range(num_tasks)
    ]
    return TaskProgram(name=name, tasks=tasks)


def plugin_chain_builder(*, num_tasks: int = 6,
                         payload: int = 100) -> TaskProgram:
    """A module-level plugin builder (pickles by reference to workers)."""
    return make_chain_program(num_tasks=num_tasks, payload=payload,
                              name="plugin-chain")


def make_fork_join_program(width: int = 6, payload: int = 300,
                           name: str = "fork-join") -> TaskProgram:
    """A producer task, ``width`` parallel consumers, and a final reducer."""
    source = 0xB000_0000
    sinks = [0xB100_0000 + 4096 * i for i in range(width)]
    tasks = [Task(index=0, payload_cycles=payload, dependences=(out_dep(source),))]
    for i in range(width):
        tasks.append(Task(index=i + 1, payload_cycles=payload,
                          dependences=(in_dep(source), out_dep(sinks[i]))))
    tasks.append(Task(index=width + 1, payload_cycles=payload,
                      dependences=tuple(in_dep(s) for s in sinks[:8])))
    return TaskProgram(name=name, tasks=tasks)


class RecordingSink(TelemetrySink):
    """Keeps every record in memory for assertions."""

    def __init__(self) -> None:
        self.records = []
        self.closed = False

    def emit(self, record) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


def sweep_units(units, jobs: int = 1, **kwargs) -> list:
    """``run_units`` on a fresh backend ``jobs`` host processes wide."""
    with (SerialBackend() if jobs == 1
          else ProcessPoolBackend(jobs)) as backend:
        return run_units(units, backend, **kwargs)


def sweep_cases(config: SimConfig, cases, num_workers: int, jobs: int = 1,
                **kwargs) -> list:
    """One plain benchmark sweep of ``cases`` under ``config``."""
    return sweep_units([CaseUnit(config, case, num_workers)
                        for case in cases], jobs, **kwargs)


def unit_ends(sink: RecordingSink) -> list:
    """The unit ``span_end`` records ``sink`` saw, in emission order."""
    return [record for record in sink.records
            if record["type"] == "span_end" and record["kind"] == "unit"]


# ---------------------------------------------------------------------- #
# Reference MESI directory
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReferenceAccessResult:
    """Outcome of one line access: its latency and coherence side effects."""

    cycles: int
    hit: bool
    new_state: LineState
    invalidated: Tuple[int, ...] = ()
    writeback_through_memory: bool = False


class ReferenceDirectory:
    """The straightforward MESI directory that ``CoherenceDirectory``
    replaced: one ``LineState`` per holder, a result object per access, and
    sharer/owner scans.  Differential tests drive both with the same
    sequence and require identical cycles, states and counters.
    """

    def __init__(self, num_cores: int, costs: MemoryCosts,
                 stats: Optional[Stats] = None) -> None:
        self.num_cores = num_cores
        self.costs = costs
        self.stats = stats if stats is not None else Stats("coherence")
        # line -> {core: state}; absent cores are Invalid.
        self._lines: Dict[int, Dict[int, LineState]] = {}

    def state_of(self, core: int, line: int) -> LineState:
        self._check_core(core)
        return self._lines.get(line, {}).get(core, LineState.INVALID)

    def sharers(self, line: int) -> Set[int]:
        return {
            core
            for core, state in self._lines.get(line, {}).items()
            if state is not LineState.INVALID
        }

    def owner(self, line: int) -> Optional[int]:
        for core, state in self._lines.get(line, {}).items():
            if state is LineState.MODIFIED:
                return core
        return None

    def lines_tracked(self) -> int:
        return sum(1 for line in self._lines.values()
                   if any(s is not LineState.INVALID for s in line.values()))

    def access(self, core: int, line: int,
               kind: AccessType) -> ReferenceAccessResult:
        self._check_core(core)
        if kind is AccessType.READ:
            result = self._read(core, line)
        elif kind is AccessType.WRITE:
            result = self._write(core, line, atomic=False)
        elif kind is AccessType.RMW:
            result = self._write(core, line, atomic=True)
        else:
            raise MemoryModelError(f"unknown access type {kind!r}")
        self._record(result, kind)
        return result

    def evict(self, core: int, line: int) -> int:
        state = self.state_of(core, line)
        self._set(core, line, LineState.INVALID)
        if state is LineState.MODIFIED:
            self.stats.incr("writebacks")
            return self.costs.store_buffer_drain + self.costs.l1_miss_to_memory
        return 0

    def _read(self, core: int, line: int) -> ReferenceAccessResult:
        state = self.state_of(core, line)
        if state is not LineState.INVALID:
            return ReferenceAccessResult(self.costs.l1_hit, True, state)
        owner = self.owner(line)
        sharers = self.sharers(line)
        if owner is not None:
            self._set(owner, line, LineState.SHARED)
            self._set(core, line, LineState.SHARED)
            return ReferenceAccessResult(
                self.costs.dirty_remote_transfer, False, LineState.SHARED,
                writeback_through_memory=True,
            )
        if sharers:
            for sharer in sharers:
                if self.state_of(sharer, line) is LineState.EXCLUSIVE:
                    self._set(sharer, line, LineState.SHARED)
            self._set(core, line, LineState.SHARED)
            return ReferenceAccessResult(self.costs.l1_miss_to_memory, False,
                                         LineState.SHARED)
        self._set(core, line, LineState.EXCLUSIVE)
        return ReferenceAccessResult(self.costs.l1_miss_to_memory, False,
                                     LineState.EXCLUSIVE)

    def _write(self, core: int, line: int,
               atomic: bool) -> ReferenceAccessResult:
        extra = self.costs.atomic_rmw_extra if atomic else 0
        state = self.state_of(core, line)
        others = self.sharers(line) - {core}
        if state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            self._set(core, line, LineState.MODIFIED)
            return ReferenceAccessResult(self.costs.l1_hit + extra, True,
                                         LineState.MODIFIED)
        if state is LineState.SHARED:
            for other in others:
                self._set(other, line, LineState.INVALID)
            self._set(core, line, LineState.MODIFIED)
            cost = self.costs.l1_hit + extra
            if others:
                cost += self.costs.invalidate_remote
            return ReferenceAccessResult(cost, True, LineState.MODIFIED,
                                         invalidated=tuple(sorted(others)))
        owner = self.owner(line)
        cost = extra
        writeback = False
        if owner is not None:
            cost += self.costs.dirty_remote_transfer
            writeback = True
        elif others:
            cost += self.costs.l1_miss_to_memory + self.costs.invalidate_remote
        else:
            cost += self.costs.l1_miss_to_memory
        for other in others:
            self._set(other, line, LineState.INVALID)
        self._set(core, line, LineState.MODIFIED)
        return ReferenceAccessResult(cost, False, LineState.MODIFIED,
                                     invalidated=tuple(sorted(others)),
                                     writeback_through_memory=writeback)

    def _set(self, core: int, line: int, state: LineState) -> None:
        per_line = self._lines.setdefault(line, {})
        if state is LineState.INVALID:
            per_line.pop(core, None)
            if not per_line:
                self._lines.pop(line, None)
        else:
            per_line[core] = state

    def _record(self, result: ReferenceAccessResult, kind: AccessType) -> None:
        self.stats.incr("accesses")
        self.stats.incr(f"accesses_{kind.value}")
        self.stats.add("access_cycles", result.cycles)
        if result.hit:
            self.stats.incr("hits")
        else:
            self.stats.incr("misses")
        if result.invalidated:
            self.stats.add("invalidations", len(result.invalidated))
        if result.writeback_through_memory:
            self.stats.incr("dirty_transfers_through_memory")

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise MemoryModelError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )


# ---------------------------------------------------------------------- #
# Polling Picos device
# ---------------------------------------------------------------------- #
def picos_config(config: Optional[SimConfig] = None,
                 **overrides) -> SimConfig:
    """``config`` (default: the default machine) with some ``PicosCosts``
    fields replaced."""
    config = config if config is not None else SimConfig()
    picos = dataclasses.replace(config.costs.picos, **overrides)
    return dataclasses.replace(
        config, costs=dataclasses.replace(config.costs, picos=picos))


class PollingPicosDevice(PicosDevice):
    """``PicosDevice`` with the timed-spin inserter that the "slot freed"
    event replaced: a full reservation station is re-checked every
    ``retire_cycles``.  Differential tests drive both with the same program
    and require identical accept cycles, results and stats.
    """

    def _insert_task(self, descriptor: TaskDescriptor) -> ProcessGen:
        analysis = (
            self.costs.task_insert_cycles
            + self.costs.dependence_analysis_cycles * descriptor.num_dependences
        )
        if analysis:
            yield Delay(analysis)
        while not self.graph.has_capacity():
            yield Delay(self.costs.retire_cycles)
        task_id, ready = self.graph.submit(descriptor.sw_id,
                                           descriptor.dependences)
        self._sw_ids[task_id] = descriptor.sw_id
        self.stats.incr("tasks_accepted")
        self.stats.observe("dependences_per_task", descriptor.num_dependences)
        if ready:
            self._schedule_ready(ReadyTask(task_id, descriptor.sw_id))


class AcceptLog(TaskGraph):
    """A task graph that logs ``(sw_id, cycle)`` for every accepted task
    and ``("retired", task_id, cycle)`` for every retirement, in the order
    they happen, so differential tests can compare accept cycles and their
    order against retirements in the same cycle."""

    def __init__(self, capacity, engine, log):
        super().__init__(capacity)
        self.engine = engine
        self.log = log

    def submit(self, sw_id, dependences):
        self.log.append((sw_id, self.engine.now))
        return super().submit(sw_id, dependences)

    def retire(self, task_id):
        self.log.append(("retired", task_id, self.engine.now))
        return super().retire(task_id)


# ---------------------------------------------------------------------- #
# Per-packet Submission Handler
# ---------------------------------------------------------------------- #
class PerPacketSubmissionHandler(SubmissionHandler):
    """``SubmissionHandler`` that runs the packet path stepped whatever the
    costs: a pump process per core puts every packet, zero padding
    included, into the Picos submission queue one ``Put`` at a time, and
    the device's own inserter takes each one.  Differential tests drive it
    and the arithmetic :class:`~repro.manager.submission.SubmissionStream`
    with the same program and require identical accept cycles, results and
    stats.
    """

    @staticmethod
    def stream_is_exact(costs, handshake_cycles):
        return False


# ---------------------------------------------------------------------- #
# Reference engine loop
# ---------------------------------------------------------------------- #
class ReferenceEngine(Engine):
    """``Engine`` with the loop that run-ahead dispatch replaced: every
    ``Delay`` goes through the heap, or through the same-cycle bucket when
    it is zero, and the process waits there for its turn.  It never
    advances in place either, and its run-ahead limit is below every cycle,
    so every cost helper yields its ``Delay`` and every step of a
    ``Charge`` is refused.  Each of those steps waits as a ``Delay`` would,
    with one trace line, and the process resumes when the steps are done.
    Differential tests drive both with the same processes and require
    identical traces, times, results and stats.
    """

    def advance(self, cycles: int) -> bool:
        return False

    def run_ahead_limit(self) -> int:
        return -1

    def _loop(self, remaining: List[int], horizon: int, clamp: bool) -> bool:
        heap = self._heap
        bucket = self._bucket
        now = self.now
        while remaining[0]:
            if not bucket:
                if not heap:
                    if not self._drained():
                        return True
                    continue
                now = heap[0][0]
                if now > horizon:
                    if not clamp:
                        raise SimulationError(
                            f"simulation exceeded max_cycles={self.max_cycles}"
                        )
                    self.now = horizon
                    return False
                self.now = now
                while heap and heap[0][0] == now:
                    entry = heapq.heappop(heap)
                    bucket.append((entry[2], entry[3]))
            process, payload = bucket.popleft()
            if process is None:
                if payload.__class__ is not Charge:
                    payload()
                    continue
                charge = payload
                try:
                    cycles = charge.steps.send(-1)
                except StopIteration:
                    process, payload = charge.process, None
                else:
                    self._wait_step(charge, cycles)
                    continue
            if process.finished:
                continue
            try:
                command = process.generator.send(payload)
            except StopIteration as stop:
                self._finish(process, stop.value)
                continue
            if command.__class__ is Charge:
                command.process = process
                process._waiting = command
                self._wait_step(command, command.cycles)
                continue
            if command.__class__ is Delay:
                process._waiting = command
                cycles = command.cycles
                if cycles:
                    heapq.heappush(heap, (now + cycles, next(self._sequence),
                                          process, None))
                else:
                    bucket.append((process, None))
            else:
                try:
                    handler = self._handlers[command._tag]
                except (AttributeError, TypeError, IndexError):
                    raise SimulationError(
                        f"process {process.name!r} yielded a non-Command "
                        f"value: {command!r}"
                    )
                handler(process, command)
            if self.trace:
                self._trace_log.append(
                    f"[{now}] {process.name} -> {type(command).__name__}"
                )
        return False

    def _wait_step(self, charge: Charge, cycles: int) -> None:
        """Wait out one refused step of ``charge`` as a ``Delay``."""
        if cycles:
            heapq.heappush(self._heap, (self.now + cycles,
                                        next(self._sequence), None, charge))
        else:
            self._bucket.append((None, charge))
        if self.trace:
            self._trace_log.append(
                f"[{self.now}] {charge.process.name} -> Delay")
