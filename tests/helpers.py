"""Workload factories, sweep and telemetry helpers, a reference MESI
directory, a polling Picos device, the per-packet submission path (a Picos
device with its own packet intake, a Submission Handler and an AXI DMA that
feed it) and a reference engine loop shared by the test suite."""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import MemoryCosts, PicosCosts, SimConfig
from repro.common.errors import (MemoryModelError, ProtocolError,
                                 SimulationError)
from repro.common.stats import Stats
from repro.harness.executor import ProcessPoolBackend, SerialBackend
from repro.harness.runner import CaseUnit, run_units
from repro.harness.telemetry import TelemetrySink
from repro.manager.submission import check_announcement
from repro.memory.mesi import AccessType, LineState
from repro.picos.axi import AxiPicosInterface
from repro.picos.dependence import TaskGraph
from repro.picos.device import PicosDevice, ReadyTask
from repro.picos.packets import (PACKETS_PER_DESCRIPTOR, TaskDescriptor,
                                 encode_descriptor)
from repro.runtime.phentos import PhentosRuntime
from repro.runtime.task import Task, TaskProgram, in_dep, inout_dep, out_dep
from repro.sim.engine import (Charge, Delay, Engine, Get, ProcessGen, Put,
                              Wait)
from repro.sim.queues import DecoupledQueue


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
# Per-packet submission path
# ---------------------------------------------------------------------- #
class PerPacketPicosDevice(PicosDevice):
    """``PicosDevice`` with the packet intake that
    :class:`~repro.manager.submission.SubmissionStream` replaced: a
    submission queue and an inserter process that takes one packet from it
    per ``submission_packet_cycles`` and inserts each complete descriptor.
    :class:`PerPacketSubmissionHandler` and :class:`PerPacketAxiInterface`
    put packets into it; so may a test, one ``Put`` per packet.
    """

    def __init__(self, engine, costs, name="picos"):
        super().__init__(engine, costs, name)
        self.submission_queue = DecoupledQueue(
            engine, costs.submission_queue_depth, name=f"{name}.submission")
        engine.spawn(self._submission_pipeline(), name=f"{name}.submit",
                     daemon=True)

    def _submission_pipeline(self) -> ProcessGen:
        """Reassemble 48-packet descriptors and insert them in the graph."""
        partial: List[int] = []
        next_packet = Get(self.submission_queue)
        packet_delay = Delay(self.costs.submission_packet_cycles)
        while True:
            packet = yield next_packet
            yield packet_delay
            partial.append(packet)
            self.stats.incr("submission_packets")
            if len(partial) == PACKETS_PER_DESCRIPTOR:
                packets, partial = partial, []
                yield from self.insert_descriptor(packets)


class GuidedArbiter:
    """Exclusive, sequence-long grant of a shared resource (the
    Submission Handler's Guided Arbiter, per-packet reference).

    A requester acquires the arbiter for an announced number of beats
    (packets); the grant is only released after that many beats have been
    transferred.  Other requesters queue behind it in FIFO order.  This
    mirrors the Guided Arbiter inside the Submission Handler, which keeps
    task-descriptor packet sequences from different cores from interleaving.
    """

    __slots__ = ("engine", "num_requesters", "name", "current_owner",
                 "remaining_beats", "_pending", "sequences_completed")

    def __init__(self, engine: Engine, num_requesters: int,
                 name: str = "guided_arbiter") -> None:
        if num_requesters <= 0:
            raise ProtocolError("GuidedArbiter needs at least one requester")
        self.engine = engine
        self.num_requesters = num_requesters
        self.name = name
        self.current_owner: Optional[int] = None
        self.remaining_beats = 0
        self._pending: List[tuple] = []
        self.sequences_completed = 0

    def request(self, requester: int, beats: int):
        """Return an event triggered when ``requester`` owns the resource."""
        if not 0 <= requester < self.num_requesters:
            raise ProtocolError(
                f"requester {requester} out of range 0..{self.num_requesters - 1}"
            )
        if beats <= 0:
            raise ProtocolError("a grant must cover at least one beat")
        grant = self.engine.event(name=f"{self.name}.grant[{requester}]")
        self._pending.append((requester, beats, grant))
        self._maybe_grant()
        return grant

    def transfer_beat(self, requester: int) -> None:
        """Account one transferred beat for the current owner."""
        if self.current_owner != requester:
            raise ProtocolError(
                f"core {requester} transferred a beat without owning "
                f"{self.name} (owner={self.current_owner})"
            )
        self.remaining_beats -= 1
        if self.remaining_beats == 0:
            self.current_owner = None
            self.sequences_completed += 1
            self._maybe_grant()

    @property
    def busy(self) -> bool:
        """True while some requester holds the grant."""
        return self.current_owner is not None

    @property
    def pending_requests(self) -> int:
        """Number of requesters waiting for the grant."""
        return len(self._pending)

    def _maybe_grant(self) -> None:
        if self.current_owner is not None or not self._pending:
            return
        requester, beats, grant = self._pending.pop(0)
        self.current_owner = requester
        self.remaining_beats = beats
        grant.trigger(requester)


#: Depths of a core's packet buffer and of its announcement queue.
_CORE_BUFFER_DEPTH = 16
_ANNOUNCE_DEPTH = 2


class PerPacketSubmissionHandler:
    """The Submission Handler one packet step at a time, over a
    :class:`PerPacketPicosDevice`: a pump process per core takes an
    announcement and the Guided Arbiter's grant, then puts each packet,
    zero padding included, into Picos's submission queue
    ``submission_packet_cycles`` after taking it.  Differential tests drive
    it and :class:`~repro.manager.submission.SubmissionStream` with the
    same program and require identical accept cycles, results and stats.
    """

    def __init__(self, engine: Engine, device: PerPacketPicosDevice,
                 num_cores: int, costs: PicosCosts,
                 name: str = "submission_handler") -> None:
        self.engine = engine
        self.device = device
        self.num_cores = num_cores
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        cores = range(num_cores)
        self.buffers = [DecoupledQueue(engine, _CORE_BUFFER_DEPTH,
                                       name=f"{name}.buf{core}")
                        for core in cores]
        self.announcements = [DecoupledQueue(engine, _ANNOUNCE_DEPTH,
                                             name=f"{name}.ann{core}")
                              for core in cores]
        self.arbiter = GuidedArbiter(engine, num_cores, name=f"{name}.guided")
        #: Descriptors the pumps have put into the queue.
        self.descriptors = 0
        for core in cores:
            engine.spawn(self._pump(core), name=f"{name}.pump{core}",
                         daemon=True)

    def announce(self, core_id: int, nonzero_packets: int) -> bool:
        self._check_core(core_id)
        check_announcement(nonzero_packets)
        if self.announcements[core_id].try_put(nonzero_packets):
            self.stats.incr("submission_requests")
            return True
        self.stats.incr("submission_request_failures")
        return False

    def push_packet(self, core_id: int, word: int) -> bool:
        return self.push_packets(core_id, (word,))

    def push_packets(self, core_id: int, words) -> bool:
        self._check_core(core_id)
        buffer = self.buffers[core_id]
        if buffer.capacity - len(buffer) < len(words):
            self.stats.incr("packet_buffer_failures")
            return False
        for word in words:
            buffer.try_put(word & 0xFFFFFFFF)
        self.stats.add("packets_buffered", len(words))
        return True

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}")

    def _pump(self, core_id: int) -> ProcessGen:
        announcements = self.announcements[core_id]
        next_word = Get(self.buffers[core_id])
        queue = self.device.submission_queue
        arbiter = self.arbiter
        packet_delay = Delay(self.costs.submission_packet_cycles)
        while True:
            nonzero = yield Get(announcements)
            yield Wait(arbiter.request(core_id, PACKETS_PER_DESCRIPTOR))
            for index in range(PACKETS_PER_DESCRIPTOR):
                word = (yield next_word) if index < nonzero else 0
                yield packet_delay
                yield Put(queue, word)
                arbiter.transfer_beat(core_id)
            self.descriptors += 1
            self.stats.incr("descriptors_forwarded")
            self.stats.add("zero_packets_padded",
                           PACKETS_PER_DESCRIPTOR - nonzero)


class PerPacketAxiInterface(AxiPicosInterface):
    """``AxiPicosInterface`` whose DMA reads the room of a
    :class:`PerPacketPicosDevice`'s submission queue and writes a
    descriptor into it one ``Put`` per packet."""

    def submit_task(self, descriptor: TaskDescriptor,
                    stall_handler) -> ProcessGen:
        latency = (self.costs.submit_transaction
                   + self.costs.per_dependence * descriptor.num_dependences)
        self.stats.incr("axi_submissions")
        self.stats.add("axi_submit_cycles", latency)
        yield Delay(latency)
        queue = self.device.submission_queue
        room = min(PACKETS_PER_DESCRIPTOR, queue.capacity)
        while queue.capacity - len(queue) < room:
            yield from stall_handler()
        for packet in encode_descriptor(descriptor):
            yield Put(queue, packet)


# ---------------------------------------------------------------------- #
# Reference engine loop
# ---------------------------------------------------------------------- #
class ReferenceEngine(Engine):
    """``Engine`` with the loop that run-ahead dispatch replaced: every
    ``Delay`` goes through the calendar, or through the same-cycle bucket
    when it is zero, and the process waits there for its turn.  It never
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
                now = heap[0]
                if now > horizon:
                    if not clamp:
                        raise SimulationError(
                            f"simulation exceeded max_cycles={self.max_cycles}"
                        )
                    self.now = horizon
                    return False
                self.now = now
                heapq.heappop(heap)
                bucket.extend(self._calendar.pop(now))
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
                    self._at(now + cycles, (process, None))
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
            self._at(self.now + cycles, (None, charge))
        else:
            self._bucket.append((None, charge))
        if self.trace:
            self._trace_log.append(
                f"[{self.now}] {charge.process.name} -> Delay")
