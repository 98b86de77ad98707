"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from functools import partial

from hypothesis import example, given, settings, strategies as st

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
    """``(num_cores, steps, checks)``: accesses and evictions on a few
    lines, and the steps after which the counters are compared.

    A core index of ``num_cores`` is out of range and must be refused."""
    num_cores = draw(st.integers(min_value=1, max_value=12))
    step = st.tuples(
        st.sampled_from([AccessType.READ, AccessType.WRITE, AccessType.RMW,
                         _EVICT]),
        st.integers(min_value=0, max_value=num_cores),
        st.integers(min_value=0, max_value=4),
    )
    steps = draw(st.lists(step, max_size=60))
    checks = draw(st.sets(st.integers(0, max(len(steps) - 1, 0)),
                          max_size=3))
    return num_cores, steps, checks


@settings(max_examples=300, deadline=None)
@given(directory_programs())
def test_directory_matches_reference(program):
    num_cores, steps, checks = program
    costs = MemoryCosts()
    directory = CoherenceDirectory(num_cores, costs)
    reference = ReferenceDirectory(num_cores, costs)
    lines = range(5)
    for index, (op, core, line) in enumerate(steps):
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
        # Reading the counters brings them up to date, so they are read
        # only after a few drawn steps: runs of tallied outcomes must
        # replay to the same values and first-touch key order.
        if index in checks:
            assert (list(directory.stats.counters().items())
                    == list(reference.stats.counters().items()))
    assert (list(directory.stats.counters().items())
            == list(reference.stats.counters().items()))


# --------------------------------------------------------------------- #
# Event-driven Picos back-pressure against the polling inserter
# --------------------------------------------------------------------- #
from unittest import mock  # noqa: E402

from repro import registry  # noqa: E402
from repro.common.config import SimConfig  # noqa: E402
from repro.common.errors import SimulationError  # noqa: E402
from repro.common.config import PicosCosts  # noqa: E402
from repro.manager.manager import PicosManager  # noqa: E402
from repro.manager.submission import SubmissionStream  # noqa: E402
from repro.picos.packets import encode_nonzero_packets  # noqa: E402
from repro.sim.engine import Delay  # noqa: E402
from repro.picos.axi import AxiPicosInterface  # noqa: E402
from repro.picos.device import PicosDevice  # noqa: E402
from repro.runtime.base import RuntimeResult  # noqa: E402
from tests.helpers import (  # noqa: E402
    AcceptLog,
    PerPacketAxiInterface,
    PerPacketPicosDevice,
    PerPacketSubmissionHandler,
    PollingPicosDevice,
    picos_config,
)


#: ``_run_logged`` arguments for the per-packet submission path.
PER_PACKET = {"device_class": PerPacketPicosDevice,
              "handler_class": PerPacketSubmissionHandler,
              "axi_class": PerPacketAxiInterface}


def _run_logged(runtime_name, config, program, workers,
                device_class=PicosDevice, handler_class=SubmissionStream,
                axi_class=AxiPicosInterface, handlers=None):
    """Run ``program`` on an SoC whose Picos is ``device_class``, whose
    Picos Manager forwards submissions through ``handler_class`` and whose
    AXI path is ``axi_class``.

    Returns the accept log (with retirements) and the ``RuntimeResult``,
    or the failure as ``(exception class name, message)``: both variants
    must then fail the same way.  The handler is appended to ``handlers``
    when given."""
    log = []

    class Logged(device_class):
        def __init__(self, engine, costs, name="picos"):
            super().__init__(engine, costs, name)
            self.graph = AcceptLog(costs.max_in_flight_tasks, engine, log)

    class Recorded(handler_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if handlers is not None:
                handlers.append(self)

    runtime = registry.runtime(runtime_name).cls(config)
    try:
        with mock.patch("repro.cpu.soc.PicosDevice", Logged), \
                mock.patch("repro.cpu.soc.AxiPicosInterface", axi_class), \
                mock.patch("repro.manager.submission.SubmissionStream",
                           Recorded):
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
    # Retirement periods of 1 to 16 cycles, but for the default packet
    # period of 1, which PicosCosts rejects.
    config = picos_config(SimConfig(max_cycles=2_000_000),
                          max_in_flight_tasks=draw(st.integers(1, 4)),
                          retire_cycles=draw(st.integers(2, 16)))
    return (draw(st.sampled_from(["phentos", "nanos-rv"])), config, program,
            draw(st.integers(1, 4)))


def _other_than(draw, cycles, low, high):
    """A draw from ``low..high`` other than ``cycles``: the retirement
    period PicosCosts allows next to a packet period of ``cycles``."""
    value = draw(st.integers(low, high - (low <= cycles <= high)))
    return value + (value >= cycles)


#: The built-in runtimes, read before any test registers a scratch one.
_RUNTIME_NAMES = tuple(registry.RUNTIMES.names())


def _stalling_example(num_tasks, workers, **picos):
    """``stalling_runs``'s draw of ``num_tasks`` independent empty tasks."""
    program = TaskProgram(name="stall", tasks=[
        Task(index=index, payload_cycles=0) for index in range(num_tasks)])
    config = picos_config(SimConfig(max_cycles=2_000_000), **picos)
    return "phentos", config, program, workers


#: Eight empty tasks through a one-task station on one worker: the draw
#: that drives Nanos-AXI into its full-queue stall.
_FULL_QUEUE_EXAMPLE = _stalling_example(8, 1, max_in_flight_tasks=1,
                                        retire_cycles=2)


@settings(max_examples=60, deadline=None)
@given(stalling_runs())
@example(_FULL_QUEUE_EXAMPLE)
def test_every_runtime_runs_every_task_once(run):
    # Liveness: whatever fills the station, every registered runtime ends
    # with each task run exactly once.
    _name, config, program, workers = run
    for runtime_name in _RUNTIME_NAMES:
        ran = []
        counted = dataclasses.replace(program, tasks=[
            dataclasses.replace(task, kernel=partial(ran.append, task.index))
            for task in program.tasks])
        result = registry.runtime(runtime_name).cls(config).run(
            counted, num_workers=workers)
        assert result.tasks_executed == program.num_tasks
        assert sorted(ran) == list(range(program.num_tasks)), runtime_name


def test_full_queue_example_stalls_nanos_axi():
    # The pinned liveness draw keeps the main thread in the stall handler:
    # room reads that find no room for a descriptor, each followed by a
    # stall-handler call.
    _name, config, program, workers = _FULL_QUEUE_EXAMPLE
    reads = []
    queued = SubmissionStream.queued

    def read(stream):
        reads.append(queued(stream))
        return reads[-1]

    with mock.patch.object(SubmissionStream, "queued", autospec=True,
                           side_effect=read):
        result = registry.runtime("nanos-axi").cls(config).run(
            program, num_workers=workers)
    assert result.tasks_executed == program.num_tasks
    room = config.costs.picos.submission_queue_depth - 48
    assert sum(1 for value in reads if value > room) > 0


@settings(max_examples=120, deadline=None)
@given(stalling_runs())
def test_event_wait_matches_polling_inserter(run):
    runtime_name, config, program, workers = run
    polled_log, polled = _run_logged(runtime_name, config, program, workers,
                                     device_class=PollingPicosDevice)
    event_log, event = _run_logged(runtime_name, config, program, workers)
    assert event_log == polled_log
    # No draw ends in a deadlock: test_every_runtime_runs_every_task_once
    # requires these programs to complete on every runtime.
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
    cycles = draw(st.integers(0, 3))
    config = picos_config(
        SimConfig(max_cycles=2_000_000),
        submission_packet_cycles=cycles,
        submission_queue_depth=draw(st.integers(1, 64)),
        max_in_flight_tasks=draw(st.integers(1, 8)),
        task_insert_cycles=draw(st.integers(0, 20)),
        dependence_analysis_cycles=draw(st.integers(0, 8)),
        retire_cycles=_other_than(draw, cycles, 0, 16),
    )
    return (draw(st.sampled_from(["phentos", "nanos-rv"])), config, program,
            draw(st.integers(1, 4)))


def _stalling_intake_run(packet_cycles, dependences=1, workers=2,
                         runtime="phentos", payload=500, **costs):
    """Six independent tasks through a one-task reservation station and
    (by default) a 16-packet queue: the pumps fill the queue during each
    stall and then run against Picos's takes.  With 15 dependences a
    descriptor's prefix outgrows the 16-word core buffer, so pushes meet a
    full buffer."""
    program = TaskProgram(name="intake", tasks=[
        Task(index=index, payload_cycles=payload,
             dependences=tuple(
                 TaskDependence(0x9000_0000 + 64 * (16 * index + slot),
                                Direction.OUT)
                 for slot in range(dependences)))
        for index in range(6)
    ])
    costs = {"submission_queue_depth": 16, "max_in_flight_tasks": 1,
             **costs}
    config = picos_config(SimConfig(max_cycles=2_000_000),
                          submission_packet_cycles=packet_cycles, **costs)
    return runtime, config, program, workers


@st.composite
def manager_runs(draw):
    """Descriptors from up to three cores straight into Picos Manager, on
    random Picos costs, with a driver retiring accepted tasks."""
    cores = draw(st.integers(1, 3))
    cycles = draw(st.integers(0, 3))
    costs = PicosCosts(
        submission_packet_cycles=cycles,
        submission_queue_depth=draw(st.integers(1, 64)),
        max_in_flight_tasks=draw(st.integers(1, 4)),
        task_insert_cycles=draw(st.integers(0, 20)),
        dependence_analysis_cycles=draw(st.integers(0, 8)),
        retire_cycles=_other_than(draw, cycles, 0, 16),
    )
    plans = [draw(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 15)),
                           max_size=4)) for _ in range(cores)]
    return costs, plans, draw(st.integers(1, 60))


def _manager(engine, costs, num_cores, stepped, log):
    """A Picos device logging into ``log`` and a Picos Manager over it, on
    the per-packet submission path when ``stepped``."""
    device = (PerPacketPicosDevice if stepped else PicosDevice)(engine, costs)
    device.graph = AcceptLog(costs.max_in_flight_tasks, engine, log)
    with mock.patch("repro.manager.submission.SubmissionStream",
                    PerPacketSubmissionHandler if stepped
                    else SubmissionStream):
        return device, PicosManager(engine, device, num_cores, costs)


def _drive_manager(run, stepped, handlers):
    """Run ``manager_runs``'s ``run``: each core announces and pushes its
    descriptors (every call right after a delay, as the delegate makes
    them), retrying refused calls.  Returns the accept/retire log, the
    handler's and the device's stats and the final cycle."""
    costs, plans, retire_every = run
    engine = Engine(max_cycles=500_000)
    log = []
    device, manager = _manager(engine, costs, len(plans), stepped, log)
    handlers.append(manager.submission_handler)

    def core(core_id, plan):
        for number, (delay, deps) in enumerate(plan):
            yield Delay(delay)
            packets = encode_nonzero_packets(TaskDescriptor(
                sw_id=100 * core_id + number, dependences=tuple(
                    TaskDependence(0x9000_0000 + 4096 * core_id
                                   + 64 * (16 * number + slot),
                                   Direction.OUT) for slot in range(deps))))
            while not manager.announce_submission(core_id, len(packets)):
                yield Delay(3)
            for offset in range(0, len(packets), 3):
                yield Delay(3)
                while not manager.submit_packets(
                        core_id, packets[offset:offset + 3]):
                    yield Delay(3)

    def retirer():
        retired = set()
        while True:
            yield Delay(retire_every)
            for picos_id in list(device._sw_ids):
                if (picos_id not in retired
                        and device.retirement_queue.try_put(picos_id)):
                    retired.add(picos_id)

    engine.spawn(retirer(), name="retirer", daemon=True)
    workers = [engine.spawn(core(core_id, plan), name=f"core{core_id}")
               for core_id, plan in enumerate(plans)]
    try:
        engine.run_until_complete(workers)
        engine.run(until=engine.now + 3_000)
    except SimulationError as exc:
        return log, (type(exc).__name__, str(exc))
    return (log, list(manager.submission_handler.stats.items()),
            list(device.stats.items()), engine.now)


def _probe_run(stepped):
    """One descriptor, and a probe process that runs in the cycle Picos
    takes its last packet, among that cycle's first steps, waits out the
    packet step and then the insert's analysis, and fills the one-task
    station in the insert's cycle.  The inserter waits out that packet
    step after every first step of the cycle, so the probe comes first
    and the insert finds the station full."""
    costs = PicosCosts(max_in_flight_tasks=1, task_insert_cycles=6)
    engine = Engine()
    log = []
    device, manager = _manager(engine, costs, 1, stepped, log)
    packets = encode_nonzero_packets(TaskDescriptor(
        sw_id=7, dependences=(TaskDependence(0x9000_0000, Direction.OUT),)))
    assert manager.announce_submission(0, len(packets))
    for offset in range(0, len(packets), 3):
        assert manager.submit_packets(0, packets[offset:offset + 3])
    # Six packets from cycle 0 and 42 zeros, one per cycle into a
    # caught-up Picos: the last is taken in cycle 48 and appended in 49.
    insert = 49

    def probe():
        while engine.now < insert - 1:
            yield Delay(1)
        yield Delay(1)
        yield Delay(costs.task_insert_cycles + costs.dependence_analysis_cycles)
        if device.graph.has_capacity():
            device.graph.submit(99, ())

    engine.run_until_complete([engine.spawn(probe(), name="probe")])
    engine.run(until=engine.now + 1_000)
    return log


def test_direct_intake_matches_per_packet_pump():
    # Paths by ``submission_packet_cycles``: descriptors the stream
    # inserted ("arithmetic"), pushes the stream refused for room a pump
    # frees later in their cycle ("room"), and tasks accepted in the cycle
    # of a retirement ("retire").
    paths = Counter()

    def count(log, stream, cycles):
        cycles = min(cycles, 1)
        paths["arithmetic", cycles] += stream.descriptors
        paths["room", cycles] += stream.refused_as_room_frees
        retired = {entry[2] for entry in log if len(entry) == 3}
        paths["retire", cycles] += sum(1 for entry in log
                                       if len(entry) == 2
                                       and entry[1] in retired)

    @settings(max_examples=120, deadline=None)
    @given(intake_runs())
    @example(_stalling_intake_run(0))
    @example(_stalling_intake_run(1))
    @example(_stalling_intake_run(0, dependences=15, workers=1,
                                  submission_queue_depth=64))
    @example(_stalling_intake_run(2, dependences=15))
    @example(_stalling_intake_run(0, retire_cycles=1))
    @example(_stalling_intake_run(1, retire_cycles=2))
    @example(_stalling_intake_run(1, retire_cycles=0))
    @example(_stalling_intake_run(
        0, runtime="nanos-rv", payload=0, retire_cycles=3,
        submission_queue_depth=23, max_in_flight_tasks=7,
        task_insert_cycles=15, dependence_analysis_cycles=4))
    def check(run):
        runtime_name, config, program, workers = run
        packet_log, per_packet = _run_logged(
            runtime_name, config, program, workers, **PER_PACKET)
        handlers = []
        direct_log, direct = _run_logged(runtime_name, config, program,
                                         workers, handlers=handlers)
        assert direct_log == packet_log
        assert direct == per_packet
        if isinstance(per_packet, RuntimeResult):
            # Same values, and the same first-touch order the reports keep.
            assert (list(direct.stats.items())
                    == list(per_packet.stats.items()))
        count(direct_log, handlers[0],
              config.costs.picos.submission_packet_cycles)

    # Several cores submit only here: the runtimes submit from one thread.
    @settings(max_examples=120, deadline=None)
    @given(manager_runs())
    def check_cores(run):
        handlers = []
        stepped = _drive_manager(run, True, handlers)
        direct = _drive_manager(run, False, handlers)
        assert direct == stepped
        count(direct[0], handlers[1], run[0].submission_packet_cycles)

    check()
    check_cores()
    assert _probe_run(stepped=False) == _probe_run(stepped=True)
    # The runs must really have taken every path, with and without a
    # packet cost; the pinned runs take them all.
    for kind in ("arithmetic", "room", "retire"):
        for cycles in (0, 1):
            assert paths[kind, cycles] > 0, (kind, cycles, paths)


# --------------------------------------------------------------------- #
# Nanos-AXI's DMA writes into the stream against the per-packet queue
# --------------------------------------------------------------------- #
from repro.common.config import AxiCosts  # noqa: E402


@st.composite
def axi_runs(draw):
    """A program for Nanos-AXI on a shrunken station, a queue of any depth
    up to 64 and AXI transactions of a few cycles, zero included."""
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
    program = TaskProgram(name="axi", tasks=tasks,
                          taskwait_after=set(taskwaits))
    cycles = draw(st.integers(0, 3))
    config = picos_config(
        SimConfig(max_cycles=2_000_000),
        submission_packet_cycles=cycles,
        submission_queue_depth=draw(st.integers(1, 64)),
        max_in_flight_tasks=draw(st.integers(1, 4)),
        retire_cycles=_other_than(draw, cycles, 0, 16),
    )
    small = st.integers(0, 12)
    axi = AxiCosts(submit_transaction=draw(small),
                   ready_transaction=draw(small),
                   retire_transaction=draw(small),
                   per_dependence=draw(small),
                   dma_refill_cycles=draw(small))
    config = dataclasses.replace(
        config, costs=dataclasses.replace(config.costs, axi=axi))
    return config, program, draw(st.integers(1, 4))


def _axi_example(num_tasks, payload, packet_cycles, depth, station,
                 retire_cycles, axi):
    """``axi_runs``'s draw of ``num_tasks`` independent tasks of
    ``payload`` cycles on one worker, with ``AxiCosts(*axi)``."""
    program = TaskProgram(name="axi", tasks=[
        Task(index=index, payload_cycles=payload)
        for index in range(num_tasks)])
    config = picos_config(SimConfig(max_cycles=2_000_000),
                          submission_packet_cycles=packet_cycles,
                          submission_queue_depth=depth,
                          max_in_flight_tasks=station,
                          retire_cycles=retire_cycles)
    config = dataclasses.replace(
        config, costs=dataclasses.replace(config.costs, axi=AxiCosts(*axi)))
    return config, program, 1


def _as_stream(outcome):
    """``outcome`` with the per-packet queue named as the stream that
    replaced it: a DMA blocked on a full queue is ``put(SubmissionStream(
    'picos.submission', Q/Q))`` where it was ``put(DecoupledQueue(...))``."""
    if isinstance(outcome, tuple):
        return outcome[0], outcome[1].replace(
            "DecoupledQueue('picos.submission'",
            "SubmissionStream('picos.submission'")
    return outcome


def test_dma_writes_match_per_packet_queue():
    # Room reads that find packets in the queue ("queued"), and those in
    # the cycle of one of Picos's takes ("take"), which they precede.
    reads = Counter()
    queued = SubmissionStream.queued

    def read(stream):
        value = queued(stream)
        reads["queued"] += value > 0
        reads["take"] += stream.engine.now in stream._takes
        return value

    # Pinned draws in which a room read finds the previous descriptor in
    # the queue, in the cycle Picos takes one of its packets; in the last
    # two, that take decides whether the descriptor fits.
    @settings(max_examples=150, deadline=None)
    @given(axi_runs())
    @example(_axi_example(7, 500, 2, 59, 1, 1, (11, 1, 12, 3, 1)))
    @example(_axi_example(9, 500, 1, 55, 1, 7, (4, 4, 3, 6, 5)))
    @example(_axi_example(8, 2000, 1, 61, 4, 2, (8, 12, 3, 3, 7)))
    @example(_axi_example(9, 0, 1, 61, 1, 3, (10, 3, 0, 7, 8)))
    def check(run):
        config, program, workers = run
        packet_log, per_packet = _run_logged("nanos-axi", config, program,
                                             workers, **PER_PACKET)
        with mock.patch.object(SubmissionStream, "queued", autospec=True,
                               side_effect=read):
            direct_log, direct = _run_logged("nanos-axi", config, program,
                                             workers)
        assert direct_log == packet_log
        assert direct == _as_stream(per_packet)
        if isinstance(per_packet, RuntimeResult):
            assert (list(direct.stats.items())
                    == list(per_packet.stats.items()))

    check()
    assert reads["queued"] > 0 and reads["take"] > 0, reads


# --------------------------------------------------------------------- #
# Run-ahead dispatch against the reference engine loop
# --------------------------------------------------------------------- #
from repro.sim.engine import (  # noqa: E402
    Charge, Delay, Fork, Get, Join, Put, Wait)
from tests.helpers import ReferenceEngine  # noqa: E402

_EVENTS = 3
_QUEUES = 2

#: Small cycle counts, so delays often end on another entry's timestamp.
_cycles = st.integers(min_value=0, max_value=6)
#: ``delay`` is listed twice so that delays make up more of each process;
#: ``advance`` moves the clock in place when the engine allows it and
#: yields the ``Delay`` otherwise; ``charge`` runs steps as a cost helper
#: does and hands them to the loop from the first refused one on.
_leaf_ops = st.one_of(
    st.tuples(st.just("delay"), _cycles),
    st.tuples(st.just("delay"), _cycles),
    st.tuples(st.just("advance"), _cycles),
    st.tuples(st.just("charge"), st.lists(_cycles, min_size=1, max_size=4)),
    st.tuples(st.just("wait"), st.integers(0, _EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, _EVENTS - 1)),
    st.tuples(st.just("put"), st.integers(0, _QUEUES - 1)),
    st.tuples(st.just("get"), st.integers(0, _QUEUES - 1)),
    st.tuples(st.just("callback"), _cycles, st.integers(0, _EVENTS - 1)),
)
_ops = st.lists(st.one_of(
    _leaf_ops,
    st.tuples(st.just("fork"), st.lists(_leaf_ops, max_size=4)),
    st.tuples(st.just("join")),
), max_size=8)


def _charge_steps(engine, steps, moved):
    """Charge ``steps`` as ``NanosMachinery._charge`` does: in place while
    they end by the run-ahead limit, else yield the cycles and receive the
    new limit.  ``moved`` counts the steps taken in place."""
    limit = engine.run_ahead_limit()
    for cycles in steps:
        due = engine.now + cycles
        if due <= limit:
            engine.now = due
            moved[0] += 1
        else:
            limit = yield cycles


def _interpret(engine, name, ops, events, queues, log, moved):
    """A process that performs ``ops`` and logs what each one returned.

    ``moved`` counts the ``advance`` ops the engine granted and the charge
    steps taken in place; it is kept out of ``log`` because the reference
    engine grants none.
    """
    children = []
    for step, op in enumerate(ops):
        kind = op[0]
        value = None
        if kind == "delay":
            value = yield Delay(op[1])
        elif kind == "advance":
            if engine.advance(op[1]):
                moved[0] += 1
            else:
                value = yield Delay(op[1])
        elif kind == "charge":
            steps = _charge_steps(engine, op[1], moved)
            cycles = next(steps, None)
            if cycles is not None:
                value = yield Charge(cycles, steps)
        elif kind == "wait":
            value = yield Wait(events[op[1]])
        elif kind == "trigger":
            if not events[op[1]].triggered:
                events[op[1]].trigger((name, step))
        elif kind == "put":
            yield Put(queues[op[1]], (name, step))
        elif kind == "get":
            value = yield Get(queues[op[1]])
        elif kind == "callback":
            def fire(event=events[op[2]], tag=(name, step)):
                log.append(("callback", tag, engine.now))
                if not event.triggered:
                    event.trigger(tag)
            engine.schedule_callback(op[1], fire)
        elif kind == "fork":
            child = yield Fork(
                _interpret(engine, f"{name}.{step}", op[1], events, queues,
                           log, moved),
                name=f"{name}.{step}")
            children.append(child)
            value = child.name
        elif children:
            value = yield Join(children.pop())
        log.append((name, step, kind, engine.now, value))
    return name, engine.now


def _drain(engine, name, queue, period, log):
    """A daemon that consumes ``queue`` forever, parking when it is empty."""
    while True:
        item = yield Get(queue)
        log.append((name, "got", engine.now, item))
        yield Delay(period)


@st.composite
def engine_runs(draw):
    """Processes, daemons, an engine limit and a sequence of run calls."""
    programs = draw(st.lists(_ops, min_size=1, max_size=5))
    daemons = draw(st.lists(st.tuples(st.integers(0, _QUEUES - 1), _cycles),
                            max_size=2))
    capacities = draw(st.lists(st.integers(1, 3), min_size=_QUEUES,
                               max_size=_QUEUES))
    max_cycles = draw(st.sampled_from([8, 20, 1000]))
    calls = draw(st.lists(st.one_of(
        st.just(("run",)),
        st.tuples(st.just("until"), st.integers(0, 30)),
        st.just(("complete",)),
    ), min_size=1, max_size=3))
    # Tracing turns advance() off, so both settings are exercised.
    trace = draw(st.booleans())
    return programs, daemons, capacities, max_cycles, calls, trace


def _drive(engine_class, moved, programs, daemons, capacities, max_cycles,
           calls, trace):
    """Run one generated process set; return everything observable.

    ``moved[0]`` is increased by the number of granted ``advance`` ops.
    """
    engine = engine_class(max_cycles=max_cycles, trace=trace)
    events = [engine.event(f"e{index}") for index in range(_EVENTS)]
    queues = [DecoupledQueue(engine, capacity, name=f"q{index}")
              for index, capacity in enumerate(capacities)]
    log = []
    processes = [
        engine.spawn(_interpret(engine, f"p{index}", ops, events, queues,
                                log, moved), name=f"p{index}")
        for index, ops in enumerate(programs)
    ]
    for index, (queue, period) in enumerate(daemons):
        engine.spawn(_drain(engine, f"d{index}", queues[queue], period, log),
                     name=f"d{index}", daemon=True)
    outcomes = []
    for call in calls:
        try:
            if call[0] == "run":
                outcomes.append(engine.run())
            elif call[0] == "until":
                outcomes.append(engine.run(until=call[1]))
            else:
                outcomes.append(engine.run_until_complete(processes))
        except SimulationError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            break
    return (outcomes, engine.now, engine.trace_log, log,
            [(process.finished, process.result) for process in processes])


def test_run_ahead_matches_reference_loop():
    moved = [0]

    @settings(max_examples=400, deadline=None)
    @given(engine_runs())
    def check(run):
        assert _drive(Engine, moved, *run) == \
            _drive(ReferenceEngine, [0], *run)

    check()
    # The generated runs must really have advanced in place.
    assert moved[0] > 0


@st.composite
def runtime_runs(draw):
    """A small program for any runtime, on random worker counts."""
    num_tasks = draw(st.integers(min_value=1, max_value=12))
    tasks = []
    for index in range(num_tasks):
        accesses = draw(st.dictionaries(st.integers(0, 5), directions,
                                        max_size=4))
        tasks.append(Task(
            index=index,
            payload_cycles=draw(st.integers(0, 3000)),
            dependences=tuple(TaskDependence(0x9000_0000 + 64 * slot, how)
                              for slot, how in sorted(accesses.items())),
        ))
    taskwaits = draw(st.lists(st.integers(0, num_tasks - 1), max_size=2,
                              unique=True))
    program = TaskProgram(name="ahead", tasks=tasks,
                          taskwait_after=set(taskwaits))
    return program, draw(st.integers(1, 4))


def _run_on(engine_class, runtime_name, program, workers,
            directory_class=CoherenceDirectory):
    """``program`` on ``runtime_name`` with the SoC built on
    ``engine_class`` and ``directory_class``; the result, or the failure
    as ``(class, message)``."""
    config = SimConfig(max_cycles=2_000_000)
    runtime = registry.runtime(runtime_name).cls(config)
    try:
        with mock.patch("repro.cpu.soc.Engine", engine_class), \
                mock.patch("repro.memory.hierarchy.CoherenceDirectory",
                           directory_class):
            return runtime.run(program, num_workers=workers)
    except SimulationError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None)
@given(runtime_runs())
def test_runtimes_match_reference_loop(run):
    program, workers = run
    for runtime_name in registry.RUNTIMES.names():
        reference = _run_on(ReferenceEngine, runtime_name, program, workers)
        ahead = _run_on(Engine, runtime_name, program, workers)
        assert ahead == reference, runtime_name
        if isinstance(reference, RuntimeResult):
            # Same values, and the same first-touch order the reports keep.
            assert list(ahead.stats.items()) == list(reference.stats.items())


class _ReferenceCyclesDirectory(ReferenceDirectory):
    """``ReferenceDirectory`` answering each access with its cycles, as
    the memory system expects of a directory."""

    def access(self, core, line, kind):
        return super().access(core, line, kind).cycles


@settings(max_examples=40, deadline=None)
@given(runtime_runs())
def test_nanos_sw_memory_counters_match_reference_directory(run):
    program, workers = run
    tallied = _run_on(Engine, "nanos-sw", program, workers)
    reference = _run_on(Engine, "nanos-sw", program, workers,
                        _ReferenceCyclesDirectory)
    assert tallied == reference
    if isinstance(reference, RuntimeResult):
        # ``stats`` is ``SoC.stats_report()``: the ``memory`` counters must
        # keep the values and first-touch order of per-access counting.
        memory = [item for item in tallied.stats.items()
                  if item[0].startswith("memory.")]
        assert memory == [item for item in reference.stats.items()
                          if item[0].startswith("memory.")]
        assert memory
