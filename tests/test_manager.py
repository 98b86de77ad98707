"""Tests for Picos Manager: submission handling, work fetch, retirement."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.common.config import PicosCosts
from repro.common.errors import DeadlockError, ProtocolError
from repro.manager.manager import ManagerError, PicosManager
from repro.manager.submission import SubmissionStream, check_announcement
from repro.manager.workfetch import WorkFetchUnit
from repro.picos.device import PicosDevice, ReadyTask
from repro.picos.packets import (
    Direction,
    TaskDependence,
    TaskDescriptor,
    encode_nonzero_packets,
)
from repro.sim.engine import Delay, Engine, Put, Wait
from tests.helpers import (AcceptLog, PerPacketPicosDevice,
                           PerPacketSubmissionHandler)


def build(num_cores=2, **cost_overrides):
    engine = Engine()
    costs = PicosCosts(**cost_overrides) if cost_overrides else PicosCosts()
    device = PicosDevice(engine, costs)
    manager = PicosManager(engine, device, num_cores, costs)
    return engine, device, manager


def feed_descriptor(manager, core_id, descriptor):
    """Announce and buffer one descriptor's non-zero packets from a core."""
    packets = encode_nonzero_packets(descriptor)
    assert manager.announce_submission(core_id, len(packets))
    for offset in range(0, len(packets), 3):
        assert manager.submit_packets(core_id, packets[offset:offset + 3])
    return packets


def run_for(engine, cycles):
    def idler():
        yield Delay(cycles)

    process = engine.spawn(idler(), name="idler")
    engine.run_until_complete([process])


def drain_core_ready(manager, core_id):
    entries = []
    queue = manager.core_ready_queue(core_id)
    while queue.valid:
        entries.append(queue.try_get())
    return entries


class TestSubmissionHandler:
    def test_zero_padding_completes_48_packets(self):
        engine, device, manager = build()
        descriptor = TaskDescriptor(
            sw_id=5, dependences=(TaskDependence(0x100, Direction.OUT),)
        )
        feed_descriptor(manager, 0, descriptor)
        run_for(engine, 3_000)
        handler = manager.submission_handler
        assert handler.stats.counter("descriptors_forwarded") == 1
        assert handler.stats.counter("zero_packets_padded") == 48 - 6
        assert device.stats.counter("submission_packets") == 48
        assert device.graph.total_submitted == 1

    def test_zero_run_moves_in_one_step_into_a_parked_inserter(
            self, monkeypatch):
        resumes = _count_stream_resumes(monkeypatch)
        stream = _one_descriptor(submission_packet_cycles=2)
        stepped = _one_descriptor(submission_packet_cycles=2, stepped=True)
        # The six non-zero packets and the 42 zeros are evaluated, not
        # stepped: the stream's process wakes when the descriptor is
        # complete, sleeps to the cycle Picos takes its last packet, waits
        # out that packet's step, and inserts, as the stepped pipeline does.
        assert stream == stepped
        assert resumes == [4]

    def test_zero_run_matches_with_an_event_due_every_cycle(
            self, monkeypatch):
        resumes = _count_stream_resumes(monkeypatch)
        stream = _one_descriptor(sampled=True)
        stepped = _one_descriptor(sampled=True, stepped=True)
        # Another process is due in every cycle; the stream still takes
        # no packet step, and only waits for the end of the cycles in
        # which it runs.
        assert stream == stepped
        assert 4 <= resumes[0] <= 6

    def test_zero_run_fills_the_queue_while_the_inserter_stalls(self):
        assert (_stall_then_drain(queue_depth=64)
                == _stall_then_drain(queue_depth=64, stepped=True))

    def test_lockstep_drain_matches_the_per_packet_pair(self):
        assert _stall_then_drain() == _stall_then_drain(stepped=True)

    def test_full_queue_run_matches_with_an_event_each_cycle(self):
        assert (_stall_then_drain(sampled=True)
                == _stall_then_drain(sampled=True, stepped=True))

    def test_deadlock_is_reported_at_the_last_packet_step(self):
        # The one-task station fills with the first task and never drains:
        # Picos parks on the second, and the pump puts the third into the
        # queue after every other process has stopped.
        assert (_never_retiring(stepped=False)
                == _never_retiring(stepped=True))

    def test_push_in_the_freeing_cycle_meets_the_full_buffer(self):
        # A 15-dependence prefix (48 words) outgrows the 16-word buffer,
        # and a pump frees one word per cycle: a push in a cycle in which
        # the pump takes a word runs before that take, as the delegate's
        # handshake puts it among the cycle's first steps.
        engine, device, manager = build(num_cores=1)
        handler = manager.submission_handler
        descriptor = TaskDescriptor(sw_id=3, dependences=tuple(
            TaskDependence(0x1000 + 64 * slot, Direction.OUT)
            for slot in range(15)))
        packets = encode_nonzero_packets(descriptor)
        assert manager.announce_submission(0, len(packets))
        outcomes = []

        def core():
            offset = 0
            while offset < len(packets):
                accepted = manager.submit_packets(
                    0, packets[offset:offset + 3])
                outcomes.append((engine.now, accepted))
                offset += 3 if accepted else 0
                yield Delay(1)

        engine.run_until_complete([engine.spawn(core(), name="core")])
        run_for(engine, 1_000)
        assert device.graph.total_submitted == 1
        assert handler.refused_as_room_frees > 0
        # The buffer frees a word per cycle, so a refused push is retried
        # within three cycles and no push waits for a whole descriptor.
        refused = [cycle for cycle, accepted in outcomes if not accepted]
        assert refused and len(refused) < 3 * len(outcomes)

    def test_submissions_from_different_cores_do_not_interleave(self):
        engine, device, manager = build()
        first = TaskDescriptor(sw_id=1,
                               dependences=(TaskDependence(0x100, Direction.OUT),))
        second = TaskDescriptor(sw_id=2,
                                dependences=(TaskDependence(0x200, Direction.OUT),))
        feed_descriptor(manager, 0, first)
        feed_descriptor(manager, 1, second)
        run_for(engine, 6_000)
        # Both descriptors decoded correctly means no packet interleaving.
        assert device.graph.total_submitted == 2
        assert sorted(device._sw_ids.values()) == [1, 2]
        handler = manager.submission_handler
        assert handler.stats.counter("descriptors_forwarded") == 2

    def test_announcement_validation(self):
        with pytest.raises(ProtocolError, match="between 3 and 48 packets, "
                                                "got 2"):
            check_announcement(2)
        with pytest.raises(ProtocolError, match="between 3 and 48 packets, "
                                                "got 49"):
            check_announcement(49)
        with pytest.raises(ProtocolError, match="multiple of three, got 7"):
            check_announcement(7)
        check_announcement(48)

    def test_announce_overflow_reports_failure_and_error_flag(self):
        engine, device, manager = build()
        # The per-core announcement queue holds two outstanding requests.
        assert manager.announce_submission(0, 3)
        assert manager.announce_submission(0, 3)
        assert not manager.announce_submission(0, 3)
        assert ManagerError.SUBMISSION_OVERFLOW in manager.error_register
        manager.clear_errors()
        assert manager.error_register is ManagerError.NONE

    def test_packet_buffer_overflow_is_non_blocking(self):
        engine, device, manager = build()
        manager.announce_submission(0, 48)
        accepted = 0
        while manager.submit_packet(0, 0xAB):
            accepted += 1
            assert accepted < 1000
        assert accepted >= 3
        assert ManagerError.SUBMISSION_OVERFLOW in manager.error_register

    def test_submit_three_packets_is_all_or_nothing(self):
        engine, device, manager = build()
        manager.announce_submission(0, 48)
        stats = manager.submission_handler.stats
        triples = 0
        while manager.submit_packets(0, (1, 2, 3)):
            triples += 1
        # Five triples fill 15 of the 16 words; the sixth does not fit and
        # buffers nothing.
        assert triples == 5
        assert not manager.submit_packets(0, (4, 5, 6))
        assert stats.counter("packets_buffered") == 15

    def test_core_bounds_checked(self):
        engine, device, manager = build(num_cores=2)
        with pytest.raises(ProtocolError):
            manager.submit_packet(5, 0)
        with pytest.raises(ProtocolError):
            manager.retirement_queue(7)


def _one_dependence(sw_id):
    return TaskDescriptor(
        sw_id=sw_id, dependences=(TaskDependence(0x100 * sw_id, Direction.OUT),)
    )


def _count_stream_resumes(monkeypatch):
    """Count, per stream, how often the engine resumes its process."""
    resumes = []
    run = SubmissionStream._run

    def counted(stream):
        index = len(resumes)
        resumes.append(0)
        inner = run(stream)
        value = None
        while True:
            command = inner.send(value)
            resumes[index] += 1
            value = yield command

    monkeypatch.setattr(SubmissionStream, "_run", counted)
    return resumes


def _device(engine, costs, stepped):
    """A Picos device, with its own per-packet intake when ``stepped``."""
    return (PerPacketPicosDevice if stepped else PicosDevice)(engine, costs)


def _manager(engine, device, num_cores, costs, stepped):
    """A Picos Manager whose Submission Handler is the per-packet reference
    when ``stepped``, else the submission stream."""
    handler = PerPacketSubmissionHandler if stepped else SubmissionStream
    with mock.patch("repro.manager.submission.SubmissionStream", handler):
        return PicosManager(engine, device, num_cores, costs)


def _one_descriptor(stepped=False, sampled=False, **costs):
    """One single-dependence descriptor from core 0; returns the accept
    cycles and every stat the two packet paths must agree on."""
    engine = Engine()
    costs = PicosCosts(**costs)
    device = _device(engine, costs, stepped)
    accepted = []
    device.graph = AcceptLog(costs.max_in_flight_tasks, engine, accepted)
    manager = _manager(engine, device, 1, costs, stepped)
    feed_descriptor(manager, 0, _one_dependence(5))
    if sampled:
        def sampler():
            for _ in range(200):
                yield Delay(1)

        engine.run_until_complete([engine.spawn(sampler(), name="sampler")])
    run_for(engine, 3_000)
    return (engine.now, accepted, list(device.stats.items()),
            list(manager.submission_handler.stats.items()))


def _never_retiring(stepped):
    """Three descriptors from core 0 into a one-task station that never
    drains, and a process waiting for nothing; returns the deadlock."""
    engine = Engine()
    costs = PicosCosts(max_in_flight_tasks=1)
    device = _device(engine, costs, stepped)
    manager = _manager(engine, device, 1, costs, stepped)

    def core():
        for sw_id in (1, 2, 3):
            packets = encode_nonzero_packets(_one_dependence(sw_id))
            yield Delay(3)
            assert manager.announce_submission(0, len(packets))
            for offset in range(0, len(packets), 3):
                yield Delay(3)
                while not manager.submit_packets(0,
                                                 packets[offset:offset + 3]):
                    yield Delay(3)
        yield Wait(engine.event("never"))

    with pytest.raises(DeadlockError) as error:
        engine.run_until_complete([engine.spawn(core(), name="core")])
    return str(error.value), device.graph.total_submitted


def _stall_then_drain(queue_depth=8, stepped=False, sampled=False):
    """A one-task station with Picos parked on the second of two
    descriptors from core 0 until the first retires at cycle 400.  A third
    descriptor, from core 1 at cycle 200, backs up behind the stall: with
    an 8-packet queue its Zero Padder meets the full queue, and then runs
    against Picos's takes.  Returns every counter the two packet paths
    must agree on."""
    engine = Engine()
    costs = PicosCosts(max_in_flight_tasks=1,
                       submission_queue_depth=queue_depth)
    device = _device(engine, costs, stepped)
    accepted = []
    device.graph = AcceptLog(costs.max_in_flight_tasks, engine, accepted)
    manager = _manager(engine, device, 2, costs, stepped)

    def feeder():
        for sw_id in (1, 2):
            feed_descriptor(manager, 0, _one_dependence(sw_id))
        yield Delay(200 - engine.now)
        assert device._slot_freed is not None
        feed_descriptor(manager, 1, _one_dependence(3))
        yield Delay(400 - engine.now)
        first = next(pid for pid, sw in device._sw_ids.items() if sw == 1)
        assert device.retirement_queue.try_put(first)

    processes = [engine.spawn(feeder(), name="feeder")]
    if sampled:
        def sampler():
            for _ in range(1_000):
                yield Delay(1)

        processes.append(engine.spawn(sampler(), name="sampler"))
    engine.run_until_complete(processes)
    run_for(engine, 2_000)
    return (engine.now, accepted, list(device.stats.items()),
            list(manager.submission_handler.stats.items()))


class TestWorkFetchPath:
    def _submit_ready_task(self, engine, manager, sw_id=11):
        descriptor = TaskDescriptor(
            sw_id=sw_id, dependences=(TaskDependence(0x100 + sw_id * 64,
                                                     Direction.OUT),)
        )
        feed_descriptor(manager, 0, descriptor)
        run_for(engine, 3_000)

    def test_ready_task_routed_to_requesting_core(self):
        engine, device, manager = build()
        self._submit_ready_task(engine, manager)
        assert manager.request_ready_task(1)
        run_for(engine, 1_000)
        entries = drain_core_ready(manager, 1)
        assert len(entries) == 1
        assert entries[0].sw_id == 11
        assert drain_core_ready(manager, 0) == []

    def test_requests_served_in_chronological_order(self):
        engine, device, manager = build()
        # Requests arrive before any ready task exists.
        assert manager.request_ready_task(1)
        assert manager.request_ready_task(0)
        self._submit_ready_task(engine, manager, sw_id=21)
        self._submit_ready_task(engine, manager, sw_id=22)
        run_for(engine, 3_000)
        first = drain_core_ready(manager, 1)
        second = drain_core_ready(manager, 0)
        assert [e.sw_id for e in first] == [21]
        assert [e.sw_id for e in second] == [22]

    def test_packet_encoder_counts_entries(self):
        engine, device, manager = build()
        self._submit_ready_task(engine, manager)
        run_for(engine, 1_000)
        # One RoCC Ready Queue entry for the task, whose Picos slot is free.
        assert manager.work_fetch.rocc_ready_queue.total_enqueued == 1
        assert device.ready_queue.total_dequeued == 1
        assert device._ready_slots == 0

    def test_serves_requests_in_arrival_order(self):
        engine = Engine()
        costs = PicosCosts()
        work_fetch = WorkFetchUnit(engine, PicosDevice(engine, costs), 3,
                                   costs)
        # Requests arrive before any ready entry exists.
        for core_id in (2, 0, 1):
            assert work_fetch.request_ready_task(core_id)

        def producer():
            yield Delay(10)
            for sw_id in (10, 11, 12):
                yield Put(work_fetch.rocc_ready_queue, ReadyTask(sw_id, sw_id))

        engine.spawn(producer())
        engine.run()
        served = [[entry.sw_id for entry in queue.snapshot()]
                  for queue in work_fetch.core_ready_queues]
        assert served == [[11], [12], [10]]

    def test_later_request_never_overtakes_earlier_one(self):
        engine = Engine()
        costs = PicosCosts()
        work_fetch = WorkFetchUnit(engine, PicosDevice(engine, costs), 2,
                                   costs)
        served = {}
        for core_id, queue in enumerate(work_fetch.core_ready_queues):
            queue.subscribe_enqueue(
                lambda core_id=core_id: served.setdefault(core_id, engine.now))
        assert work_fetch.request_ready_task(0)
        assert work_fetch.request_ready_task(1)
        work_fetch.rocc_ready_queue.try_put(ReadyTask(1, 1))

        def late_producer():
            yield Delay(50)
            yield Put(work_fetch.rocc_ready_queue, ReadyTask(2, 2))

        engine.spawn(late_producer())
        engine.run()
        assert served[0] < served[1]
        assert served[1] >= 50

    def test_notify_task_started_marks_graph(self):
        engine, device, manager = build()
        self._submit_ready_task(engine, manager)
        manager.request_ready_task(0)
        run_for(engine, 1_000)
        entry = drain_core_ready(manager, 0)[0]
        manager.notify_task_started(entry.picos_id)
        from repro.picos.dependence import TaskState
        assert device.graph.task(entry.picos_id).state is TaskState.RUNNING

    def test_routing_queue_overflow_returns_failure(self):
        engine, device, manager = build()
        accepted = 0
        while manager.request_ready_task(0):
            accepted += 1
            assert accepted < 1000
        assert ManagerError.READY_OVERFLOW in manager.error_register


class TestRetirementPath:
    def test_retirements_reach_picos_via_round_robin(self):
        engine, device, manager = build()
        descriptor = TaskDescriptor(
            sw_id=1, dependences=(TaskDependence(0x900, Direction.INOUT),)
        )
        dependent = TaskDescriptor(
            sw_id=2, dependences=(TaskDependence(0x900, Direction.INOUT),)
        )
        feed_descriptor(manager, 0, descriptor)
        feed_descriptor(manager, 0, dependent)
        run_for(engine, 6_000)
        manager.request_ready_task(0)
        run_for(engine, 1_000)
        entry = drain_core_ready(manager, 0)[0]
        manager.notify_task_started(entry.picos_id)
        assert manager.retirement_queue(0).try_put(entry.picos_id)
        run_for(engine, 2_000)
        assert device.graph.total_retired == 1
        # The dependent task became ready and can now be fetched.
        manager.request_ready_task(1)
        run_for(engine, 1_000)
        assert [e.sw_id for e in drain_core_ready(manager, 1)] == [2]

    def test_manager_requires_positive_core_count(self):
        engine = Engine()
        device = PicosDevice(engine, PicosCosts())
        with pytest.raises(ProtocolError):
            PicosManager(engine, device, 0, PicosCosts())
