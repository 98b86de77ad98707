"""Tests for Picos Manager: submission handling, work fetch, retirement."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.common.config import PicosCosts
from repro.common.errors import ProtocolError
from repro.manager.manager import ManagerError, PicosManager
from repro.manager.submission import PendingSubmission, SubmissionHandler
from repro.picos.device import PicosDevice
from repro.picos.packets import (
    Direction,
    TaskDependence,
    TaskDescriptor,
    encode_descriptor,
    encode_nonzero_packets,
)
from repro.sim.engine import Delay, Engine, Put
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
        taken = []
        take_zero_packets = PicosDevice.take_zero_packets

        def recorded(device, count):
            taken.append((count, device.engine.now))
            return take_zero_packets(device, count)

        monkeypatch.setattr(PicosDevice, "take_zero_packets", recorded)
        engine, device, manager = build(num_cores=1,
                                        submission_packet_cycles=2)
        descriptor = TaskDescriptor(
            sw_id=5, dependences=(TaskDependence(0x100, Direction.OUT),)
        )
        feed_descriptor(manager, 0, descriptor)
        run_for(engine, 3_000)
        # The six non-zero packets took 12 cycles; the 41 zero packets but
        # the last moved in one step, and the last woke the inserter.
        assert taken == [(48 - 6 - 1, 12)]
        assert device.stats.counter("submission_packets") == 48
        assert device.graph.total_submitted == 1

    def test_zero_run_keeps_per_packet_steps_around_a_pending_event(self):
        engine, device, manager = build(num_cores=1,
                                        submission_packet_cycles=1)
        descriptor = TaskDescriptor(
            sw_id=5, dependences=(TaskDependence(0x100, Direction.OUT),)
        )
        feed_descriptor(manager, 0, descriptor)
        lengths = []

        def sampler():
            for _ in range(60):
                yield Delay(1)
                lengths.append(len(device._partial))

        engine.run_until_complete([engine.spawn(sampler())])
        # Another process is always due within the run, so the pump keeps
        # to one packet per cycle and that process sees each one arrive.
        assert max(lengths) == 47
        assert all(later - earlier <= 1
                   for earlier, later in zip(lengths, lengths[1:])
                   if later)
        assert device.stats.counter("submission_packets") == 48

    def test_zero_run_fills_the_queue_while_the_inserter_stalls(
            self, monkeypatch):
        fills = []
        take_zero_packets = PicosDevice.take_zero_packets

        def recorded(device, count):
            waiting = bool(device.submission_queue._get_waiters)
            taken = take_zero_packets(device, count)
            if taken and not waiting:
                fills.append(device._slot_freed is not None)
            return taken

        monkeypatch.setattr(PicosDevice, "take_zero_packets", recorded)
        fast = _stall_then_drain(queue_depth=64)
        reference = _stall_then_drain(queue_depth=64, per_packet=True)
        # Zeros went into the queue in one step while the inserter was
        # parked on the full station (and while it was busy).
        assert True in fills
        assert fast == reference

    def test_lockstep_drain_matches_the_per_packet_pair(self, monkeypatch):
        steps = _record_lockstep(monkeypatch)
        fast = _stall_then_drain()
        reference = _stall_then_drain(per_packet=True)
        assert steps and all(count > 0 for count, _ in steps)
        assert fast == reference

    def test_lockstep_drain_never_ends_a_descriptor_or_the_grant(
            self, monkeypatch):
        steps = _record_lockstep(monkeypatch)
        _stall_then_drain()
        # Every step stopped short of the inserter's 48th packet and of
        # the pump's last one: the pump is still blocked on a put, so it
        # has not transferred the beat that ends its grant.
        assert steps
        for _, (partial, zeros, blocked) in steps:
            assert partial < 48
            assert zeros >= 0
            assert blocked

    def test_lockstep_drain_keeps_per_packet_steps_around_an_event(
            self, monkeypatch):
        steps = _record_lockstep(monkeypatch)
        fast = _stall_then_drain(sampled=True)
        reference = _stall_then_drain(sampled=True, per_packet=True)
        # Another process is due every cycle, so no cycle runs in place.
        assert steps == []
        assert fast == reference

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
        assert manager.submission_handler.arbiter.sequences_completed == 2

    def test_announcement_validation(self):
        with pytest.raises(ProtocolError):
            PendingSubmission(core_id=0, nonzero_packets=2)
        with pytest.raises(ProtocolError):
            PendingSubmission(core_id=0, nonzero_packets=49)
        with pytest.raises(ProtocolError):
            PendingSubmission(core_id=0, nonzero_packets=7)

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
        buffer = manager.submission_handler._buffers[0]
        while buffer.capacity - len(buffer) >= 3:
            assert manager.submit_packets(0, (1, 2, 3))
        before = len(buffer)
        assert not manager.submit_packets(0, (4, 5, 6))
        assert len(buffer) == before

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


def _record_lockstep(monkeypatch):
    """Record each lockstep step the inserter takes as ``(cycles run,
    (partial length, zeros left, pump still blocked))`` just after it."""
    steps = []
    drain_in_place = PicosDevice._drain_in_place

    def recorded(device):
        zeros = device.padder_zeros
        drain_in_place(device)
        if device.padder_zeros != zeros:
            blocked = bool(device.submission_queue._put_waiters)
            steps.append((zeros - device.padder_zeros,
                          (len(device._partial), device.padder_zeros,
                           blocked)))

    monkeypatch.setattr(PicosDevice, "_drain_in_place", recorded)
    return steps


def _stall_then_drain(queue_depth=8, per_packet=False, sampled=False):
    """A one-task station with the inserter parked on the second of two
    descriptors streamed straight into the queue, until the first retires
    at cycle 400.  A third descriptor, from a pump from cycle 200, backs
    up behind the stall: with an 8-packet queue its Zero Padder blocks on the full
    queue, and the inserter then drains it in lockstep.  Returns every
    counter the two pump/inserter pairs must agree on."""
    engine = Engine()
    costs = PicosCosts(max_in_flight_tasks=1,
                       submission_queue_depth=queue_depth)
    device_class = PerPacketPicosDevice if per_packet else PicosDevice
    device = device_class(engine, costs)
    accepted = []
    device.graph = AcceptLog(costs.max_in_flight_tasks, engine, accepted)
    handler_class = (PerPacketSubmissionHandler if per_packet
                     else SubmissionHandler)
    with mock.patch("repro.manager.submission.SubmissionHandler",
                    handler_class):
        manager = PicosManager(engine, device, 1, costs)
    arbiter = manager.submission_handler.arbiter

    def feeder():
        # The first two straight into the queue, and the third only once
        # the inserter has stalled on the second, so that no packet of the
        # third finds the inserter parked on an empty queue.
        for sw_id in (1, 2):
            for packet in encode_descriptor(_one_dependence(sw_id)):
                yield Put(device.submission_queue, packet)
        yield Delay(200 - engine.now)
        assert device._slot_freed is not None
        feed_descriptor(manager, 0, _one_dependence(3))
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
    queue = device.submission_queue
    return (engine.now, accepted, queue.total_enqueued, queue.total_dequeued,
            queue.high_watermark, queue.snapshot(),
            list(device.stats.items()), arbiter.remaining_beats,
            arbiter.sequences_completed)


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
        assert manager.work_fetch.encoder.stats.counter(
            "ready_entries_encoded") == 1

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
