"""Tests for the Picos device model (queues, pipelines, back-pressure)."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.apps.granularity import task_free_program
from repro.common.config import PicosCosts, SimConfig
from repro.common.errors import DeadlockError
from repro.manager.submission import SubmissionStream
from repro.picos.dependence import TaskGraph
from repro.picos.device import PicosDevice
from repro.picos.packets import Direction, TaskDependence, TaskDescriptor, \
    encode_descriptor
from repro.runtime.nanos import NanosAXIRuntime
from repro.runtime.phentos import PhentosRuntime
from repro.sim.engine import Delay, Engine, Put
from tests.helpers import PollingPicosDevice, picos_config


def make_device(engine, **overrides):
    costs = PicosCosts(**overrides) if overrides else PicosCosts()
    return PicosDevice(engine, costs)


def submit(engine, device, *descriptors):
    """Write full 48-packet descriptors into the device's submission queue
    (once per device), as the Picos++ DMA does.

    Descriptors are written back to back by a single process because the
    raw Picos interface requires submissions not to interleave — in the full
    system that atomicity is enforced by the Submission Handler.
    """
    intake = SubmissionStream(engine, device, 0, device.costs,
                              name=f"{device.name}.submission")

    def feeder():
        for descriptor in descriptors:
            yield Put(intake, encode_descriptor(descriptor))

    return engine.spawn(feeder(), name="feeder")


def drain_ready(device):
    """Pop every ready task currently in the ready queue, freeing each
    one's slot as a consumer that read it whole does."""
    ready = []
    while device.ready_queue.valid:
        ready.append(device.ready_queue.try_get())
        device.release_ready_slot()
    return ready


def descriptor_with(sw_id, *deps):
    return TaskDescriptor(sw_id=sw_id, dependences=tuple(deps))


IN = Direction.IN
OUT = Direction.OUT


class TestSubmissionPipeline:
    def test_independent_task_becomes_ready(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device, descriptor_with(42, TaskDependence(0x100, OUT)))
        engine.run(until=2_000)
        ready = drain_ready(device)
        assert len(ready) == 1
        assert ready[0].sw_id == 42
        assert device.graph.total_submitted == 1
        assert device.stats.counter("ready_tasks_emitted") == 1

    def test_submission_takes_at_least_48_packet_cycles(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device, descriptor_with(1))
        engine.run(until=5_000)
        # 48 packets at one per cycle plus insertion latency.
        assert device.stats.counter("submission_packets") == 48
        assert device.stats.counter("tasks_accepted") == 1

    def test_dependent_task_not_ready_until_retirement(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device,
               descriptor_with(0, TaskDependence(0x200, OUT)),
               descriptor_with(1, TaskDependence(0x200, IN)))
        engine.run(until=5_000)
        ready = drain_ready(device)
        assert [r.sw_id for r in ready] == [0]
        picos_id = ready[0].picos_id
        device.graph.mark_running(picos_id)

        def retire():
            yield Put(device.retirement_queue, picos_id)

        engine.spawn(retire())
        engine.run(until=10_000)
        woken = drain_ready(device)
        assert [r.sw_id for r in woken] == [1]
        assert device.graph.total_retired == 1

    def test_sw_id_lookup(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device, descriptor_with(99))
        engine.run(until=2_000)
        ready = drain_ready(device)[0]
        assert device.sw_id_of(ready.picos_id) == 99
        from repro.common.errors import PicosError
        with pytest.raises(PicosError):
            device.sw_id_of(12345)

    def test_many_tasks_flow_through(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device,
               *(descriptor_with(index, TaskDependence(0x1000 + 64 * index, OUT))
                 for index in range(10)))

        consumed = []

        def consumer():
            while len(consumed) < 10:
                consumed.extend(ready.sw_id for ready in drain_ready(device))
                yield Delay(5)

        process = engine.spawn(consumer())
        engine.run_until_complete([process])
        assert sorted(consumed) == list(range(10))


class TestCapacityBackpressure:
    def test_reservation_station_limits_in_flight_tasks(self):
        engine = Engine()
        device = make_device(engine, max_in_flight_tasks=4,
                             submission_queue_depth=8)
        submit(engine, device, *(descriptor_with(index) for index in range(6)))
        engine.run(until=20_000)
        assert device.in_flight_tasks == 4
        # Retiring one frees a slot for the next buffered descriptor.
        ready = drain_ready(device)
        first = ready[0]
        device.graph.mark_running(first.picos_id)

        def retire():
            yield Put(device.retirement_queue, first.picos_id)

        engine.spawn(retire())
        engine.run(until=40_000)
        assert device.graph.total_submitted >= 5

    def test_ready_queue_backpressure_defers_emission(self):
        engine = Engine()
        # Tiny ready queue: only one task fits at a time.
        device = make_device(engine, ready_queue_depth=1)
        submit(engine, device, *(descriptor_with(index) for index in range(4)))
        engine.run(until=20_000)
        assert len(device.ready_queue) == 1
        assert len(device._ready_backlog) >= 1
        drained = drain_ready(device)
        engine.run(until=40_000)
        drained += drain_ready(device)
        engine.run(until=60_000)
        drained += drain_ready(device)
        assert len(drained) >= 3

    def test_taken_task_holds_its_slot_until_released(self):
        # The consumer frees a slot when it has read the task's last
        # packet, which may be cycles after it took the entry.
        engine = Engine()
        device = make_device(engine, ready_queue_depth=1)
        submit(engine, device, descriptor_with(0), descriptor_with(1))
        engine.run(until=2_000)
        first = device.ready_queue.try_get()
        engine.run(until=4_000)
        assert not device.ready_queue.valid
        assert len(device._ready_backlog) == 1
        device.release_ready_slot()
        engine.run(until=engine.now + device.costs.ready_emit_cycles)
        assert [first.sw_id] + [ready.sw_id for ready in drain_ready(device)] \
            == [0, 1]


def count_capacity_checks(device_class, config, program, workers):
    """``(result, TaskGraph.has_capacity calls)`` of one Phentos run."""
    has_capacity = TaskGraph.has_capacity
    with mock.patch("repro.cpu.soc.PicosDevice", device_class), \
            mock.patch.object(TaskGraph, "has_capacity", autospec=True,
                              side_effect=has_capacity) as checks:
        result = PhentosRuntime(config).run(program, num_workers=workers)
    return result, checks.call_count


class TestEventDrivenBackpressure:
    def test_capacity_bound_run_checks_capacity_twice_per_task(self):
        # Once in the inserter and once in TaskGraph.submit, however long
        # the station stays full: a timed spin would scale with the stall.
        config = picos_config(max_in_flight_tasks=2)
        program = task_free_program(40, 1, 20_000)
        result, checks = count_capacity_checks(PicosDevice, config, program, 2)
        assert result.tasks_executed == 40
        assert checks <= 2 * 40
        polled, polls = count_capacity_checks(PollingPicosDevice, config,
                                              program, 2)
        assert polled == result
        assert polls > 10 * checks      # the run really is capacity-bound

    def test_zero_retire_cycles_resumes_in_the_freeing_cycle(self):
        # A station full at retire_cycles=0 used to re-check in the same
        # cycle forever.
        config = picos_config(retire_cycles=0, max_in_flight_tasks=2)
        result = PhentosRuntime(config).run(task_free_program(20, 1),
                                            num_workers=2)
        assert result.tasks_executed == 20
        assert result.stats["picos.tasks_retired"] == 20

    def test_station_that_never_drains_is_a_deadlock(self):
        engine = Engine()
        device = make_device(engine, max_in_flight_tasks=1,
                             submission_queue_depth=8)
        # Nothing retires: the second descriptor parks the inserter and the
        # third backs up the submission queue until the feeder's put blocks.
        submit(engine, device, *(descriptor_with(index) for index in range(3)))
        with pytest.raises(DeadlockError,
                           match=r"feeder\[put\(SubmissionStream\('picos\."
                                 r"submission', 8/8\)\)\]"):
            engine.run()
        assert device.in_flight_tasks == 1

    def test_nanos_axi_role_switch_on_a_full_station(self):
        # Task-Free with 1 dependence fills the 256-entry station from 257
        # tasks on.  On one worker the main thread is the only one that
        # can retire, so it runs ready tasks while Picos cannot take the
        # next descriptor instead of blocking in the DMA stream.
        result = NanosAXIRuntime(SimConfig()).run(task_free_program(260, 1),
                                                  num_workers=1)
        assert result.tasks_executed == 260
        assert result.stats["picos.tasks_retired"] == 260


class TestRetirementPipeline:
    def test_retirement_of_chain_wakes_one_at_a_time(self):
        engine = Engine()
        device = make_device(engine)
        submit(engine, device,
               *(descriptor_with(index, TaskDependence(0x500, Direction.INOUT))
                 for index in range(3)))
        engine.run(until=10_000)
        order = []
        for _ in range(3):
            ready = drain_ready(device)
            assert len(ready) == 1
            order.append(ready[0].sw_id)
            device.graph.mark_running(ready[0].picos_id)

            def retire(picos_id=ready[0].picos_id):
                yield Put(device.retirement_queue, picos_id)

            engine.spawn(retire())
            engine.run(until=engine.now + 10_000)
        assert order == [0, 1, 2]
        assert device.graph.in_flight == 0
