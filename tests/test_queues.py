"""Unit tests for the decoupled (ready/valid) queue models."""

from __future__ import annotations

import pytest

from repro.common.errors import QueueError
from repro.sim.engine import Delay, Engine, Get, Put
from repro.sim.queues import DecoupledQueue, ProtocolCrossingQueue


def test_try_put_and_try_get_fifo_order():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=3)
    assert queue.try_put("a")
    assert queue.try_put("b")
    assert queue.try_put("c")
    assert not queue.try_put("overflow")
    assert queue.try_get() == "a"
    assert queue.try_get() == "b"
    assert queue.try_get() == "c"
    assert queue.try_get() is None


def test_ready_valid_flags():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=1)
    assert queue.ready and not queue.valid
    queue.try_put(1)
    assert not queue.ready and queue.valid
    assert queue.full and not queue.empty


def test_capacity_must_be_positive():
    engine = Engine()
    with pytest.raises(QueueError):
        DecoupledQueue(engine, capacity=0)


def test_peek_does_not_pop():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=2)
    queue.try_put("x")
    assert queue.peek() == "x"
    assert len(queue) == 1
    assert queue.try_get() == "x"


def test_peek_empty_raises():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=2)
    with pytest.raises(QueueError):
        queue.peek()


def test_blocking_put_waits_for_space():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=1)
    timeline = []

    def producer():
        yield Put(queue, "first")
        timeline.append(("first_put", engine.now))
        yield Put(queue, "second")
        timeline.append(("second_put", engine.now))

    def consumer():
        yield Delay(10)
        item = yield Get(queue)
        timeline.append((item, engine.now))
        item = yield Get(queue)
        timeline.append((item, engine.now))

    engine.spawn(producer())
    engine.spawn(consumer())
    engine.run()
    # The second put can only complete once the consumer drains the first.
    assert ("first_put", 0) in timeline
    assert ("second_put", 10) in timeline


def test_blocking_get_waits_for_items():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=4)
    got = []

    def consumer():
        item = yield Get(queue)
        got.append((item, engine.now))

    def producer():
        yield Delay(30)
        yield Put(queue, "late")

    engine.spawn(consumer())
    engine.spawn(producer())
    engine.run()
    assert got == [("late", 30)]


def test_multiple_getters_served_in_order():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=4)
    results = []

    def consumer(name):
        item = yield Get(queue)
        results.append((name, item))

    def producer():
        yield Delay(5)
        yield Put(queue, 1)
        yield Put(queue, 2)

    engine.spawn(consumer("first"))
    engine.spawn(consumer("second"))
    engine.spawn(producer())
    engine.run()
    assert results == [("first", 1), ("second", 2)]


def test_counters_and_watermark():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=4)
    for value in range(3):
        queue.try_put(value)
    queue.try_get()
    assert queue.total_enqueued == 3
    assert queue.total_dequeued == 1
    assert queue.high_watermark == 3
    assert queue.snapshot() == [1, 2]


def test_enqueue_and_dequeue_observers():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=4)
    events = []
    queue.subscribe_enqueue(lambda: events.append("enq"))
    queue.subscribe_dequeue(lambda: events.append("deq"))
    queue.try_put(1)
    queue.try_get()
    assert events == ["enq", "deq"]


def test_unsubscribe_observers():
    engine = Engine()
    queue = DecoupledQueue(engine, capacity=4)
    events = []

    def observer():
        events.append("enq")

    queue.subscribe_enqueue(observer)
    queue.try_put(1)
    queue.unsubscribe_enqueue(observer)
    queue.try_put(2)
    assert events == ["enq"]
    # Unsubscribing twice is a harmless no-op.
    queue.unsubscribe_enqueue(observer)


def test_protocol_crossing_delays_visibility():
    engine = Engine()
    crossing = ProtocolCrossingQueue(engine, capacity=4, delay=3)
    assert crossing.try_put("packet")
    assert crossing.empty  # not yet visible
    engine.schedule_callback(10, lambda: None)

    def prober():
        yield Delay(3)
        return crossing.try_get()

    process = engine.spawn(prober())
    engine.run()
    assert process.result == "packet"


def test_protocol_crossing_counts_in_flight_towards_capacity():
    engine = Engine()
    crossing = ProtocolCrossingQueue(engine, capacity=2, delay=5)
    assert crossing.try_put(1)
    assert crossing.try_put(2)
    assert crossing.full
    assert not crossing.try_put(3)


def test_protocol_crossing_zero_delay_behaves_like_plain_queue():
    engine = Engine()
    crossing = ProtocolCrossingQueue(engine, capacity=2, delay=0)
    crossing.try_put("x")
    assert crossing.try_get() == "x"


def test_protocol_crossing_blocking_put_and_get():
    engine = Engine()
    crossing = ProtocolCrossingQueue(engine, capacity=1, delay=2)
    collected = []

    def producer():
        yield Put(crossing, "a")
        yield Put(crossing, "b")

    def consumer():
        for _ in range(2):
            item = yield Get(crossing)
            collected.append((item, engine.now))

    engine.spawn(producer())
    engine.spawn(consumer())
    engine.run()
    assert [item for item, _ in collected] == ["a", "b"]
    # Each item needed at least the crossing delay to become visible.
    assert collected[0][1] >= 2
