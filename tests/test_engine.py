"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.common.errors import DeadlockError, SimulationError
from repro.sim.engine import (
    Charge,
    Delay,
    Engine,
    Fork,
    Get,
    Join,
    Put,
    Wait,
)
from repro.sim.queues import DecoupledQueue

from tests.helpers import ReferenceEngine


def test_delay_advances_time():
    engine = Engine()

    def proc():
        yield Delay(10)
        yield Delay(5)
        return engine.now

    process = engine.spawn(proc())
    engine.run()
    assert process.finished
    assert process.result == 15
    assert engine.now == 15


def test_zero_delay_is_allowed():
    engine = Engine()

    def proc():
        yield Delay(0)
        return "done"

    process = engine.spawn(proc())
    engine.run()
    assert process.result == "done"
    assert engine.now == 0


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Delay(-1)


def test_processes_interleave_by_time():
    engine = Engine()
    order = []

    def proc(name, delay):
        yield Delay(delay)
        order.append((engine.now, name))

    engine.spawn(proc("slow", 20))
    engine.spawn(proc("fast", 5))
    engine.spawn(proc("medium", 10))
    engine.run()
    assert order == [(5, "fast"), (10, "medium"), (20, "slow")]


def test_event_wait_and_trigger():
    engine = Engine()
    event = engine.event("go")
    results = []

    def waiter():
        value = yield Wait(event)
        results.append((engine.now, value))

    def trigger():
        yield Delay(7)
        event.trigger("payload")

    engine.spawn(waiter())
    engine.spawn(trigger())
    engine.run()
    assert results == [(7, "payload")]
    assert event.triggered
    assert event.value == "payload"


def test_event_double_trigger_raises():
    engine = Engine()
    event = engine.event()
    event.trigger(1)
    with pytest.raises(SimulationError):
        event.trigger(2)


def test_wait_on_already_triggered_event_returns_immediately():
    engine = Engine()
    event = engine.event()
    event.trigger(42)

    def proc():
        value = yield Wait(event)
        return value

    process = engine.spawn(proc())
    engine.run()
    assert process.result == 42


def test_event_callback_runs_on_trigger_and_immediately_if_late():
    engine = Engine()
    event = engine.event()
    seen = []
    event.add_callback(seen.append)
    event.trigger("early")
    event.add_callback(seen.append)
    assert seen == ["early", "early"]


def test_fork_and_join():
    engine = Engine()

    def child(n):
        yield Delay(n)
        return n * 2

    def parent():
        first = yield Fork(child(5), "c5")
        second = yield Fork(child(3), "c3")
        a = yield Join(first)
        b = yield Join(second)
        return a + b

    process = engine.spawn(parent())
    engine.run()
    assert process.result == 16
    assert engine.now == 5


def test_join_on_finished_process_returns_result():
    engine = Engine()

    def quick():
        yield Delay(1)
        return "done"

    def parent(child_proc):
        yield Delay(10)
        result = yield Join(child_proc)
        return result

    child_process = engine.spawn(quick())
    parent_process = engine.spawn(parent(child_process))
    engine.run()
    assert parent_process.result == "done"


def test_yield_from_composes_subgenerators():
    engine = Engine()

    def sub(n):
        yield Delay(n)
        return n + 1

    def main():
        a = yield from sub(3)
        b = yield from sub(4)
        return a + b

    process = engine.spawn(main())
    engine.run()
    assert process.result == 9
    assert engine.now == 7


def test_yielding_non_command_raises():
    engine = Engine()

    def bad():
        yield 42

    engine.spawn(bad())
    with pytest.raises(SimulationError):
        engine.run()


def test_deadlock_detection_reports_blocked_process():
    engine = Engine()
    event = engine.event("never")

    def stuck():
        yield Wait(event)

    engine.spawn(stuck(), name="stuck_process")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert "stuck_process" in str(excinfo.value)


def test_daemon_processes_do_not_count_as_deadlock():
    engine = Engine()
    queue = DecoupledQueue(engine, 4)

    def daemon():
        while True:
            yield Get(queue)

    def worker():
        yield Delay(3)
        return "ok"

    engine.spawn(daemon(), name="hw", daemon=True)
    process = engine.spawn(worker())
    engine.run()
    assert process.result == "ok"


def test_run_until_complete_stops_at_watched_processes():
    engine = Engine()
    queue = DecoupledQueue(engine, 4)

    def daemon():
        while True:
            yield Get(queue)
            yield Delay(1)

    def worker():
        yield Put(queue, 1)
        yield Delay(5)
        return "finished"

    engine.spawn(daemon(), name="daemon", daemon=True)
    worker_process = engine.spawn(worker())
    elapsed = engine.run_until_complete([worker_process])
    assert worker_process.finished
    assert elapsed == 5


def test_run_until_complete_detects_deadlock_of_watched():
    engine = Engine()
    event = engine.event("never")

    def stuck():
        yield Wait(event)

    process = engine.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError):
        engine.run_until_complete([process])


def test_max_cycles_guard():
    engine = Engine(max_cycles=100)

    def runaway():
        while True:
            yield Delay(10)

    engine.spawn(runaway())
    with pytest.raises(SimulationError):
        engine.run()


def test_run_until_horizon_pauses_and_resumes():
    engine = Engine()

    def proc():
        yield Delay(50)
        return "late"

    process = engine.spawn(proc())
    engine.run(until=10)
    assert not process.finished
    assert engine.now == 10
    engine.run()
    assert process.finished


def test_schedule_callback_runs_at_requested_time():
    engine = Engine()
    fired = []
    engine.schedule_callback(25, lambda: fired.append(engine.now))

    def proc():
        yield Delay(100)

    engine.spawn(proc())
    engine.run()
    assert fired == [25]


def test_completion_event_carries_return_value():
    engine = Engine()

    def proc():
        yield Delay(2)
        return {"answer": 42}

    process = engine.spawn(proc())
    engine.run()
    assert process.completion.triggered
    assert process.completion.value == {"answer": 42}


def test_engine_rejects_bad_max_cycles():
    with pytest.raises(SimulationError):
        Engine(max_cycles=0)


def test_trace_log_records_when_enabled():
    engine = Engine(trace=True)

    def proc():
        yield Delay(1)

    engine.spawn(proc(), name="traced")
    engine.run()
    assert any("traced" in line for line in engine.trace_log)


# --------------------------------------------------------------------- #
# In-place advance
# --------------------------------------------------------------------- #
def _advancer(engine, steps, seen):
    """Call ``advance(c)`` for each ``c`` of ``steps``, logging the answer
    and the clock, and yield the ``Delay`` whenever it refuses."""
    for cycles in steps:
        moved = engine.advance(cycles)
        seen.append((cycles, moved, engine.now))
        if not moved:
            yield Delay(cycles)


def test_advance_moves_the_clock_of_a_lone_process():
    engine = Engine()
    seen = []
    engine.spawn(_advancer(engine, [7, 0, 3], seen))
    assert engine.run() == 10
    assert seen == [(7, True, 7), (0, True, 7), (3, True, 10)]


def test_advance_refuses_outside_a_running_loop():
    engine = Engine()
    assert not engine.advance(5)
    engine.spawn(_advancer(engine, [4], []))
    engine.run()
    assert engine.now == 4
    assert not engine.advance(5)
    assert engine.now == 4


def test_advance_refuses_while_tracing():
    engine = Engine(trace=True)
    seen = []
    engine.spawn(_advancer(engine, [7], seen), name="traced")
    engine.run()
    assert seen == [(7, False, 0)]
    assert engine.now == 7
    assert "[0] traced -> Delay" in engine.trace_log


def test_advance_refuses_with_a_non_empty_bucket():
    engine = Engine()
    seen = []
    engine.spawn(_advancer(engine, [3], seen))
    engine.spawn(_advancer(engine, [], []))  # still in the bucket at 0
    engine.run()
    assert seen == [(3, False, 0)]


def test_advance_refuses_a_tie_with_a_heap_entry():
    engine = Engine()
    seen = []

    def sleeper():
        yield Delay(5)

    def prober():
        # Runs after the sleeper has parked in the heap at cycle 5.
        for cycles in (5, 4, 1):
            seen.append((cycles, engine.advance(cycles), engine.now))
        yield Delay(1)

    engine.spawn(sleeper())
    engine.spawn(prober())
    engine.run()
    # An entry due at the same cycle was pushed earlier and runs first.
    assert seen == [(5, False, 0), (4, True, 4), (1, False, 4)]


def test_advance_refuses_past_the_run_horizon():
    engine = Engine()
    seen = []
    engine.spawn(_advancer(engine, [11, 10], seen))
    engine.run(until=10)
    assert seen[0] == (11, False, 0)
    engine.run()
    bounded = Engine(max_cycles=20)
    capped = []
    bounded.spawn(_advancer(bounded, [21, 20], capped))
    with pytest.raises(SimulationError):
        bounded.run()
    assert capped == [(21, False, 0)]


def test_advance_refuses_negative_cycles():
    engine = Engine()
    seen = []

    def proc():
        seen.append(engine.advance(-1))
        yield Delay(1)

    engine.spawn(proc())
    engine.run()
    assert seen == [False]


# --------------------------------------------------------------------- #
# Run-ahead limit
# --------------------------------------------------------------------- #
def _limit_probe(engine, steps, seen):
    """For each ``c`` of ``steps``, log ``(c, run_ahead_limit(), whether
    the limit admits c, advance(c))`` without yielding in between."""
    for cycles in steps:
        limit = engine.run_ahead_limit()
        fits = 0 <= cycles and engine.now + cycles <= limit
        seen.append((cycles, limit, fits, engine.advance(cycles)))


def _limit_prober(engine, steps, seen):
    _limit_probe(engine, steps, seen)
    yield Delay(1)


def test_run_ahead_limit_is_the_horizon_of_a_lone_process():
    engine = Engine(max_cycles=100)
    seen = []
    engine.spawn(_limit_prober(engine, [7, 0, 92, 2], seen))
    assert engine.run() == 100
    assert seen == [(7, 100, True, True), (0, 100, True, True),
                    (92, 100, True, True), (2, 100, False, False)]


def test_run_ahead_limit_refuses_with_a_non_empty_bucket():
    engine = Engine()
    seen = []
    engine.spawn(_limit_prober(engine, [0, 3], seen))
    engine.spawn(_limit_prober(engine, [], []))  # still in the bucket at 0
    engine.run()
    assert seen == [(0, -1, False, False), (3, -1, False, False)]


def test_run_ahead_limit_stops_before_a_tie_with_a_heap_entry():
    engine = Engine()
    seen = []

    def sleeper():
        yield Delay(5)

    engine.spawn(sleeper())
    engine.spawn(_limit_prober(engine, [5, 4, 1, 0], seen))
    engine.run()
    # An entry due at the same cycle was pushed earlier and runs first.
    assert seen == [(5, 4, False, False), (4, 4, True, True),
                    (1, 4, False, False), (0, 4, True, True)]


def test_run_ahead_limit_is_the_run_horizon():
    engine = Engine()
    seen = []
    engine.spawn(_limit_prober(engine, [11, 10], seen))
    engine.run(until=10)
    assert seen == [(11, 10, False, False), (10, 10, True, True)]


def test_run_ahead_limit_refuses_while_tracing():
    engine = Engine(trace=True)
    seen = []
    engine.spawn(_limit_prober(engine, [0, 7], seen))
    engine.run()
    assert seen == [(0, -1, False, False), (7, -1, False, False)]


def test_run_ahead_limit_refuses_outside_a_running_loop():
    engine = Engine()
    seen = []
    _limit_probe(engine, [0, 5], seen)
    engine.spawn(_limit_prober(engine, [], []))
    engine.run()
    _limit_probe(engine, [0, 5], seen)
    assert seen == [(0, -1, False, False), (5, -1, False, False)] * 2
    assert engine.now == 1


def test_cycle_pending_reports_the_same_cycle_bucket():
    engine = Engine()
    seen = []

    def prober():
        seen.append(engine.cycle_pending())
        yield Delay(2)
        seen.append(engine.cycle_pending())

    engine.spawn(prober())
    engine.spawn(_limit_prober(engine, [], []))  # still in the bucket at 0
    engine.run()
    assert seen == [True, False]


def test_drain_hook_may_put_a_last_step_on_the_clock():
    engine = Engine()
    calls = []

    def hook():
        calls.append(engine.now)
        if len(calls) == 1:
            engine.schedule_callback(5, lambda: None)

    def stuck():
        yield Wait(engine.event("never"))

    engine.on_drain(hook)
    process = engine.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError, match="at cycle 5"):
        engine.run_until_complete([process])
    # The first drain scheduled a step; the second found nothing more.
    assert calls == [0, 5]


# --------------------------------------------------------------------- #
# Charge hand-off
# --------------------------------------------------------------------- #
def _steps(engine, steps, seen):
    """Charge steps as a cost helper does: move the clock in place for
    each step that ends by the run-ahead limit, else yield its cycles and
    receive the new limit; log each step."""
    limit = engine.run_ahead_limit()
    for cycles in steps:
        due = engine.now + cycles
        if due <= limit:
            engine.now = due
            seen.append(("in place", cycles, engine.now))
        else:
            seen.append(("refused", cycles, engine.now))
            limit = yield cycles


def _charger(engine, steps, seen, then=()):
    """Charge ``steps`` through a ``Charge`` hand-off, then log the
    resumption and yield ``Delay(c)`` for each ``c`` of ``then``."""
    charge = _steps(engine, steps, seen)
    cycles = next(charge, None)
    if cycles is not None:
        yield Charge(cycles, charge)
    seen.append(("resumed", engine.now))
    for cycles in then:
        yield Delay(cycles)


def _logger(engine, seen, name, delay):
    """Log ``name`` and the clock after ``delay`` cycles."""
    yield Delay(delay)
    seen.append((name, engine.now))


def test_charge_that_fits_never_leaves_its_caller():
    engine = Engine()
    seen = []
    engine.spawn(_charger(engine, [3, 0, 4], seen), name="c")
    assert engine.run() == 7
    assert seen == [("in place", 3, 3), ("in place", 0, 3),
                    ("in place", 4, 7), ("resumed", 7)]


def test_charge_refused_step_goes_to_the_heap():
    engine = Engine()
    seen = []
    heap_at_5 = []

    def sleeper():
        yield Delay(5)
        heap_at_5.extend((due, process, payload.__class__)
                         for due, entries in engine._calendar.items()
                         for process, payload in entries)

    engine.spawn(sleeper())
    engine.spawn(_charger(engine, [3, 4, 2], seen), name="c")
    assert engine.run() == 9
    # The step to 7 waits in the heap, without its process, while the
    # sleeper's entry at 5 runs; the last step then fits in place.
    assert heap_at_5 == [(7, None, Charge)]
    assert seen == [("in place", 3, 3), ("refused", 4, 3),
                    ("in place", 2, 9), ("resumed", 9)]


def test_charge_zero_cycle_refused_step_goes_to_the_back_of_the_bucket():
    engine = Engine()
    seen = []

    def other():
        seen.append(("other", engine.now))
        yield Delay(0)
        seen.append(("other", engine.now))

    engine.spawn(_charger(engine, [0, 0], seen), name="c")
    engine.spawn(other())
    engine.run()
    # While the other process is in the bucket, the limit refuses each
    # zero-cycle step, and the step waits behind that process.
    assert seen == [("refused", 0, 0), ("other", 0), ("refused", 0, 0),
                    ("other", 0), ("resumed", 0)]


def test_finished_charge_resumes_its_caller_in_the_same_dispatch():
    engine = Engine()
    seen = []
    engine.spawn(_charger(engine, [5], seen), name="c")
    engine.spawn(_logger(engine, seen, "other", 5))
    engine.run()
    # The charge's step to 5 was pushed before the other process's entry
    # at 5, so it is dispatched first; its caller resumes in that
    # dispatch, not behind the other entry.
    assert seen == [("refused", 5, 0), ("resumed", 5), ("other", 5)]


def test_traced_charge_writes_one_delay_line_per_step():
    def delays(steps, then):
        for cycles in steps + then:
            yield Delay(cycles)

    charged = Engine(trace=True)
    seen = []
    charged.spawn(_charger(charged, [2, 0, 3], seen, then=[1]), name="p")
    charged.run()
    plain = Engine(trace=True)
    plain.spawn(delays([2, 0, 3], [1]), name="p")
    plain.run()
    # Tracing refuses every step in place, but the loop still runs each
    # ahead when it can, and writes the line a Delay would.
    assert charged.trace_log == plain.trace_log == [
        "[0] p -> Delay", "[2] p -> Delay", "[2] p -> Delay",
        "[5] p -> Delay", "[6] p finished"]
    assert seen[-1] == ("resumed", 5)


def test_run_until_and_max_cycles_stop_a_charge_as_a_delay():
    engine = Engine()
    seen = []
    process = engine.spawn(_charger(engine, [4, 8], seen), name="c")
    assert engine.run(until=10) == 10
    assert not process.finished
    assert seen == [("in place", 4, 4), ("refused", 8, 4)]
    assert engine.run() == 12
    assert seen[-1] == ("resumed", 12)

    bounded = Engine(max_cycles=10)
    capped = []
    bounded.spawn(_charger(bounded, [4, 8], capped), name="c")
    with pytest.raises(SimulationError, match="max_cycles=10"):
        bounded.run()
    assert capped == [("in place", 4, 4), ("refused", 8, 4)]


# --------------------------------------------------------------------- #
# Calendar event queue
# --------------------------------------------------------------------- #
def _ties_at_ten(engine_cls):
    """A ``Delay`` from cycle 0, a callback from cycle 3 and a refused
    charge step from cycle 5, all due at cycle 10.  Returns the log and
    the calendar's entries for cycle 10 as they stand at cycle 9."""
    engine = engine_cls()
    seen = []
    queued = []

    def sleeper():
        yield Delay(10)
        seen.append(("sleeper", engine.now))

    def timer():
        yield Delay(3)
        engine.schedule_callback(
            7, lambda: seen.append(("callback", engine.now)))

    def charger():
        yield Delay(5)
        yield from _charger(engine, [5], seen)

    def peek():
        yield Delay(9)
        queued.extend((process and process.name, payload.__class__)
                      for process, payload in engine._calendar[10])

    engine.spawn(sleeper(), name="sleeper")
    engine.spawn(timer(), name="timer")
    engine.spawn(charger(), name="charger")
    engine.spawn(peek(), name="peek")
    engine.run()
    return seen, queued


def test_same_cycle_entries_run_in_scheduling_order():
    seen, queued = _ties_at_ten(Engine)
    # The sleeper's entry at 10 ties the charge step, so the step is
    # refused at 5 and waits behind the sleeper and the callback.
    assert seen == [("refused", 5, 5), ("sleeper", 10), ("callback", 10),
                    ("resumed", 10)]
    assert [(name, kind.__name__) for name, kind in queued] == [
        ("sleeper", "NoneType"), (None, "function"), (None, "Charge")]
    assert _ties_at_ten(ReferenceEngine) == (seen, queued)


def test_calendar_holds_each_pending_cycle_once_and_never_empty():
    engine = Engine()
    snapshots = []

    def check():
        calendar = engine._calendar
        snapshots.append(sorted(engine._heap) == sorted(calendar)
                         and all(calendar.values()))

    def worker(delays):
        for cycles in delays:
            yield Delay(cycles)
            check()
            engine.schedule_callback(cycles % 3, check)

    for offset in range(4):
        engine.spawn(worker([offset + 1, 2, 0, 3, offset, 1]))
    engine.run()
    assert snapshots and all(snapshots)
    assert engine._calendar == {} and engine._heap == []


def test_run_until_leaves_later_entries_queued_in_order():
    engine = Engine()
    seen = []
    for name, delay in (("a", 5), ("b", 12), ("c", 20), ("d", 12)):
        engine.spawn(_logger(engine, seen, name, delay), name=name)
    assert engine.run(until=10) == 10
    assert seen == [("a", 5)]
    assert sorted(engine._calendar) == [12, 20]
    assert [process.name for process, _ in engine._calendar[12]] == [
        "b", "d"]
    assert engine.run() == 20
    assert seen == [("a", 5), ("b", 12), ("d", 12), ("c", 20)]
    assert engine._calendar == {}
