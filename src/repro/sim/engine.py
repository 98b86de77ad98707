"""Discrete-event simulation engine with a core-cycle clock.

The engine is the substrate every other subsystem runs on.  It is an
event-driven simulator in the style of SimPy, written from scratch so the
library has no external simulation dependency:

* **Time** is an integer number of *core clock cycles*.
* **Processes** are Python generators.  A process performs simulated work by
  ``yield``-ing :class:`Command` objects (:class:`Delay`, :class:`Put`,
  :class:`Get`, :class:`Wait`, :class:`Fork`, :class:`Join`, and
  :class:`Charge` for a cost helper's steps) and composes sub-behaviours
  with plain ``yield from``.
* **Events** are one-shot synchronisation points carrying an optional value.

The engine detects deadlock: if the event queue drains while processes are
still blocked, :class:`~repro.common.errors.DeadlockError` is raised with a
description of every waiter in deterministic (blocked-cycle, pid) order.
A model that evaluates part of its future arithmetically registers a drain
hook (:meth:`Engine.on_drain`) to put its last step on the clock first.
This is the mechanism the test-suite uses to demonstrate the two deadlock
scenarios of Section IV-C of the paper.

Performance
-----------

Every figure of the paper is regenerated by pumping millions of events
through this module, so the inner loop is aggressively optimised while
keeping the observable semantics (cycle counts, wake-up order, results)
bit-identical:

* **Calendar queue** — future entries wait in a calendar: a dict from
  each due cycle to the list of its ``(process, payload)`` entries in the
  order they were scheduled, plus a heap holding each of those cycles
  once, as a plain int.  Scheduling at a cycle that already has entries
  appends to its list and leaves the heap alone; reaching a cycle takes
  one heap pop and moves its whole list into a same-cycle FIFO bucket.
  FIFO order per cycle is the order a ``(due, sequence)`` heap would
  give, so no sequence number is drawn.  Zero-delay wake-ups (queue
  hand-offs, event triggers, forks) go straight to the bucket.  On the
  quick Figure 9 sweep, Nanos-SW schedules 361K entries on 101K distinct
  cycles, and Nanos-RV 307K on 166K, so most entries cost a list append
  instead of a heap push and pop.
* **Tag dispatch** — commands carry a small integer ``_tag`` used to index
  a per-engine handler table, replacing the ``isinstance`` chain.
* **Interned delays** — ``Delay(n)`` returns a shared immutable instance
  for small ``n``, so hot loops allocate no command objects.  Hot callers
  with a constant delay build it once, which also saves the
  ``Delay.__new__`` call.
* **Slotted classes** — commands, :class:`Event` and :class:`Process` are
  all ``__slots__`` classes; the human-readable ``waiting_on`` description
  is rendered lazily (only when a deadlock report or ``repr`` needs it).
* **One loop, inline dispatch** — :meth:`Engine.run`,
  :meth:`Engine.run_until`, :meth:`Engine.run_until_idle` and
  :meth:`Engine.run_until_complete` all drive the same loop.  It resumes
  generators itself, handles ``Delay`` in the loop body (a calendar
  entry, or a bucket append for ``Delay(0)``) and indexes the handler
  table for every other command, so no command pays a per-event method
  call on the way in.
  The loop runs while a one-element countdown is non-zero: ``run`` passes
  one that never falls, ``run_until_complete`` one that completion
  callbacks decrement.
* **Run-ahead** — when a process yields ``Delay(c)`` and the same-cycle
  bucket is empty, the loop resumes that same generator at once, without
  the calendar, if ``c`` is zero, or if ``now + c`` is within the run's
  horizon and strictly earlier than the calendar's earliest cycle (the
  countdown must also still be non-zero).  This is exact: the loop would
  have popped that very entry next, alone at its timestamp, and the trace
  line is written as before.  The tie rule must stay strict, because an
  entry already due at the same cycle was scheduled earlier and runs
  first.

  *In-place advance* applies the same rule before the ``yield``.  A cost
  helper calls :meth:`Engine.advance` with the cycles it is about to
  yield; when run-ahead would resume it next, ``advance`` moves ``now``
  itself and the helper carries on, skipping the round trip through
  every ``yield from`` frame and the loop body.  ``_loop`` publishes its
  horizon for this (-1 outside a run, and while tracing, so that every
  traced ``Delay`` keeps its line) and takes a ``Delay``'s due time from
  ``self.now``, which ``advance`` may have moved during the ``send``.
  The countdown needs no check: only ``_finish`` decrements it, never
  during a ``send``.  :meth:`Engine.run_ahead_limit` states the rule as
  the latest cycle ``advance`` would accept.  A helper that charges many
  steps and schedules no event between them reads it once and moves
  ``now`` itself for every step that fits, without a call per step.

  *Charge hand-off* drives such a helper's refused steps from the loop.
  The helper is a generator of bare cycle counts, started by its caller
  with ``next()``, so a charge whose steps all fit never leaves the
  caller.  On the first refused step the caller yields one
  :class:`Charge` carrying the cycles and the step generator, and the
  loop waits out that step as it would a ``Delay``: the same
  calendar/bucket/run-ahead rule and the same ``-> Delay`` trace line.  A
  step that may run ahead moves ``now`` and goes to the empty bucket,
  which the loop pops next.  The calendar or bucket entry carries the
  ``Charge`` where a callback would be, so only callbacks and other
  non-``Delay`` commands pay the one class check.  When the step ends,
  the loop sends the steps the limit :meth:`Engine.run_ahead_limit`
  would give, computed inline; when they are done it resumes the
  caller's chain in the same dispatch.  So a refused step costs one
  generator resume, not one per frame from the process down to the
  helper, and no ``Delay``.  ``Core.rocc`` waits out a RoCC
  instruction's issue and its Picos Delegate handshake with one
  :meth:`Engine.advance` when both fit: on the quick Figure 9 sweep,
  26,124 of Nanos-RV's 36,519 instructions and 16,479 of Phentos's
  24,656 do, and the rest take the issue and the handshake as two steps.

The loop's observable behaviour is pinned by the recorded golden traces in
``tests/data/engine_traces.json``, which ``tests/test_engine_fastpath.py``
replays against the current loop.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.common.errors import DeadlockError, SimulationError

__all__ = [
    "Command",
    "Delay",
    "Put",
    "Get",
    "Wait",
    "Fork",
    "Join",
    "Charge",
    "Event",
    "Process",
    "Engine",
    "ProcessGen",
]

#: Type alias for the generators that implement simulated processes.
ProcessGen = Generator["Command", Any, Any]

#: ``Delay(n)`` instances with ``0 <= n < _DELAY_CACHE_SIZE`` are interned.
_DELAY_CACHE_SIZE = 4096


class Command:
    """Base class of every value a process may yield to the engine.

    Concrete commands carry a class-level integer ``_tag`` indexing the
    engine's dispatch table.  Commands are value objects: treat them as
    immutable once yielded (small :class:`Delay` instances are interned and
    shared between processes).
    """

    __slots__ = ()
    #: Dispatch-table index; ``None`` on the abstract base so yielding a
    #: bare :class:`Command` (or any non-command) raises a clean error.
    _tag: Any = None

    def describe(self) -> str:
        """Human-readable description used in ``waiting_on`` reports."""
        return type(self).__name__.lower()


class Delay(Command):
    """Suspend the yielding process for ``cycles`` core clock cycles.

    Instances for small non-negative integer cycle counts are interned, so
    ``Delay(1) is Delay(1)`` — hot loops pay a cache lookup instead of an
    allocation.  Delays compare (and hash) by cycle count.
    """

    __slots__ = ("cycles",)
    _tag = 0

    def __new__(cls, cycles: int) -> "Delay":
        # Built here only (no ``__init__``), so an interned instance is
        # returned without re-running any Python-level initialiser.
        if cls is Delay and type(cycles) is int \
                and 0 <= cycles < _DELAY_CACHE_SIZE:
            return _DELAY_CACHE[cycles]
        if cycles < 0:
            raise SimulationError(f"Delay must be non-negative, got {cycles}")
        delay = super().__new__(cls)
        delay.cycles = cycles
        return delay

    def describe(self) -> str:
        return f"delay({self.cycles})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Delay) and other.cycles == self.cycles

    def __hash__(self) -> int:
        return hash((Delay, self.cycles))

    def __repr__(self) -> str:
        return f"Delay(cycles={self.cycles!r})"


def _build_delay_cache() -> List[Delay]:
    cache: List[Delay] = []
    for cycles in range(_DELAY_CACHE_SIZE):
        delay = object.__new__(Delay)
        delay.cycles = cycles
        cache.append(delay)
    return cache


_DELAY_CACHE = _build_delay_cache()


class Put(Command):
    """Enqueue ``item`` into ``queue``, blocking while the queue is full."""

    __slots__ = ("queue", "item")
    _tag = 1

    def __init__(self, queue: Any, item: Any) -> None:
        self.queue = queue
        self.item = item

    def describe(self) -> str:
        return f"put({self.queue!r})"

    def __repr__(self) -> str:
        return f"Put(queue={self.queue!r}, item={self.item!r})"


class Get(Command):
    """Dequeue one item from ``queue``, blocking while it is empty.

    The dequeued item becomes the value of the ``yield`` expression.
    """

    __slots__ = ("queue",)
    _tag = 2

    def __init__(self, queue: Any) -> None:
        self.queue = queue

    def describe(self) -> str:
        return f"get({self.queue!r})"

    def __repr__(self) -> str:
        return f"Get(queue={self.queue!r})"


class Wait(Command):
    """Block until ``event`` is triggered; yields the event's value."""

    __slots__ = ("event",)
    _tag = 3

    def __init__(self, event: "Event") -> None:
        self.event = event

    def describe(self) -> str:
        return f"wait({self.event.name})"

    def __repr__(self) -> str:
        return f"Wait(event={self.event!r})"


class Fork(Command):
    """Start ``generator`` as a new concurrent process.

    The value of the ``yield`` expression is the new :class:`Process`.
    """

    __slots__ = ("generator", "name", "daemon")
    _tag = 4

    def __init__(self, generator: ProcessGen, name: str = "",
                 daemon: bool = False) -> None:
        self.generator = generator
        self.name = name
        self.daemon = daemon

    def __repr__(self) -> str:
        return (f"Fork(generator={self.generator!r}, name={self.name!r}, "
                f"daemon={self.daemon!r})")


class Join(Command):
    """Block until ``process`` finishes; yields the process return value."""

    __slots__ = ("process",)
    _tag = 5

    def __init__(self, process: "Process") -> None:
        self.process = process

    def describe(self) -> str:
        return f"join({self.process.name})"

    def __repr__(self) -> str:
        return f"Join(process={self.process!r})"


class Charge(Command):
    """Hand the engine loop a cost helper's steps from a refused one on.

    ``steps`` is a generator of cycle counts that moves the clock in
    place for every step that ends by the run-ahead limit it holds, and
    yields a step's cycles when it does not, receiving the new limit when
    the step has ended.  Its caller starts it with ``next()``; when a step
    is refused, the caller yields ``Charge(cycles, steps)`` once, and the
    loop waits out that step and each later refused one as it would a
    ``Delay``, then resumes the caller when ``steps`` is done (see the
    module docstring).  Only the process's own bookkeeping may run in
    ``steps``: no event may be scheduled there.
    """

    __slots__ = ("cycles", "steps", "process")

    def __init__(self, cycles: int, steps: Generator[int, int, None]) -> None:
        self.cycles = cycles
        self.steps = steps
        #: The process that yielded the charge; the loop sets it.
        self.process: Optional["Process"] = None

    def __repr__(self) -> str:
        return f"Charge(cycles={self.cycles!r}, steps={self.steps!r})"


class Event:
    """A one-shot event: processes wait on it, someone triggers it once."""

    __slots__ = ("engine", "name", "_triggered", "_value", "_waiters",
                 "_callbacks")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: List[Process] = []
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        """True once :meth:`trigger` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`trigger` (None before triggering)."""
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current cycle."""
        if self._triggered:
            raise SimulationError(f"Event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            resume = self.engine._resume
            for process in waiters:
                resume(process, value)
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the event fires (now, if it already has)."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Process:
    """A running simulated process wrapping a generator.

    The blocking state is stored as the last dispatched :class:`Command`
    (or a literal phase string) and rendered to the human-readable
    :attr:`waiting_on` description only on demand, so the hot path never
    formats strings.  ``waiting_since`` records the cycle of the last
    dispatch, giving deadlock reports a deterministic sort key.
    """

    __slots__ = ("engine", "generator", "name", "pid", "finished", "result",
                 "_completion", "_waiting", "waiting_since", "daemon")

    def __init__(self, engine: "Engine", generator: ProcessGen, name: str,
                 pid: int, daemon: bool = False) -> None:
        self.engine = engine
        self.generator = generator
        self.name = name
        self.pid = pid
        self.finished = False
        self.result: Any = None
        #: Completion event, created lazily on first access (most processes
        #: are never joined through the event object itself).
        self._completion: Optional[Event] = None
        #: The command (or phase string) the process is currently blocked on.
        self._waiting: Any = "start"
        #: Cycle at which the process last blocked (deadlock-report sort key).
        self.waiting_since: int = 0
        #: Daemon processes model always-on hardware; they never count as
        #: "blocked work" for deadlock detection or run termination.
        self.daemon = daemon

    @property
    def completion(self) -> Event:
        """Event triggered (with the return value) when the process ends."""
        event = self._completion
        if event is None:
            event = Event(self.engine, name=f"{self.name}.completion")
            self._completion = event
            if self.finished:
                event.trigger(self.result)
        return event

    @property
    def waiting_on(self) -> str:
        """Human-readable description of what the process is blocked on."""
        waiting = self._waiting
        if type(waiting) is str:
            return waiting
        return waiting.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else f"waiting on {self.waiting_on}"
        return f"Process(#{self.pid} {self.name!r}, {state})"


class Engine:
    """The discrete-event simulator driving every model in the library.

    The batched run loop is the only loop; its observable behaviour is
    pinned by the golden traces recorded from the (now removed) legacy
    one-pop-per-event loop — see the module docstring.
    """

    __slots__ = ("max_cycles", "trace", "now", "_heap", "_calendar",
                 "_bucket", "_pid_counter", "_live_processes",
                 "_trace_log", "_handlers", "_horizon", "_drain_hooks")

    def __init__(self, max_cycles: int = 5_000_000_000,
                 trace: bool = False) -> None:
        if max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
        self.max_cycles = max_cycles
        self.trace = trace
        self.now: int = 0
        #: Each future cycle that has entries due, once, as a plain int.
        self._heap: List[int] = []
        #: The (process, payload) entries due at each cycle in the heap,
        #: in the order they were scheduled (see :meth:`_at`).
        self._calendar: Dict[int, List[Any]] = {}
        #: FIFO of (process, payload) entries due at the current cycle;
        #: zero-delay wake-ups are scheduled here, bypassing the heap.
        self._bucket: deque = deque()
        self._pid_counter = itertools.count()
        self._live_processes: Dict[int, Process] = {}
        self._trace_log: List[str] = []
        #: Horizon of the running untraced loop; -1 outside one, which
        #: makes :meth:`advance` refuse every call.
        self._horizon = -1
        #: Called when the calendar and the bucket run dry (see on_drain).
        self._drain_hooks: List[Callable[[], None]] = []
        #: Command handlers indexed by ``Command._tag``.
        self._handlers = (
            self._handle_delay,
            self._handle_put,
            self._handle_get,
            self._handle_wait,
            self._handle_fork,
            self._handle_join,
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name)

    def spawn(self, generator: ProcessGen, name: str = "process",
              daemon: bool = False) -> Process:
        """Register ``generator`` as a new process starting at ``now``.

        Daemon processes model always-on hardware loops (arbiters, device
        pipelines): they may block forever without being reported as a
        deadlock once every non-daemon process has finished.
        """
        process = Process(self, generator, name, next(self._pid_counter), daemon)
        self._live_processes[process.pid] = process
        self._schedule(0, process, None)
        return process

    def schedule_callback(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` cycles (for hardware timers)."""
        if delay < 0:
            raise SimulationError("callback delay must be non-negative")
        if delay == 0:
            self._bucket.append((None, callback))
        else:
            self._at(self.now + delay, (None, callback))

    def on_drain(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` whenever no event is left to run.

        A model that evaluates part of its future arithmetically instead
        of scheduling every step uses it to put its last step on the
        clock: the hook may schedule events, and the run goes on with
        them.  Only when a round of hooks schedules nothing does the run
        end (or report a deadlock) at the current cycle.
        """
        self._drain_hooks.append(hook)

    def cycle_pending(self) -> bool:
        """True while other entries are still due in the current cycle."""
        return bool(self._bucket)

    def advance(self, cycles: int) -> bool:
        """Move the clock ``cycles`` ahead in place of a ``Delay``.

        Only the running process may call it, as
        ``if not engine.advance(c): yield Delay(c)``.  It returns True, with
        ``now`` moved, exactly when the loop would resume that process at
        ``now + cycles`` next by run-ahead (see the module docstring): the
        same-cycle bucket is empty, no calendar entry is due by then, and the
        run's horizon is not passed.  Otherwise it returns False and
        changes nothing, as it does outside a running loop and while
        tracing, so that every traced ``Delay`` keeps its line.
        """
        now = self.now
        if self._bucket or not 0 <= cycles <= self._horizon - now:
            return False
        due = now + cycles
        heap = self._heap
        if heap and heap[0] <= due:
            return False
        self.now = due
        return True

    def run_ahead_limit(self) -> int:
        """Latest cycle the running process may advance the clock to.

        ``advance(c)`` succeeds exactly when ``0 <= c`` and
        ``now + c <= run_ahead_limit()``.  The limit is the run's horizon,
        or one cycle before the calendar's earliest cycle if that is sooner,
        and -1 (below every cycle) while the same-cycle bucket is
        non-empty, outside a running loop and while tracing.  Only
        scheduling an event or yielding changes it, so a process that
        does neither between two of its steps may read it once and move
        ``now`` itself for every step that fits.
        """
        if self._bucket:
            return -1
        heap = self._heap
        if heap:
            due = heap[0] - 1
            if due < self._horizon:
                return due
        return self._horizon

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains or ``until`` cycles have elapsed.

        Returns the final simulation time.  Raises
        :class:`~repro.common.errors.DeadlockError` if processes remain
        blocked when no further event can occur, and
        :class:`~repro.common.errors.SimulationError` if the run exceeds the
        configured ``max_cycles`` horizon.
        """
        horizon = self.max_cycles if until is None else min(until, self.max_cycles)
        drained = self._loop([1], horizon, clamp=until is not None)
        if drained and until is None and self._blocked_processes():
            self._raise_deadlock()
        return self.now

    def run_until(self, cycle: int) -> int:
        """Fast-forward the simulation to ``cycle`` and return the new time.

        Equivalent to ``run(until=cycle)``.
        """
        if cycle < 0:
            raise SimulationError("run_until cycle must be non-negative")
        return self.run(until=cycle)

    def run_until_idle(self) -> int:
        """Run to completion, requiring every non-daemon process to finish."""
        self.run()
        blocked = self._blocked_processes()
        if blocked:
            self._raise_deadlock()
        return self.now

    def run_until_complete(self, processes: Iterable[Process]) -> int:
        """Run until every process in ``processes`` has finished.

        This is the primary entry point used by the SoC model: it terminates
        as soon as the watched processes (the per-core runtime workers) are
        done, regardless of daemon hardware processes that remain parked on
        empty queues.  Raises :class:`DeadlockError` if the event queue drains
        while a watched process is still blocked.
        """
        watched = [p for p in processes if not p.finished]
        if not watched:
            return self.now
        # Completion callbacks keep the stop check O(1) per event instead of
        # re-scanning the watched list after every step.
        remaining = [len(watched)]

        def _one_done(_value: Any) -> None:
            remaining[0] -= 1

        for process in watched:
            process.completion.add_callback(_one_done)
        if self._loop(remaining, self.max_cycles, clamp=False):
            self._raise_watched_deadlock(watched)
        return self.now

    @property
    def trace_log(self) -> List[str]:
        """Collected trace lines (only populated when ``trace=True``)."""
        return list(self._trace_log)

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #
    def _loop(self, remaining: List[int], horizon: int, clamp: bool) -> bool:
        """Batched event loop shared by every ``run*`` entry point.

        Runs while ``remaining[0]`` is non-zero, moving each due cycle's
        calendar entries into the same-cycle bucket at once.  A process
        whose ``Delay`` ends before every other pending entry is resumed in
        place (see the module docstring's *run-ahead*), and the steps of a
        yielded :class:`Charge` are driven here (*charge hand-off*).
        Returns True when no event is left, False when stopped by
        ``remaining`` or by ``horizon``.  A
        timestamp past ``horizon`` ends the run at ``horizon`` when
        ``clamp`` is set and raises the ``max_cycles`` error otherwise.
        """
        heap = self._heap
        calendar = self._calendar
        bucket = self._bucket
        push = heapq.heappush
        pop = heapq.heappop
        append = bucket.append
        popleft = bucket.popleft
        handlers = self._handlers
        trace = self.trace
        now = self.now
        # Published for advance(); a traced run never advances in place.
        self._horizon = ahead = -1 if trace else horizon
        try:
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
                                "simulation exceeded "
                                f"max_cycles={self.max_cycles}"
                            )
                        self.now = horizon
                        return False
                    self.now = now
                    pop(heap)
                    bucket.extend(calendar.pop(now))
                process, payload = popleft()
                if process is None:
                    if payload.__class__ is not Charge:
                        # Plain callback scheduled via schedule_callback().
                        payload()
                        continue
                    # A charge step has ended: send the steps the limit
                    # run_ahead_limit() would give, and wait out the next
                    # refused step as a Delay, or resume the caller.
                    charge = payload
                    if bucket:
                        limit = -1
                    else:
                        limit = ahead
                        if heap and heap[0] <= limit:
                            limit = heap[0] - 1
                    try:
                        cycles = charge.steps.send(limit)
                    except StopIteration:
                        process = charge.process
                        payload = None
                    else:
                        if trace:
                            self._trace_log.append(
                                f"[{now}] {charge.process.name} -> Delay")
                        if cycles:
                            due = self.now + cycles
                            if bucket or (heap and heap[0] <= due) \
                                    or due > horizon or not remaining[0]:
                                # _at(due, (None, charge)), inlined.
                                entries = calendar.get(due)
                                if entries is None:
                                    calendar[due] = [(None, charge)]
                                    push(heap, due)
                                else:
                                    entries.append((None, charge))
                                continue
                            # Run ahead: the step is due next, alone.
                            now = self.now = due
                        append((None, charge))
                        continue
                elif process.finished:
                    continue
                send = process.generator.send
                while True:
                    try:
                        command = send(payload)
                    except StopIteration as stop:
                        self._finish(process, stop.value)
                        break
                    if command.__class__ is not Delay:
                        if command.__class__ is Charge:
                            # A refused step hands the rest of a charge
                            # to the loop; it is waited out as a Delay.
                            command.process = process
                            process._waiting = command
                            if trace:
                                self._trace_log.append(
                                    f"[{now}] {process.name} -> Delay")
                            cycles = command.cycles
                            if cycles:
                                due = self.now + cycles
                                if bucket or (heap and heap[0] <= due) \
                                        or due > horizon or not remaining[0]:
                                    entries = calendar.get(due)
                                    if entries is None:
                                        calendar[due] = [(None, command)]
                                        push(heap, due)
                                    else:
                                        entries.append((None, command))
                                    break
                                now = self.now = due
                            append((None, command))
                            break
                        try:
                            handler = handlers[command._tag]
                        except (AttributeError, TypeError, IndexError):
                            raise SimulationError(
                                f"process {process.name!r} yielded a "
                                f"non-Command value: {command!r}"
                            )
                        handler(process, command)
                        if trace:
                            self._trace_log.append(
                                f"[{now}] {process.name} -> "
                                f"{type(command).__name__}")
                        break
                    process._waiting = command
                    if trace:
                        self._trace_log.append(
                            f"[{now}] {process.name} -> Delay")
                    cycles = command.cycles
                    # Run ahead: resume this process at once when it would be
                    # the next entry popped and alone at its timestamp.  An
                    # entry due at the same cycle was scheduled earlier and
                    # must run first, hence ``<=``.  The clock is re-read
                    # because advance() may have moved it during the send.
                    if cycles:
                        due = self.now + cycles
                        if bucket or (heap and heap[0] <= due) \
                                or due > horizon or not remaining[0]:
                            entries = calendar.get(due)
                            if entries is None:
                                calendar[due] = [(process, None)]
                                push(heap, due)
                            else:
                                entries.append((process, None))
                            break
                        now = self.now = due
                    elif bucket or not remaining[0]:
                        append((process, None))
                        break
                    payload = None
            return False
        finally:
            self._horizon = -1

    # ------------------------------------------------------------------ #
    # Internal machinery
    # ------------------------------------------------------------------ #
    def _drained(self) -> bool:
        """Run the drain hooks; True when they scheduled something."""
        for hook in self._drain_hooks:
            hook()
        return bool(self._heap or self._bucket)

    def _schedule(self, delay: int, process: Process, value: Any) -> None:
        if delay == 0:
            self._bucket.append((process, value))
        else:
            self._at(self.now + delay, (process, value))

    def _at(self, due: int, entry: Any) -> None:
        """Queue ``entry`` behind every entry already due at cycle ``due``."""
        entries = self._calendar.get(due)
        if entries is None:
            self._calendar[due] = [entry]
            heapq.heappush(self._heap, due)
        else:
            entries.append(entry)

    def _resume(self, process: Process, value: Any) -> None:
        """Wake ``process`` at the current cycle with ``value``."""
        self._bucket.append((process, value))

    def _finish(self, process: Process, result: Any) -> None:
        process.finished = True
        process.result = result
        process._waiting = "finished"
        self._live_processes.pop(process.pid, None)
        if self.trace:
            self._trace_log.append(f"[{self.now}] {process.name} finished")
        if process._completion is not None:
            process._completion.trigger(result)

    # --- per-command handlers (indexed by Command._tag) ---------------- #
    def _handle_delay(self, process: Process, command: Delay) -> None:
        process._waiting = command
        self._schedule(command.cycles, process, None)

    def _handle_put(self, process: Process, command: Put) -> None:
        process._waiting = command
        process.waiting_since = self.now
        command.queue._blocking_put(process, command.item)

    def _handle_get(self, process: Process, command: Get) -> None:
        process._waiting = command
        process.waiting_since = self.now
        command.queue._blocking_get(process)

    def _handle_wait(self, process: Process, command: Wait) -> None:
        process._waiting = command
        process.waiting_since = self.now
        event = command.event
        if event._triggered:
            self._resume(process, event._value)
        else:
            event._waiters.append(process)

    def _handle_fork(self, process: Process, command: Fork) -> None:
        child = self.spawn(
            command.generator, command.name or "forked", daemon=command.daemon
        )
        self._resume(process, child)

    def _handle_join(self, process: Process, command: Join) -> None:
        target = command.process
        process._waiting = command
        process.waiting_since = self.now
        if target.finished:
            self._resume(process, target.result)
        else:
            target.completion._waiters.append(process)

    # --- deadlock reporting -------------------------------------------- #
    def _blocked_processes(self) -> List[Process]:
        """Blocked non-daemon processes in deterministic (cycle, pid) order."""
        blocked = [
            p for p in self._live_processes.values()
            if not p.finished and not p.daemon
        ]
        blocked.sort(key=lambda p: (p.waiting_since, p.pid))
        return blocked

    def _raise_deadlock(self) -> None:
        blocked = self._blocked_processes()
        details = ", ".join(f"{p.name}[{p.waiting_on}]" for p in blocked)
        raise DeadlockError(
            f"simulation deadlocked at cycle {self.now}: "
            f"{len(blocked)} process(es) blocked: {details}"
        )

    def _raise_watched_deadlock(self, watched: List[Process]) -> None:
        blocked = [p for p in watched if not p.finished]
        blocked.sort(key=lambda p: (p.waiting_since, p.pid))
        details = ", ".join(f"{p.name}[{p.waiting_on}]" for p in blocked)
        raise DeadlockError(
            f"simulation deadlocked at cycle {self.now}: "
            f"watched process(es) blocked: {details}"
        )
