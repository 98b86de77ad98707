"""Bounded decoupled queues modelling Chisel ready/valid FIFOs.

Rocket Chip, Picos Manager and Picos itself communicate through hardware
queues with back-pressure.  :class:`DecoupledQueue` models such a FIFO:

* bounded capacity,
* non-blocking ``try_put`` / ``try_get`` used by hardware state machines
  (these mirror the ``valid && ready`` single-cycle handshake),
* blocking access for engine processes via the :class:`~repro.sim.engine.Put`
  and :class:`~repro.sim.engine.Get` commands.

:class:`ProtocolCrossingQueue` adds the fallthrough/non-fallthrough
distinction called out in Section IV-F.2 of the paper: Picos queues are
non-fallthrough (an item written this cycle is only visible next cycle),
whereas standard Chisel queues are fallthrough.  The protocol-crossing
modules of Picos Manager exist precisely to bridge that difference.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, List, Optional, Tuple, TypeVar

from repro.common.errors import QueueError
from repro.sim.engine import Engine, Process

__all__ = ["DecoupledQueue", "ProtocolCrossingQueue"]

T = TypeVar("T")


class DecoupledQueue(Generic[T]):
    """A bounded FIFO with ready/valid semantics and blocking process access."""

    __slots__ = ("engine", "capacity", "name", "_items", "_put_waiters",
                 "_get_waiters", "total_enqueued", "total_dequeued",
                 "high_watermark", "_enqueue_observers",
                 "_dequeue_observers")

    def __init__(self, engine: Engine, capacity: int, name: str = "queue") -> None:
        if capacity <= 0:
            raise QueueError(f"queue capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self._put_waiters: Deque[Tuple[Process, T]] = deque()
        self._get_waiters: Deque[Process] = deque()
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.high_watermark = 0
        self._enqueue_observers: List[Any] = []
        self._dequeue_observers: List[Any] = []

    def subscribe_enqueue(self, callback) -> None:
        """Register ``callback()`` to run after every enqueue (HW wake-up)."""
        self._enqueue_observers.append(callback)

    def subscribe_dequeue(self, callback) -> None:
        """Register ``callback()`` to run after every dequeue (HW wake-up)."""
        self._dequeue_observers.append(callback)

    def unsubscribe_enqueue(self, callback) -> None:
        """Remove a previously registered enqueue observer (no-op if absent)."""
        try:
            self._enqueue_observers.remove(callback)
        except ValueError:
            pass

    def unsubscribe_dequeue(self, callback) -> None:
        """Remove a previously registered dequeue observer (no-op if absent)."""
        try:
            self._dequeue_observers.remove(callback)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Hardware-style (non-blocking) interface
    # ------------------------------------------------------------------ #
    @property
    def ready(self) -> bool:
        """True when the queue can accept an item this cycle."""
        return len(self._items) < self.capacity

    @property
    def valid(self) -> bool:
        """True when the queue has an item to offer this cycle."""
        return bool(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        """True when the queue holds no items."""
        return not self._items

    @property
    def full(self) -> bool:
        """True when the queue is at capacity."""
        return len(self._items) >= self.capacity

    def try_put(self, item: T) -> bool:
        """Enqueue ``item`` if space is available; return success."""
        if len(self._items) >= self.capacity:
            return False
        self._enqueue(item)
        return True

    def try_get(self) -> Optional[T]:
        """Dequeue and return the head item, or None if the queue is empty."""
        if not self._items:
            return None
        return self._dequeue()

    def peek(self) -> T:
        """Return (without removing) the head item."""
        if self.empty:
            raise QueueError(f"peek on empty queue {self.name!r}")
        return self._items[0]

    def snapshot(self) -> List[T]:
        """A copy of the queue contents, head first (for tests/debugging)."""
        return list(self._items)

    # ------------------------------------------------------------------ #
    # Engine integration (blocking interface)
    # ------------------------------------------------------------------ #
    def _blocking_put(self, process: Process, item: T) -> None:
        if not self._put_waiters and len(self._items) < self.capacity:
            self._enqueue(item)
            self.engine._resume(process, None)
        else:
            self._put_waiters.append((process, item))

    def _blocking_get(self, process: Process) -> None:
        if self._items:
            item = self._dequeue()
            self.engine._resume(process, item)
        else:
            self._get_waiters.append(process)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _enqueue(self, item: T) -> None:
        # Hot path: waiter wake-ups and observer fan-out are skipped
        # entirely (no method call) when nobody is subscribed or blocked.
        items = self._items
        items.append(item)
        self.total_enqueued += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        if self._get_waiters or self._put_waiters:
            self._wake_getters()
        if self._enqueue_observers:
            self._notify(self._enqueue_observers)

    def _pop_item(self) -> T:
        """Remove and return the head entry (every dequeue path counts here)."""
        self.total_dequeued += 1
        return self._items.popleft()

    def _dequeue(self) -> T:
        item = self._pop_item()
        if self._put_waiters or self._get_waiters:
            self._wake_putters()
        if self._dequeue_observers:
            self._notify(self._dequeue_observers)
        return item

    def _notify(self, observers: List[Any]) -> None:
        for callback in observers:
            callback()

    def _wake_getters(self) -> None:
        while self._items and self._get_waiters:
            process = self._get_waiters.popleft()
            item = self._pop_item()
            self.engine._resume(process, item)
        # Dequeues above may have made room for blocked putters.
        self._wake_putters()

    def _wake_putters(self) -> None:
        while self._put_waiters and len(self._items) < self.capacity:
            process, item = self._put_waiters.popleft()
            self._items.append(item)
            self.total_enqueued += 1
            if len(self._items) > self.high_watermark:
                self.high_watermark = len(self._items)
            self.engine._resume(process, None)
        # Newly enqueued items may satisfy blocked getters.
        while self._items and self._get_waiters:
            process = self._get_waiters.popleft()
            item = self._pop_item()
            self.engine._resume(process, item)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecoupledQueue({self.name!r}, {len(self._items)}/{self.capacity})"
        )


class ProtocolCrossingQueue(DecoupledQueue[T]):
    """A queue whose enqueues only become visible after a fixed delay.

    This models the protocol-crossing modules of Picos Manager: Picos queues
    are *non-fallthrough*, i.e. a packet written in cycle *t* can only be
    read in cycle *t + delay*.  The crossing buffers items for ``delay``
    cycles before exposing them to consumers.
    """

    __slots__ = ("delay", "_in_flight")

    def __init__(self, engine: Engine, capacity: int, delay: int = 1,
                 name: str = "crossing") -> None:
        super().__init__(engine, capacity, name)
        if delay < 0:
            raise QueueError("crossing delay must be non-negative")
        self.delay = delay
        self._in_flight = 0

    @property
    def ready(self) -> bool:  # type: ignore[override]
        return len(self._items) + self._in_flight < self.capacity

    @property
    def full(self) -> bool:  # type: ignore[override]
        return len(self._items) + self._in_flight >= self.capacity

    def try_put(self, item: T) -> bool:
        # Hot path: the ``full`` property body is inlined (in-flight items
        # count against capacity) to skip the descriptor call per put.
        if len(self._items) + self._in_flight >= self.capacity:
            return False
        if self.delay == 0:
            self._enqueue(item)
            return True
        self._in_flight += 1
        self.engine.schedule_callback(self.delay, lambda: self._land(item))
        return True

    def _land(self, item: T) -> None:
        self._in_flight -= 1
        self._enqueue(item)

    def _blocking_put(self, process: Process, item: T) -> None:
        if self.try_put(item):
            self.engine._resume(process, None)
        else:
            self._put_waiters.append((process, item))

    def _wake_putters(self) -> None:
        while (self._put_waiters
               and len(self._items) + self._in_flight < self.capacity):
            process, item = self._put_waiters.popleft()
            if self.delay == 0:
                self._items.append(item)
                self.total_enqueued += 1
            else:
                self._in_flight += 1
                self.engine.schedule_callback(
                    self.delay, lambda it=item: self._land(it)
                )
            self.engine._resume(process, None)
        while self._items and self._get_waiters:
            waiter = self._get_waiters.popleft()
            landed = self._pop_item()
            self.engine._resume(waiter, landed)
