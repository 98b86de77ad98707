"""Arbiters used by Picos Manager, modelled after Rocket Chip stock modules.

Three arbitration disciplines appear in the paper's hardware:

* :class:`RoundRobinArbiter` — merges retirement packets from every core
  into the single Picos retirement interface, one grant per cycle, rotating
  priority (a standard Chisel ``RRArbiter``).
* :class:`InOrderArbiter` — the Work-Fetch Arbiter: requests are granted in
  the exact chronological order they were made, so Picos Manager distributes
  ready tasks in the order cores asked for them (Section IV-E.4).
* :class:`GuidedArbiter` — the Submission Handler's arbiter: once a core is
  granted the submission interface it keeps it until its whole packet
  sequence (a task descriptor) has been transmitted, guaranteeing submission
  atomicity (Section IV-F.2).

The arbiters are *reactive*: they do no work (and schedule no events) while
their inputs are empty, which keeps the discrete-event simulation fast even
over billions of idle cycles.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.common.errors import ProtocolError
from repro.sim.engine import Delay, Engine, Get, ProcessGen
from repro.sim.queues import DecoupledQueue

__all__ = ["RoundRobinArbiter", "InOrderArbiter", "GuidedArbiter"]


class RoundRobinArbiter:
    """Moves items from N input queues to one output queue, round robin.

    One item moves per ``cycles_per_grant`` cycles while any input holds
    data and the output has room; the arbiter is otherwise idle.
    """

    __slots__ = ("engine", "inputs", "output", "cycles_per_grant", "name",
                 "grants", "_next_index", "_busy")

    def __init__(
        self,
        engine: Engine,
        inputs: Sequence[DecoupledQueue],
        output: DecoupledQueue,
        cycles_per_grant: int = 1,
        name: str = "rr_arbiter",
    ) -> None:
        if not inputs:
            raise ProtocolError("RoundRobinArbiter needs at least one input")
        if cycles_per_grant <= 0:
            raise ProtocolError("cycles_per_grant must be positive")
        self.engine = engine
        self.inputs = list(inputs)
        self.output = output
        self.cycles_per_grant = cycles_per_grant
        self.name = name
        self.grants = 0
        self._next_index = 0
        self._busy = False
        for queue in self.inputs:
            queue.subscribe_enqueue(self._kick)
        output.subscribe_dequeue(self._kick)

    def _kick(self) -> None:
        # Hot path: runs after every enqueue on any input, so the emptiness
        # scan is a plain loop over the internal deques (no generator, no
        # property descriptors).
        if self._busy or self.output.full:
            return
        for queue in self.inputs:
            if queue._items:
                break
        else:
            return
        self._busy = True
        self.engine.schedule_callback(self.cycles_per_grant, self._grant)

    def _grant(self) -> None:
        self._busy = False
        if self.output.full:
            return
        n = len(self.inputs)
        for offset in range(n):
            index = (self._next_index + offset) % n
            queue = self.inputs[index]
            if queue._items:
                item = queue.try_get()
                self.output.try_put(item)
                self.grants += 1
                self._next_index = (index + 1) % n
                break
        self._kick()


class InOrderArbiter:
    """Grants requests strictly in the order they arrived.

    Requesters push a request token (e.g. their core id) into
    ``request_queue``; a daemon process pops tokens in FIFO order and, for
    each, runs ``serve(token)`` — a generator producing the simulated work of
    satisfying that request (e.g. moving one ready task from the global ready
    queue into the requesting core's private queue).  A later request is
    never served before an earlier one has completed, which is exactly the
    ordering guarantee of the paper's Work-Fetch Arbiter.
    """

    __slots__ = ("engine", "request_queue", "serve", "cycles_per_grant",
                 "name", "grants", "_process")

    def __init__(
        self,
        engine: Engine,
        request_queue: DecoupledQueue,
        serve: Callable[[Any], ProcessGen],
        cycles_per_grant: int = 1,
        name: str = "inorder_arbiter",
    ) -> None:
        if cycles_per_grant <= 0:
            raise ProtocolError("cycles_per_grant must be positive")
        self.engine = engine
        self.request_queue = request_queue
        self.serve = serve
        self.cycles_per_grant = cycles_per_grant
        self.name = name
        self.grants = 0
        self._process = engine.spawn(self._run(), name=name, daemon=True)

    def _run(self) -> ProcessGen:
        while True:
            request = yield Get(self.request_queue)
            yield Delay(self.cycles_per_grant)
            yield from self.serve(request)
            self.grants += 1


class GuidedArbiter:
    """Exclusive, sequence-long grant of a shared resource.

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
