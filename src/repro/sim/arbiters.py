"""Arbiters used by Picos Manager, modelled after Rocket Chip stock modules.

:class:`RoundRobinArbiter` merges retirement packets from every core into
the single Picos retirement interface, one grant per cycle, rotating
priority (a standard Chisel ``RRArbiter``).  The paper's two other
arbiters live with their only users: the Work-Fetch Arbiter is a daemon
loop of :class:`~repro.manager.workfetch.WorkFetchUnit`, and the Submission
Handler's Guided Arbiter is part of the packet recurrence of
:class:`~repro.manager.submission.SubmissionStream`.

The arbiter is *reactive*: it does no work (and schedules no events) while
its inputs are empty, which keeps the discrete-event simulation fast even
over billions of idle cycles.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ProtocolError
from repro.sim.engine import Engine
from repro.sim.queues import DecoupledQueue

__all__ = ["RoundRobinArbiter"]


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
