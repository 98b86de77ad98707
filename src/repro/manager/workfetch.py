"""Packet Encoder and Work-Fetch Arbiter of Picos Manager (Figure 5).

Two daemon loops of :class:`WorkFetchUnit` move ready-to-run tasks from
Picos to the cores:

* the **Packet Encoder** (``_encode``) reads the three 32-bit ready packets
  Picos emits per task, one per cycle, and stores one 96-bit
  ``(Picos ID, SW ID)`` entry in the central *RoCC Ready Queue*.  Picos's
  ready queue holds the task as one entry, so the encoder takes it in the
  cycle it would read the first packet and frees its Picos slot two cycles
  later, when it would read the last;
* the **Work-Fetch Arbiter** (``_route``) serves Ready Task Requests
  strictly in the chronological order cores issued them (Section IV-E.4):
  for each request token it pops one entry from the RoCC Ready Queue and
  deposits it into the requesting core's private ready queue.  A later
  request is never served before an earlier one.

The per-core ready queues hide roughly half of the 8-cycle Picos ready-task
fetch latency from the application, which then retrieves the 96 bits with
the two 2-cycle instructions Fetch SW ID and Fetch Picos ID (Section IV-F.2).
"""

from __future__ import annotations

from typing import List

from repro.common.config import PicosCosts
from repro.common.errors import ProtocolError
from repro.common.stats import Stats
from repro.picos.device import PicosDevice, ReadyTask
from repro.sim.engine import Delay, Engine, Get, ProcessGen, Put
from repro.sim.queues import DecoupledQueue

__all__ = ["WorkFetchUnit"]

#: Depth of the central RoCC Ready Queue (96-bit entries).
_ROCC_READY_DEPTH = 16
#: Depth of each core-specific ready queue.
_CORE_READY_DEPTH = 2
#: Depth of the work-fetch routing queue (pending Ready Task Requests).
_ROUTING_DEPTH = 16
#: The encoder reads one 32-bit ready packet per cycle: the second and third
#: packets of a task, then the cycle spent on the last one.
_LATER_PACKETS = Delay(2)
_LAST_PACKET = Delay(1)
#: Cycles the Work-Fetch Arbiter takes to grant one request.
_GRANT = Delay(1)


class WorkFetchUnit:
    """Packet Encoder, RoCC Ready Queue, in-order Work-Fetch Arbiter and
    per-core ready queues."""

    __slots__ = ("engine", "device", "num_cores", "costs", "name", "stats",
                 "rocc_ready_queue", "routing_queue", "core_ready_queues")

    def __init__(self, engine: Engine, device: PicosDevice, num_cores: int,
                 costs: PicosCosts, name: str = "work_fetch") -> None:
        if num_cores <= 0:
            raise ProtocolError("num_cores must be positive")
        self.engine = engine
        self.device = device
        self.num_cores = num_cores
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        #: Central queue of assembled 96-bit ready entries.
        self.rocc_ready_queue: DecoupledQueue[ReadyTask] = DecoupledQueue(
            engine, _ROCC_READY_DEPTH, name=f"{name}.rocc_ready"
        )
        #: Pending Ready Task Requests, in issue order.
        self.routing_queue: DecoupledQueue[int] = DecoupledQueue(
            engine, _ROUTING_DEPTH, name=f"{name}.routing"
        )
        #: Core-specific ready queues of (Picos ID, SW ID) tuples.
        self.core_ready_queues: List[DecoupledQueue[ReadyTask]] = [
            DecoupledQueue(engine, _CORE_READY_DEPTH, name=f"{name}.core{core}")
            for core in range(num_cores)
        ]
        engine.spawn(self._encode(), name=f"{name}.encoder", daemon=True)
        engine.spawn(self._route(), name=f"{name}.inorder", daemon=True)

    # ------------------------------------------------------------------ #
    # Delegate-facing hook
    # ------------------------------------------------------------------ #
    def request_ready_task(self, core_id: int) -> bool:
        """Enqueue a Ready Task Request; False when the routing queue is full."""
        self._check_core(core_id)
        accepted = self.routing_queue.try_put(core_id)
        if accepted:
            self.stats.incr("ready_task_requests")
        else:
            self.stats.incr("ready_task_request_failures")
        return accepted

    def core_queue(self, core_id: int) -> DecoupledQueue[ReadyTask]:
        """The private ready queue of ``core_id``."""
        self._check_core(core_id)
        return self.core_ready_queues[core_id]

    # ------------------------------------------------------------------ #
    # Daemon loops
    # ------------------------------------------------------------------ #
    def _encode(self) -> ProcessGen:
        """The Packet Encoder: one Picos ready task per RoCC Ready Queue entry."""
        device = self.device
        take = Get(device.ready_queue)
        store = self.rocc_ready_queue
        while True:
            entry = yield take
            yield _LATER_PACKETS
            device.release_ready_slot()
            yield _LAST_PACKET
            yield Put(store, entry)

    def _route(self) -> ProcessGen:
        """The Work-Fetch Arbiter: one entry per request, in request order."""
        request = Get(self.routing_queue)
        take = Get(self.rocc_ready_queue)
        core_queues = self.core_ready_queues
        stats = self.stats
        while True:
            core_id = yield request
            yield _GRANT
            entry = yield take
            yield Put(core_queues[core_id], entry)
            stats.incr("ready_tasks_routed")

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )
