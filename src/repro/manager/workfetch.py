"""Packet Encoder and Work-Fetch Arbiter of Picos Manager (Figure 5).

Two cooperating pieces move ready-to-run tasks from Picos to the cores:

* the **Packet Encoder** compresses the three 32-bit ready packets Picos
  emits per task into a single 96-bit ``(Picos ID, SW ID)`` entry stored in
  the central *RoCC Ready Queue*;
* the **Work-Fetch Arbiter** serves Ready Task Requests strictly in the
  chronological order cores issued them: for each request token it pops one
  entry from the RoCC Ready Queue and deposits it into the requesting core's
  private ready queue.

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
from repro.sim.arbiters import InOrderArbiter
from repro.sim.engine import Delay, Engine, Get, ProcessGen, Put
from repro.sim.queues import DecoupledQueue

__all__ = ["PacketEncoder", "WorkFetchUnit"]

#: Depth of the central RoCC Ready Queue (96-bit entries).
_ROCC_READY_DEPTH = 16
#: Depth of each core-specific ready queue.
_CORE_READY_DEPTH = 2
#: Depth of the work-fetch routing queue (pending Ready Task Requests).
_ROUTING_DEPTH = 16
#: Cycles for the encoder to ingest one 32-bit ready packet.
_ENCODER_CYCLES_PER_PACKET = 1


class PacketEncoder:
    """Compresses 3 x 32-bit ready packets into one 96-bit queue entry."""

    def __init__(self, engine: Engine, device: PicosDevice,
                 output: DecoupledQueue, name: str = "packet_encoder") -> None:
        self.engine = engine
        self.device = device
        self.output = output
        self.name = name
        self.stats = Stats(name)
        self._process = engine.spawn(self._run(), name=name, daemon=True)

    def _run(self) -> ProcessGen:
        while True:
            triple = []
            for expected_index in range(3):
                packet = yield Get(self.device.ready_queue)
                yield Delay(_ENCODER_CYCLES_PER_PACKET)
                if packet.index != expected_index:
                    raise ProtocolError(
                        f"ready packet out of order: expected index "
                        f"{expected_index}, got {packet.index}"
                    )
                triple.append(packet)
            entry = ReadyTask(picos_id=triple[0].picos_id,
                              sw_id=triple[0].sw_id)
            yield Put(self.output, entry)
            self.stats.incr("ready_entries_encoded")


class WorkFetchUnit:
    """Routing queue + in-order arbiter + per-core ready queues."""

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
        self.encoder = PacketEncoder(engine, device, self.rocc_ready_queue,
                                     name=f"{name}.encoder")
        self.arbiter = InOrderArbiter(
            engine, self.routing_queue, self._serve, cycles_per_grant=1,
            name=f"{name}.inorder",
        )

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
    # In-order service routine
    # ------------------------------------------------------------------ #
    def _serve(self, core_id: int) -> ProcessGen:
        """Satisfy one Ready Task Request (runs inside the arbiter process)."""
        entry = yield Get(self.rocc_ready_queue)
        yield Put(self.core_ready_queues[core_id], entry)
        self.stats.incr("ready_tasks_routed")

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )
