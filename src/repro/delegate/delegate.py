"""Picos Delegate: the per-core RoCC accelerator implementing Table I.

One Picos Delegate instance is attached to every Rocket core.  It decodes
the seven custom task-scheduling instructions and talks to Picos Manager on
behalf of its core.  All instructions except Retire Task are **non-blocking**:
if the Manager cannot accept the request (a buffer is full, the ready queue
is empty, …) the instruction immediately returns the failure flag and
software decides whether to retry, do other work, sleep or yield — this is
the deadlock-avoidance argument of Section IV-C.

The per-instruction semantics follow Section IV-E:

* **Submission Request** — announces how many non-zero packets the core will
  transmit for the next task descriptor.
* **Submit Packet** — forwards the lower 32 bits of ``rs1``.
* **Submit Three Packets** — forwards ``rs1[63:32]``, ``rs1[31:0]`` and
  ``rs2[31:0]`` (descriptor prefixes are always a multiple of three packets).
* **Ready Task Request** — asks the Manager to eventually move one ready
  task into this core's private ready queue.
* **Fetch SW ID** — returns the SW ID at the head of the private ready queue
  without popping it, and remembers that it did.
* **Fetch Picos ID** — returns the Picos ID of the same entry, pops the
  queue and clears the flag; fails if Fetch SW ID did not succeed first.
* **Retire Task** — blocking push of the Picos ID into the per-core
  retirement queue feeding the round-robin arbiter.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.common.config import RoccCosts
from repro.common.errors import ProtocolError
from repro.common.stats import Stats
from repro.cpu.rocc import RoccCommand, RoccResponse, TaskSchedulingFunct
from repro.manager.manager import PicosManager
from repro.sim.engine import Delay, Engine, Put

__all__ = ["PicosDelegate"]

_WORD = (1 << 32) - 1

#: Per-instruction stat names, built once instead of on every execute.
_INSTR_COUNTERS = {
    funct: f"instr_{funct.name.lower()}" for funct in TaskSchedulingFunct
}
_FAIL_COUNTERS = {
    funct: f"fail_{funct.name.lower()}" for funct in TaskSchedulingFunct
}

#: Responses are immutable, so every accepted instruction without a
#: result value and every refused one share an instance.
_ACCEPTED = RoccResponse(value=0)
_REFUSED = RoccResponse.failure()


class PicosDelegate:
    """RoCC accelerator stub exposing Picos to one core.

    The core waits out the issue and :attr:`handshake_cycles` before it
    calls :meth:`execute`.
    """

    __slots__ = ("core_id", "engine", "manager", "costs", "name", "stats",
                 "handshake_cycles", "_counters", "_retire_cycles",
                 "_retire_delay", "_sw_id_fetched")

    def __init__(self, core_id: int, engine: Engine, manager: PicosManager,
                 costs: RoccCosts, name: Optional[str] = None) -> None:
        if not 0 <= core_id < manager.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range for a manager with "
                f"{manager.num_cores} cores"
            )
        self.core_id = core_id
        self.engine = engine
        self.manager = manager
        self.costs = costs
        self.name = name or f"delegate{core_id}"
        self.stats = Stats(self.name)
        self._counters = self.stats.counter_map()
        #: Cycles to cross into Picos Manager before each instruction.
        self.handshake_cycles = costs.manager_handshake
        #: Retirement round-trip cost, with its ``Delay`` built once.
        self._retire_cycles = costs.retire_roundtrip
        self._retire_delay = Delay(costs.retire_roundtrip)
        #: Set by a successful Fetch SW ID, cleared by Fetch Picos ID.
        self._sw_id_fetched = False

    # ------------------------------------------------------------------ #
    # Instruction dispatch
    # ------------------------------------------------------------------ #
    def execute(self, command: RoccCommand) -> Any:
        """Execute one custom instruction after its handshake.

        A non-blocking instruction is answered at once with its
        :class:`RoccResponse`.  The blocking Retire Task returns the
        generator of its steps instead, which the core drives to the
        response.
        """
        funct = command.funct
        counters = self._counters
        counters[_INSTR_COUNTERS[funct]] += 1.0
        response = _HANDLERS[funct](self, command)
        if response is _REFUSED:
            counters[_FAIL_COUNTERS[funct]] += 1.0
        return response

    # ------------------------------------------------------------------ #
    # Individual instructions
    # ------------------------------------------------------------------ #
    def _submission_request(self, command: RoccCommand) -> RoccResponse:
        nonzero_packets = command.rs1_value
        if self.manager.announce_submission(self.core_id, nonzero_packets):
            return _ACCEPTED
        return _REFUSED

    def _submit_packet(self, command: RoccCommand) -> RoccResponse:
        word = command.rs1_value & _WORD
        if self.manager.submit_packet(self.core_id, word):
            return _ACCEPTED
        return _REFUSED

    def _submit_three_packets(self, command: RoccCommand) -> RoccResponse:
        p1 = (command.rs1_value >> 32) & _WORD
        p2 = command.rs1_value & _WORD
        p3 = command.rs2_value & _WORD
        if self.manager.submit_packets(self.core_id, (p1, p2, p3)):
            return _ACCEPTED
        return _REFUSED

    def _ready_task_request(self, command: RoccCommand) -> RoccResponse:
        if self.manager.request_ready_task(self.core_id):
            return _ACCEPTED
        return _REFUSED

    def _fetch_sw_id(self, command: RoccCommand) -> RoccResponse:
        queue = self.manager.core_ready_queue(self.core_id)
        if queue.empty:
            return _REFUSED
        entry = queue.peek()
        self._sw_id_fetched = True
        return RoccResponse(entry.sw_id)

    def _fetch_picos_id(self, command: RoccCommand) -> RoccResponse:
        queue = self.manager.core_ready_queue(self.core_id)
        if queue.empty or not self._sw_id_fetched:
            return _REFUSED
        entry = queue.try_get()
        self._sw_id_fetched = False
        self.manager.notify_task_started(entry.picos_id)
        return RoccResponse(entry.picos_id)

    def _retire_task(self, command: RoccCommand
                     ) -> Generator[Any, Any, RoccResponse]:
        queue = self.manager.retirement_queue(self.core_id)
        if not self.engine.advance(self._retire_cycles):
            yield self._retire_delay
        # Blocking semantics: wait until the per-core retirement queue (and
        # thus the round-robin arbiter) accepts the packet.  Picos drains
        # retirements quickly, so this almost never stalls (Section IV-E.7).
        yield Put(queue, command.rs1_value)
        return _ACCEPTED

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests
    # ------------------------------------------------------------------ #
    @property
    def sw_id_flag(self) -> bool:
        """State of the internal Fetch-SW-ID-succeeded flag."""
        return self._sw_id_fetched


#: The handler of each instruction.
_HANDLERS = {
    TaskSchedulingFunct.SUBMISSION_REQUEST: PicosDelegate._submission_request,
    TaskSchedulingFunct.SUBMIT_PACKET: PicosDelegate._submit_packet,
    TaskSchedulingFunct.SUBMIT_THREE_PACKETS:
        PicosDelegate._submit_three_packets,
    TaskSchedulingFunct.READY_TASK_REQUEST: PicosDelegate._ready_task_request,
    TaskSchedulingFunct.FETCH_SW_ID: PicosDelegate._fetch_sw_id,
    TaskSchedulingFunct.FETCH_PICOS_ID: PicosDelegate._fetch_picos_id,
    TaskSchedulingFunct.RETIRE_TASK: PicosDelegate._retire_task,
}
