"""Picos Manager: the chip-wide glue between the cores and Picos.

The Manager (Section IV-F, Figure 5) is instantiated once in the SoC and is
visible to every core's Picos Delegate.  It composes:

* the Submission Handler (Guided Arbiter, Zero Padder, final buffer), whose
  :class:`~repro.manager.submission.SubmissionStream` feeds Picos,
* the :class:`~repro.manager.workfetch.WorkFetchUnit` (RoCC Ready Queue and
  per-core ready queues, with the Packet Encoder and the in-order
  Work-Fetch Arbiter as its two daemon loops),
* a round-robin retirement arbiter merging per-core retirement queues into
  the single Picos retirement interface,
* a 4-bit debug/error register mirroring the debug interface the paper
  mentions.

It also decouples the cores from the Picos API: the delegates only ever talk
to the Manager, so a different hardware scheduler could be dropped in behind
the same custom instructions — one of the paper's design goals.
"""

from __future__ import annotations

import enum
from typing import List

from repro.common.config import PicosCosts
from repro.common.errors import ProtocolError
from repro.common.stats import Stats
from repro.picos.device import PicosDevice, ReadyTask
from repro.sim.arbiters import RoundRobinArbiter
from repro.sim.engine import Engine
from repro.sim.queues import DecoupledQueue

__all__ = ["ManagerError", "PicosManager"]

#: Depth of each per-core retirement queue.
_CORE_RETIRE_DEPTH = 4


class ManagerError(enum.IntFlag):
    """The Manager's 4-bit debug error register."""

    NONE = 0
    SUBMISSION_OVERFLOW = 1
    READY_OVERFLOW = 2
    RETIREMENT_OVERFLOW = 4
    PROTOCOL_VIOLATION = 8


#: The stat each error bit bumps, built once instead of on every flag.
_ERROR_COUNTERS = {
    error: f"error_{error.name.lower()}" for error in ManagerError if error
}


class PicosManager:
    """One Picos Manager serving ``num_cores`` Picos Delegates."""

    def __init__(self, engine: Engine, device: PicosDevice, num_cores: int,
                 costs: PicosCosts, name: str = "picos_manager") -> None:
        if num_cores <= 0:
            raise ProtocolError("num_cores must be positive")
        self.engine = engine
        self.device = device
        self.num_cores = num_cores
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        self.error_register = ManagerError.NONE

        from repro.manager.submission import SubmissionStream
        from repro.manager.workfetch import WorkFetchUnit

        self.submission_handler = SubmissionStream(
            engine, device, num_cores, costs, name=f"{name}.submission"
        )
        self.work_fetch = WorkFetchUnit(
            engine, device, num_cores, costs, name=f"{name}.workfetch"
        )
        self.retirement_queues: List[DecoupledQueue[int]] = [
            DecoupledQueue(engine, _CORE_RETIRE_DEPTH, name=f"{name}.retire{core}")
            for core in range(num_cores)
        ]
        self.retirement_arbiter = RoundRobinArbiter(
            engine,
            inputs=self.retirement_queues,
            output=device.retirement_queue,
            cycles_per_grant=1,
            name=f"{name}.rr_retire",
        )

    # ------------------------------------------------------------------ #
    # Submission path (used by Submission Request / Submit Packet[s])
    # ------------------------------------------------------------------ #
    def announce_submission(self, core_id: int, nonzero_packets: int) -> bool:
        """Forward a Submission Request announcement; non-blocking."""
        accepted = self.submission_handler.announce(core_id, nonzero_packets)
        if not accepted:
            self._flag(ManagerError.SUBMISSION_OVERFLOW)
        return accepted

    def submit_packet(self, core_id: int, word: int) -> bool:
        """Forward one Submit Packet word; non-blocking."""
        accepted = self.submission_handler.push_packet(core_id, word)
        if not accepted:
            self._flag(ManagerError.SUBMISSION_OVERFLOW)
        return accepted

    def submit_packets(self, core_id: int, words) -> bool:
        """Forward a Submit Three Packets triple; non-blocking, atomic."""
        accepted = self.submission_handler.push_packets(core_id, words)
        if not accepted:
            self._flag(ManagerError.SUBMISSION_OVERFLOW)
        return accepted

    # ------------------------------------------------------------------ #
    # Work-fetch path (Ready Task Request / Fetch SW ID / Fetch Picos ID)
    # ------------------------------------------------------------------ #
    def request_ready_task(self, core_id: int) -> bool:
        """Forward a Ready Task Request; non-blocking."""
        accepted = self.work_fetch.request_ready_task(core_id)
        if not accepted:
            self._flag(ManagerError.READY_OVERFLOW)
        return accepted

    def core_ready_queue(self, core_id: int) -> DecoupledQueue[ReadyTask]:
        """The private ready queue the delegate of ``core_id`` reads."""
        return self.work_fetch.core_queue(core_id)

    def notify_task_started(self, picos_id: int) -> None:
        """Record that a fetched task is now executing on some core."""
        self.device.graph.mark_running(picos_id)

    # ------------------------------------------------------------------ #
    # Retirement path (Retire Task)
    # ------------------------------------------------------------------ #
    def retirement_queue(self, core_id: int) -> DecoupledQueue[int]:
        """The per-core retirement queue feeding the round-robin arbiter."""
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )
        return self.retirement_queues[core_id]

    # ------------------------------------------------------------------ #
    # Debug interface
    # ------------------------------------------------------------------ #
    def _flag(self, error: ManagerError) -> None:
        # A set bit needs no IntFlag ``|``, which builds a new member.
        if not int.__and__(self.error_register, error):
            self.error_register |= error
        self.stats.incr(_ERROR_COUNTERS[error])

    def clear_errors(self) -> None:
        """Reset the 4-bit error register."""
        self.error_register = ManagerError.NONE
