"""Submission Handler of Picos Manager (Figure 4 of the paper).

The Submission Handler carries task descriptors from the per-core Picos
Delegates to the single Picos submission interface.  It guarantees:

1. **Atomicity** — packet sequences from different cores never interleave.
   A Guided Arbiter hands the Picos-facing interface to one core for a whole
   48-beat sequence.
2. **Compression** — cores transmit only the non-zero prefix of a descriptor
   (3 + 3·D packets); the Zero Padder appends the remaining zero packets so
   Picos always sees 48.
3. **Protocol crossing** — per-core Chisel-style buffers feed the Picos
   submission queue through a final buffer.

Each pump spends ``submission_packet_cycles`` on every packet, but a step
that would resume it at once, alone, is taken without a round trip
through the engine: the clock moves in place (:meth:`Engine.advance`),
and a word already buffered is taken, or a packet put into room in a queue
that nobody waits on, without a ``yield``.  Once the Picos inserter has
caught up (it is parked on the empty submission queue) the pump hands it
the packets of the rest of the descriptor directly
(:meth:`PicosDevice.try_intake`) and wakes it only with the last one,
through the queue.  The Zero Padder's packets before the last move in one
step as far as every one of their steps ends by
:meth:`Engine.run_ahead_limit`, so that nothing else can run between them
(:meth:`PicosDevice.take_zero_packets`): into the parked inserter, or
into room in the queue while the inserter is busy or stalled.  When the
queue is full, the pump blocks on each zero with its progress published
in :attr:`PicosDevice.padder_zeros`; the inserter then runs whole lockstep
cycles against it in one step and counts them off, and the pump reads
back how far it got when it wakes.  The put of the last packet, which
ends the grant, and the steps around any other process's event stay one
per packet, because the pump's place in each cycle decides where the
inserter's wake-up and the next core's grant land.

Software interacts with the handler only through the two non-blocking hooks
used by the delegate instructions: :meth:`announce` (Submission Request) and
:meth:`push_packet` / :meth:`push_packets` (Submit Packet / Submit Three
Packets).  Both return ``False`` instead of blocking when internal buffers
are full, which is what lets the ISA stay deadlock-free (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.config import PicosCosts
from repro.common.errors import ProtocolError
from repro.common.stats import Stats
from repro.picos.device import PicosDevice
from repro.picos.packets import PACKETS_PER_DESCRIPTOR
from repro.sim.arbiters import GuidedArbiter
from repro.sim.engine import Delay, Engine, Get, ProcessGen, Put, Wait
from repro.sim.queues import DecoupledQueue

__all__ = ["SubmissionHandler", "PendingSubmission"]

#: Depth of each core-specific submission packet buffer.
_CORE_BUFFER_DEPTH = 16
#: Depth of the announcement queue per core (outstanding Submission Requests).
_ANNOUNCE_DEPTH = 2
#: Index of a descriptor's last packet, which always wakes the inserter.
_LAST_PACKET = PACKETS_PER_DESCRIPTOR - 1
#: Stands for "no buffered word": packets are unsigned 32-bit words.
_NO_WORD = -1


@dataclass
class PendingSubmission:
    """One announced-but-not-yet-forwarded task submission from a core."""

    core_id: int
    nonzero_packets: int

    def __post_init__(self) -> None:
        if not 3 <= self.nonzero_packets <= PACKETS_PER_DESCRIPTOR:
            raise ProtocolError(
                "a submission must announce between 3 and 48 packets, "
                f"got {self.nonzero_packets}"
            )
        if self.nonzero_packets % 3 != 0:
            raise ProtocolError(
                "the non-zero packet count of a descriptor is always a "
                f"multiple of three, got {self.nonzero_packets}"
            )


class SubmissionHandler:
    """Moves per-core packet streams onto the Picos submission interface."""

    __slots__ = ("engine", "device", "num_cores", "costs", "name", "stats",
                 "arbiter", "_buffers", "_announcements", "_pumps")

    def __init__(self, engine: Engine, device: PicosDevice, num_cores: int,
                 costs: PicosCosts, name: str = "submission_handler") -> None:
        self.engine = engine
        self.device = device
        self.num_cores = num_cores
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        self.arbiter = GuidedArbiter(engine, num_cores, name=f"{name}.guided")
        self._buffers: List[DecoupledQueue[int]] = [
            DecoupledQueue(engine, _CORE_BUFFER_DEPTH, name=f"{name}.buf{core}")
            for core in range(num_cores)
        ]
        self._announcements: List[DecoupledQueue[PendingSubmission]] = [
            DecoupledQueue(engine, _ANNOUNCE_DEPTH, name=f"{name}.ann{core}")
            for core in range(num_cores)
        ]
        self._pumps = [
            engine.spawn(self._pump(core), name=f"{name}.pump{core}", daemon=True)
            for core in range(num_cores)
        ]

    # ------------------------------------------------------------------ #
    # Delegate-facing non-blocking hooks
    # ------------------------------------------------------------------ #
    def announce(self, core_id: int, nonzero_packets: int) -> bool:
        """Register a Submission Request; returns False when it must retry."""
        self._check_core(core_id)
        pending = PendingSubmission(core_id, nonzero_packets)
        accepted = self._announcements[core_id].try_put(pending)
        if accepted:
            self.stats.incr("submission_requests")
        else:
            self.stats.incr("submission_request_failures")
        return accepted

    def push_packet(self, core_id: int, word: int) -> bool:
        """Buffer one 32-bit submission packet; False when the buffer is full."""
        self._check_core(core_id)
        accepted = self._buffers[core_id].try_put(word & 0xFFFFFFFF)
        if accepted:
            self.stats.incr("packets_buffered")
        else:
            self.stats.incr("packet_buffer_failures")
        return accepted

    def push_packets(self, core_id: int, words: Sequence[int]) -> bool:
        """Buffer several packets atomically (all or nothing)."""
        self._check_core(core_id)
        buffer = self._buffers[core_id]
        if buffer.capacity - len(buffer) < len(words):
            self.stats.incr("packet_buffer_failures")
            return False
        for word in words:
            buffer.try_put(word & 0xFFFFFFFF)
        self.stats.add("packets_buffered", len(words))
        return True

    # ------------------------------------------------------------------ #
    # The per-core pump processes
    # ------------------------------------------------------------------ #
    def _pump(self, core_id: int) -> ProcessGen:
        """Stream announced submissions from ``core_id`` into Picos."""
        announcements = self._announcements[core_id]
        buffer = self._buffers[core_id]
        get_quiet = buffer.try_get_quiet
        next_word = Get(buffer)
        device = self.device
        submission_queue = device.submission_queue
        try_intake = device.try_intake
        put_quiet = submission_queue.try_put_quiet
        take_zero_packets = device.take_zero_packets
        transfer_beat = self.arbiter.transfer_beat
        transfer_beats = self.arbiter.transfer_beats
        stats = self.stats
        engine = self.engine
        advance = engine.advance
        run_ahead_steps = engine.run_ahead_steps
        packet_cycles = self.costs.submission_packet_cycles
        packet_delay = Delay(packet_cycles)
        handoff = Delay(0)
        while True:
            pending: PendingSubmission = yield Get(announcements)
            grant = self.arbiter.request(core_id, PACKETS_PER_DESCRIPTOR)
            yield Wait(grant)
            # Forward the announced non-zero prefix at one packet per cycle,
            # then let the Zero Padder complete the 48-packet sequence.
            nonzero = pending.nonzero_packets
            index = 0
            while index < PACKETS_PER_DESCRIPTOR:
                if index < nonzero:
                    # A buffered word would resume this pump at once, alone.
                    word = get_quiet(_NO_WORD) if advance(0) else _NO_WORD
                    if word == _NO_WORD:
                        word = yield next_word
                else:
                    word = 0
                    if index < _LAST_PACKET:
                        # Zero packets before the last move in one step as
                        # far as their packet steps would all advance in
                        # place: into a parked inserter, or into room in a
                        # queue that nobody waits on.
                        run = run_ahead_steps(packet_cycles,
                                              _LAST_PACKET - index)
                        if run:
                            run = take_zero_packets(run)
                            if run:
                                engine.now += run * packet_cycles
                                transfer_beats(core_id, run)
                                index += run
                if not advance(packet_cycles):
                    yield packet_delay
                if try_intake(word):
                    if not advance(0):
                        yield handoff
                elif advance(0) and put_quiet((word,)):
                    # The put would have resumed this pump at once, alone.
                    pass
                elif index < nonzero:
                    yield Put(submission_queue, word)
                else:
                    # While this put blocks, the inserter may move zeros in
                    # lockstep and count them off ``padder_zeros``.
                    zeros = device.padder_zeros = _LAST_PACKET - index
                    yield Put(submission_queue, 0)
                    moved = zeros - device.padder_zeros
                    device.padder_zeros = 0
                    if moved:
                        transfer_beats(core_id, moved)
                        index += moved
                transfer_beat(core_id)
                index += 1
            stats.incr("descriptors_forwarded")
            stats.add("zero_packets_padded", PACKETS_PER_DESCRIPTOR - nonzero)

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )
