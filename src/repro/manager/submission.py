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

Software interacts with the handler only through the two non-blocking hooks
used by the delegate instructions: :meth:`announce` (Submission Request) and
:meth:`push_packet` / :meth:`push_packets` (Submit Packet / Submit Three
Packets).  Both return ``False`` instead of blocking when internal buffers
are full, which is what lets the ISA stay deadlock-free (Section IV-C).

Behind the hooks, :class:`SubmissionStream` evaluates the packet path as a
recurrence; :class:`SteppedSubmission` steps it packet by packet, for the
costs under which the stream cannot place its steps exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.common.config import PicosCosts
from repro.common.errors import ProtocolError
from repro.common.stats import Stats
from repro.picos.device import PicosDevice
from repro.picos.packets import PACKETS_PER_DESCRIPTOR
from repro.sim.arbiters import GuidedArbiter
from repro.sim.engine import Delay, Engine, Event, Get, ProcessGen, Put, Wait
from repro.sim.queues import DecoupledQueue

__all__ = ["SubmissionHandler", "SubmissionStream", "SteppedSubmission",
           "check_announcement"]

#: Depth of each core-specific submission packet buffer.
_CORE_BUFFER_DEPTH = 16
#: Depth of the announcement queue per core (outstanding Submission Requests).
_ANNOUNCE_DEPTH = 2
_PACKETS = PACKETS_PER_DESCRIPTOR
_WORD = 0xFFFFFFFF
#: The Zero Padder's packets, of which a descriptor gets all after its prefix.
_ZEROS = [0] * PACKETS_PER_DESCRIPTOR
#: Later than every cycle: at a drain every grant may be handed on.
_NEVER = 1 << 62


def check_announcement(nonzero_packets: int) -> None:
    """Raise :class:`ProtocolError` unless a Submission Request's packet
    count is a multiple of three between 3 and 48."""
    if not 3 <= nonzero_packets <= PACKETS_PER_DESCRIPTOR:
        raise ProtocolError(
            "a submission must announce between 3 and 48 packets, "
            f"got {nonzero_packets}"
        )
    if nonzero_packets % 3 != 0:
        raise ProtocolError(
            "the non-zero packet count of a descriptor is always a "
            f"multiple of three, got {nonzero_packets}"
        )


class SubmissionHandler:
    """Moves per-core packet streams onto the Picos submission interface.

    ``handshake_cycles`` is the Picos Delegate's delay before each hook call
    (``RoccCosts.manager_handshake``).
    """

    __slots__ = ("engine", "device", "num_cores", "costs", "name", "stats",
                 "path")

    def __init__(self, engine: Engine, device: PicosDevice, num_cores: int,
                 costs: PicosCosts, name: str = "submission_handler",
                 handshake_cycles: int = 1) -> None:
        self.engine = engine
        self.device = device
        self.num_cores = num_cores
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        exact = self.stream_is_exact(costs, handshake_cycles)
        self.path = (SubmissionStream if exact else SteppedSubmission)(self)

    @staticmethod
    def stream_is_exact(costs: PicosCosts, handshake_cycles: int) -> bool:
        """Whether the costs fit :class:`SubmissionStream`'s argument: each
        hook call runs first in its cycle, and neither the retirement
        pipeline nor the ready emitter waits out a packet step."""
        cycles = costs.submission_packet_cycles
        return (handshake_cycles > 0 and cycles != costs.retire_cycles
                and cycles != costs.ready_emit_cycles)

    # ------------------------------------------------------------------ #
    # Delegate-facing non-blocking hooks
    # ------------------------------------------------------------------ #
    def announce(self, core_id: int, nonzero_packets: int) -> bool:
        """Register a Submission Request; returns False when it must retry."""
        self._check_core(core_id)
        check_announcement(nonzero_packets)
        accepted = self.path.announce(core_id, nonzero_packets)
        if accepted:
            self.stats.incr("submission_requests")
        else:
            self.stats.incr("submission_request_failures")
        return accepted

    def push_packet(self, core_id: int, word: int) -> bool:
        """Buffer one 32-bit submission packet; False when the buffer is full."""
        return self.push_packets(core_id, (word,))

    def push_packets(self, core_id: int, words: Sequence[int]) -> bool:
        """Buffer several packets atomically (all or nothing)."""
        self._check_core(core_id)
        if not self.path.push(core_id, words):
            self.stats.incr("packet_buffer_failures")
            return False
        self.stats.add("packets_buffered", len(words))
        return True

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )


class SteppedSubmission:
    """The packet path one packet step at a time: a pump process per core
    takes an announcement and the Guided Arbiter's grant, then puts each
    packet into Picos's submission queue ``submission_packet_cycles`` after
    taking it, for the device's own inserter."""

    __slots__ = ("handler", "buffers", "announcements", "arbiter",
                 "descriptors")

    def __init__(self, handler: SubmissionHandler) -> None:
        engine = handler.engine
        name = handler.name
        cores = range(handler.num_cores)
        self.handler = handler
        self.buffers: List[DecoupledQueue[int]] = [
            DecoupledQueue(engine, _CORE_BUFFER_DEPTH, name=f"{name}.buf{core}")
            for core in cores
        ]
        self.announcements: List[DecoupledQueue[int]] = [
            DecoupledQueue(engine, _ANNOUNCE_DEPTH, name=f"{name}.ann{core}")
            for core in cores
        ]
        self.arbiter = GuidedArbiter(engine, handler.num_cores,
                                     name=f"{name}.guided")
        self.descriptors = 0
        for core in cores:
            engine.spawn(self._pump(core), name=f"{name}.pump{core}",
                         daemon=True)

    def announce(self, core_id: int, nonzero_packets: int) -> bool:
        return self.announcements[core_id].try_put(nonzero_packets)

    def push(self, core_id: int, words: Sequence[int]) -> bool:
        buffer = self.buffers[core_id]
        if buffer.capacity - len(buffer) < len(words):
            return False
        for word in words:
            buffer.try_put(word & _WORD)
        return True

    def _pump(self, core_id: int) -> ProcessGen:
        handler = self.handler
        announcements = self.announcements[core_id]
        next_word = Get(self.buffers[core_id])
        queue = handler.device.submission_queue
        arbiter = self.arbiter
        packet_delay = Delay(handler.costs.submission_packet_cycles)
        stats = handler.stats
        while True:
            nonzero = yield Get(announcements)
            yield Wait(arbiter.request(core_id, _PACKETS))
            for index in range(_PACKETS):
                word = (yield next_word) if index < nonzero else 0
                yield packet_delay
                yield Put(queue, word)
                arbiter.transfer_beat(core_id)
            self.descriptors += 1
            stats.incr("descriptors_forwarded")
            stats.add("zero_packets_padded", _PACKETS - nonzero)


class SubmissionStream:
    """The packet path and Picos's packet intake as a tandem-queue recurrence.

    Number the packets in the order they enter the submission queue (depth
    ``Q``); let ``c`` be ``submission_packet_cycles`` and ``h[j]`` the later
    of the granted pump being ready for packet ``j`` and its word being
    buffered.  Then ``depart[j] = max(h[j] + c, take[j - Q])`` and
    ``take[j] = max(depart[j], take[j - 1] + c)``, a descriptor's first take
    also waiting for the previous insert to end.  The stream evaluates this
    at each input (an announcement, words, the end of an insert or of a
    grant) as far as the inputs decide it, in whole cycles: a put and a take
    in one cycle give the same result in either order.  Two things observe
    the path.  The hooks run right after the delegate's handshake delay,
    before any pump step of their cycle, so a call in cycle ``t`` sees what
    the pumps took before ``t``.  The insert runs in the stream's process:
    it sleeps until the cycle of a descriptor's last take, lets the rest of
    that cycle run (:meth:`Engine.cycle_pending`), waits ``c`` and inserts,
    as the inserter would after that cycle's heap entries; the only step
    that can still wait ``c`` that late and touch Picos, a Packet Encoder
    dequeue when ``c == 1``, commutes with the insert.  A run dry engine
    gets the path's last step (:meth:`Engine.on_drain`), so deadlocks are
    reported in the same cycle.
    """

    __slots__ = ("handler", "engine", "device", "cycles", "depth", "_words",
                 "_held", "_announced", "_busy", "_requests", "_started",
                 "_owner", "_nonzero", "_index", "_ready", "_holding",
                 "_attempt", "_release", "_forming", "_current", "_entered",
                 "_enters", "_takes", "_inserter", "_count", "_last_take",
                 "_tail", "_wake", "descriptors", "refused_as_room_frees")

    def __init__(self, handler: SubmissionHandler) -> None:
        engine = handler.engine
        cores = range(handler.num_cores)
        self.handler = handler
        self.engine = engine
        self.device = handler.device
        self.cycles = handler.costs.submission_packet_cycles
        self.depth = handler.costs.submission_queue_depth
        # Per core: words the pump has not taken; cycles of words taken in
        # this cycle or later, which still fill the buffer until then;
        # announcements it has not taken; whether it holds one.
        self._words: List[Deque[int]] = [deque() for _ in cores]
        self._held: List[Deque[int]] = [deque() for _ in cores]
        self._announced: List[Deque[int]] = [deque() for _ in cores]
        self._busy = [False] * handler.num_cores
        # Pumps waiting for the grant; until the engine first runs the
        # stream's process, the pumps have not started and take nothing.
        self._requests: Deque[Tuple[int, int]] = deque()
        self._started = False
        # The granted pump (-1: none): its descriptor's non-zero packets, its
        # next packet's index, when it is ready for it, whether it holds it
        # and since when it tries to put it, and its last beat's cycle.
        self._owner = -1
        self._nonzero = self._index = self._ready = self._attempt = 0
        self._holding = False
        self._release = -1
        # Words of the descriptors from Picos's up to the granted one.
        self._forming: Deque[List[int]] = deque()
        self._current: List[int] = []
        # Packets entered, entry cycles of those queued, and take cycles of
        # packets ``entered - Q`` onwards.
        self._entered = 0
        self._enters: Deque[int] = deque()
        self._takes: Deque[int] = deque()
        # Picos's next take (-1 while it inserts), its packets of the
        # descriptor, the cycle of a complete one's last take (-1: none);
        # the path's latest step; a waiting process's event.
        self._inserter = self._count = 0
        self._last_take = -1
        self._tail = 0
        self._wake: Optional[Event] = None
        #: Descriptors inserted; pushes refused for room that a pump frees
        #: later in their cycle.
        self.descriptors = self.refused_as_room_frees = 0
        engine.spawn(self._run(), name=f"{handler.name}.stream", daemon=True)
        engine.on_drain(self._drain)

    def announce(self, core_id: int, nonzero_packets: int) -> bool:
        now = self.engine.now
        if 0 <= self._release < now:
            self._advance(now)
        announced = self._announced[core_id]
        if len(announced) >= _ANNOUNCE_DEPTH:
            return False
        if self._busy[core_id] or not self._started:
            announced.append(nonzero_packets)
        else:
            # An idle pump takes it at once and asks for the grant.
            self._request(core_id, nonzero_packets, now)
        return True

    def push(self, core_id: int, words: Sequence[int]) -> bool:
        now = self.engine.now
        if 0 <= self._release < now:
            self._advance(now)
        held = self._held[core_id]
        while held and held[0] < now:
            held.popleft()
        buffered = self._words[core_id]
        room = _CORE_BUFFER_DEPTH - len(buffered) - len(held)
        if room < len(words):
            for cycle in held:
                if cycle > now or room >= len(words):
                    break
                room += 1
            if room >= len(words):
                self.refused_as_room_frees += 1
            return False
        for word in words:
            buffered.append(word & _WORD)
        if core_id == self._owner:
            if not self._holding and self._release < 0 and self._ready < now:
                self._ready = now  # The pump waited for this word.
            self._advance(now)
        return True

    def _request(self, core_id: int, nonzero: int, cycle: int) -> None:
        self._busy[core_id] = True
        if self._owner >= 0:
            self._requests.append((core_id, nonzero))
            return
        self._owner = core_id
        self._nonzero = nonzero
        self._index = 0
        self._ready = cycle
        self._current = []
        self._forming.append(self._current)

    def _hand_on(self) -> None:
        """Pass the grant on after its last beat."""
        end = self._release
        owner = self._owner
        stats = self.handler.stats
        stats.incr("descriptors_forwarded")
        stats.add("zero_packets_padded", _PACKETS - self._nonzero)
        self._release = self._owner = -1
        self._busy[owner] = False
        requests = self._requests
        if requests:
            self._request(*requests.popleft(), end)
        announced = self._announced[owner]
        if announced:
            # Its pump takes the next announcement once the grant has passed
            # on, and queues behind the pumps already waiting.
            self._request(owner, announced.popleft(), end)

    def _pass_grant(self) -> None:
        # In the last beat's cycle: once the hook calls, which come first,
        # have run, the grant passes on as if the clock were past it.
        self.engine.schedule_callback(0, self._passed)

    def _passed(self) -> None:
        self._advance(self.engine.now + 1)

    def _advance(self, now: int) -> None:
        """Evaluate the recurrence as far as the inputs so far decide it.

        A grant whose last beat is in cycle ``now`` or later passes on only
        once the clock is past that cycle: an announcement in it may still
        queue ahead of the owner's next one.
        """
        cycles = self.cycles
        depth = self.depth
        enters = self._enters
        takes = self._takes
        taker = self._inserter
        count = self._count
        tail = self._tail
        while True:
            if taker >= 0 and enters:
                # Picos takes what has entered, up to a descriptor's last
                # packet.  Packets enter at least ``cycles`` apart, so when
                # the last of a batch was there in time, all were.
                batch = min(len(enters), _PACKETS - count)
                take = taker + (batch - 1) * cycles
                if enters[batch - 1] <= take:
                    takes.extend(_cycles(taker, batch, cycles))
                    for _ in range(batch):
                        enters.popleft()
                else:
                    for _ in range(batch):
                        take = enters.popleft()
                        if take < taker:
                            take = taker
                        takes.append(take)
                        taker = take + cycles
                count += batch
                if count == _PACKETS:
                    self._last_take = take
                    taker = -1
                else:
                    taker = take + cycles
                    if taker > tail:
                        tail = taker
            owner = self._owner
            release = self._release
            if owner < 0 or release >= now:
                break
            if release >= 0:
                self._hand_on()
                continue
            # The granted pump puts packets while their room is known:
            # packet j enters once Picos took packet j - Q.
            index = self._index
            nonzero = self._nonzero
            ready = self._ready
            holding = self._holding
            attempt = self._attempt
            entered = self._entered
            words = self._words[owner]
            held = self._held[owner]
            while index < _PACKETS:
                if not holding:
                    if taker >= 0 and enters:
                        break  # Picos takes what has entered first.
                    # The pump's run: the buffered words it wants and, once
                    # it has them all, the zeros.
                    wanted = nonzero - index
                    run = _PACKETS - index
                    if 0 < len(words) < wanted:
                        run = wanted = len(words)
                    elif wanted > 0 and not words:
                        break
                    attempt = ready + cycles
                    if 0 <= taker <= attempt:
                        # Picos has caught up: each packet enters when it
                        # is put and is taken at once.
                        if wanted > 0:
                            current = self._current
                            for _ in range(wanted):
                                current.append(words.popleft())
                            held.extend(_cycles(ready, wanted, cycles))
                        takes.extend(_cycles(attempt, run, cycles))
                        for _ in range(entered + run - max(entered, depth)):
                            takes.popleft()
                        entered += run
                        index += run
                        count += run
                        ready = attempt = attempt + (run - 1) * cycles
                        if index == _PACKETS:
                            self._last_take = ready
                            taker = -1
                        else:
                            taker = ready + cycles
                            if taker > tail:
                                tail = taker
                        continue
                    if index < nonzero:
                        self._current.append(words.popleft())
                        held.append(ready)
                    holding = True
                if entered >= depth:
                    if not takes:
                        break
                    ready = takes.popleft()
                    if ready < attempt:
                        ready = attempt
                else:
                    ready = attempt
                entered += 1
                enters.append(ready)
                holding = False
                index += 1
            if attempt > tail:
                tail = attempt
            self._index = index
            self._ready = ready
            self._holding = holding
            self._attempt = attempt
            self._entered = entered
            if index == _PACKETS:
                self._release = ready
                if ready >= now:
                    self.engine.schedule_callback(ready - self.engine.now,
                                                  self._pass_grant)
            elif taker < 0 or not enters:
                break
        self._inserter = taker
        self._count = count
        self._tail = tail
        if self._last_take >= 0 and self._wake is not None:
            wake, self._wake = self._wake, None
            wake.trigger()

    def _run(self) -> ProcessGen:
        """Insert each descriptor where Picos's inserter would."""
        engine = self.engine
        device = self.device
        cycles = self.cycles
        packet_delay = Delay(cycles)
        later_this_cycle = Delay(0)
        # The pumps start in core order, each taking an announcement that
        # was queued before the engine first ran.
        self._started = True
        for core, announced in enumerate(self._announced):
            if announced:
                self._request(core, announced.popleft(), engine.now)
        while True:
            self._advance(engine.now)
            take = self._last_take
            if take < 0:
                self._wake = Event(engine, f"{self.handler.name}.complete")
                yield Wait(self._wake)
                continue
            wait = take - engine.now
            if wait > 0 and not engine.advance(wait):
                yield Delay(wait)
            while engine.cycle_pending():
                yield later_this_cycle
            if cycles and not engine.advance(cycles):
                yield packet_delay
            self._last_take = -1
            self.descriptors += 1
            device.stats.add("submission_packets", _PACKETS)
            packets = self._forming.popleft()
            packets += _ZEROS[len(packets):]
            yield from device.insert_descriptor(packets)
            self._inserter = engine.now
            self._count = 0

    def _drain(self) -> None:
        """Nothing else can happen: finish what the path would still do."""
        engine = self.engine
        self._advance(_NEVER)
        if not engine.cycle_pending() and self._tail > engine.now:
            engine.schedule_callback(self._tail - engine.now, _last_step)


def _cycles(first: int, count: int, step: int):
    """The ``count`` cycles ``first``, ``first + step``, ..."""
    return range(first, first + count * step, step) if step else (first,) * count


def _last_step() -> None:
    """The path's last packet step, once nothing else is left to run."""
