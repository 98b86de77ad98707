"""Picos's packet intake, and the Submission Handler of Picos Manager in
front of it (Figure 4 of the paper).

Two producers write 48-packet task descriptors into the one Picos
submission queue.  Behind Picos Manager, the Submission Handler carries
them from the per-core Picos Delegates and guarantees:

1. **Atomicity** — packet sequences from different cores never interleave.
   A Guided Arbiter hands the Picos-facing interface to one core for a whole
   48-beat sequence.
2. **Compression** — cores transmit only the non-zero prefix of a descriptor
   (3 + 3·D packets); the Zero Padder appends the remaining zero packets so
   Picos always sees 48.
3. **Protocol crossing** — per-core Chisel-style buffers feed the Picos
   submission queue through a final buffer.

Software reaches the handler only through the two non-blocking hooks used
by the delegate instructions: :meth:`SubmissionStream.announce` (Submission
Request) and :meth:`SubmissionStream.push_packet` /
:meth:`SubmissionStream.push_packets` (Submit Packet / Submit Three
Packets).  Both return ``False`` instead of blocking when internal buffers
are full, which is what lets the ISA stay deadlock-free (Section IV-C).

In the Picos++ baseline (Nanos-AXI) a DMA engine writes whole descriptors
into the same queue instead: :meth:`SubmissionStream.queued` is the room
read of its transaction, and ``yield Put(stream, packets)`` its write.  It
needs a queue that holds a whole descriptor, so
:class:`~repro.picos.axi.AxiPicosInterface` rejects a shallower one.

:class:`SubmissionStream` evaluates the packet path and Picos's packet
intake for both producers as one tandem-queue recurrence.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.common.config import PicosCosts
from repro.common.errors import ProtocolError
from repro.common.stats import Stats
from repro.picos.device import PicosDevice
from repro.picos.packets import PACKETS_PER_DESCRIPTOR
from repro.sim.engine import (Delay, Engine, Event, Process, ProcessGen,
                              Wait)

__all__ = ["SubmissionStream", "check_announcement"]

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


class SubmissionStream:
    """Picos's packet intake, and the Submission Handler's packet path in
    front of it, as a tandem-queue recurrence.

    Number the packets in the order they enter the submission queue (depth
    ``Q``); let ``c`` be ``submission_packet_cycles`` and ``h[j]`` the cycle
    packet ``j``'s producer is ready to put it: the later of the granted
    pump being ready for it and its word being buffered, plus ``c``, or the
    cycle of the DMA write.  Then ``enter[j] = max(h[j], take[j - Q])`` and
    ``take[j] = max(enter[j], take[j - 1] + c)``, a descriptor's first take
    also waiting for the previous insert to end.  The stream evaluates this
    at each input (an announcement, words, a DMA write, the end of an insert
    or of a grant) as far as the inputs decide it, in whole cycles: a put
    and a take in one cycle give the same result in either order.  Three
    things observe the path.  The hooks run right after the delegate's
    handshake delay, before any pump step of their cycle, so a call in
    cycle ``t`` sees what the pumps took before ``t``; so does the DMA's
    room read, which runs before Picos's take of its cycle.  A DMA write
    ends in the cycle its last packet enters.  The insert runs in the
    stream's process: it sleeps until the cycle of a descriptor's last
    take, lets the rest of that cycle run (:meth:`Engine.cycle_pending`),
    waits ``c`` and inserts, as the inserter would after that cycle's heap
    entries; the only step that can still wait ``c`` that late and touch
    Picos, the Packet Encoder's ready-slot release when ``c == 2``,
    commutes with the insert.  ``PicosCosts`` rejects the packet periods that would let the
    retirement pipeline or the ready emitter wait one out too.  A run dry
    engine gets the path's last step (:meth:`Engine.on_drain`), so
    deadlocks are reported in the same cycle.
    """

    __slots__ = ("engine", "device", "num_cores", "name", "stats", "cycles",
                 "depth", "_words", "_held", "_announced", "_busy",
                 "_requests", "_started", "_owner", "_nonzero", "_index",
                 "_ready", "_holding", "_attempt", "_release", "_forming",
                 "_current", "_entered", "_enters", "_takes", "_inserter",
                 "_count", "_last_take", "_tail", "_wake", "_writing",
                 "_write_start", "_writer", "descriptors",
                 "refused_as_room_frees")

    def __init__(self, engine: Engine, device: PicosDevice, num_cores: int,
                 costs: PicosCosts, name: str = "submission_handler") -> None:
        cores = range(num_cores)
        self.engine = engine
        self.device = device
        self.num_cores = num_cores
        self.name = name
        self.stats = Stats(name)
        self.cycles = costs.submission_packet_cycles
        self.depth = costs.submission_queue_depth
        # Per core: words the pump has not taken; cycles of words taken in
        # this cycle or later, which still fill the buffer until then;
        # announcements it has not taken; whether it holds one.
        self._words: List[Deque[int]] = [deque() for _ in cores]
        self._held: List[Deque[int]] = [deque() for _ in cores]
        self._announced: List[Deque[int]] = [deque() for _ in cores]
        self._busy = [False] * num_cores
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
        # The DMA write: its packets still to enter, its cycle, its writer.
        self._writing = self._write_start = 0
        self._writer: Optional[Process] = None
        #: Descriptors inserted; pushes refused for room that a pump frees
        #: later in their cycle.
        self.descriptors = self.refused_as_room_frees = 0
        engine.spawn(self._run(), name=f"{name}.stream", daemon=True)
        engine.on_drain(self._drain)

    # ------------------------------------------------------------------ #
    # Delegate-facing non-blocking hooks
    # ------------------------------------------------------------------ #
    def announce(self, core_id: int, nonzero_packets: int) -> bool:
        """Register a Submission Request; returns False when it must retry."""
        self._check_core(core_id)
        check_announcement(nonzero_packets)
        now = self.engine.now
        if 0 <= self._release < now:
            self._advance(now)
        announced = self._announced[core_id]
        if len(announced) >= _ANNOUNCE_DEPTH:
            self.stats.incr("submission_request_failures")
            return False
        if self._busy[core_id] or not self._started:
            announced.append(nonzero_packets)
        else:
            # An idle pump takes it at once and asks for the grant.
            self._request(core_id, nonzero_packets, now)
        self.stats.incr("submission_requests")
        return True

    def push_packet(self, core_id: int, word: int) -> bool:
        """Buffer one 32-bit submission packet; False when the buffer is full."""
        return self.push_packets(core_id, (word,))

    def push_packets(self, core_id: int, words: Sequence[int]) -> bool:
        """Buffer several packets atomically (all or nothing)."""
        self._check_core(core_id)
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
            self.stats.incr("packet_buffer_failures")
            return False
        for word in words:
            buffered.append(word & _WORD)
        if core_id == self._owner:
            if not self._holding and self._release < 0 and self._ready < now:
                self._ready = now  # The pump waited for this word.
            self._advance(now)
        self.stats.add("packets_buffered", len(words))
        return True

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ProtocolError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )

    # ------------------------------------------------------------------ #
    # The DMA producer (Picos++ over AXI)
    # ------------------------------------------------------------------ #
    def queued(self) -> int:
        """Packets in the submission queue: entered, and not taken before
        this cycle."""
        now = self.engine.now
        taking = 0
        for take in reversed(self._takes):
            if take < now:
                break
            taking += 1
        return len(self._enters) + taking

    def _blocking_put(self, process: Process, packets: List[int]) -> None:
        """The DMA's write of a descriptor's 48 packets, as
        ``yield Put(stream, packets)``: each enters as soon as the queue has
        room, and the writer resumes in the cycle the last one enters."""
        now = self.engine.now
        self._forming.append(packets)
        self._writing = _PACKETS
        self._write_start = now
        self._writer = process
        self._advance(now)

    def __repr__(self) -> str:
        return f"SubmissionStream({self.name!r}, {self.queued()}/{self.depth})"

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
        stats = self.stats
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
        # have run, the grant passes on as if the clock were past it.  With
        # nothing else left in the cycle, that is now.
        if self.engine.cycle_pending():
            self.engine.schedule_callback(0, self._passed)
        else:
            self._passed()

    def _passed(self) -> None:
        self._advance(self.engine.now + 1)

    def _enter_write(self) -> None:
        """Enter the DMA's packets while their room is known: packet ``j``
        enters once Picos took packet ``j - Q``."""
        writing = self._writing
        write_start = self._write_start
        entered = self._entered
        depth = self.depth
        enters = self._enters
        takes = self._takes
        while writing and (entered < depth or takes):
            cycle = write_start
            if entered >= depth:
                cycle = takes.popleft()
                if cycle < write_start:
                    cycle = write_start
            enters.append(cycle)
            entered += 1
            writing -= 1
        self._entered = entered
        self._writing = writing
        if not writing:
            engine = self.engine
            writer, self._writer = self._writer, None
            engine._schedule(cycle - engine.now, writer, None)

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
                # packet.  A pump's packets enter at least ``cycles`` apart;
                # a DMA write's enter together, then as takes free room.
                # So when the first and the last of a batch were there in
                # time, all were.
                batch = min(len(enters), _PACKETS - count)
                take = taker + (batch - 1) * cycles
                if enters[0] <= taker and enters[batch - 1] <= take:
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
            if self._writing and (self._entered < depth or takes):
                self._enter_write()
                continue
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
                    wait = ready - self.engine.now
                    if wait:
                        self.engine.schedule_callback(wait, self._pass_grant)
                    else:
                        self.engine.schedule_callback(0, self._passed)
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
                self._wake = Event(engine, f"{self.name}.complete")
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
