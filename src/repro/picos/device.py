"""Behavioural model of the Picos hardware task scheduler.

Picos exposes three queues to the outside world (Section IV-D):

* a **submission queue** receiving 32-bit task-descriptor packets,
* a **ready queue** through which it announces ready-to-run tasks,
* a **retirement queue** receiving the Picos ID of tasks that finished.

Internally the device reassembles 48-packet descriptors, performs hardware
dependence inference (one pipeline pass per dependence), stores the task in
its reservation station, and emits tasks whose predecessor count drops to
zero.  The model charges the per-stage latencies from
:class:`~repro.common.config.PicosCosts` and applies the reservation-station
capacity as back-pressure on the submission queue, which is what eventually
makes the non-blocking submission instructions return their failure flag.

Back-pressure is event-driven: a full station parks the inserter on a
one-shot "slot freed" event that the retirement pipeline triggers, so a
stall costs no host time however many cycles it lasts.  On wake-up the
inserter resumes on the grid of a re-check every ``retire_cycles`` cycles
from the moment it stalled, so tasks are accepted in exactly the cycles a
polling inserter would accept them.

The ready queue holds one :class:`ReadyTask` per task in place of the
three 32-bit packets Picos emits, whose words nothing reads.  A consumer
frees the task's slot with :meth:`PicosDevice.release_ready_slot` in the
cycle it would have read the last packet.

The device has no packet intake of its own: both producers, Picos
Manager's Submission Handler and the Picos++/AXI DMA, write into
:class:`~repro.manager.submission.SubmissionStream`, which evaluates the
submission queue and Picos's one-packet-per-``submission_packet_cycles``
intake arithmetically and hands each complete descriptor to
:meth:`PicosDevice.insert_descriptor`, in the cycle and at the place in
that cycle where a per-packet inserter would have inserted it.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Deque, Dict, List, Optional

from repro.common.config import PicosCosts
from repro.common.errors import PicosError
from repro.common.stats import Stats
from repro.picos.dependence import TaskGraph
from repro.picos.packets import TaskDescriptor, decode_descriptor
from repro.sim.engine import Delay, Engine, Event, Get, ProcessGen, Wait
from repro.sim.queues import DecoupledQueue

__all__ = ["ReadyTask", "PicosDevice"]


class ReadyTask(namedtuple("ReadyTask", "picos_id sw_id")):
    """A fully assembled ready-task announcement (Picos ID, SW ID)."""

    __slots__ = ()


class PicosDevice:
    """The Picos accelerator, driven through its three hardware queues."""

    __slots__ = ("engine", "costs", "name", "stats", "graph", "_sw_ids",
                 "ready_queue", "retirement_queue", "_ready_backlog",
                 "_ready_slots", "_emitter_busy", "_slot_freed",
                 "_retirement_process")

    def __init__(self, engine: Engine, costs: PicosCosts,
                 name: str = "picos") -> None:
        self.engine = engine
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        self.graph = TaskGraph(capacity=costs.max_in_flight_tasks)
        #: sw_id keyed by the Picos-assigned task id, for ready announcements.
        self._sw_ids: Dict[int, int] = {}
        self.ready_queue: DecoupledQueue[ReadyTask] = DecoupledQueue(
            engine, costs.ready_queue_depth, name=f"{name}.ready"
        )
        self.retirement_queue: DecoupledQueue[int] = DecoupledQueue(
            engine, costs.retirement_queue_depth, name=f"{name}.retirement"
        )
        #: Tasks whose predecessors are satisfied but that have not yet
        #: been pushed into the ready queue.
        self._ready_backlog: Deque[ReadyTask] = deque()
        #: Ready-queue slots held by a task: queued, or taken by a consumer
        #: that has not yet read its last packet.
        self._ready_slots = 0
        self._emitter_busy = False
        #: The event a stalled inserter waits on; set only while it waits.
        self._slot_freed: Optional[Event] = None
        self._retirement_process = engine.spawn(
            self._retirement_pipeline(), name=f"{name}.retire", daemon=True
        )

    # ------------------------------------------------------------------ #
    # Public queries (used by the Manager and by tests)
    # ------------------------------------------------------------------ #
    @property
    def in_flight_tasks(self) -> int:
        """Number of tasks currently tracked by the reservation station."""
        return self.graph.in_flight

    def sw_id_of(self, picos_id: int) -> int:
        """The software id the runtime attached to ``picos_id``."""
        try:
            return self._sw_ids[picos_id]
        except KeyError as exc:
            raise PicosError(f"unknown picos id {picos_id}") from exc

    def insert_descriptor(self, packets: List[int]) -> ProcessGen:
        """Decode a complete 48-packet descriptor and insert it.

        The inserter's work once it has appended a descriptor's last
        packet: dependence analysis, the wait for a free reservation-station
        slot if the station is full, and the insert itself.
        """
        return self._insert_task(decode_descriptor(packets))

    # ------------------------------------------------------------------ #
    # Pipelines
    # ------------------------------------------------------------------ #
    def _insert_task(self, descriptor: TaskDescriptor) -> ProcessGen:
        costs = self.costs
        analysis = (
            costs.task_insert_cycles
            + costs.dependence_analysis_cycles * descriptor.num_dependences
        )
        if analysis:
            yield Delay(analysis)
        graph = self.graph
        if not graph.has_capacity():
            # Capacity back-pressure: park until the retirement pipeline frees
            # a slot.  While waiting, the submission queue fills up and its
            # producers (ultimately the non-blocking instructions) observe
            # the back-pressure.
            engine = self.engine
            start = engine.now
            self._slot_freed = slot_freed = Event(engine, f"{self.name}.slot_freed")
            yield Wait(slot_freed)
            # Resume on the grid of a re-check every ``retire_cycles`` since
            # ``start``.  A re-check due in the freeing cycle was scheduled
            # ahead of the retirement's own ``retire_cycles`` delay, so it ran
            # first and failed; the next one is the first to succeed.
            period = costs.retire_cycles
            if period:
                waited = engine.now - start
                yield Delay(period - waited % period)
        task_id, ready = graph.submit(descriptor.sw_id, descriptor.dependences)
        self._sw_ids[task_id] = descriptor.sw_id
        self.stats.incr("tasks_accepted")
        self.stats.observe("dependences_per_task", descriptor.num_dependences)
        if ready:
            self._schedule_ready(ReadyTask(task_id, descriptor.sw_id))

    def _retirement_pipeline(self) -> ProcessGen:
        """Consume retirement packets and wake dependent tasks."""
        costs = self.costs
        graph = self.graph
        retirement_queue = self.retirement_queue
        while True:
            picos_id = yield Get(retirement_queue)
            yield Delay(costs.retire_cycles)
            newly_ready = graph.retire(picos_id)
            slot_freed = self._slot_freed
            if slot_freed is not None:
                self._slot_freed = None
                slot_freed.trigger()
            self._sw_ids.pop(picos_id, None)
            self.stats.incr("tasks_retired")
            if newly_ready:
                yield Delay(costs.wakeup_per_dependant_cycles * len(newly_ready))
            for ready_id in newly_ready:
                self._schedule_ready(
                    ReadyTask(ready_id, graph.task(ready_id).sw_id)
                )

    # ------------------------------------------------------------------ #
    # Ready-task emission
    # ------------------------------------------------------------------ #
    def _schedule_ready(self, ready: ReadyTask) -> None:
        self._ready_backlog.append(ready)
        self.stats.incr("tasks_made_ready")
        self._kick_emitter()

    def release_ready_slot(self) -> None:
        """Free the slot of a ready task whose last packet was just read."""
        self._ready_slots -= 1
        self._kick_emitter()

    def _kick_emitter(self) -> None:
        if (self._emitter_busy or not self._ready_backlog
                or self._ready_slots >= self.costs.ready_queue_depth):
            return
        self._emitter_busy = True
        self.engine.schedule_callback(self.costs.ready_emit_cycles,
                                      self._emit_ready)

    def _emit_ready(self) -> None:
        self._emitter_busy = False
        if (not self._ready_backlog
                or self._ready_slots >= self.costs.ready_queue_depth):
            # With no room, the next release_ready_slot re-kicks it.
            return
        self._ready_slots += 1
        self.ready_queue.try_put(self._ready_backlog.popleft())
        self.stats.incr("ready_tasks_emitted")
        self._kick_emitter()
