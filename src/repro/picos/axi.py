"""MMIO/AXI access path to Picos, modelling the Picos++ baseline system.

The previous state of the art (Tan et al. 2017, "Nanos-AXI" in the paper's
figures) attaches Picos++ to a quad-core ARM SoC behind an AXI interconnect:
the runtime reaches the scheduler through memory-mapped transactions handled
by a DMA-like communication module, which costs hundreds of core cycles per
interaction instead of the handful of cycles a RoCC instruction costs.

:class:`AxiPicosInterface` wraps the very same :class:`PicosDevice` model but
charges AXI transaction latencies for every submission, work-fetch and
retirement, so the only difference between the Nanos-AXI and Nanos-RV
runtime models is the communication path — which is precisely the variable
the paper isolates.  Its DMA writes enter the same
:class:`~repro.manager.submission.SubmissionStream` that the Submission
Handler of Picos Manager feeds on the RoCC path: the packet intake is one
model for both producers.  The DMA writes whole descriptors, so Picos's
submission queue must hold one: a shallower queue is rejected.
"""

from __future__ import annotations

from typing import Generator

from repro.common.config import AxiCosts
from repro.common.errors import ConfigurationError
from repro.common.stats import Stats
from repro.manager.submission import SubmissionStream
from repro.picos.device import PicosDevice
from repro.picos.packets import (
    PACKETS_PER_DESCRIPTOR,
    TaskDescriptor,
    encode_descriptor,
)
from repro.sim.engine import Delay, Engine, ProcessGen, Put

__all__ = ["AxiPicosInterface"]


class AxiPicosInterface:
    """Software-visible Picos access through modelled AXI transactions."""

    def __init__(self, engine: Engine, device: PicosDevice, costs: AxiCosts,
                 name: str = "axi_picos") -> None:
        self.engine = engine
        self.device = device
        self.costs = costs
        self.name = name
        self.stats = Stats(name)
        depth = device.costs.submission_queue_depth
        if depth < PACKETS_PER_DESCRIPTOR:
            raise ConfigurationError(
                f"the AXI DMA writes whole {PACKETS_PER_DESCRIPTOR}-packet "
                f"descriptors: PicosCosts.submission_queue_depth must be at "
                f"least {PACKETS_PER_DESCRIPTOR}, got {depth}"
            )
        #: Picos's submission queue and packet intake, written by the DMA.
        self.intake = SubmissionStream(engine, device, 0, device.costs,
                                       name=f"{device.name}.submission")
        #: CPU-visible staging buffer filled by DMA refills.  Chained
        #: workloads pay one refill per task; parallel ones amortise it.
        self._staging: list = []

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit_task(self, descriptor: TaskDescriptor,
                    stall_handler) -> ProcessGen:
        """Submit a full task descriptor over AXI (DMA-mediated).

        The transaction also reads how much room the Picos submission queue
        has; that read is part of ``submit_transaction``.  While the queue
        cannot take the whole descriptor, the stream would block, so
        ``stall_handler()`` (a generator factory, typically "run one ready
        task") runs instead, as on the RoCC path (Section IV-C).
        """
        latency = (
            self.costs.submit_transaction
            + self.costs.per_dependence * descriptor.num_dependences
        )
        self.stats.incr("axi_submissions")
        self.stats.add("axi_submit_cycles", latency)
        yield Delay(latency)
        intake = self.intake
        room = intake.depth - PACKETS_PER_DESCRIPTOR
        while intake.queued() > room:
            yield from stall_handler()
        # The DMA engine streams all 48 packets into the Picos submission
        # queue; the stream itself proceeds at queue speed.
        yield Put(intake, encode_descriptor(descriptor))

    # ------------------------------------------------------------------ #
    # Work fetch
    # ------------------------------------------------------------------ #
    def fetch_ready_task(self) -> Generator:
        """Poll the scheduler for a ready task; returns it or ``None``.

        A poll costs a full AXI read transaction whether or not a task is
        available, and an empty CPU-visible staging buffer additionally
        costs a DMA refill that drains whatever Picos has emitted so far —
        this is the cost asymmetry that makes the baseline slow for
        fine-grained and chained workloads.
        """
        self.stats.incr("axi_ready_polls")
        yield Delay(self.costs.ready_transaction)
        device = self.device
        if not self._staging:
            if not device.ready_queue.valid:
                self.stats.incr("axi_ready_misses")
                return None
            # DMA transfer of every ready task currently available, each
            # read whole, so its slot in Picos's ready queue frees at once.
            yield Delay(self.costs.dma_refill_cycles)
            self.stats.incr("axi_dma_refills")
            while True:
                ready = device.ready_queue.try_get()
                if ready is None:
                    break
                device.release_ready_slot()
                self._staging.append(ready)
            if not self._staging:
                self.stats.incr("axi_ready_misses")
                return None
        ready = self._staging.pop(0)
        device.graph.mark_running(ready.picos_id)
        self.stats.incr("axi_ready_hits")
        return ready

    # ------------------------------------------------------------------ #
    # Retirement
    # ------------------------------------------------------------------ #
    def retire_task(self, picos_id: int) -> ProcessGen:
        """Notify the scheduler that ``picos_id`` finished (AXI write)."""
        self.stats.incr("axi_retirements")
        yield Delay(self.costs.retire_transaction)
        yield Put(self.device.retirement_queue, picos_id)
