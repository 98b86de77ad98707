"""Machine, cost-model and simulation configuration objects.

Every cycle cost used anywhere in the simulator lives here, in one of the
frozen dataclasses below.  The defaults describe the paper's prototype:

* an eight-core, in-order Rocket Chip running at 80 MHz,
* per-core 32 KB / 8-way L1 data and instruction caches kept coherent with
  MESI and **no shared L2**, so dirty lines travel through main memory,
* DDR main memory clocked at 667 MHz (so memory latency, expressed in core
  cycles, is comparatively small),
* the Picos task scheduler reached through per-core RoCC Picos Delegates and
  one chip-wide Picos Manager.

The cost models for the software runtimes (Nanos and Phentos) describe the
*operations* those runtimes perform per scheduling event; the cycle charge of
each operation is then computed against the simulated memory system at run
time, so that effects such as cache-line bouncing emerge rather than being
hard-coded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError

__all__ = [
    "CACHE_LINE_BYTES",
    "MachineConfig",
    "MemoryCosts",
    "RoccCosts",
    "PicosCosts",
    "AxiCosts",
    "NanosCosts",
    "PhentosCosts",
    "CostModel",
    "SimConfig",
    "default_machine",
    "default_cost_model",
]

#: Cache line size of the Rocket Chip prototype, in bytes.
CACHE_LINE_BYTES = 64


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class MachineConfig:
    """Chip-level parameters of the simulated SoC."""

    num_cores: int = 8
    core_clock_mhz: float = 80.0
    memory_clock_mhz: float = 667.0
    l1_size_bytes: int = 32 * 1024
    l1_ways: int = 8
    cache_line_bytes: int = CACHE_LINE_BYTES
    has_shared_l2: bool = False
    isa: str = "rv64gc"
    fpga: str = "ZCU102-ES2"

    def __post_init__(self) -> None:
        _positive("num_cores", self.num_cores)
        _positive("core_clock_mhz", self.core_clock_mhz)
        _positive("memory_clock_mhz", self.memory_clock_mhz)
        _positive("l1_size_bytes", self.l1_size_bytes)
        _positive("l1_ways", self.l1_ways)
        _positive("cache_line_bytes", self.cache_line_bytes)
        if self.l1_size_bytes % (self.l1_ways * self.cache_line_bytes) != 0:
            raise ConfigurationError(
                "l1_size_bytes must be divisible by l1_ways * cache_line_bytes"
            )

    @property
    def l1_sets(self) -> int:
        """Number of sets in each L1 cache."""
        return self.l1_size_bytes // (self.l1_ways * self.cache_line_bytes)

    @property
    def memory_clock_ratio(self) -> float:
        """Memory clock expressed in core clocks (667 MHz / 80 MHz ≈ 8.3)."""
        return self.memory_clock_mhz / self.core_clock_mhz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a core-cycle count to wall-clock seconds on the prototype."""
        return cycles / (self.core_clock_mhz * 1e6)


@dataclass(frozen=True)
class MemoryCosts:
    """Latency, in core cycles, of the memory-hierarchy events we model.

    Because the prototype has no shared L2 and main memory is clocked much
    faster than the cores, a main-memory access is only a few tens of core
    cycles; what hurts is the *number* of coherence round trips, exactly as
    the paper argues when discussing cache-line bouncing under MESI.
    """

    l1_hit: int = 2
    l1_miss_to_memory: int = 28
    #: Dirty line in another core's L1: writeback through memory + refill.
    dirty_remote_transfer: int = 52
    #: Invalidation round trip charged to the writer on an upgrade.
    invalidate_remote: int = 12
    #: Extra cycles of an atomic read-modify-write over a plain access.
    atomic_rmw_extra: int = 10
    store_buffer_drain: int = 4
    #: Fractional slowdown of a task payload per *other* core concurrently
    #: executing payloads.  Models contention on the single memory path (no
    #: shared L2, one DDR controller) and is the reason measured speedups
    #: saturate around 5.6x on eight cores rather than at 8x, as the paper
    #: observes for its -O3 baselines.
    payload_contention_per_core: float = 0.06

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            _non_negative(f"MemoryCosts.{name}", value)


@dataclass(frozen=True)
class RoccCosts:
    """Cycle costs of issuing RoCC custom instructions from a Rocket core."""

    #: Pipeline cost of any RoCC instruction (decode + operand read + resp).
    issue: int = 2
    #: Extra cycles when the instruction must cross into Picos Manager.
    manager_handshake: int = 1
    #: Cycles for the blocking Retire Task round trip to the round-robin
    #: arbiter (usually immediately granted, per Section IV-E.7).
    retire_roundtrip: int = 2

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            _non_negative(f"RoccCosts.{name}", value)
        # The submission stream places each hook call among the first
        # entries of its cycle, which takes a handshake of a cycle or more.
        _positive("RoccCosts.manager_handshake", self.manager_handshake)


@dataclass(frozen=True)
class PicosCosts:
    """Latency/throughput parameters of the Picos device itself.

    Derived from the descriptions in Yazdanpanah et al. and Tan et al.: Picos
    ingests one 32-bit submission packet per cycle, needs a handful of cycles
    of dependence analysis per descriptor, and produces a ready task as three
    32-bit packets over an eight-cycle window (half of which the per-core
    ready queues hide from the application, Section IV-F.2).
    """

    submission_packet_cycles: int = 1
    #: Dependence-analysis pipeline depth per dependence of a new task.
    dependence_analysis_cycles: int = 4
    #: Fixed cycles to insert a task into the task reservation station.
    task_insert_cycles: int = 6
    #: Cycles for Picos to emit the three ready packets of one ready task.
    ready_emit_cycles: int = 30
    #: Cycles to process one retirement packet (queue pop + TRS update).
    retire_cycles: int = 8
    #: Cycles of dependence-chain resolution per dependant woken by a
    #: retirement; exposed on the critical path of chained workloads.
    wakeup_per_dependant_cycles: int = 55
    #: Capacity of the task reservation station (in-flight + pending tasks).
    max_in_flight_tasks: int = 256
    #: Depth of the hardware submission / ready / retirement queues.
    submission_queue_depth: int = 64
    ready_queue_depth: int = 16
    retirement_queue_depth: int = 16

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            _non_negative(f"PicosCosts.{name}", value)
        _positive("PicosCosts.max_in_flight_tasks", self.max_in_flight_tasks)
        # The submission stream inserts a descriptor after the other steps
        # of the cycle Picos takes its last packet, one packet step later.
        # A retirement or a ready emission waiting out a step of the same
        # length could tie with that insert in an order the stream cannot
        # place, so those packet periods are rejected.
        for name in ("retire_cycles", "ready_emit_cycles"):
            if self.submission_packet_cycles == getattr(self, name):
                raise ConfigurationError(
                    f"PicosCosts.submission_packet_cycles must differ from "
                    f"PicosCosts.{name}, both are "
                    f"{self.submission_packet_cycles}"
                )


@dataclass(frozen=True)
class AxiCosts:
    """Communication costs of the Picos++/AXI baseline (Tan et al. 2017).

    The baseline reaches the scheduler through MMIO/AXI transactions managed
    by a DMA-like module on a Zynq SoC.  The paper scales those published
    numbers by the Cortex-A9 / Rocket IPC ratio (Fig. 7 caption); the values
    below are calibrated so the Nanos-AXI lifetime overheads land in the
    13k–19k cycle band of Fig. 7.
    """

    #: Cycles for one MMIO/AXI write burst carrying a task descriptor.
    submit_transaction: int = 900
    #: Cycles for one MMIO/AXI read polling/fetching a ready task.
    ready_transaction: int = 650
    #: Cycles for the retirement MMIO write.
    retire_transaction: int = 400
    #: Additional per-dependence descriptor marshalling cost.
    per_dependence: int = 260
    #: Cycles of the DMA-mediated transfer that moves ready-task descriptors
    #: from Picos++ into the CPU-visible buffer.  Chained workloads pay it
    #: once per task (nothing can be prefetched); parallel workloads amortise
    #: it over whole batches, which is why the AXI baseline degrades most on
    #: dependence chains (Figure 7).
    dma_refill_cycles: int = 4200

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            _non_negative(f"AxiCosts.{name}", value)


@dataclass(frozen=True)
class NanosCosts:
    """Operation counts of the Nanos runtime per scheduling event.

    Nanos (both the `plain` software plugin and the `picos` plugin) pays for
    its plugin architecture: virtual dispatch, descriptor allocation, a
    central scheduler singleton protected by mutexes, and condition-variable
    system calls when workers go idle.  These counts describe *what Nanos
    does*; the cycle charge is computed against the simulated memory system.

    The values are calibrated so that the Task-Free / Task-Chain lifetime
    overheads land in the Figure 7 bands: ~12–13k cycles per task for
    Nanos-RV (dependence inference offloaded to Picos, Nanos machinery kept)
    and ~25k–99k cycles per task for Nanos-SW (inference and graph
    management in software, growing with the dependence count).
    """

    # -- core Nanos machinery, paid by Nanos-SW, Nanos-RV and Nanos-AXI ---
    #: Plain instructions per task submission (WorkDescriptor allocation,
    #: plugin dispatch, scheduler bookkeeping).
    submit_instructions: int = 3900
    #: Shared cache lines touched (read/write) when creating a descriptor.
    submit_shared_lines: int = 10
    #: Virtual calls per submission (each an extra dependent load).
    submit_virtual_calls: int = 12
    #: Mutex acquire/release pairs per submission.
    submit_mutex_ops: int = 3
    #: Work-fetch path: scheduler singleton pop through the plugin API.
    fetch_instructions: int = 2500
    fetch_shared_lines: int = 8
    fetch_virtual_calls: int = 8
    fetch_mutex_ops: int = 2
    #: Task retirement path (notify scheduler, release descriptor).
    retire_instructions: int = 2600
    retire_shared_lines: int = 8
    retire_virtual_calls: int = 8
    retire_mutex_ops: int = 2
    # -- picos plugin marshalling (Nanos-RV / Nanos-AXI only) -------------
    #: Instructions to marshal one dependence into submission packets.
    plugin_per_dependence_instructions: int = 40
    # -- software dependence inference and graph management (Nanos-SW) ----
    #: Instructions to insert the task into the software dependence graph.
    graph_insert_instructions: int = 6200
    graph_insert_shared_lines: int = 8
    #: Cost per dependence whose address was never seen before (hash-map
    #: insert, allocation, occasional rehash — amortised).
    dep_new_address_instructions: int = 4100
    dep_new_address_shared_lines: int = 8
    #: Cost per dependence on an address already in the map (lookup + append
    #: to the reader/writer lists).
    dep_known_address_instructions: int = 1100
    dep_known_address_shared_lines: int = 4
    #: Cost of waking the successors of a retiring task (graph update under
    #: the graph lock) — paid per retirement that has at least one successor.
    retire_successor_update_instructions: int = 12600
    retire_successor_shared_lines: int = 10
    # -- system interaction ------------------------------------------------
    #: Cycles of a futex-style syscall when a condition variable blocks.
    syscall_cycles: int = 1400
    #: A worker performs one condition-variable syscall every
    #: ``idle_checks_per_syscall`` failed work-fetch attempts.
    idle_checks_per_syscall: int = 12
    #: Extra cycles per virtual call (indirect branch + dependent load miss).
    virtual_call_cycles: int = 14
    #: Instructions per taskwait poll iteration of the main thread.
    taskwait_poll_instructions: int = 60

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            _non_negative(f"NanosCosts.{name}", value)
        _positive("NanosCosts.idle_checks_per_syscall", self.idle_checks_per_syscall)


@dataclass(frozen=True)
class PhentosCosts:
    """Operation counts of the Phentos fly-weight runtime (Section V-B)."""

    #: Plain inlined instructions per submission (header-only, no plugins).
    submit_instructions: int = 50
    #: Inlined instructions per monitored pointer parameter (packing the
    #: address and directionality into submission packets and metadata).
    submit_per_dependence_instructions: int = 7
    #: Cache lines of the Task Metadata Array written per submission
    #: (1 for up to 7 dependences, 2 for up to 15 — selected per program).
    metadata_lines_small: int = 1
    metadata_lines_large: int = 2
    #: Dependences that still fit the one-cache-line metadata element.
    small_element_max_deps: int = 7
    fetch_instructions: int = 35
    retire_instructions: int = 20
    #: Failed work-fetch attempts between updates of the shared retirement
    #: counter (design goal 5 of Section V-B).
    fetch_failures_per_counter_update: int = 8
    #: Cycles between polls of the shared counter while in taskwait
    #: (the paper uses 10–100 depending on the taskwait flavour).
    taskwait_poll_interval: int = 40

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            _non_negative(f"PhentosCosts.{name}", value)
        _positive(
            "PhentosCosts.fetch_failures_per_counter_update",
            self.fetch_failures_per_counter_update,
        )
        _positive("PhentosCosts.taskwait_poll_interval", self.taskwait_poll_interval)


@dataclass(frozen=True)
class CostModel:
    """Bundle of every cost table used by the simulation."""

    memory: MemoryCosts = field(default_factory=MemoryCosts)
    rocc: RoccCosts = field(default_factory=RoccCosts)
    picos: PicosCosts = field(default_factory=PicosCosts)
    axi: AxiCosts = field(default_factory=AxiCosts)
    nanos: NanosCosts = field(default_factory=NanosCosts)
    phentos: PhentosCosts = field(default_factory=PhentosCosts)


@dataclass(frozen=True)
class SimConfig:
    """Top-level configuration handed to :class:`repro.cpu.soc.SoC`."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    costs: CostModel = field(default_factory=CostModel)
    #: Hard cycle limit after which the engine raises ``DeadlockError``.
    max_cycles: int = 5_000_000_000
    #: Emit per-event traces (expensive; for debugging only).
    trace: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        _positive("SimConfig.max_cycles", self.max_cycles)

    def with_cores(self, num_cores: int) -> "SimConfig":
        """Return a copy of this configuration with a different core count."""
        machine = dataclasses.replace(self.machine, num_cores=num_cores)
        return dataclasses.replace(self, machine=machine)


def default_machine() -> MachineConfig:
    """The paper's prototype: 8 in-order cores, 32 KB L1s, no shared L2."""
    return MachineConfig()


def default_cost_model() -> CostModel:
    """Cost model calibrated against Figure 7 of the paper."""
    return CostModel()
