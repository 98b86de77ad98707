"""In-order core model (Rocket Core) for the simulated SoC.

The core does not interpret RISC-V machine code.  Instead, runtime models
(the per-core worker loops of Nanos, Phentos, …) are written as engine
processes that call the helpers below to charge realistic cycle costs for
what the real binary would do:

* ``execute(n)`` — *n* plain in-order instructions (ALU/branch/immediate),
* ``load``/``store``/``atomic`` — memory accesses resolved by the MESI model,
* ``rocc(command)`` — a custom task-scheduling instruction handled by the
  core's attached RoCC accelerator (the Picos Delegate),
* ``compute(cycles)`` — an opaque task payload of known duration,
* ``syscall(cycles)`` — trap into the kernel (futex, sched_yield, …).

Every helper is a generator; callers compose them with ``yield from`` inside
their own process generators, so all time accounting flows through the
discrete-event engine.  A helper whose charge would resume it at once moves
the clock itself (:meth:`Engine.advance`) instead of yielding the ``Delay``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.common.config import SimConfig
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.stats import Stats
from repro.cpu.rocc import RoccCommand, RoccResponse, TaskSchedulingFunct
from repro.memory.hierarchy import MemorySystem
from repro.sim.engine import Delay, Engine, ProcessGen

__all__ = ["Core"]

#: Average cycles per plain instruction on the in-order pipeline.  Rocket is
#: single-issue in-order; loads/branches introduce bubbles, so the effective
#: CPI of runtime bookkeeping code is slightly above 1.
CYCLES_PER_INSTRUCTION = 1.2

#: Per-instruction stat names, built once instead of on every issue.
_ROCC_COUNTERS = {
    funct: f"rocc_{funct.name.lower()}" for funct in TaskSchedulingFunct
}


class Core:
    """One in-order RV64GC core with an optional RoCC accelerator attached."""

    __slots__ = ("core_id", "engine", "memory", "config", "stats",
                 "accelerator", "busy_cycles", "overhead_cycles",
                 "_issue_cycles", "_issue_delay", "_handshake_cycles",
                 "_handshake_delay")

    def __init__(self, core_id: int, engine: Engine, memory: MemorySystem,
                 config: SimConfig) -> None:
        if core_id < 0 or core_id >= config.machine.num_cores:
            raise ConfigurationError(
                f"core_id {core_id} out of range for a "
                f"{config.machine.num_cores}-core machine"
            )
        self.core_id = core_id
        self.engine = engine
        self.memory = memory
        self.config = config
        self.stats = Stats(f"core{core_id}")
        self.accelerator: Optional[Any] = None
        #: Cycles spent executing task payloads (useful work).
        self.busy_cycles = 0
        #: Cycles spent in runtime bookkeeping / scheduling.
        self.overhead_cycles = 0
        #: RoCC issue cost, and its ``Delay`` built once.
        self._issue_cycles = config.costs.rocc.issue
        self._issue_delay = Delay(self._issue_cycles)
        #: The accelerator's handshake, and its ``Delay``, once attached.
        self._handshake_cycles = 0
        self._handshake_delay = Delay(0)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_accelerator(self, accelerator: Any) -> None:
        """Attach the RoCC accelerator (Picos Delegate) for this core.

        The accelerator states the ``handshake_cycles`` the core waits out
        after the issue of each instruction, before it calls
        ``accelerator.execute(command)``.
        """
        if self.accelerator is not None:
            raise ProtocolError(f"core {self.core_id} already has an accelerator")
        self.accelerator = accelerator
        self._handshake_cycles = accelerator.handshake_cycles
        self._handshake_delay = Delay(accelerator.handshake_cycles)

    # ------------------------------------------------------------------ #
    # Instruction-level helpers (generators)
    # ------------------------------------------------------------------ #
    def execute(self, instructions: int) -> ProcessGen:
        """Execute ``instructions`` plain instructions."""
        if instructions < 0:
            raise ProtocolError("instruction count must be non-negative")
        cycles = int(round(instructions * CYCLES_PER_INSTRUCTION))
        self.stats.add("instructions", instructions)
        self.overhead_cycles += cycles
        if cycles and not self.engine.advance(cycles):
            yield Delay(cycles)

    def load(self, address: int, size: int = 8) -> ProcessGen:
        """Load ``size`` bytes from ``address`` through the MESI model."""
        cycles = self.memory.load(self.core_id, address, size)
        self.stats.incr("loads")
        self.overhead_cycles += cycles
        if not self.engine.advance(cycles):
            yield Delay(cycles)

    def store(self, address: int, size: int = 8) -> ProcessGen:
        """Store ``size`` bytes to ``address`` through the MESI model."""
        cycles = self.memory.store(self.core_id, address, size)
        self.stats.incr("stores")
        self.overhead_cycles += cycles
        if not self.engine.advance(cycles):
            yield Delay(cycles)

    def atomic(self, address: int, size: int = 8) -> ProcessGen:
        """Atomic read-modify-write at ``address``."""
        cycles = self.memory.atomic_rmw(self.core_id, address, size)
        self.stats.incr("atomics")
        self.overhead_cycles += cycles
        if not self.engine.advance(cycles):
            yield Delay(cycles)

    def charge(self, cycles: int, useful: bool = False) -> ProcessGen:
        """Charge a pre-computed cycle cost (e.g. from a SoftwareMutex)."""
        if cycles < 0:
            raise ProtocolError("cycle charge must be non-negative")
        if useful:
            self.busy_cycles += cycles
        else:
            self.overhead_cycles += cycles
        if cycles and not self.engine.advance(cycles):
            yield Delay(cycles)

    def compute(self, cycles: int) -> ProcessGen:
        """Execute an opaque task payload of ``cycles`` cycles.

        The actual duration is stretched by the memory-bandwidth contention
        factor: concurrent payloads on other cores share the L2-less memory
        path, so each additional busy core slows everyone down slightly.
        """
        if cycles < 0:
            raise ProtocolError("payload duration must be non-negative")
        if not cycles:
            return
        factor = self.memory.begin_compute(self.core_id)
        effective = int(round(cycles * factor))
        self.stats.add("payload_cycles", cycles)
        self.stats.add("contention_stretch_cycles", effective - cycles)
        self.busy_cycles += effective
        try:
            yield Delay(effective)
        finally:
            self.memory.end_compute(self.core_id)

    def syscall(self, cycles: int) -> ProcessGen:
        """Trap into the kernel for ``cycles`` cycles (futex, yield, …)."""
        if cycles < 0:
            raise ProtocolError("syscall cost must be non-negative")
        self.stats.incr("syscalls")
        self.overhead_cycles += cycles
        if cycles and not self.engine.advance(cycles):
            yield Delay(cycles)

    def rocc(self, command: RoccCommand) -> Generator[Any, Any, RoccResponse]:
        """Issue one custom task-scheduling instruction.

        The RoCC issue cost is charged to the core, then the accelerator's
        handshake is waited out and the instruction is forwarded to the
        attached Picos Delegate; its response value/flag is returned to the
        caller.  When nothing else is due before the handshake ends, one
        :meth:`Engine.advance` covers both; otherwise they are two steps.
        A blocking instruction's accelerator hands back the generator of
        its remaining steps, which is driven here.
        """
        accelerator = self.accelerator
        if accelerator is None:
            raise ProtocolError(
                f"core {self.core_id} has no RoCC accelerator attached"
            )
        issue_cycles = self._issue_cycles
        counters = self.stats.counter_map()
        counters["rocc_instructions"] += 1.0
        counters[_ROCC_COUNTERS[command.funct]] += 1.0
        self.overhead_cycles += issue_cycles
        engine = self.engine
        if not engine.advance(issue_cycles + self._handshake_cycles):
            if not engine.advance(issue_cycles):
                yield self._issue_delay
            if not engine.advance(self._handshake_cycles):
                yield self._handshake_delay
        response = accelerator.execute(command)
        if response.__class__ is GeneratorType:
            response = yield from response
        if response.__class__ is not RoccResponse:
            raise ProtocolError(
                "RoCC accelerator returned a non-RoccResponse value"
            )
        return response

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` spent on useful task payloads."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(self.busy_cycles / elapsed_cycles, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Core(id={self.core_id})"
