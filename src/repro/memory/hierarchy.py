"""Memory-hierarchy façade used by cores and runtime models.

:class:`MemorySystem` wraps the :class:`~repro.memory.mesi.CoherenceDirectory`
with the operations the rest of the simulator actually performs:

* ``load`` / ``store`` / ``atomic_rmw`` on byte addresses of arbitrary size
  (an access inside one line is one directory access; only an access that
  crosses a line boundary is split into per-line accesses),
* :class:`SharedCounter` — a modelled shared variable that the runtimes
  poll and update (this is where cache-line bouncing shows up),
* :class:`SoftwareMutex` — a lock built from an atomic RMW plus optional
  futex-style syscalls, matching how Nanos coordinates its shared
  structures.  Its lock word is one line, so it charges the directory
  directly.

Every method returns the number of core cycles the operation costs; the
calling process is responsible for charging that latency to the engine
(usually via :meth:`repro.cpu.core.Core.load`, ``store``, ``atomic`` or
``charge``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.config import CACHE_LINE_BYTES, MemoryCosts
from repro.common.errors import MemoryModelError
from repro.common.stats import Stats
from repro.memory.address import AddressAllocator, MemoryRegion, span_lines
from repro.memory.mesi import AccessType, CoherenceDirectory

__all__ = ["MemorySystem", "SharedCounter", "SoftwareMutex"]

_RMW = AccessType.RMW


class MemorySystem:
    """Chip-level memory model: one coherence directory + an allocator."""

    __slots__ = ("num_cores", "costs", "line_bytes", "directory",
                 "allocator", "_computing_cores")

    def __init__(self, num_cores: int, costs: MemoryCosts,
                 line_bytes: int = CACHE_LINE_BYTES) -> None:
        self.num_cores = num_cores
        self.costs = costs
        self.line_bytes = line_bytes
        self.directory = CoherenceDirectory(num_cores, costs, Stats("memory"))
        self.allocator = AddressAllocator(line_bytes=line_bytes)
        #: Cores currently executing task payloads, used by the bandwidth
        #: contention model (see ``MemoryCosts.payload_contention_per_core``).
        self._computing_cores: set = set()

    @property
    def stats(self) -> Stats:
        """The ``memory`` counters, kept by the directory."""
        return self.directory.stats

    # ------------------------------------------------------------------ #
    # Memory-bandwidth contention between concurrently running payloads
    # ------------------------------------------------------------------ #
    def begin_compute(self, core: int) -> float:
        """Register ``core`` as executing a payload; return its slowdown.

        The returned factor (>= 1.0) scales the payload duration: every
        other core already running a payload adds
        ``payload_contention_per_core`` because all data movement shares the
        memory path of the L2-less prototype.
        """
        others = len(self._computing_cores - {core})
        self._computing_cores.add(core)
        return 1.0 + self.costs.payload_contention_per_core * others

    def end_compute(self, core: int) -> None:
        """Unregister ``core`` from the payload contention model."""
        self._computing_cores.discard(core)

    @property
    def computing_cores(self) -> int:
        """Number of cores currently executing task payloads."""
        return len(self._computing_cores)

    # ------------------------------------------------------------------ #
    # Allocation helpers
    # ------------------------------------------------------------------ #
    def allocate(self, name: str, size: int) -> MemoryRegion:
        """Allocate a named, line-aligned region of the modelled memory."""
        return self.allocator.allocate(name, size)

    def allocate_array(self, name: str, element_size: int, count: int,
                       pad_to_line: bool = False) -> MemoryRegion:
        """Allocate an array region, optionally padding elements to lines."""
        return self.allocator.allocate_array(name, element_size, count,
                                             pad_to_line=pad_to_line)

    # ------------------------------------------------------------------ #
    # Raw accesses (cycle costs returned, not yielded)
    # ------------------------------------------------------------------ #
    def load(self, core: int, address: int, size: int = 8) -> int:
        """Cycles for ``core`` to read ``size`` bytes at ``address``."""
        return self._access(core, address, size, AccessType.READ)

    def store(self, core: int, address: int, size: int = 8) -> int:
        """Cycles for ``core`` to write ``size`` bytes at ``address``."""
        return self._access(core, address, size, AccessType.WRITE)

    def atomic_rmw(self, core: int, address: int, size: int = 8) -> int:
        """Cycles for an atomic read-modify-write by ``core``."""
        return self._access(core, address, size, AccessType.RMW)

    def touch_lines(self, core: int, region: MemoryRegion,
                    write: bool = False) -> int:
        """Access every line of ``region`` once; returns total cycles."""
        kind = AccessType.WRITE if write else AccessType.READ
        cycles = 0
        for line in region.lines:
            cycles += self.directory.access(core, line, kind)
        return cycles

    def _access(self, core: int, address: int, size: int, kind: AccessType) -> int:
        if size <= 0:
            raise MemoryModelError("access size must be positive")
        line_bytes = self.line_bytes
        line = address // line_bytes
        if address >= 0 and line == (address + size - 1) // line_bytes:
            return self.directory.access(core, line, kind)
        # Crosses a line boundary (or is negative, which span_lines rejects).
        cycles = 0
        for line in span_lines(address, size, line_bytes):
            cycles += self.directory.access(core, line, kind)
        return cycles

    # ------------------------------------------------------------------ #
    # Shared-variable factories
    # ------------------------------------------------------------------ #
    def shared_counter(self, name: str, initial: int = 0) -> "SharedCounter":
        """Create a modelled shared counter living on its own cache line."""
        region = self.allocate(name, self.line_bytes)
        return SharedCounter(self, region, initial)

    def mutex(self, name: str, syscall_cycles: int = 0) -> "SoftwareMutex":
        """Create a modelled mutex (atomic word + optional futex syscalls)."""
        region = self.allocate(name, self.line_bytes)
        return SoftwareMutex(self, region, syscall_cycles)


@dataclass
class SharedCounter:
    """A shared integer counter with value semantics and modelled cost.

    The value itself is tracked functionally (so taskwait logic can be
    exact); the memory model is charged for every read and update, which is
    how the cost of spin-waiting on the retirement counter materialises.
    Observers registered with :meth:`subscribe` are notified after every
    update, which lets simulated threads sleep until the counter moves
    instead of burning one simulation event per poll.
    """

    memory: MemorySystem
    region: MemoryRegion
    value: int = 0

    def __post_init__(self) -> None:
        self._observers: List = []

    def read(self, core: int) -> Tuple[int, int]:
        """Return ``(value, cycles)`` for a read by ``core``."""
        cycles = self.memory.load(core, self.region.base)
        return self.value, cycles

    def add(self, core: int, amount: int = 1) -> int:
        """Atomically add ``amount``; returns the cycle cost."""
        cycles = self.memory.atomic_rmw(core, self.region.base)
        self.value += amount
        self._notify()
        return cycles

    def set(self, core: int, value: int) -> int:
        """Plain store of ``value``; returns the cycle cost."""
        cycles = self.memory.store(core, self.region.base)
        self.value = value
        self._notify()
        return cycles

    def subscribe(self, callback) -> None:
        """Register ``callback()`` to run after every update."""
        self._observers.append(callback)

    def unsubscribe(self, callback) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def _notify(self) -> None:
        for callback in list(self._observers):
            callback()


class SoftwareMutex:
    """A cost model of a pthread-style mutex (atomic word + futex syscalls).

    Nanos guards its shared structures (dependence map, scheduler queue,
    task graph) with pthread mutexes.  The model charges:

    * one atomic RMW for the acquire attempt,
    * on contention (another core performed the most recent acquire and has
      not released yet), ``syscall_cycles`` for the futex sleep/wake pair
      plus a second atomic RMW,
    * one atomic RMW (plus possible invalidations) for the release.

    It is a *cost* model, not a correctness-enforcing lock: the simulated
    critical sections are already serialised at a coarser grain by the event
    engine, so the holder field is only used to detect contention.  A
    release by a core that lost the holder race to a later acquirer is
    charged normally and leaves the newer holder in place.
    """

    __slots__ = ("memory", "region", "syscall_cycles", "holder",
                 "acquisitions", "contended_acquisitions", "_line")

    def __init__(self, memory: MemorySystem, region: MemoryRegion,
                 syscall_cycles: int) -> None:
        self.memory = memory
        self.region = region
        self.syscall_cycles = syscall_cycles
        self.holder: Optional[int] = None
        self.acquisitions = 0
        self.contended_acquisitions = 0
        #: The lock word is 8 bytes at a line's start, so every RMW on it is
        #: one directory access to this line, as ``atomic_rmw`` would make.
        self._line = region.base // memory.line_bytes

    def acquire(self, core: int) -> int:
        """Acquire the mutex for ``core``; returns the cycle cost."""
        directory = self.memory.directory
        cycles = directory.access(core, self._line, _RMW)
        if self.holder is not None and self.holder != core:
            # Contended path: futex wait + wake once the holder releases.
            self.contended_acquisitions += 1
            cycles += self.syscall_cycles
            cycles += directory.access(core, self._line, _RMW)
        self.holder = core
        self.acquisitions += 1
        return cycles

    def release(self, core: int) -> int:
        """Release the mutex; returns the cycle cost."""
        if self.holder == core:
            self.holder = None
        return self.memory.directory.access(core, self._line, _RMW)

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that found the lock already held."""
        if not self.acquisitions:
            return 0.0
        return self.contended_acquisitions / self.acquisitions
