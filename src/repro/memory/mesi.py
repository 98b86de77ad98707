"""MESI coherence protocol model for the per-core L1 caches.

The paper's prototype keeps the eight 32 KB L1 data caches coherent with
MESI and has **no shared L2**, so a dirty line owned by one core must be
written back to main memory before another core can read it (Section V-B).
That property is what makes cache-line bouncing so expensive on the
prototype and is the primary reason spin-waiting on shared counters hurts.

The model tracks, per cache line, which cores hold it and in which state
and answers the question every simulated memory access asks: *how many
core cycles does this access cost?*  Coherence side effects (downgrades,
invalidations, writebacks through memory) update the directory and the
``memory`` counters.

Every simulated memory access goes through
:meth:`CoherenceDirectory.access`, so its bookkeeping is kept to a few
dict operations:

* ``_lines`` maps each line to ``{core: code}`` with Shared = 1,
  Exclusive = 2 and Modified = 3.  An absent core is Invalid, and a line
  no core holds is absent.
* ``_owner`` maps each line held Modified to its owning core, so the miss
  paths never scan the holders.  Under MESI a line held Exclusive or
  Modified has exactly one holder, and a line held Shared has only Shared
  holders.
* The counters are updated in place with literal keys.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.common.config import MemoryCosts
from repro.common.errors import MemoryModelError
from repro.common.stats import Stats

__all__ = ["LineState", "AccessType", "CoherenceDirectory"]


class LineState(enum.Enum):
    """MESI state of one cache line in one core's L1."""

    __slots__ = ()

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class AccessType(enum.Enum):
    """Kind of memory access a core performs against a line."""

    __slots__ = ()

    READ = "read"
    WRITE = "write"
    RMW = "rmw"  # atomic read-modify-write (amoadd/lr-sc)


# Directory codes of the valid states; Invalid is "absent".
_SHARED = 1
_EXCLUSIVE = 2
_MODIFIED = 3
_STATE_OF_CODE = (LineState.INVALID, LineState.SHARED, LineState.EXCLUSIVE,
                  LineState.MODIFIED)

_READ = AccessType.READ
_WRITE = AccessType.WRITE
_RMW = AccessType.RMW


class CoherenceDirectory:
    """Directory-style bookkeeping of every L1 line state in the system.

    The directory is deliberately *behavioural*: it does not store data, only
    states, and it resolves each access instantaneously while charging the
    appropriate latency.  Concurrency effects (two cores writing the same
    line in the same cycle) are serialised by the event engine because each
    access is performed inside a core's process.
    """

    __slots__ = ("num_cores", "costs", "stats", "_lines", "_owner",
                 "_counters")

    def __init__(self, num_cores: int, costs: MemoryCosts,
                 stats: Optional[Stats] = None) -> None:
        if num_cores <= 0:
            raise MemoryModelError("num_cores must be positive")
        self.num_cores = num_cores
        self.costs = costs
        self.stats = stats if stats is not None else Stats("coherence")
        self._lines: Dict[int, Dict[int, int]] = {}
        self._owner: Dict[int, int] = {}
        self._counters = self.stats.counter_map()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def state_of(self, core: int, line: int) -> LineState:
        """MESI state of ``line`` in ``core``'s L1."""
        self._check_core(core)
        return _STATE_OF_CODE[self._lines.get(line, {}).get(core, 0)]

    def sharers(self, line: int) -> Set[int]:
        """Cores holding ``line`` in any valid state."""
        return set(self._lines.get(line, ()))

    def owner(self, line: int) -> Optional[int]:
        """The core holding ``line`` in Modified state, if any."""
        return self._owner.get(line)

    def lines_tracked(self) -> int:
        """Number of lines with at least one valid copy (for tests)."""
        return len(self._lines)

    # ------------------------------------------------------------------ #
    # The access model
    # ------------------------------------------------------------------ #
    def access(self, core: int, line: int, kind: AccessType) -> int:
        """Perform one access and return its latency in core cycles."""
        if not 0 <= core < self.num_cores:
            self._check_core(core)
        costs = self.costs
        counters = self._counters
        holders = self._lines.get(line)
        if kind is _READ:
            counters["accesses"] += 1
            counters["accesses_read"] += 1
            if holders is not None and core in holders:
                cycles = costs.l1_hit
                counters["access_cycles"] += cycles
                counters["hits"] += 1
                return cycles
            owner = self._owner.pop(line, None)
            if owner is not None:
                # Dirty in a remote L1: with no shared L2 the line is
                # written back to main memory and then refilled here — the
                # expensive path the paper blames for cache-line bouncing.
                holders[owner] = _SHARED
                holders[core] = _SHARED
                cycles = costs.dirty_remote_transfer
                counters["access_cycles"] += cycles
                counters["misses"] += 1
                counters["dirty_transfers_through_memory"] += 1
                return cycles
            if holders is None:
                self._lines[line] = {core: _EXCLUSIVE}
            else:
                # Clean copy exists elsewhere; a sole holder may be
                # Exclusive and downgrades to Shared.  The refill still
                # comes from memory (no L2, no cache-to-cache transfer of
                # clean lines either).
                if len(holders) == 1:
                    for other in holders:
                        holders[other] = _SHARED
                holders[core] = _SHARED
            cycles = costs.l1_miss_to_memory
            counters["access_cycles"] += cycles
            counters["misses"] += 1
            return cycles
        if kind is _WRITE:
            counters["accesses"] += 1
            counters["accesses_write"] += 1
            cycles = 0
        elif kind is _RMW:
            counters["accesses"] += 1
            counters["accesses_rmw"] += 1
            cycles = costs.atomic_rmw_extra
        else:  # pragma: no cover - enum is exhaustive
            raise MemoryModelError(f"unknown access type {kind!r}")
        state = 0 if holders is None else holders.get(core, 0)
        if state >= _EXCLUSIVE:
            holders[core] = _MODIFIED
            self._owner[line] = core
            cycles += costs.l1_hit
            counters["access_cycles"] += cycles
            counters["hits"] += 1
            return cycles
        # Shared or Invalid here: every other holder is invalidated and the
        # writer becomes the sole, Modified holder.
        if holders is None:
            invalidated = 0
        else:
            invalidated = len(holders) - 1 if state else len(holders)
        owner = self._owner.get(line)
        self._lines[line] = {core: _MODIFIED}
        self._owner[line] = core
        if state == _SHARED:
            # Upgrade: invalidate the other sharers.
            cycles += costs.l1_hit
            if invalidated:
                cycles += costs.invalidate_remote
            counters["access_cycles"] += cycles
            counters["hits"] += 1
            if invalidated:
                counters["invalidations"] += invalidated
            return cycles
        # Invalid here: fetch with intent to modify.
        if owner is not None:
            cycles += costs.dirty_remote_transfer
        elif invalidated:
            cycles += costs.l1_miss_to_memory + costs.invalidate_remote
        else:
            cycles += costs.l1_miss_to_memory
        counters["access_cycles"] += cycles
        counters["misses"] += 1
        if invalidated:
            counters["invalidations"] += invalidated
        if owner is not None:
            counters["dirty_transfers_through_memory"] += 1
        return cycles

    def evict(self, core: int, line: int) -> int:
        """Evict ``line`` from ``core``'s L1, returning the cycle cost."""
        self._check_core(core)
        holders = self._lines.get(line)
        if holders is None or core not in holders:
            return 0
        state = holders.pop(core)
        if not holders:
            del self._lines[line]
        if state == _MODIFIED:
            del self._owner[line]
            self.stats.incr("writebacks")
            return self.costs.store_buffer_drain + self.costs.l1_miss_to_memory
        return 0

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise MemoryModelError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )
