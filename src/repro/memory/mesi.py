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
integer operations:

* ``_lines`` maps each line to one int.  Its low ``num_cores`` bits are
  the holder bitmask (bit ``c`` is set while core ``c`` holds a valid
  copy), and the two bits above them are the mode: Exclusive, Modified,
  or neither when every holder is Shared.  Under MESI a line held
  Exclusive or Modified has exactly one holder, so the mode needs no
  per-core state.  A line no core holds is absent.
* Each access ends in one of 15 outcomes (3 for a read, 6 each for a write
  and an RMW), whose latency is fixed by ``MemoryCosts`` and computed once.
  ``access`` only tallies the outcome, plus the number of invalidated
  copies, which varies.
* The ``memory`` counters are derived from the tallies when
  :attr:`CoherenceDirectory.stats` is read.  The outcomes are replayed in
  the order they were first seen since the last read, each adding to its
  counters in the order the counters were bumped one access at a time.
  So the values, and the first-touch key order that reports keep, are
  those of per-access counting.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

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


_READ = AccessType.READ
_WRITE = AccessType.WRITE
_RMW = AccessType.RMW

# Outcomes of an access, as tally indices.  A read ends in one of the first
# three; a write or an RMW in one of six, counted from its base.
_READ_HIT = 0
_READ_DIRTY = 1
_READ_MISS = 2
_WRITE_BASE = 3
_RMW_BASE = 9
_HIT = 0                  # Exclusive or Modified here
_UPGRADE = 1              # Shared here, no other holder
_UPGRADE_INVALIDATE = 2   # Shared here and elsewhere
_MISS_DIRTY = 3           # Modified in one remote L1
_MISS_INVALIDATE = 4      # clean copies elsewhere
_MISS = 5                 # no copy anywhere


def _outcome_table(costs: MemoryCosts) -> List[Tuple[int, Tuple[str, ...]]]:
    """``(cycles, counters)`` of each outcome, in tally order.

    ``counters`` lists, after ``accesses``, the names an access with that
    outcome bumps after ``access_cycles``; the first is bumped before it.
    ``invalidations`` stands for the varying invalidation count.
    """
    hit = costs.l1_hit
    miss = costs.l1_miss_to_memory
    dirty = costs.dirty_remote_transfer
    table = [
        (hit, ("accesses_read", "hits")),
        # Dirty in a remote L1: with no shared L2 the line is written back
        # to main memory and then refilled here — the expensive path the
        # paper blames for cache-line bouncing.
        (dirty, ("accesses_read", "misses", "dirty_transfers_through_memory")),
        # The refill comes from memory even when a clean copy exists
        # elsewhere (no L2, no cache-to-cache transfer of clean lines).
        (miss, ("accesses_read", "misses")),
    ]
    for name, extra in (("accesses_write", 0),
                        ("accesses_rmw", costs.atomic_rmw_extra)):
        table += [
            (extra + hit, (name, "hits")),
            (extra + hit, (name, "hits")),
            (extra + hit + costs.invalidate_remote,
             (name, "hits", "invalidations")),
            (extra + dirty,
             (name, "misses", "invalidations",
              "dirty_transfers_through_memory")),
            (extra + miss + costs.invalidate_remote,
             (name, "misses", "invalidations")),
            (extra + miss, (name, "misses")),
        ]
    return table


class CoherenceDirectory:
    """Directory-style bookkeeping of every L1 line state in the system.

    The directory is deliberately *behavioural*: it does not store data, only
    states, and it resolves each access instantaneously while charging the
    appropriate latency.  Concurrency effects (two cores writing the same
    line in the same cycle) are serialised by the event engine because each
    access is performed inside a core's process.
    """

    __slots__ = ("num_cores", "costs", "_stats", "_lines", "_holders",
                 "_exclusive", "_modified", "_outcomes", "_cycles",
                 "_tally", "_invalidated")

    def __init__(self, num_cores: int, costs: MemoryCosts,
                 stats: Optional[Stats] = None) -> None:
        if num_cores <= 0:
            raise MemoryModelError("num_cores must be positive")
        self.num_cores = num_cores
        self.costs = costs
        self._stats = stats if stats is not None else Stats("coherence")
        self._lines: Dict[int, int] = {}
        #: Masks of the holder bits and of the two mode bits above them.
        self._holders = (1 << num_cores) - 1
        self._exclusive = 1 << num_cores
        self._modified = 2 << num_cores
        self._outcomes = _outcome_table(costs)
        self._cycles = tuple(cycles for cycles, _ in self._outcomes)
        #: Accesses per outcome since the last flush, in first-seen order.
        self._tally: Dict[int, int] = defaultdict(int)
        #: Copies invalidated since the last flush.
        self._invalidated = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Stats:
        """The counters, brought up to date from the outcome tallies."""
        if self._tally:
            self._flush()
        return self._stats

    def state_of(self, core: int, line: int) -> LineState:
        """MESI state of ``line`` in ``core``'s L1."""
        self._check_core(core)
        state = self._lines.get(line, 0)
        if not state & (1 << core):
            return LineState.INVALID
        if state & self._modified:
            return LineState.MODIFIED
        if state & self._exclusive:
            return LineState.EXCLUSIVE
        return LineState.SHARED

    def sharers(self, line: int) -> Set[int]:
        """Cores holding ``line`` in any valid state."""
        state = self._lines.get(line, 0)
        return {core for core in range(self.num_cores) if state >> core & 1}

    def owner(self, line: int) -> Optional[int]:
        """The core holding ``line`` in Modified state, if any."""
        state = self._lines.get(line, 0)
        if state & self._modified:
            return (state & self._holders).bit_length() - 1
        return None

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
        lines = self._lines
        state = lines.get(line, 0)
        bit = 1 << core
        if kind is _READ:
            if state & bit:
                outcome = _READ_HIT
            elif state & self._modified:
                # The owner and the reader end up Shared.
                lines[line] = state & self._holders | bit
                outcome = _READ_DIRTY
            elif state:
                # A sole Exclusive holder downgrades to Shared.
                lines[line] = state & self._holders | bit
                outcome = _READ_MISS
            else:
                lines[line] = bit | self._exclusive
                outcome = _READ_MISS
        else:
            if kind is _WRITE:
                outcome = _WRITE_BASE
            elif kind is _RMW:
                outcome = _RMW_BASE
            else:  # pragma: no cover - enum is exhaustive
                raise MemoryModelError(f"unknown access type {kind!r}")
            # Every other holder is invalidated and the writer becomes the
            # sole, Modified holder.
            lines[line] = bit | self._modified
            if state & bit:
                if state & self._holders != state:
                    outcome += _HIT
                elif state != bit:
                    self._invalidated += bin(state).count("1") - 1
                    outcome += _UPGRADE_INVALIDATE
                else:
                    outcome += _UPGRADE
            elif state & self._modified:
                self._invalidated += 1
                outcome += _MISS_DIRTY
            elif state:
                self._invalidated += bin(state & self._holders).count("1")
                outcome += _MISS_INVALIDATE
            else:
                outcome += _MISS
        self._tally[outcome] += 1
        return self._cycles[outcome]

    def evict(self, core: int, line: int) -> int:
        """Evict ``line`` from ``core``'s L1, returning the cycle cost."""
        self._check_core(core)
        state = self._lines.get(line, 0)
        bit = 1 << core
        if not state & bit:
            return 0
        if state == bit:
            del self._lines[line]
        elif state & self._holders == state:
            self._lines[line] = state ^ bit
        else:
            # The sole Exclusive or Modified holder.
            del self._lines[line]
            if state & self._modified:
                self.stats.incr("writebacks")
                return (self.costs.store_buffer_drain
                        + self.costs.l1_miss_to_memory)
        return 0

    def _flush(self) -> None:
        """Add the tallied outcomes to the counters and clear the tallies."""
        counters = self._stats.counter_map()
        outcomes = self._outcomes
        for outcome, count in self._tally.items():
            cycles, names = outcomes[outcome]
            counters["accesses"] += count
            counters[names[0]] += count
            counters["access_cycles"] += count * cycles
            for name in names[1:]:
                counters[name] += 0 if name == "invalidations" else count
        if self._invalidated:
            counters["invalidations"] += self._invalidated
        self._tally.clear()
        self._invalidated = 0

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise MemoryModelError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )
