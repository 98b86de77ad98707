"""Tests for the memory substrate: addresses, MESI coherence, shared vars."""

from __future__ import annotations

import pytest

from repro.common.config import CACHE_LINE_BYTES, MemoryCosts
from repro.common.errors import MemoryModelError
from repro.memory.address import (
    AddressAllocator,
    MemoryRegion,
    line_base,
    line_of,
    span_lines,
)
from repro.memory import hierarchy
from repro.memory.hierarchy import MemorySystem
from repro.memory.mesi import AccessType, CoherenceDirectory, LineState
from tests.helpers import ReferenceDirectory


class TestAddressHelpers:
    def test_line_of_and_base(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1
        assert line_base(130) == 128

    def test_negative_address_rejected(self):
        with pytest.raises(MemoryModelError):
            line_of(-1)

    def test_span_lines_crossing_boundary(self):
        assert span_lines(60, 8) == [0, 1]
        assert span_lines(0, 64) == [0]
        assert span_lines(64, 128) == [1, 2]

    def test_span_requires_positive_size(self):
        with pytest.raises(MemoryModelError):
            span_lines(0, 0)


class TestMemoryRegion:
    def test_bounds_and_elements(self):
        region = MemoryRegion("r", base=0x1000, size=256)
        assert region.end == 0x1100
        assert region.contains(0x1000)
        assert region.contains(0x10FF)
        assert not region.contains(0x1100)
        assert region.element(2, 64) == 0x1080
        assert len(region.lines) == 4

    def test_address_of_bounds_checked(self):
        region = MemoryRegion("r", base=0, size=10)
        with pytest.raises(MemoryModelError):
            region.address_of(10)

    def test_invalid_region_rejected(self):
        with pytest.raises(MemoryModelError):
            MemoryRegion("bad", base=-1, size=10)
        with pytest.raises(MemoryModelError):
            MemoryRegion("bad", base=0, size=0)


class TestAddressAllocator:
    def test_allocations_are_line_aligned_and_disjoint(self):
        allocator = AddressAllocator()
        first = allocator.allocate("a", 100)
        second = allocator.allocate("b", 100)
        assert first.base % CACHE_LINE_BYTES == 0
        assert second.base % CACHE_LINE_BYTES == 0
        assert first.end <= second.base
        assert set(first.lines).isdisjoint(second.lines)

    def test_array_padding_to_line(self):
        allocator = AddressAllocator()
        packed = allocator.allocate_array("packed", element_size=24, count=4)
        padded = allocator.allocate_array("padded", element_size=24, count=4,
                                          pad_to_line=True)
        assert packed.size == 96
        assert padded.size == 4 * CACHE_LINE_BYTES

    def test_invalid_allocations_rejected(self):
        allocator = AddressAllocator()
        with pytest.raises(MemoryModelError):
            allocator.allocate("zero", 0)
        with pytest.raises(MemoryModelError):
            allocator.allocate_array("bad", 0, 4)


class TestCoherenceDirectory:
    """``access`` returns only cycles; side effects show in the directory
    queries and in the counter deltas."""

    def setup_method(self):
        self.costs = MemoryCosts()
        self.directory = CoherenceDirectory(4, self.costs)

    def access(self, core, line, kind):
        """``(cycles, counter deltas)`` of one access."""
        before = self.directory.stats.counters()
        cycles = self.directory.access(core, line, kind)
        after = self.directory.stats.counters()
        delta = {name: value - before.get(name, 0.0)
                 for name, value in after.items()
                 if value != before.get(name, 0.0)}
        return cycles, delta

    def test_cold_read_is_exclusive_miss(self):
        cycles, delta = self.access(0, 100, AccessType.READ)
        assert delta.get("misses") == 1 and "hits" not in delta
        assert self.directory.state_of(0, 100) is LineState.EXCLUSIVE
        assert cycles == self.costs.l1_miss_to_memory

    def test_repeat_read_hits(self):
        self.directory.access(0, 100, AccessType.READ)
        cycles, delta = self.access(0, 100, AccessType.READ)
        assert delta.get("hits") == 1 and "misses" not in delta
        assert cycles == self.costs.l1_hit

    def test_second_reader_shares_line(self):
        self.directory.access(0, 100, AccessType.READ)
        self.directory.access(1, 100, AccessType.READ)
        assert self.directory.state_of(1, 100) is LineState.SHARED
        assert self.directory.state_of(0, 100) is LineState.SHARED
        assert self.directory.sharers(100) == {0, 1}

    def test_write_upgrade_invalidates_sharers(self):
        self.directory.access(0, 100, AccessType.READ)
        self.directory.access(1, 100, AccessType.READ)
        _, delta = self.access(0, 100, AccessType.WRITE)
        assert self.directory.state_of(0, 100) is LineState.MODIFIED
        # Exactly core 1 was invalidated.
        assert delta.get("invalidations") == 1
        assert self.directory.sharers(100) == {0}
        assert self.directory.state_of(1, 100) is LineState.INVALID

    def test_dirty_line_travels_through_memory(self):
        self.directory.access(0, 200, AccessType.WRITE)
        cycles, delta = self.access(1, 200, AccessType.READ)
        assert delta.get("dirty_transfers_through_memory") == 1
        assert cycles == self.costs.dirty_remote_transfer
        # After the transfer both copies are Shared (MESI, no owned state).
        assert self.directory.state_of(0, 200) is LineState.SHARED
        assert self.directory.state_of(1, 200) is LineState.SHARED
        assert self.directory.owner(200) is None

    def test_write_to_remote_dirty_line(self):
        self.directory.access(0, 300, AccessType.WRITE)
        _, delta = self.access(1, 300, AccessType.WRITE)
        assert delta.get("dirty_transfers_through_memory") == 1
        assert self.directory.owner(300) == 1
        assert self.directory.state_of(0, 300) is LineState.INVALID

    def test_exclusive_write_is_silent_upgrade(self):
        self.directory.access(0, 400, AccessType.READ)
        _, delta = self.access(0, 400, AccessType.WRITE)
        assert delta.get("hits") == 1 and "misses" not in delta
        assert self.directory.state_of(0, 400) is LineState.MODIFIED
        assert "invalidations" not in delta

    def test_atomic_rmw_costs_extra(self):
        plain = self.directory.access(0, 500, AccessType.WRITE)
        atomic = self.directory.access(1, 501 * CACHE_LINE_BYTES,
                                       AccessType.RMW)
        assert atomic == plain + self.costs.atomic_rmw_extra

    def test_cache_line_bouncing_is_expensive(self):
        """Alternating writers pay the dirty-transfer path every time."""
        self.directory.access(0, 600, AccessType.RMW)
        total = 0
        for i in range(1, 9):
            total += self.directory.access(i % 2, 600, AccessType.RMW)
        assert total >= 8 * self.costs.dirty_remote_transfer

    def test_evict_dirty_line_charges_writeback(self):
        self.directory.access(0, 700, AccessType.WRITE)
        cycles = self.directory.evict(0, 700)
        assert cycles > 0
        assert self.directory.state_of(0, 700) is LineState.INVALID
        assert self.directory.evict(0, 700) == 0

    def test_stats_recorded(self):
        self.directory.access(0, 800, AccessType.READ)
        self.directory.access(0, 800, AccessType.READ)
        assert self.directory.stats.counter("accesses") == 2
        assert self.directory.stats.counter("hits") == 1
        assert self.directory.stats.counter("misses") == 1

    def test_core_bounds_checked(self):
        with pytest.raises(MemoryModelError):
            self.directory.access(9, 0, AccessType.READ)

    def test_tallied_counters_replay_in_first_touch_order(self):
        read, write, rmw = AccessType.READ, AccessType.WRITE, AccessType.RMW
        # Every outcome once, ordered so that each counter's first touch
        # is visible: the plain upgrade comes before the first
        # invalidation with a new counter in between, a dirty write
        # introduces both ``invalidations`` and the dirty transfer, and a
        # writeback is counted while everything before it is still only
        # tallied.
        steps = [
            (read, 0, 0), (read, 0, 0), (read, 1, 0), ("evict", 1, 0),
            (write, 0, 0),                      # upgrade, nothing to invalidate
            (rmw, 2, 1),                        # cold RMW miss
            (write, 0, 0),                      # hit on Modified
            (write, 1, 0),                      # dirty miss
            (read, 0, 0),                       # dirty read
            (write, 2, 0),                      # miss invalidating two copies
            (read, 0, 3), (read, 1, 3), (rmw, 0, 3),   # RMW upgrade + inval
            (rmw, 1, 3),                        # dirty RMW miss
            (read, 0, 4), (read, 1, 4), ("evict", 1, 4),
            (rmw, 0, 4), (rmw, 0, 4),           # RMW upgrade, then RMW hit
            (read, 2, 5), (read, 0, 5), (rmw, 1, 5),   # RMW miss + inval
            (read, 0, 6), (read, 1, 6), (write, 0, 6),  # upgrade + inval
            (write, 0, 7), ("evict", 0, 7),     # cold write miss, writeback
        ]
        reference = ReferenceDirectory(4, self.costs)
        for index, (op, core, line) in enumerate(steps):
            if index == len(steps) - 1:
                # Every outcome is tallied, and nothing flushed yet.
                assert len(self.directory._tally) == 15
            for model in (self.directory, reference):
                if op == "evict":
                    model.evict(core, line)
                else:
                    model.access(core, line, op)
        assert (list(self.directory.stats.counters().items())
                == list(reference.stats.counters().items()))


class TestMemorySystem:
    def setup_method(self):
        self.memory = MemorySystem(4, MemoryCosts())

    def test_multi_line_access_charges_every_line(self):
        region = self.memory.allocate("big", 4 * CACHE_LINE_BYTES)
        single = self.memory.load(0, region.base, size=8)
        whole = self.memory.load(0, region.base, size=4 * CACHE_LINE_BYTES)
        assert whole > single

    def test_shared_counter_tracks_value_and_charges(self):
        counter = self.memory.shared_counter("c")
        cycles = counter.add(0)
        assert counter.value == 1
        assert cycles > 0
        value, read_cycles = counter.read(1)
        assert value == 1
        assert read_cycles > 0

    def test_shared_counter_observers(self):
        counter = self.memory.shared_counter("c2")
        seen = []
        counter.subscribe(lambda: seen.append(counter.value))
        counter.add(2, amount=3)
        counter.set(2, 10)
        counter.unsubscribe(lambda: None)  # unknown callback: no-op
        assert seen == [3, 10]

    def test_mutex_contention_costs_more(self):
        mutex = self.memory.mutex("m", syscall_cycles=1000)
        uncontended = mutex.acquire(0)
        mutex.release(0)
        mutex.acquire(1)
        contended = mutex.acquire(2)
        assert contended > uncontended
        assert mutex.contention_ratio > 0

    def test_payload_contention_factor_grows_with_busy_cores(self):
        alpha = self.memory.costs.payload_contention_per_core
        assert self.memory.begin_compute(0) == pytest.approx(1.0)
        assert self.memory.begin_compute(1) == pytest.approx(1.0 + alpha)
        assert self.memory.begin_compute(2) == pytest.approx(1.0 + 2 * alpha)
        self.memory.end_compute(1)
        assert self.memory.computing_cores == 2
        # Re-entering with fewer busy peers costs less.
        assert self.memory.begin_compute(1) == pytest.approx(1.0 + 2 * alpha)

    def test_access_size_must_be_positive(self):
        with pytest.raises(MemoryModelError):
            self.memory.load(0, 0, size=0)

    @pytest.mark.parametrize("op", ["load", "store", "atomic_rmw"])
    def test_zero_and_negative_sizes_rejected_before_any_access(self, op):
        for size in (0, -8):
            with pytest.raises(MemoryModelError, match="size must be positive"):
                getattr(self.memory, op)(0, 0x1000, size=size)
        assert self.memory.stats.counters() == {}

    @pytest.mark.parametrize("size", [1, 8, 64])
    def test_negative_address_rejected(self, size):
        with pytest.raises(MemoryModelError, match="negative address"):
            self.memory.load(0, -8, size=size)
        assert self.memory.stats.counters() == {}

    def test_one_line_access_skips_span_lines(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hierarchy, "span_lines",
                            lambda *args: calls.append(args) or [])
        base = self.memory.allocate("one", CACHE_LINE_BYTES).base
        assert self.memory.load(0, base + 56, size=8) == \
            self.memory.costs.l1_miss_to_memory
        assert self.memory.store(0, base, size=CACHE_LINE_BYTES) == \
            self.memory.costs.l1_hit
        assert calls == []
        assert self.memory.stats.counter("accesses") == 2

    def test_line_crossing_access_charges_both_lines(self):
        base = self.memory.allocate("pair", 2 * CACHE_LINE_BYTES).base
        costs = self.memory.costs
        # Bytes 60..67 straddle the boundary: two cold misses.
        assert self.memory.load(0, base + 60, size=8) == \
            2 * costs.l1_miss_to_memory
        line = base // CACHE_LINE_BYTES
        directory = self.memory.directory
        assert directory.state_of(0, line) is LineState.EXCLUSIVE
        assert directory.state_of(0, line + 1) is LineState.EXCLUSIVE
        assert self.memory.stats.counter("accesses_read") == 2
        # A write across the same boundary hits both Exclusive lines.
        assert self.memory.store(0, base + 60, size=8) == 2 * costs.l1_hit
        assert directory.owner(line) == 0 and directory.owner(line + 1) == 0
