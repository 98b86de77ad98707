"""The :class:`CacheStore` contract every cache backend implements.

Consumers — :class:`~repro.harness.engine.ExperimentEngine`, the sweep
runner's memoisation path, the CLI — program against this interface only;
which backend actually holds the bytes (the sharded directory store, or
memory for tests and dry runs) is decided once, by
:func:`~repro.harness.cache.spec.open_store`.

The base class owns everything backend-independent: the per-instance
:class:`~repro.harness.cache.stats.CacheStats` counters, tracer
instrumentation (``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.evictions`` counters plus cumulative ``cache.read_seconds`` /
``cache.write_seconds`` latencies), hit demotion, and the locked
lifetime-stats merge.  Backends implement the raw document IO
(:meth:`_read` / :meth:`_write`) plus enumeration and deletion.
"""

from __future__ import annotations

import abc
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.harness.cache.stats import (
    CacheStats,
    merge_lifetime_stats,
    read_lifetime_stats,
)

__all__ = ["CacheStore", "MISS"]

#: Sentinel a backend's :meth:`CacheStore._read` returns on a miss, so a
#: legitimately stored ``None`` payload is distinguishable internally.
MISS = object()


class CacheStore(abc.ABC):
    """Abstract content-addressed result store.

    Keys are :func:`~repro.harness.hashing.stable_hash` digests of
    everything that can affect a result, so there is no invalidation
    protocol: changing any input simply addresses a different entry.
    """

    def __init__(self, tracer=None) -> None:
        self.stats = CacheStats()
        self.tracer = tracer
        # Counters already folded into the lifetime document, so repeated
        # persist_stats() calls write each lookup exactly once.
        self._persisted = CacheStats()
        # Lock-wait budget of the lifetime-stats merge; overridable for
        # tests that exercise the cannot-lock path.
        self._stats_lock_timeout = 5.0

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _read(self, key: str) -> object:
        """The payload stored under ``key``, or :data:`MISS`."""

    @abc.abstractmethod
    def _write(self, key: str, document: dict) -> object:
        """Persist ``document`` under ``key``; returns its location."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (does not touch the stats)."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Drop the entry addressed by ``key``; True if one was removed."""

    @abc.abstractmethod
    def entries(self) -> Iterator:
        """Every entry currently in the store (paths for disk backends).

        The listing is a snapshot of state other processes may be
        mutating; consumers (:meth:`size_bytes`, :meth:`clear`) tolerate
        entries that vanish between listing and use.
        """

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total stored size of all entries."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""

    # ------------------------------------------------------------------ #
    # Lookup / store (instrumented template methods)
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[object]:
        """The JSON payload stored under ``key``, or None on a miss."""
        started = time.perf_counter() if self.tracer is not None else 0.0
        payload = self._read(key)
        if payload is MISS:
            self.stats.misses += 1
            if self.tracer is not None:
                self.tracer.count("cache.misses")
                self.tracer.count("cache.read_seconds",
                                  time.perf_counter() - started)
            return None
        self.stats.hits += 1
        if self.tracer is not None:
            self.tracer.count("cache.hits")
            self.tracer.count("cache.read_seconds",
                              time.perf_counter() - started)
        return payload

    def put(self, key: str, payload: object, **metadata: object) -> object:
        """Atomically persist ``payload`` (JSON-serialisable) under ``key``."""
        started = time.perf_counter() if self.tracer is not None else 0.0
        document = {"key": key, "metadata": metadata, "payload": payload}
        location = self._write(key, document)
        self.stats.stores += 1
        if self.tracer is not None:
            self.tracer.count("cache.stores")
            self.tracer.count("cache.write_seconds",
                              time.perf_counter() - started)
        return location

    def demote_hit(self, key: str) -> None:
        """Re-classify the last hit on ``key`` as a miss and drop the entry.

        Callers use this when an entry parsed as JSON but failed to decode
        into the expected result type — from the caller's point of view
        that is a corrupt entry, i.e. a miss, and keeping it around would
        make every future run trip over it again.  Backends with an
        eviction index drop the entry's index row too (via
        :meth:`delete`), so a demoted entry can never be "evicted" again
        or resurrect a stale index row.
        """
        self.stats.hits = max(self.stats.hits - 1, 0)
        self.stats.misses += 1
        try:
            self.delete(key)
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def evict(self, budget: int, block: bool = True):
        """Shrink the store under ``budget`` bytes, least recently used
        first; returns a report dict (``removed`` / ``freed_bytes`` /
        ``size_bytes`` / ``skipped``)."""

    # ------------------------------------------------------------------ #
    # Lifetime statistics
    # ------------------------------------------------------------------ #
    @property
    def stats_path(self) -> Optional[Path]:
        """Location of the lifetime-counter document (None: not persisted)."""
        return None

    def lifetime_stats(self) -> CacheStats:
        """Hit/miss/store/evict totals accumulated across persisted runs.

        Reads the backend's ``stats.json``; a missing or corrupt document
        (or a backend that persists nothing) reads as zeros — lifetime
        counters are a dashboard, never a gate.
        """
        path = self.stats_path
        if path is None:
            return CacheStats()
        return read_lifetime_stats(path)

    def persist_stats(self) -> Optional[Path]:
        """Fold this session's counters into the lifetime document.

        Only the delta since the last successful persist is written, so
        calling this repeatedly (the engine persists on ``close``, which
        is idempotent) counts every lookup exactly once.  The merge runs
        under the stats lock so two engines closing concurrently add
        their deltas instead of overwriting each other; when the lock (or
        the write) fails, the delta is *kept* — not dropped — and simply
        retried by the next persist.  Returns the document path, or None
        when there was nothing to write or the merge could not land.
        """
        path = self.stats_path
        if path is None:
            return None
        delta = CacheStats(
            hits=self.stats.hits - self._persisted.hits,
            misses=self.stats.misses - self._persisted.misses,
            stores=self.stats.stores - self._persisted.stores,
            evictions=self.stats.evictions - self._persisted.evictions,
        )
        if not delta:
            return None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        if not merge_lifetime_stats(path, delta,
                                    timeout=self._stats_lock_timeout):
            return None
        self._persisted = CacheStats(hits=self.stats.hits,
                                     misses=self.stats.misses,
                                     stores=self.stats.stores,
                                     evictions=self.stats.evictions)
        return path
