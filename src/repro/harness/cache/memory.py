"""The in-memory backend (``mem:`` spec scheme).

A dict with the full :class:`~repro.harness.cache.store.CacheStore`
surface, including deterministic LRU eviction driven by a logical access
clock — no wall-clock, no disk, no flakiness — which is what the
eviction-order unit tests want.  Nothing survives the process;
``stats_path`` is None so ``persist_stats`` is a no-op.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, Iterator, Tuple

from repro.harness.cache.policy import EvictionPolicy, NoEviction
from repro.harness.cache.store import MISS, CacheStore

__all__ = ["MemoryStore"]


class MemoryStore(CacheStore):
    """Dict-backed cache store with logical-clock LRU eviction."""

    def __init__(self, tracer=None, policy=None) -> None:
        super().__init__(tracer=tracer)
        self.policy: EvictionPolicy = (policy if policy is not None
                                       else NoEviction())
        # key -> (document, size_bytes, logical access time)
        self._entries: Dict[str, Tuple[dict, int, int]] = {}
        self._clock = itertools.count(1)

    # ------------------------------------------------------------------ #
    # CacheStore backend hooks
    # ------------------------------------------------------------------ #
    def _read(self, key: str) -> object:
        entry = self._entries.get(key)
        if entry is None:
            return MISS
        document, size, _ = entry
        self._entries[key] = (document, size, next(self._clock))
        try:
            return document["payload"]
        except (KeyError, TypeError):
            return MISS

    def _write(self, key: str, document: dict) -> str:
        # Size the entry exactly as a disk backend would store it, so a
        # byte budget means the same thing across backends.
        size = len(json.dumps(document).encode("utf-8"))
        self._entries[key] = (document, size, next(self._clock))
        self.policy.enforce(self)
        return key

    def contains(self, key: str) -> bool:
        return key in self._entries

    def delete(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def entries(self) -> Iterator[str]:
        yield from sorted(self._entries)

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries.values())

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def _estimated_size(self) -> int:
        return self.size_bytes()

    def evict(self, budget: int, block: bool = True):
        """Drop least-recently-used entries until under ``budget`` bytes."""
        total = self.size_bytes()
        removed = 0
        freed = 0
        for key, (_, size, _) in sorted(self._entries.items(),
                                        key=lambda item: item[1][2]):
            if total <= budget:
                break
            del self._entries[key]
            total -= size
            freed += size
            removed += 1
        if removed:
            self.stats.evictions += removed
            if self.tracer is not None:
                self.tracer.count("cache.evictions", removed)
                self.tracer.count("cache.evicted_bytes", freed)
        return {"removed": removed, "freed_bytes": freed,
                "size_bytes": total, "skipped": False}
