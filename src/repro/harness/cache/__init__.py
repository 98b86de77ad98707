"""Content-addressed result cache.

One interface, one on-disk backend, one composition point:

* :class:`~repro.harness.cache.store.CacheStore` — the abstract contract
  (``get``/``put``/``contains``/``delete``/``entries``/``evict``/
  ``stats``) the engine, sweep runner, memoisation and CLI consume
  exclusively.
* :class:`~repro.harness.cache.sharded.ShardedDiskStore` — the on-disk
  backend: two-level shard fan-out, lock-free atomic writes, advisory
  per-shard ``.index`` sidecars and LRU eviction under a budget.
* :class:`~repro.harness.cache.memory.MemoryStore` — the in-process
  store behind ``mem:``, the fake tests substitute for a directory.
* :func:`~repro.harness.cache.spec.open_store` — spec → store (a
  directory path, ``mem:`` or a prebuilt store), with ``--cache-budget``
  / ``$REPRO_CACHE_BUDGET`` resolution.

Cache *keys* are :func:`repro.harness.hashing.stable_hash` digests of
everything that can affect a result; ``figure9_fingerprints.json`` pins
them byte-identical in CI.  See ``docs/caching.md``.
"""

from repro.harness.cache.locks import FileLock
from repro.harness.cache.memory import MemoryStore
from repro.harness.cache.policy import (
    EvictionPolicy,
    LruEviction,
    NoEviction,
    parse_budget,
)
from repro.harness.cache.sharded import ShardedDiskStore
from repro.harness.cache.spec import (
    CACHE_BUDGET_ENV,
    open_store,
    resolve_budget,
)
from repro.harness.cache.stats import CacheStats
from repro.harness.cache.store import CacheStore

__all__ = [
    "CACHE_BUDGET_ENV",
    "CacheStats",
    "CacheStore",
    "EvictionPolicy",
    "FileLock",
    "LruEviction",
    "MemoryStore",
    "NoEviction",
    "ShardedDiskStore",
    "open_store",
    "parse_budget",
    "resolve_budget",
]
