"""Content-addressed result cache.

* :class:`~repro.harness.cache.store.CacheStore` — one directory of JSON
  entries in a two-level fan-out, written lock-free by atomic rename and
  served only to the model sources that produced them.
* :func:`~repro.harness.cache.spec.open_store` — a ``--cache-dir`` value
  (a directory path or a prebuilt store) → store.

Cache *keys* are :func:`repro.harness.hashing.stable_hash` digests of
everything that can affect a result; ``figure9_fingerprints.json`` pins
them byte-identical in CI.  See ``docs/caching.md``.
"""

from repro.harness.cache.spec import open_store
from repro.harness.cache.store import CacheStats, CacheStore, model_digest

__all__ = ["CacheStats", "CacheStore", "model_digest", "open_store"]
