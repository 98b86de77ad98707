"""The result cache: one directory of JSON entries.

Entries are content-addressed into a two-level fan-out:
``<cache_dir>/<key[:2]>/<key[2:]>.json`` — the first two hex digits name
the shard directory, the remaining sixty-two the file.  Each entry is a
``{"key", "metadata", "payload"}`` document.

Nothing locks.  A write goes to a temporary in the entry's own shard
directory and is renamed into place, so readers in any number of
processes see either the old complete document or the new one, never a
torn read; concurrent writers of one key leave the last complete
document.

An entry is served only to the model that produced it: :meth:`put`
records :func:`model_digest` — a hash of every ``.py`` source of the
``repro`` package — in the entry's ``metadata`` under ``model``, and
:meth:`get` treats a missing or different digest as a miss.  Keys do not
include the digest, so an edited model re-stores the same key and an
unchanged rerun is a pure hit.  A missing, unreadable or corrupt entry is
a miss too; the cache never fails a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

__all__ = ["CacheStats", "CacheStore", "model_digest", "source_digest"]

#: Age (seconds) past which a ``*.tmp`` sibling counts as a dropping of a
#: killed writer rather than a concurrent in-flight write.  Real writes
#: live for milliseconds; an hour is conservatively beyond any of them.
STALE_TMP_SECONDS = 3600.0

#: The ``repro`` package directory whose sources :func:`model_digest` hashes.
_PACKAGE_DIR = Path(__file__).resolve().parents[2]

#: What :meth:`CacheStore._read` returns on a miss, so a stored ``None``
#: payload stays distinguishable.
_MISS = object()


def source_digest(package_dir: Path) -> str:
    """SHA-256 over every ``.py`` file under ``package_dir``.

    Files are taken in the order of their relative POSIX paths, and each
    contributes its path, its length and its bytes, so renaming, moving
    or editing any source file changes the digest.
    """
    digest = hashlib.sha256()
    sources = sorted((path.relative_to(package_dir).as_posix(), path)
                     for path in package_dir.rglob("*.py"))
    for name, path in sources:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def model_digest() -> str:
    """:func:`source_digest` of the running ``repro`` package.

    Computed on first use and kept for the life of the process.
    """
    return source_digest(_PACKAGE_DIR)


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`CacheStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CacheStore:
    """Content-addressed JSON result cache rooted at ``cache_dir``.

    Keys are :func:`~repro.harness.hashing.stable_hash` digests of
    everything that can affect a result, so changing any input simply
    addresses a different entry.  With a ``tracer``, lookups and stores
    feed the ``cache.hits`` / ``cache.misses`` / ``cache.stores`` counters
    and the cumulative ``cache.read_seconds`` / ``cache.write_seconds``.
    """

    def __init__(self, cache_dir: os.PathLike, tracer=None) -> None:
        self.root = Path(cache_dir)
        self.tracer = tracer
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """Sharded location of the entry addressed by ``key``."""
        return self.root / key[:2] / f"{key[2:]}.json"

    def get(self, key: str) -> Optional[object]:
        """The JSON payload stored under ``key``, or None on a miss."""
        started = time.perf_counter() if self.tracer is not None else 0.0
        payload = self._read(key)
        hit = payload is not _MISS
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        if self.tracer is not None:
            self.tracer.count("cache.hits" if hit else "cache.misses")
            self.tracer.count("cache.read_seconds",
                              time.perf_counter() - started)
        return payload if hit else None

    def _read(self, key: str) -> object:
        try:
            with self.path_for(key).open("r", encoding="utf-8") as handle:
                document = json.load(handle)
            if document["metadata"]["model"] == model_digest():
                return document["payload"]
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return _MISS

    def put(self, key: str, payload: object, **metadata: object) -> Path:
        """Atomically persist ``payload`` (JSON-serialisable) under ``key``.

        The temporary lives in the entry's shard directory, so the
        :func:`os.replace` is a same-filesystem rename.
        """
        started = time.perf_counter() if self.tracer is not None else 0.0
        document = {"key": key,
                    "metadata": {**metadata, "model": model_digest()},
                    "payload": payload}
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=path.parent,
            prefix=f".{key[:8]}-", suffix=".tmp", delete=False,
        )
        try:
            with handle:
                json.dump(document, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        if self.tracer is not None:
            self.tracer.count("cache.stores")
            self.tracer.count("cache.write_seconds",
                              time.perf_counter() - started)
        return path

    def demote_hit(self, key: str) -> None:
        """Re-classify the last hit on ``key`` as a miss and drop the entry.

        Callers use this when an entry parsed as JSON but failed to decode
        into the expected result type — from the caller's point of view
        that is a corrupt entry, and keeping it would make every future
        run trip over it again.
        """
        self.stats.hits = max(self.stats.hits - 1, 0)
        self.stats.misses += 1
        self.delete(key)

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (stats untouched)."""
        return self.path_for(key).is_file()

    def delete(self, key: str) -> bool:
        """Drop the entry addressed by ``key``; True if one was removed."""
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        return True

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache.

        A snapshot of a directory other processes may be changing:
        :meth:`size_bytes` and :meth:`clear` skip entries that vanish
        between listing and use.
        """
        if self.root.is_dir():
            yield from sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        """Total on-disk size of all entries."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.

        Also sweeps the ``*.tmp`` droppings of killed writers, but only
        those older than :data:`STALE_TMP_SECONDS`, so a concurrent
        writer's in-flight temporary survives.
        """
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        cutoff = time.time() - STALE_TMP_SECONDS
        for stale in list(self.root.glob("*/*.tmp")):
            try:
                if stale.stat().st_mtime < cutoff:
                    stale.unlink()
            except OSError:
                pass
        return removed
