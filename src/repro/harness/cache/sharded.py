"""The on-disk cache backend (a bare directory path as the spec).

Entries are content-addressed into a two-level fan-out:
``<cache_dir>/<key[:2]>/<key[2:]>.json`` — the first two hex digits name
the shard directory, the remaining sixty-two the file.  Directories
written before the sharded layout hold ``<key[:2]>/<key>.json`` files
(the full key as the name); those are never served, but they are still
entries for :meth:`~ShardedDiskStore.size_bytes` and
:meth:`~ShardedDiskStore.clear`, so ``repro cache --clear`` removes them.

Concurrency model (the crash-safety story):

* ``put``/``get`` never lock.  Writes are atomic same-shard tmp+rename;
  readers observe either the old complete document or the new one, never
  a torn read, for any number of concurrent processes.
* Each shard carries an ``.index`` sidecar mapping key → ``[size,
  atime]``, maintained opportunistically (lock-free read-modify-replace,
  failures swallowed).  The index is *advisory*: shard files are the
  ground truth and :meth:`reconcile` rebuilds any drifted sidecar, so a
  lost index update can at worst age an entry's eviction priority.
* Only :meth:`evict` takes a lock (``.evict.lock``), so two processes
  cannot double-delete each other's survivors mid-measure.  Put-time
  enforcement acquires it non-blocking — a put never stalls behind
  another process's maintenance cycle.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.harness.cache.locks import FileLock
from repro.harness.cache.policy import EvictionPolicy, NoEviction
from repro.harness.cache.stats import STATS_FILE
from repro.harness.cache.store import MISS, CacheStore

__all__ = ["ShardedDiskStore", "INDEX_FILE", "STALE_TMP_SECONDS"]

#: Per-shard index sidecar.  Deliberately *not* ``.json``-suffixed:
#: ``pathlib`` globs match dotfiles, so a ``.index.json`` would be
#: miscounted as an entry by every ``*/*.json`` listing.
INDEX_FILE = ".index"

#: Name of the eviction lock file in the cache root.
EVICT_LOCK = ".evict.lock"

#: Age (seconds) past which a ``*.tmp`` sibling counts as a stale dropping
#: of a killed writer rather than a concurrent in-flight write.  Real
#: writes live for milliseconds; an hour is conservatively beyond any of
#: them.
STALE_TMP_SECONDS = 3600.0


def read_document(path: Path) -> object:
    """The payload of the entry document at ``path``, or :data:`MISS`.

    Any unreadable, unparsable or schema-less document is a miss — the
    cache never fails a run over a corrupt entry.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
        return document["payload"]
    except (OSError, ValueError, KeyError, TypeError):
        return MISS


def write_document(path: Path, document: dict, tmp_prefix: str) -> Path:
    """Atomically persist ``document`` at ``path`` via tmp+rename.

    The temporary lives in the *same directory* as the target so the
    :func:`os.replace` is a same-filesystem rename — atomic even with
    concurrent writers racing on the same key (last writer wins a
    complete document; readers never observe a torn one).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent,
        prefix=tmp_prefix, suffix=".tmp", delete=False,
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
    return path


def sweep_stale_tmp(root: Path) -> None:
    """Remove hour-old ``*.tmp`` droppings of killed writers under ``root``.

    Only temporaries older than :data:`STALE_TMP_SECONDS` are swept, so a
    *concurrent* writer's in-flight temporary is never pulled out from
    under its ``os.replace``.
    """
    if not root.is_dir():
        return
    cutoff = time.time() - STALE_TMP_SECONDS
    for stale in list(root.glob("*/*.tmp")):
        try:
            if stale.stat().st_mtime < cutoff:
                stale.unlink()
        except OSError:
            pass


class ShardedDiskStore(CacheStore):
    """Content-addressed JSON result cache with two-level shard fan-out.

    ``policy`` (an :class:`~repro.harness.cache.policy.EvictionPolicy`)
    is consulted after every put; the default never evicts.
    """

    def __init__(self, cache_dir: os.PathLike, tracer=None,
                 policy: Optional[EvictionPolicy] = None) -> None:
        super().__init__(tracer=tracer)
        self.root = Path(cache_dir)
        self.policy = policy if policy is not None else NoEviction()
        # Running size guess so put-time enforcement skips the full scan
        # while the store is clearly under budget; None until first
        # needed, exact numbers re-measured inside evict().
        self._size_estimate: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """Sharded location of the entry addressed by ``key``."""
        return self.root / key[:2] / f"{key[2:]}.json"

    def key_for(self, path: Path) -> str:
        """The cache key an entry file is addressed by."""
        return path.parent.name + path.stem

    # ------------------------------------------------------------------ #
    # CacheStore backend hooks
    # ------------------------------------------------------------------ #
    def _read(self, key: str) -> object:
        path = self.path_for(key)
        payload = read_document(path)
        if payload is not MISS:
            self._touch(path)
        return payload

    def _write(self, key: str, document: dict) -> Path:
        path = write_document(self.path_for(key), document,
                              tmp_prefix=f".{key[:8]}-")
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        self._index_update(key, size=size, atime=time.time())
        if self._size_estimate is not None:
            self._size_estimate += size
        self.policy.enforce(self)
        return path

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key``."""
        return self.path_for(key).is_file()

    def delete(self, key: str) -> bool:
        """Drop ``key``'s entry and its index row."""
        removed = False
        try:
            self.path_for(key).unlink()
            removed = True
        except OSError:
            pass
        # Always drop the index row, even when no file was present: a
        # demoted or externally-deleted entry must not linger in the LRU
        # index where eviction would re-count it.
        self._index_update(key, remove=True)
        self._size_estimate = None
        return removed

    # ------------------------------------------------------------------ #
    # Per-shard index sidecars (advisory, lock-free)
    # ------------------------------------------------------------------ #
    def _index_path(self, key: str) -> Path:
        return self.root / key[:2] / INDEX_FILE

    @staticmethod
    def _read_index(path: Path) -> Dict[str, list]:
        try:
            index = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(index, dict):
                return {}
            return {key: row for key, row in index.items()
                    if isinstance(row, list) and len(row) == 2}
        except (OSError, ValueError):
            return {}

    @staticmethod
    def _write_index(path: Path, index: Dict[str, list]) -> None:
        """Atomically replace an index sidecar; failures are swallowed
        (the index is advisory — :meth:`reconcile` rebuilds it)."""
        try:
            handle = tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=path.parent,
                prefix=".index-", suffix=".tmp", delete=False,
            )
            try:
                with handle:
                    json.dump(index, handle, sort_keys=True)
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def _index_update(self, key: str, size: Optional[int] = None,
                      atime: Optional[float] = None,
                      remove: bool = False) -> None:
        path = self._index_path(key)
        if remove and not path.is_file():
            return
        index = self._read_index(path)
        if remove:
            if index.pop(key, None) is None:
                return
        else:
            row = index.get(key, [0, 0.0])
            index[key] = [size if size is not None else row[0],
                          atime if atime is not None else row[1]]
        self._write_index(path, index)

    @staticmethod
    def _touch(path: Path) -> None:
        """Record a hit as the entry file's new mtime.

        A single ``utime`` syscall instead of an index rewrite, so the
        hot read path stays a plain file read; eviction
        orders by the *newer* of file mtime and index atime, so hits
        refresh an entry's LRU priority without touching the sidecar.
        """
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _estimated_size(self) -> int:
        """Cheap running size guess used by put-time budget checks."""
        if self._size_estimate is None:
            self._size_estimate = self.size_bytes()
        return self._size_estimate

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache.

        Pre-sharding ``<key[:2]>/<key>.json`` files are listed too — they
        are never served, but they occupy bytes the budget and
        :meth:`clear` must see.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if not path.name.startswith("."):
                yield path

    def size_bytes(self) -> int:
        """Total on-disk size of all entries (concurrent deletions skipped)."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every entry (and index sidecars, and stale temporaries);
        returns the number of entries removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for sidecar in list(self.root.glob(f"*/{INDEX_FILE}")):
                try:
                    sidecar.unlink()
                except OSError:
                    pass
        sweep_stale_tmp(self.root)
        self._size_estimate = 0
        return removed

    def reconcile(self) -> Dict[str, Tuple[Path, int, float]]:
        """Rebuild drifted index sidecars from the shard files.

        Files are the ground truth: rows without a file are dropped, files
        without a row are adopted (last access approximated by mtime), and
        recorded sizes are corrected.  Returns the resulting catalogue,
        key → ``(path, size_bytes, atime)``.
        """
        catalogue: Dict[str, Tuple[Path, int, float]] = {}
        shards: Dict[Path, Dict[str, list]] = {}
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            key = self.key_for(path)
            shard_index = shards.setdefault(
                path.parent, self._read_index(path.parent / INDEX_FILE))
            row = shard_index.get(key)
            # Last access is the newer of the file's mtime (hits touch
            # it) and the recorded index atime (writes record it).
            atime = stat.st_mtime
            if row and row[1]:
                atime = max(atime, float(row[1]))
            catalogue[key] = (path, stat.st_size, atime)
        for shard_dir, index in shards.items():
            rebuilt = {key: [size, atime]
                       for key, (path, size, atime) in catalogue.items()
                       if path.parent == shard_dir}
            if rebuilt != index:
                self._write_index(shard_dir / INDEX_FILE, rebuilt)
        self._size_estimate = sum(size for _, size, _ in catalogue.values())
        return catalogue

    def evict(self, budget: int, block: bool = True):
        """Shrink the store to at most ``budget`` bytes, LRU-first.

        Runs under the eviction lock so two processes cannot double-run a
        maintenance cycle; with ``block=False`` (the put-time path) a held
        lock means another process is already evicting, and skipping is
        correct.  Returns a report dict (``removed`` / ``freed_bytes`` /
        ``size_bytes`` / ``skipped``).
        """
        lock = FileLock(self.root / EVICT_LOCK,
                        timeout=10.0 if block else 0.0)
        if not lock.acquire():
            return {"removed": 0, "freed_bytes": 0,
                    "size_bytes": self._estimated_size(), "skipped": True}
        try:
            catalogue = self.reconcile()
            total = sum(size for _, size, _ in catalogue.values())
            removed = 0
            freed = 0
            # Oldest access first; the newest entry is evicted only when
            # it alone cannot fit the budget.
            victims = sorted(catalogue.items(), key=lambda item: item[1][2])
            for key, (path, size, _) in victims:
                if total <= budget:
                    break
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    continue
                self._index_update(key, remove=True)
                total -= size
                freed += size
                removed += 1
            self._size_estimate = total
        finally:
            lock.release()
        if removed:
            self.stats.evictions += removed
            if self.tracer is not None:
                self.tracer.count("cache.evictions", removed)
                self.tracer.count("cache.evicted_bytes", freed)
        return {"removed": removed, "freed_bytes": freed,
                "size_bytes": total, "skipped": False}

    # ------------------------------------------------------------------ #
    # Lifetime statistics
    # ------------------------------------------------------------------ #
    @property
    def stats_path(self) -> Path:
        """Location of the lifetime-counter document."""
        return self.root / STATS_FILE
