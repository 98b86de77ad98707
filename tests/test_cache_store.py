"""Tests for the result cache (store interface, backends, sharding,
eviction, concurrency, specs)."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.common.errors import EvaluationError
from repro.harness.cache import (
    CACHE_BUDGET_ENV,
    CacheStats,
    CacheStore,
    FileLock,
    LruEviction,
    MemoryStore,
    NoEviction,
    ShardedDiskStore,
    open_store,
    parse_budget,
    resolve_budget,
)
from repro.harness.cache.sharded import INDEX_FILE
from repro.harness.cli import main as cli_main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def key_of(i: int) -> str:
    """A deterministic 64-hex-digit cache key."""
    return format(i, "064x")


class CountingTracer:
    """Minimal tracer double: records count() calls."""

    def __init__(self):
        self.counters = {}

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


def make_backends(tmp_path):
    return {
        "sharded": ShardedDiskStore(tmp_path / "sharded"),
        "memory": MemoryStore(),
    }


# --------------------------------------------------------------------- #
# Interface conformance across every backend
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["sharded", "memory"])
class TestCacheStoreContract:
    def test_roundtrip_and_counters(self, tmp_path, backend):
        store = make_backends(tmp_path)[backend]
        assert isinstance(store, CacheStore)
        key = key_of(1)
        assert store.get(key) is None
        assert store.stats.misses == 1
        store.put(key, {"x": [1, 2]}, case="c")
        assert store.get(key) == {"x": [1, 2]}
        assert store.stats.hits == 1
        assert store.stats.stores == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_contains_delete_len_clear(self, tmp_path, backend):
        store = make_backends(tmp_path)[backend]
        keys = [key_of(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        assert all(store.contains(key) for key in keys)
        assert not store.contains(key_of(99))
        assert len(store) == 3
        assert store.size_bytes() > 0
        assert store.delete(keys[0]) is True
        assert store.delete(keys[0]) is False
        assert not store.contains(keys[0])
        assert store.clear() == 2
        assert len(store) == 0

    def test_demote_hit_reclassifies_and_drops(self, tmp_path, backend):
        store = make_backends(tmp_path)[backend]
        key = key_of(7)
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        store.demote_hit(key)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert not store.contains(key)

    def test_tracer_counters(self, tmp_path, backend):
        tracer = CountingTracer()
        store = make_backends(tmp_path)[backend]
        store.tracer = tracer
        key = key_of(3)
        store.get(key)
        store.put(key, {"x": 1})
        store.get(key)
        assert tracer.counters["cache.misses"] == 1
        assert tracer.counters["cache.hits"] == 1
        assert tracer.counters["cache.stores"] == 1
        assert tracer.counters["cache.read_seconds"] >= 0
        assert tracer.counters["cache.write_seconds"] >= 0


# --------------------------------------------------------------------- #
# Sharded layout, index sidecars, pre-sharding directories
# --------------------------------------------------------------------- #
class TestShardedLayout:
    def test_two_level_fanout(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        key = "ab" + "c" * 62
        path = store.put(key, {"x": 1})
        assert path == tmp_path / "ab" / (("c" * 62) + ".json")
        assert store.key_for(path) == key

    def test_index_sidecar_tracks_entries_but_is_not_one(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        key = key_of(5)
        store.put(key, {"x": 1})
        sidecar = tmp_path / key[:2] / INDEX_FILE
        assert sidecar.is_file()
        index = json.loads(sidecar.read_text())
        assert key in index
        size, atime = index[key]
        assert size > 0 and atime > 0
        # The sidecar must never be counted, sized or cleared as an entry.
        assert len(store) == 1
        assert store.clear() == 1
        assert not sidecar.exists()

    def test_hit_touches_access_time(self, tmp_path):
        import time

        store = ShardedDiskStore(tmp_path)
        key = key_of(5)
        store.put(key, {"x": 1})
        before = store.reconcile()[key][2]
        time.sleep(0.02)
        store.get(key)
        after = store.reconcile()[key][2]
        assert after > before

    def test_pre_sharding_entry_is_a_miss_but_cleared(self, tmp_path):
        # Directories written before the sharded layout hold the full key
        # as the file name.  Such a file is never served, but it still
        # counts toward the size and is removed by clear(), so no bytes
        # are stranded.
        store = ShardedDiskStore(tmp_path)
        key = key_of(9)
        old = tmp_path / key[:2] / f"{key}.json"
        old.parent.mkdir(parents=True)
        old.write_text(json.dumps({"key": key, "metadata": {},
                                   "payload": {"v": "old"}}),
                       encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.misses == 1
        assert not store.contains(key)
        assert len(store) == 1
        assert store.size_bytes() == old.stat().st_size
        assert store.clear() == 1
        assert not old.exists()

    def test_delete_removes_entry_and_index_row(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        key = key_of(9)
        store.put(key, {"v": "sharded"})
        assert store.delete(key) is True
        assert not store.contains(key)
        index = store._read_index(tmp_path / key[:2] / INDEX_FILE)
        assert key not in index

    def test_demoted_entry_leaves_no_stale_index_row(self, tmp_path):
        # Regression: a demoted (invalidated) entry must drop out of the
        # LRU index too, so eviction cannot "remove" it a second time.
        store = ShardedDiskStore(tmp_path)
        keep, demoted = key_of(1), key_of(2)
        store.put(keep, {"x": 1})
        store.put(demoted, {"x": 2})
        store.get(demoted)
        store.demote_hit(demoted)
        index = store._read_index(tmp_path / demoted[:2] / INDEX_FILE)
        assert demoted not in index
        report = store.evict(budget=1)
        assert report["removed"] == 1  # only the surviving entry
        assert store.stats.evictions == 1

    def test_no_stray_temporaries_after_puts(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        for i in range(8):
            store.put(key_of(i), {"i": i})
        assert list(tmp_path.glob("*/*.tmp")) == []

    def test_reconcile_rebuilds_drifted_index(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        keys = [key_of(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        # Corrupt one sidecar and delete an entry file behind its back.
        shard = tmp_path / keys[0][:2]
        (shard / INDEX_FILE).write_text("{broken", encoding="utf-8")
        store.path_for(keys[1]).unlink()
        catalogue = store.reconcile()
        assert set(catalogue) == {keys[0], keys[2]}
        rebuilt = store._read_index(shard / INDEX_FILE)
        assert keys[0] in rebuilt

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        key = key_of(6)
        store.put(key, {"x": 1})
        store.path_for(key).write_text("{not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.misses == 1


# --------------------------------------------------------------------- #
# Eviction: LRU order, budgets, put-time enforcement
# --------------------------------------------------------------------- #
class TestEviction:
    def test_memory_lru_order_is_access_order(self, tmp_path):
        store = MemoryStore()
        a, b, c = key_of(1), key_of(2), key_of(3)
        for key in (a, b, c):
            store.put(key, {"k": key})
        per_entry = store.size_bytes() // 3
        store.get(a)  # a becomes most recently used; b is now LRU
        store.evict(budget=2 * per_entry)
        assert not store.contains(b)
        assert store.contains(a) and store.contains(c)
        assert store.stats.evictions == 1

    def test_sharded_budget_invariant_after_every_put(self, tmp_path):
        probe = ShardedDiskStore(tmp_path / "probe")
        probe.put(key_of(0), {"i": 0, "pad": "x" * 64})
        budget = 3 * probe.size_bytes() + 8
        store = ShardedDiskStore(tmp_path / "store",
                                 policy=LruEviction(budget))
        for i in range(12):
            store.put(key_of(i), {"i": i, "pad": "x" * 64})
            assert store.size_bytes() <= budget
        assert store.stats.evictions >= 9
        # The newest entry always survives while it fits the budget.
        assert store.contains(key_of(11))

    def test_sharded_eviction_is_lru_by_access(self, tmp_path):
        import time

        store = ShardedDiskStore(tmp_path)
        old, touched, new = key_of(1), key_of(2), key_of(3)
        for key in (old, touched, new):
            store.put(key, {"pad": "x" * 32})
            time.sleep(0.01)  # strictly ordered access times
        store.get(touched)  # refresh: 'old' is now least recently used
        per_entry = store.size_bytes() // 3
        report = store.evict(budget=2 * per_entry)
        assert report["removed"] == 1
        assert not store.contains(old)
        assert store.contains(touched) and store.contains(new)

    def test_oversized_entry_is_evicted_too(self, tmp_path):
        store = ShardedDiskStore(tmp_path, policy=LruEviction(64))
        store.put(key_of(1), {"pad": "x" * 4096})
        assert store.size_bytes() <= 64
        assert len(store) == 0

    def test_evict_report_and_tracer(self, tmp_path):
        tracer = CountingTracer()
        store = ShardedDiskStore(tmp_path, tracer=tracer)
        for i in range(4):
            store.put(key_of(i), {"i": i})
        report = store.evict(budget=1)
        assert report["removed"] == 4
        assert report["freed_bytes"] > 0
        assert report["size_bytes"] == 0
        assert not report["skipped"]
        assert tracer.counters["cache.evictions"] == 4
        assert tracer.counters["cache.evicted_bytes"] > 0

    def test_nonblocking_evict_skips_when_locked(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        store.put(key_of(1), {"x": 1})
        lock = FileLock(tmp_path / ".evict.lock", timeout=1.0)
        assert lock.acquire()
        try:
            report = store.evict(budget=1, block=False)
            assert report["skipped"]
            assert store.contains(key_of(1))
        finally:
            lock.release()

    def test_unbudgeted_store_never_evicts(self, tmp_path):
        store = ShardedDiskStore(tmp_path)  # NoEviction default
        assert isinstance(store.policy, NoEviction)
        for i in range(16):
            store.put(key_of(i), {"i": i})
        assert len(store) == 16
        assert store.stats.evictions == 0


# --------------------------------------------------------------------- #
# Locks and the persist_stats lost-update fix
# --------------------------------------------------------------------- #
class TestLocksAndStats:
    def test_filelock_mutual_exclusion_and_release(self, tmp_path):
        first = FileLock(tmp_path / "x.lock", timeout=0.5)
        second = FileLock(tmp_path / "x.lock", timeout=0.05)
        assert first.acquire()
        assert not second.acquire()
        first.release()
        assert second.acquire()
        second.release()

    def test_filelock_breaks_stale_holder(self, tmp_path):
        import os
        path = tmp_path / "x.lock"
        path.write_text("12345")
        old = path.stat().st_mtime - 120
        os.utime(path, (old, old))
        lock = FileLock(path, timeout=0.5, stale_seconds=60.0)
        assert lock.acquire()
        lock.release()

    def test_concurrent_persists_merge_instead_of_overwriting(self,
                                                              tmp_path):
        # The historical race: engine A and engine B close at once, each
        # read-modify-writes stats.json, one delta vanishes.  Now the
        # merge is serialised, so the lifetime document sums both.
        stores = [ShardedDiskStore(tmp_path) for _ in range(4)]
        for i, store in enumerate(stores):
            store.get(key_of(i))  # one miss each
        threads = [threading.Thread(target=store.persist_stats)
                   for store in stores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ShardedDiskStore(tmp_path).lifetime_stats().misses == 4

    def test_persist_keeps_delta_when_lock_unavailable(self, tmp_path):
        store = ShardedDiskStore(tmp_path)
        store._stats_lock_timeout = 0.05
        store.get(key_of(1))
        blocker = FileLock(tmp_path / ".stats.lock", timeout=0.5)
        assert blocker.acquire()
        try:
            assert store.persist_stats() is None  # could not land
        finally:
            blocker.release()
        # The delta was retained, so the retry persists the lost lookup.
        assert store.persist_stats() == store.stats_path
        assert ShardedDiskStore(tmp_path).lifetime_stats().misses == 1

    def test_sharded_lifetime_stats_roundtrip_with_evictions(self,
                                                             tmp_path):
        store = ShardedDiskStore(tmp_path)
        for i in range(3):
            store.put(key_of(i), {"i": i})
        store.get(key_of(0))
        store.evict(budget=1)
        assert store.persist_stats() == store.stats_path
        lifetime = ShardedDiskStore(tmp_path).lifetime_stats()
        assert lifetime.stores == 3
        assert lifetime.hits == 1
        assert lifetime.evictions == 3
        assert isinstance(lifetime, CacheStats)


# --------------------------------------------------------------------- #
# Spec parsing and budgets
# --------------------------------------------------------------------- #
class TestSpecs:
    def test_parse_budget_grammar(self):
        assert parse_budget(None) is None
        assert parse_budget("none") is None
        assert parse_budget("") is None
        assert parse_budget(4096) == 4096
        assert parse_budget("4096") == 4096
        assert parse_budget("4k") == 4096
        assert parse_budget("512M") == 512 * 1024 ** 2
        assert parse_budget("2G") == 2 * 1024 ** 3
        assert parse_budget("1.5K") == 1536
        assert parse_budget("1TiB") == 1024 ** 4
        for bad in ("12x", "garbage", "-1", 0, -5):
            with pytest.raises(EvaluationError):
                parse_budget(bad)

    def test_budget_env_fallback(self, monkeypatch):
        monkeypatch.setenv(CACHE_BUDGET_ENV, "64K")
        assert resolve_budget(None) == 64 * 1024
        assert resolve_budget("128K") == 128 * 1024  # explicit wins
        assert resolve_budget("none") is None  # explicit none beats env

    def test_open_store_schemes(self, tmp_path):
        assert isinstance(open_store("mem:"), MemoryStore)
        assert isinstance(open_store(str(tmp_path / "bare")),
                          ShardedDiskStore)
        assert isinstance(open_store(tmp_path / "pathlike"),
                          ShardedDiskStore)

    def test_open_store_passthrough_adopts_tracer(self, tmp_path):
        tracer = CountingTracer()
        store = MemoryStore()
        assert open_store(store, tracer=tracer) is store
        assert store.tracer is tracer

    def test_open_store_budget_attaches_lru(self, tmp_path,
                                            monkeypatch):
        store = open_store(str(tmp_path), budget="1M")
        assert isinstance(store.policy, LruEviction)
        assert store.policy.budget_bytes == 1024 ** 2
        monkeypatch.setenv(CACHE_BUDGET_ENV, "2M")
        from_env = open_store(str(tmp_path))
        assert from_env.policy.budget_bytes == 2 * 1024 ** 2

    def test_open_store_rejects_bad_specs(self, tmp_path):
        for bad in ("", "mem:somewhere", "dir:", "sharded:",
                    "tiered:", "tiered:onlylocal", "dir:/x", "sharded:/x",
                    "tiered:a|b", "foo:bar", 42):
            with pytest.raises(EvaluationError):
                open_store(bad)
        with pytest.raises(EvaluationError, match="mem:"):
            open_store("dir:/x")


# --------------------------------------------------------------------- #
# Multi-process stress: concurrent writers on one sharded store
# --------------------------------------------------------------------- #
_WORKER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.cache import ShardedDiskStore

root, worker, rounds, per_round = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
store = ShardedDiskStore(root)
for r in range(rounds):
    for i in range(per_round):
        n = worker * 10_000 + r * per_round + i
        key = format(n, "064x")
        store.put(key, {{"worker": worker, "n": n}}, round=r)
        got = store.get(key)
        assert got == {{"worker": worker, "n": n}}, (key, got)
    # A generous budget: exercises the eviction lock and reconcile
    # against live writers without ever removing a legitimate entry.
    store.evict(budget=1 << 40)
print(store.stats.stores)
"""


class TestMultiProcessStress:
    def test_concurrent_put_get_evict_rounds(self, tmp_path):
        workers, rounds, per_round = 4, 3, 6
        script = _WORKER_SCRIPT.format(src=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path),
                 str(worker), str(rounds), str(per_round)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for worker in range(workers)
        ]
        for worker, proc in enumerate(procs):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"worker {worker} failed: {err}"
            assert out.strip() == str(rounds * per_round)

        store = ShardedDiskStore(tmp_path)
        expected = {
            format(worker * 10_000 + r * per_round + i, "064x"):
                worker * 10_000 + r * per_round + i
            for worker in range(workers)
            for r in range(rounds)
            for i in range(per_round)
        }
        # No lost entries, no torn reads: every key readable and correct.
        assert len(store) == len(expected)
        for key, n in expected.items():
            payload = store.get(key)
            assert payload == {"worker": n // 10_000, "n": n}, key
        # The final index must be consistent with the shard contents.
        catalogue = store.reconcile()
        assert set(catalogue) == set(expected)
        for shard_dir in {path.parent for path in store.entries()}:
            index = store._read_index(shard_dir / INDEX_FILE)
            on_disk = {store.key_for(path)
                       for path in shard_dir.glob("*.json")
                       if not path.name.startswith(".")}
            assert set(index) == on_disk


# --------------------------------------------------------------------- #
# CLI: cache actions and budgets
# --------------------------------------------------------------------- #
class TestCacheCli:
    def test_cache_evict_subcommand(self, tmp_path, capsys):
        store = ShardedDiskStore(tmp_path)
        for i in range(4):
            store.put(key_of(i), {"i": i, "pad": "x" * 64})
        assert cli_main(["cache", "evict", "--cache-dir", str(tmp_path),
                         "--cache-budget", "1"]) == 0
        assert "evicted 4" in capsys.readouterr().out
        assert len(ShardedDiskStore(tmp_path)) == 0

    def test_cache_evict_requires_budget(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.delenv(CACHE_BUDGET_ENV, raising=False)
        assert cli_main(["cache", "evict",
                         "--cache-dir", str(tmp_path)]) == 1
        assert "--cache-budget" in capsys.readouterr().err

    def test_cache_stats_reports_evictions(self, tmp_path, capsys):
        store = ShardedDiskStore(tmp_path)
        for i in range(2):
            store.put(key_of(i), {"i": i})
        store.evict(budget=1)
        store.persist_stats()
        assert cli_main(["cache", "--stats",
                         "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "lifetime evictions: 2" in out

    def test_cache_dir_accepts_spec_strings(self, tmp_path, capsys):
        assert cli_main(["cache", "--cache-dir", "mem:"]) == 0
        assert "entries: 0" in capsys.readouterr().out
        assert cli_main(["cache", "--cache-dir", f"dir:{tmp_path}"]) != 0

    def test_run_rejects_bad_budget(self, tmp_path, capsys):
        assert cli_main(["run", "table2", "--quiet",
                         "--cache-dir", str(tmp_path / "c"),
                         "--cache-budget", "garbage"]) != 0


# --------------------------------------------------------------------- #
# Engine integration: budgets and spec stores end to end
# --------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_engine_accepts_prebuilt_store(self):
        from repro.common.config import SimConfig
        from repro.harness.engine import ExperimentEngine

        store = MemoryStore()
        with ExperimentEngine(config=SimConfig(),
                              cache_dir=store) as engine:
            assert engine.cache is store
            assert engine.cache.tracer is engine.tracer

    def test_engine_budget_reaches_store(self, tmp_path):
        from repro.common.config import SimConfig
        from repro.harness.engine import ExperimentEngine

        with ExperimentEngine(config=SimConfig(),
                              cache_dir=tmp_path / "cache",
                              cache_budget="1M") as engine:
            assert isinstance(engine.cache.policy, LruEviction)
            assert engine.cache.policy.budget_bytes == 1024 ** 2

    def test_study_cache_budget_knob(self, tmp_path):
        from repro.api import Study

        study = Study().cache(tmp_path / "cache", budget="2M")
        assert study._cache_budget == "2M"
