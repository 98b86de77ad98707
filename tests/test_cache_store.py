"""Tests for the result cache (store, layout, never-stale digest,
concurrency, specs)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.errors import EvaluationError
from repro.harness.cache import CacheStore, model_digest, open_store
from repro.harness.cache import store as store_module
from repro.harness.cache.store import source_digest
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


# --------------------------------------------------------------------- #
# Store behaviour
# --------------------------------------------------------------------- #
class TestCacheStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = CacheStore(tmp_path)
        key = key_of(1)
        assert store.get(key) is None
        assert store.stats.misses == 1
        store.put(key, {"x": [1, 2]}, case="c")
        assert store.get(key) == {"x": [1, 2]}
        assert store.stats.hits == 1
        assert store.stats.stores == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_contains_delete_len_clear(self, tmp_path):
        store = CacheStore(tmp_path)
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

    def test_demote_hit_reclassifies_and_drops(self, tmp_path):
        store = CacheStore(tmp_path)
        key = key_of(7)
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        store.demote_hit(key)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert not store.contains(key)

    def test_tracer_counters(self, tmp_path):
        tracer = CountingTracer()
        store = CacheStore(tmp_path, tracer=tracer)
        key = key_of(3)
        store.get(key)
        store.put(key, {"x": 1})
        store.get(key)
        assert tracer.counters["cache.misses"] == 1
        assert tracer.counters["cache.hits"] == 1
        assert tracer.counters["cache.stores"] == 1
        assert tracer.counters["cache.read_seconds"] >= 0
        assert tracer.counters["cache.write_seconds"] >= 0


class TestShardedLayout:
    def test_two_level_fanout(self, tmp_path):
        store = CacheStore(tmp_path)
        key = "ab" + "c" * 62
        path = store.put(key, {"x": 1}, case="c")
        assert path == tmp_path / "ab" / (("c" * 62) + ".json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document == {"key": key,
                            "metadata": {"case": "c",
                                         "model": model_digest()},
                            "payload": {"x": 1}}

    def test_pre_sharding_entry_is_a_miss_but_cleared(self, tmp_path):
        # Directories written before the sharded layout hold the full key
        # as the file name.  Such a file is never served, but it still
        # counts toward the size and is removed by clear(), so no bytes
        # are stranded.
        store = CacheStore(tmp_path)
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

    def test_no_stray_temporaries_after_puts(self, tmp_path):
        store = CacheStore(tmp_path)
        for i in range(8):
            store.put(key_of(i), {"i": i})
        assert list(tmp_path.glob("*/*.tmp")) == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        key = key_of(6)
        store.put(key, {"x": 1})
        store.path_for(key).write_text("{not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.stats.misses == 1


# --------------------------------------------------------------------- #
# Never stale: entries are tied to the model sources
# --------------------------------------------------------------------- #
class TestNeverStale:
    def test_source_edit_changes_the_digest(self, tmp_path):
        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert source_digest(copy) == model_digest()
        with (copy / "sim" / "engine.py").open("a",
                                               encoding="utf-8") as handle:
            handle.write("# edited\n")
        assert source_digest(copy) != model_digest()

    def test_renaming_a_source_changes_the_digest(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
        before = source_digest(tmp_path)
        (tmp_path / "a.py").rename(tmp_path / "b.py")
        assert source_digest(tmp_path) != before

    def test_other_model_is_a_miss_until_restored(self, tmp_path,
                                                  monkeypatch):
        store = CacheStore(tmp_path)
        key = key_of(4)
        store.put(key, {"v": "old model"})
        monkeypatch.setattr(store_module, "model_digest", lambda: "edited")
        assert store.get(key) is None
        assert store.stats.misses == 1
        store.put(key, {"v": "new model"})
        assert store.get(key) == {"v": "new model"}
        assert store.stats.hits == 1

    def test_entry_without_digest_is_a_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        key = key_of(5)
        path = store.put(key, {"x": 1})
        path.write_text(json.dumps({"key": key, "metadata": {},
                                    "payload": {"x": 1}}),
                        encoding="utf-8")
        assert store.get(key) is None

    def test_engine_rerun_after_model_edit(self, tmp_path, monkeypatch):
        from repro.harness.engine import ExperimentEngine

        def run_table2():
            with ExperimentEngine(cache_dir=tmp_path) as engine:
                engine.run("table2")
                stats = engine.cache_stats
                return stats.hits, stats.misses, stats.stores

        assert run_table2() == (0, 1, 1)
        assert run_table2() == (1, 0, 0)
        monkeypatch.setattr(store_module, "model_digest", lambda: "edited")
        assert run_table2() == (0, 1, 1)
        assert run_table2() == (1, 0, 0)


# --------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------- #
class TestSpecs:
    def test_open_store_schemes(self, tmp_path):
        bare = open_store(str(tmp_path / "bare"))
        assert isinstance(bare, CacheStore)
        assert bare.root == tmp_path / "bare"
        assert open_store(tmp_path / "pathlike").root == \
            tmp_path / "pathlike"

    def test_open_store_passthrough_adopts_tracer(self, tmp_path):
        tracer = CountingTracer()
        store = CacheStore(tmp_path)
        assert open_store(store, tracer=tracer) is store
        assert store.tracer is tracer

    def test_open_store_rejects_bad_specs(self, tmp_path):
        for bad in ("", "mem:", "mem:somewhere", "dir:", "sharded:",
                    "tiered:", "tiered:onlylocal", "dir:/x", "sharded:/x",
                    "tiered:a|b", "foo:bar", 42, None):
            with pytest.raises(EvaluationError):
                open_store(bad)
        with pytest.raises(EvaluationError, match="directory path"):
            open_store("mem:")


# --------------------------------------------------------------------- #
# Multi-process stress: concurrent writers on one store
# --------------------------------------------------------------------- #
_WORKER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.harness.cache import CacheStore

root, worker, rounds, per_round = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
store = CacheStore(root)
for r in range(rounds):
    for i in range(per_round):
        n = worker * 10_000 + r * per_round + i
        key = format(n, "064x")
        store.put(key, {{"worker": worker, "n": n}}, round=r)
        got = store.get(key)
        assert got == {{"worker": worker, "n": n}}, (key, got)
    # Every worker also rewrites one shared key, so writers race on it.
    store.put("ff" * 32, {{"worker": worker, "round": r}})
print(store.stats.stores)
"""


class TestMultiProcessStress:
    def test_concurrent_put_get_rounds(self, tmp_path):
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
            assert out.strip() == str(rounds * (per_round + 1))

        store = CacheStore(tmp_path)
        expected = {
            format(worker * 10_000 + r * per_round + i, "064x"):
                worker * 10_000 + r * per_round + i
            for worker in range(workers)
            for r in range(rounds)
            for i in range(per_round)
        }
        # No lost entries, no torn reads: every key readable and correct.
        assert len(store) == len(expected) + 1
        for key, n in expected.items():
            payload = store.get(key)
            assert payload == {"worker": n // 10_000, "n": n}, key
        # The raced key holds one writer's complete last document.
        shared = store.get("ff" * 32)
        assert shared["round"] == rounds - 1
        assert shared["worker"] in range(workers)
        assert list(tmp_path.glob("*/*.tmp")) == []


# --------------------------------------------------------------------- #
# CLI and engine wiring
# --------------------------------------------------------------------- #
class TestCacheCli:
    def test_cache_dir_accepts_spec_strings(self, tmp_path, capsys):
        assert cli_main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 0" in capsys.readouterr().out
        assert cli_main(["cache", "--cache-dir", "mem:"]) != 0
        assert cli_main(["cache", "--cache-dir", f"dir:{tmp_path}"]) != 0


class TestEngineIntegration:
    def test_engine_accepts_prebuilt_store(self, tmp_path):
        from repro.common.config import SimConfig
        from repro.harness.engine import ExperimentEngine

        store = CacheStore(tmp_path)
        with ExperimentEngine(config=SimConfig(),
                              cache_dir=store) as engine:
            assert engine.cache is store
            assert engine.cache.tracer is engine.tracer
