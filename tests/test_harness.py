"""Tests for the experiment harness (hashing, cache, artifacts, runner, CLI)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval import (
    EXPERIMENT_SPECS,
    EXPERIMENTS,
    benchmark_cases,
    figure9_benchmarks,
    headline_summary,
    run_benchmark_case,
)
from repro.harness import (
    ArtifactStore,
    CacheStore,
    ExperimentEngine,
    case_cache_key,
    decode,
    encode,
    experiment_cache_key,
    run_cases,
    stable_hash,
)
from repro.harness.cli import main as cli_main
from repro.runtime.base import RuntimeResult

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tiny_config() -> SimConfig:
    return SimConfig(max_cycles=200_000_000).with_cores(4)


@pytest.fixture(scope="module")
def tiny_cases():
    return benchmark_cases(quick=True, scale=0.2)[:3]


@pytest.fixture(scope="module")
def serial_runs(tiny_config, tiny_cases):
    return figure9_benchmarks(tiny_config, cases=tiny_cases, num_workers=4)


class TestHashing:
    def test_stable_across_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_tuples_and_lists_hash_alike(self):
        # JSON canonicalisation means a decoded (list-shaped) value
        # addresses the same entry as the original tuple-shaped one.
        assert stable_hash((1, 2)) == stable_hash([1, 2])

    def test_config_change_changes_case_key(self, tiny_cases):
        case = tiny_cases[0]
        base = SimConfig()
        slower = dataclasses.replace(
            base, costs=dataclasses.replace(
                base.costs, memory=dataclasses.replace(
                    base.costs.memory, l1_hit=3
                )
            )
        )
        assert case_cache_key(case, base, 8) != case_cache_key(case, slower, 8)

    def test_worker_count_and_version_in_key(self, tiny_cases):
        case = tiny_cases[0]
        config = SimConfig()
        assert case_cache_key(case, config, 4) != case_cache_key(case, config, 8)
        assert (case_cache_key(case, config, 8, version="1.0.0")
                != case_cache_key(case, config, 8, version="1.0.1"))

    def test_worker_count_is_canonicalised_into_config(self, tiny_cases):
        # (8-core config, 4 workers) simulates the same machine as
        # (4-core config, 4 workers): Runtime.build_soc rebuilds the SoC
        # with the worker count, so the two must share one cache entry.
        case = tiny_cases[0]
        assert (case_cache_key(case, SimConfig(), 4)
                == case_cache_key(case, SimConfig().with_cores(4), 4))
        # Omitting num_workers defaults to the config's core count.
        assert (case_cache_key(case, SimConfig())
                == case_cache_key(case, SimConfig(), 8))

    def test_experiment_key_depends_on_parameters(self):
        config = SimConfig()
        assert (experiment_cache_key("figure7", config, {"num_tasks": 60})
                != experiment_cache_key("figure7", config, {"num_tasks": 120}))

    def test_unhashable_value_rejected(self):
        with pytest.raises(EvaluationError):
            stable_hash({"fn": print})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CacheStore(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CacheStore(tmp_path)
        key = "cd" * 32
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_clear_and_accounting(self, tmp_path):
        cache = CacheStore(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "e" * 60, {"i": i})
        assert len(cache) == 3
        assert cache.size_bytes() > 0
        assert cache.clear() == 3
        assert len(cache) == 0


class TestArtifacts:
    def test_runtime_result_round_trip(self, serial_runs):
        result = serial_runs[0].results["phentos"]
        clone = decode(encode(result))
        assert isinstance(clone, RuntimeResult)
        assert clone == result

    def test_benchmark_run_round_trip(self, serial_runs):
        run = serial_runs[0]
        clone = decode(encode(run))
        assert clone == run
        assert clone.case.params == run.case.params  # tuples, not lists
        assert clone.speedup_vs_serial("phentos") == \
            run.speedup_vs_serial("phentos")

    def test_headline_summary_round_trip(self, serial_runs):
        summary = headline_summary(serial_runs)
        assert decode(encode(summary)) == summary

    def test_encoded_form_is_json(self, serial_runs):
        text = json.dumps(encode(serial_runs))
        assert decode(json.loads(text)) == serial_runs

    def test_store_save_and_load(self, tmp_path, serial_runs):
        store = ArtifactStore(tmp_path)
        store.save("figure9", serial_runs, quick=True)
        assert store.names() == ["figure9"]
        assert store.load("figure9") == serial_runs
        assert store.metadata("figure9") == {"quick": True}
        with pytest.raises(EvaluationError):
            store.load("missing")
        with pytest.raises(EvaluationError):
            store.save("../escape", [])


class TestParallelRunner:
    def test_parallel_results_identical_to_serial(self, tiny_config,
                                                  tiny_cases, serial_runs):
        parallel = run_cases(tiny_config, tiny_cases, num_workers=4, jobs=2)
        assert parallel == serial_runs
        # Byte-identical once rendered through the artifact codec.
        assert (json.dumps(encode(parallel), sort_keys=True)
                == json.dumps(encode(serial_runs), sort_keys=True))

    def test_assembly_preserves_input_order(self, tiny_config, tiny_cases):
        reversed_runs = run_cases(tiny_config, list(reversed(tiny_cases)),
                                  num_workers=4, jobs=2)
        assert [run.case.key for run in reversed_runs] == \
            [case.key for case in reversed(tiny_cases)]

    def test_cache_populated_and_reused(self, tmp_path, tiny_config,
                                        tiny_cases, serial_runs):
        cache = CacheStore(tmp_path)
        first = run_cases(tiny_config, tiny_cases, num_workers=4,
                          jobs=2, cache=cache)
        assert cache.stats.misses == len(tiny_cases)
        assert cache.stats.hits == 0
        second = run_cases(tiny_config, tiny_cases, num_workers=4,
                           jobs=2, cache=cache)
        assert cache.stats.hits == len(tiny_cases)
        assert first == second == serial_runs

    def test_rejects_nonpositive_jobs(self, tiny_config, tiny_cases):
        with pytest.raises(EvaluationError):
            run_cases(tiny_config, tiny_cases, num_workers=4, jobs=0)

    def test_schema_invalid_entry_recomputed(self, tmp_path, tiny_config,
                                             tiny_cases, serial_runs):
        # An entry that parses as JSON but not as a BenchmarkRun must be
        # treated as a miss (and dropped), not crash the sweep.
        cache = CacheStore(tmp_path)
        run_cases(tiny_config, tiny_cases, num_workers=4, cache=cache)
        key = case_cache_key(tiny_cases[0], tiny_config, 4)
        cache.put(key, {"half": "baked"})
        runs = run_cases(tiny_config, tiny_cases, num_workers=4, cache=cache)
        assert runs == serial_runs
        assert cache.stats.hits == len(tiny_cases) - 1
        assert cache.get(key) is not None  # re-stored, decodable again


class TestExperimentRegistry:
    def test_registry_is_complete(self):
        assert set(EXPERIMENTS) == {"figure6", "figure7", "figure8",
                                    "figure9", "figure10", "table2",
                                    "headline", "scaling_curves"}

    def test_derived_experiments_declare_figure9_dependency(self):
        for experiment_id in ("figure8", "figure10", "headline",
                              "scaling_curves"):
            spec = EXPERIMENT_SPECS[experiment_id]
            assert spec.depends_on == ("figure9",)
            assert spec.is_derived
        for experiment_id in ("figure6", "figure7", "figure9", "table2"):
            assert not EXPERIMENT_SPECS[experiment_id].is_derived

    def test_cases_are_picklable_and_hashable(self, tiny_cases):
        import pickle
        clones = pickle.loads(pickle.dumps(tiny_cases))
        assert clones == tiny_cases
        assert len({hash(case) for case in tiny_cases}) == len(tiny_cases)

    def test_unknown_builder_rejected(self, tiny_cases):
        bad = dataclasses.replace(tiny_cases[0], builder="fortran")
        with pytest.raises(EvaluationError):
            bad.build()


class TestEngine:
    def test_second_invocation_served_from_cache(self, tmp_path, tiny_config,
                                                 tiny_cases, serial_runs):
        first_engine = ExperimentEngine(config=tiny_config, jobs=2,
                                        cache_dir=tmp_path)
        first = first_engine.run("figure9", cases=tiny_cases, num_workers=4)
        assert first == serial_runs

        second_engine = ExperimentEngine(config=tiny_config, jobs=2,
                                         cache_dir=tmp_path)
        second = second_engine.run("figure9", cases=tiny_cases, num_workers=4)
        assert second == first
        stats = second_engine.cache_stats
        assert stats.lookups == len(tiny_cases)
        assert stats.hit_rate >= 0.9

    def test_config_change_invalidates_cache(self, tmp_path, tiny_config,
                                             tiny_cases):
        engine = ExperimentEngine(config=tiny_config, cache_dir=tmp_path)
        engine.run("figure9", cases=tiny_cases, num_workers=4)
        slower = dataclasses.replace(
            tiny_config, costs=dataclasses.replace(
                tiny_config.costs, memory=dataclasses.replace(
                    tiny_config.costs.memory, l1_hit=3
                )
            )
        )
        other = ExperimentEngine(config=slower, cache_dir=tmp_path)
        other.run("figure9", cases=tiny_cases[:1], num_workers=4)
        assert other.cache_stats.hits == 0
        assert other.cache_stats.misses == 1

    def test_equivalent_core_count_is_served_from_cache(self, tmp_path,
                                                        tiny_config,
                                                        tiny_cases):
        # The worker count overrides the machine width, so a 2-core config
        # swept at 4 workers describes the same simulation as the 4-core
        # config: the canonicalised key must hit, not recompute.
        engine = ExperimentEngine(config=tiny_config, cache_dir=tmp_path)
        engine.run("figure9", cases=tiny_cases, num_workers=4)
        other = ExperimentEngine(config=tiny_config.with_cores(2),
                                 cache_dir=tmp_path)
        runs = other.run("figure9", cases=tiny_cases, num_workers=4)
        assert other.cache_stats.hits == len(tiny_cases)
        assert other.cache_stats.misses == 0
        assert [run.case.key for run in runs] == \
            [case.key for case in tiny_cases]

    def test_derived_experiment_chains_through_cache(self, tmp_path,
                                                     tiny_config, tiny_cases,
                                                     serial_runs):
        # First engine populates the disk cache; a fresh engine (no
        # in-memory memo) must serve the derived experiment's figure9
        # dependency entirely from disk.
        ExperimentEngine(config=tiny_config, cache_dir=tmp_path).run(
            "figure9", cases=tiny_cases, num_workers=4)
        fresh = ExperimentEngine(config=tiny_config, cache_dir=tmp_path)
        summary = fresh.run("headline", cases=tiny_cases, num_workers=4)
        assert fresh.cache_stats.hits >= len(tiny_cases)
        assert summary == headline_summary(serial_runs)

    def test_table2_whole_result_caching(self, tmp_path, tiny_config):
        engine = ExperimentEngine(config=tiny_config, cache_dir=tmp_path)
        first = engine.run("table2")
        second = engine.run("table2")
        assert first == second
        assert engine.cache_stats.hits == 1

    def test_artifacts_written_when_requested(self, tmp_path, tiny_config,
                                              tiny_cases):
        engine = ExperimentEngine(config=tiny_config,
                                  artifact_dir=tmp_path / "artifacts")
        runs = engine.run("figure9", cases=tiny_cases, num_workers=4)
        store = ArtifactStore(tmp_path / "artifacts")
        assert store.load("figure9") == runs

    def test_derived_without_cache_runs_sweep_once(self, monkeypatch,
                                                   tiny_config, tiny_cases):
        import repro.harness.engine as engine_module

        calls = []
        real_run_cases = engine_module.run_cases

        def counting_run_cases(*args, **kwargs):
            calls.append(1)
            return real_run_cases(*args, **kwargs)

        monkeypatch.setattr(engine_module, "run_cases", counting_run_cases)
        engine = ExperimentEngine(config=tiny_config)  # no disk cache
        engine.run("figure9", cases=tiny_cases, num_workers=4)
        engine.run("figure8", cases=tiny_cases, num_workers=4)
        engine.run("headline", cases=tiny_cases, num_workers=4)
        assert len(calls) == 1

    def test_unknown_experiment_rejected(self, tiny_config):
        engine = ExperimentEngine(config=tiny_config)
        with pytest.raises(EvaluationError):
            engine.run("figure11")
        with pytest.raises(EvaluationError):
            ExperimentEngine(jobs=0)


class TestLifetimeOverheadRegression:
    """Guards the simplified RuntimeResult.lifetime_overhead_per_task."""

    @staticmethod
    def _result(num_cores, elapsed, serial, overhead, tasks=10):
        return RuntimeResult(
            runtime="x", program="p", num_cores=num_cores,
            elapsed_cycles=elapsed, tasks_executed=tasks,
            serial_cycles=serial, mean_task_cycles=serial / max(tasks, 1),
            busy_cycles=serial, overhead_cycles=overhead,
        )

    def test_single_worker_uses_elapsed_minus_payload(self):
        result = self._result(1, elapsed=12_000, serial=2_000, overhead=999)
        assert result.lifetime_overhead_per_task == pytest.approx(1_000.0)

    def test_multi_worker_uses_accounted_overhead(self):
        result = self._result(4, elapsed=12_000, serial=2_000, overhead=8_000)
        assert result.lifetime_overhead_per_task == pytest.approx(200.0)

    def test_negative_overhead_clamped_to_zero(self):
        result = self._result(1, elapsed=1_500, serial=2_000, overhead=0)
        assert result.lifetime_overhead_per_task == 0.0

    def test_no_tasks_rejected(self):
        from repro.common.errors import RuntimeModelError
        result = self._result(1, elapsed=100, serial=10, overhead=0, tasks=0)
        with pytest.raises(RuntimeModelError):
            result.lifetime_overhead_per_task

    def test_matches_measured_overhead_path(self, tiny_config):
        # The Figure 7 pipeline runs single-worker; the property must agree
        # with the raw definition on a real measurement.
        from repro.apps.granularity import task_chain_program
        from repro.runtime.phentos import PhentosRuntime

        program = task_chain_program(30, 1, 0)
        result = PhentosRuntime(tiny_config).run(program, num_workers=1)
        expected = max(result.elapsed_cycles - result.serial_cycles, 0) \
            / result.tasks_executed
        assert result.lifetime_overhead_per_task == pytest.approx(expected)


class TestCli:
    def test_list_runs_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        for experiment_id in EXPERIMENTS:
            assert experiment_id in proc.stdout

    def test_closed_stdout_exits_quietly(self):
        # A reader that has already gone, as after ``| grep -q`` matched:
        # every write fails with EPIPE, and the command must still exit 0
        # without a BrokenPipeError traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=REPO_ROOT,
                env={"PYTHONPATH": str(REPO_ROOT / "src"),
                     "PATH": "/usr/bin:/bin"},
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 0

    def test_run_table2_text(self, capsys):
        assert cli_main(["run", "table2", "--no-cache", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "SSystem" in out

    def test_run_sweep_json_with_cache(self, tmp_path, capsys):
        argv = ["run", "figure9", "--quick", "--scale", "0.1",
                "--workers", "2", "--jobs", "2", "--format", "json",
                "--quiet", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        runs = decode(payload["figure9"])
        assert [run.case.benchmark for run in runs]
        # Second invocation decodes to the identical result, from cache.
        assert cli_main(argv) == 0
        payload2 = json.loads(capsys.readouterr().out)
        assert payload2 == payload

    def test_cache_subcommand(self, tmp_path, capsys):
        cache = CacheStore(tmp_path)
        cache.put("ff" * 32, {"x": 1})
        assert cli_main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert cli_main(["cache", "--cache-dir", str(tmp_path),
                         "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert len(cache) == 0

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert cli_main(["run", "figure99", "--quiet"]) == 2
