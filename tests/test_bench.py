"""Tests for the engine microbenchmark and the BENCH_engine.json trajectory."""

from __future__ import annotations

import json

import pytest

from repro.common.config import SimConfig
from repro.eval.experiments import benchmark_cases
from repro.harness import ExperimentEngine
from repro.harness.bench import (
    PerfTrajectory,
    measure_case,
    measure_synthetic,
    run_engine_bench,
)
from repro.harness.cli import main
from repro.harness.runner import run_cases

QUICK_CONFIG = SimConfig()


def small_cases():
    return benchmark_cases(quick=True, scale=0.05)[:2]


class TestMeasureSynthetic:
    def test_reports_throughput(self):
        result = measure_synthetic(5_000)
        assert result["events"] > 0
        assert result["seconds"] > 0
        assert result["events_per_sec"] > 0

    def test_rejects_non_positive_event_count(self):
        from repro.common.errors import EvaluationError
        with pytest.raises(EvaluationError):
            measure_synthetic(0)


class TestMeasureCase:
    def test_times_one_real_case(self):
        entry = measure_case(QUICK_CONFIG, num_workers=2, case_index=1)
        assert entry["case"] == benchmark_cases(quick=True)[1].key
        assert entry["seconds"] > 0
        assert entry["simulated_cycles"] > 0


class TestRunEngineBench:
    def test_entry_shape(self):
        entry = run_engine_bench(num_events=5_000, include_case=False)
        assert entry["kind"] == "microbench"
        assert entry["version"]
        synthetic = entry["synthetic"]
        assert synthetic["events_per_sec"] > 0
        assert synthetic["num_events"] > 0
        assert synthetic["repeats"] == 3
        assert "figure9_case" not in entry


class TestPerfTrajectory:
    def test_append_and_read_back(self, tmp_path):
        trajectory = PerfTrajectory(tmp_path / "BENCH_engine.json")
        assert trajectory.entries() == []
        assert trajectory.last() is None
        trajectory.append({"kind": "microbench", "n": 1})
        trajectory.append({"kind": "sweep", "n": 2})
        entries = trajectory.entries()
        assert [e["n"] for e in entries] == [1, 2]
        assert trajectory.last()["n"] == 2
        assert trajectory.last(kind="microbench")["n"] == 1

    def test_document_is_valid_json_with_schema(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        PerfTrajectory(path).append({"kind": "microbench"})
        document = json.loads(path.read_text())
        assert document["schema"] == 1
        assert len(document["entries"]) == 1

    def test_corrupt_file_warns_and_reseeds(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json")
        trajectory = PerfTrajectory(path)
        with pytest.warns(UserWarning, match="re-seeding"):
            assert trajectory.entries() == []
        with pytest.warns(UserWarning, match="re-seeding"):
            trajectory.append({"kind": "microbench", "n": 1})
        # Re-seeded: the document is healthy again, no further warning.
        assert trajectory.entries() == [{"kind": "microbench", "n": 1}]
        assert json.loads(path.read_text())["schema"] == 1

    def test_empty_file_warns_and_reseeds(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("")
        trajectory = PerfTrajectory(path)
        with pytest.warns(UserWarning, match="empty"):
            assert trajectory.entries() == []
        with pytest.warns(UserWarning):
            trajectory.append({"kind": "sweep", "n": 1})
        assert len(trajectory.entries()) == 1

    def test_truncated_document_warns_and_recovers(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        healthy = PerfTrajectory(path)
        healthy.append({"kind": "microbench", "n": 1})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate a torn write
        with pytest.warns(UserWarning, match="truncated"):
            assert PerfTrajectory(path).entries() == []

    def test_malformed_entries_are_dropped_with_warning(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(
            {"schema": 1,
             "entries": [{"kind": "microbench", "n": 1}, "junk", 7]}
        ))
        trajectory = PerfTrajectory(path)
        with pytest.warns(UserWarning, match="malformed"):
            entries = trajectory.entries()
        assert entries == [{"kind": "microbench", "n": 1}]
        with pytest.warns(UserWarning):
            assert trajectory.last()["n"] == 1

    def test_entries_not_a_list_warns(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({"schema": 1, "entries": "oops"}))
        with pytest.warns(UserWarning, match="not a list"):
            assert PerfTrajectory(path).entries() == []

    def test_missing_file_does_not_warn(self, tmp_path, recwarn):
        trajectory = PerfTrajectory(tmp_path / "BENCH_engine.json")
        assert trajectory.entries() == []
        assert trajectory.last() is None
        assert not [w for w in recwarn.list
                    if issubclass(w.category, UserWarning)]

    def test_record_sweep_skips_empty_timings(self, tmp_path):
        trajectory = PerfTrajectory(tmp_path / "BENCH_engine.json")
        assert trajectory.record_sweep("figure9", {}) is None
        assert not trajectory.path.exists()

    def test_record_sweep_entry_contents(self, tmp_path):
        trajectory = PerfTrajectory(tmp_path / "BENCH_engine.json")
        trajectory.record_sweep("figure9", {"b/x": 1.5, "a/y": 0.5})
        entry = trajectory.last()
        assert entry["kind"] == "sweep"
        assert entry["experiment"] == "figure9"
        assert entry["cases"] == {"a/y": 0.5, "b/x": 1.5}
        assert entry["total_seconds"] == pytest.approx(2.0)


class TestRunnerTimings:
    def test_timings_populated_for_simulated_cases(self):
        cases = small_cases()
        timings = {}
        runs = run_cases(QUICK_CONFIG, cases, num_workers=2, timings=timings)
        assert len(runs) == len(cases)
        assert sorted(timings) == sorted(case.key for case in cases)
        assert all(seconds > 0 for seconds in timings.values())

    def test_cache_hits_are_not_timed(self, tmp_path):
        from repro.harness.cache import ShardedDiskStore
        cases = small_cases()
        cache = ShardedDiskStore(tmp_path / "cache")
        run_cases(QUICK_CONFIG, cases, num_workers=2, cache=cache)
        timings = {}
        run_cases(QUICK_CONFIG, cases, num_workers=2, cache=cache,
                  timings=timings)
        assert timings == {}


class TestExperimentEngineTrajectory:
    def test_sweep_records_trajectory_entry(self, tmp_path):
        bench_path = tmp_path / "BENCH_engine.json"
        engine = ExperimentEngine(config=QUICK_CONFIG,
                                  bench_path=bench_path)
        cases = small_cases()
        engine.run("figure9", cases=cases, num_workers=2)
        entry = PerfTrajectory(bench_path).last(kind="sweep")
        assert entry is not None
        assert sorted(entry["cases"]) == sorted(c.key for c in cases)
        assert engine.case_timings.keys() == entry["cases"].keys()
        # A memoised re-run does not append a second entry, and the stale
        # timings of the previous sweep are not attributed to it.
        engine.run("figure9", cases=cases, num_workers=2)
        assert len(PerfTrajectory(bench_path).entries()) == 1
        assert engine.case_timings == {}


class TestBenchCli:
    def test_bench_subcommand_appends_to_trajectory(self, tmp_path, capsys):
        output = tmp_path / "BENCH_engine.json"
        code = main(["bench", "--events", "2000", "--no-case",
                     "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr()
        assert "events/sec" in captured.out
        assert "recorded in" in captured.err
        entries = PerfTrajectory(output).entries()
        assert len(entries) == 1
        assert entries[0]["kind"] == "microbench"

    def test_bench_subcommand_json_format(self, tmp_path, capsys):
        code = main(["bench", "--events", "2000", "--no-case",
                     "--format", "json", "--output", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "microbench"

    def test_bench_json_stdout_stays_parseable_when_recording(
            self, tmp_path, capsys):
        """--format json must emit pure JSON even while appending a file."""
        output = tmp_path / "BENCH_engine.json"
        code = main(["bench", "--events", "2000", "--no-case",
                     "--format", "json", "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["kind"] == "microbench"
        assert "recorded in" in captured.err

    def test_bench_script_delegates_to_cli(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path
        script = (Path(__file__).resolve().parent.parent / "benchmarks"
                  / "bench_engine.py")
        spec = importlib.util.spec_from_file_location("bench_engine", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        output = tmp_path / "BENCH_engine.json"
        code = module.main(["--events", "2000", "--no-case",
                            "--output", str(output)])
        assert code == 0
        assert len(PerfTrajectory(output).entries()) == 1

    def test_run_bench_out_records_sweep(self, tmp_path, capsys):
        bench_path = tmp_path / "BENCH_engine.json"
        code = main(["run", "figure9", "--quick", "--scale", "0.05",
                     "--no-cache", "--quiet",
                     "--bench-out", str(bench_path)])
        assert code == 0
        entry = PerfTrajectory(bench_path).last(kind="sweep")
        assert entry is not None
        assert entry["cases"]
