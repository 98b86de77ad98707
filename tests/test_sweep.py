"""Tests for core-count sweeps and the scaling-curves experiment.

Covers the grid runner's parallel==serial determinism, cache behaviour
(hits independent of the host-process fan-out, the 8-core scaling column
sharing Figure 9 entries), scaling-curve semantics against the MTT bound,
the EvaluationError wrapping of empty/degenerate speedup series, and
``repro run scaling_curves --cores`` on the command line.
"""

from __future__ import annotations

import json

import pytest

from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval import benchmark_cases, headline_summary
from repro.eval.experiments import (
    BenchmarkCase,
    BenchmarkRun,
    checked_geometric_mean,
    figure8_granularity,
)
from repro.eval.scaling import (
    DEFAULT_CORE_COUNTS,
    ScalingCurve,
    ScalingPoint,
    build_scaling_curves,
    normalize_core_counts,
    normalize_runtimes,
    scaling_curves,
    scaling_geomeans,
)
from repro.harness import (
    CacheStore,
    CaseUnit,
    ExperimentEngine,
    case_cache_key,
    decode,
    encode,
    grid_cache_key,
    run_case_grid,
    run_cases,
)
from repro.harness.cli import main as cli_main
from repro.harness.telemetry import Tracer
from repro.runtime.base import RuntimeResult
from tests.helpers import RecordingSink, unit_ends


@pytest.fixture(scope="module")
def tiny_config() -> SimConfig:
    return SimConfig(max_cycles=200_000_000)


@pytest.fixture(scope="module")
def tiny_cases():
    return benchmark_cases(quick=True, scale=0.1)[:2]


def _make_result(runtime, cores, elapsed, serial=1000):
    return RuntimeResult(
        runtime=runtime, program="p", num_cores=cores,
        elapsed_cycles=elapsed, tasks_executed=10, serial_cycles=serial,
        mean_task_cycles=serial / 10, busy_cycles=serial, overhead_cycles=0,
    )


def _make_run(case_key, cores, speedups, serial=1000):
    """A synthetic BenchmarkRun with chosen speedups per runtime."""
    benchmark, label = case_key.split("/")
    case = BenchmarkCase(benchmark, label, "stream", ())
    run = BenchmarkRun(case=case, mean_task_cycles=serial / 10)
    run.results["serial"] = _make_result("serial", 1, serial, serial)
    for runtime, speedup in speedups.items():
        run.results[runtime] = _make_result(
            runtime, cores, int(round(serial / speedup)), serial)
    return run


class TestGridHashing:
    def test_grid_key_changes_with_overrides_and_parameters(self):
        config = SimConfig()
        one = grid_cache_key("figure9", config, [{"num_cores": 1}])
        two = grid_cache_key("figure9", config, [{"num_cores": 2}])
        assert one != two
        assert one == grid_cache_key("figure9", config, [{"num_cores": 1}])
        assert (grid_cache_key("figure9", config, [], {"quick": True})
                != grid_cache_key("figure9", config, [], {"quick": False}))

    def test_jobs_never_enter_cache_keys(self, tiny_config, tiny_cases):
        # The host fan-out (jobs / REPRO_JOBS) is not part of any key, so
        # there is literally no key input that could change with it; the
        # behavioural check is in TestCacheVsWorkers below.
        key = case_cache_key(tiny_cases[0], tiny_config, 4)
        assert key == case_cache_key(tiny_cases[0], tiny_config, 4)


class TestCacheVsWorkers:
    def test_cache_hits_independent_of_host_jobs(self, tmp_path,
                                                 tiny_config, tiny_cases):
        cache = CacheStore(tmp_path)
        first = run_cases(tiny_config, tiny_cases, num_workers=2,
                          jobs=1, cache=cache)
        assert cache.stats.misses == len(tiny_cases)
        second = run_cases(tiny_config, tiny_cases, num_workers=2,
                           jobs=3, cache=cache)
        assert cache.stats.hits == len(tiny_cases)
        assert cache.stats.misses == len(tiny_cases)  # no new misses
        assert first == second

    def test_engine_rerun_with_different_jobs_is_all_hits(
            self, tmp_path, tiny_config, tiny_cases):
        ExperimentEngine(config=tiny_config, jobs=1,
                         cache_dir=tmp_path).run(
            "figure9", cases=tiny_cases, num_workers=2)
        rerun = ExperimentEngine(config=tiny_config, jobs=4,
                                 cache_dir=tmp_path)
        rerun.run("figure9", cases=tiny_cases, num_workers=2)
        assert rerun.cache_stats.hits == len(tiny_cases)
        assert rerun.cache_stats.misses == 0


class TestGridRunner:
    def test_grid_parallel_equals_serial(self, tiny_config, tiny_cases):
        units = [CaseUnit(tiny_config.with_cores(cores), case, cores)
                 for cores in (1, 2)
                 for case in tiny_cases]
        serial = run_case_grid(units, jobs=1)
        parallel = run_case_grid(units, jobs=3)
        assert serial == parallel
        assert (json.dumps(encode(serial), sort_keys=True)
                == json.dumps(encode(parallel), sort_keys=True))

    def test_grid_preserves_unit_order(self, tiny_config, tiny_cases):
        units = [CaseUnit(tiny_config.with_cores(cores), case, cores)
                 for cores in (2, 1)
                 for case in reversed(tiny_cases)]
        runs = run_case_grid(units, jobs=3)
        assert [run.case.key for run in runs] == \
            [unit.case.key for unit in units]

    def test_grid_timings_carry_worker_counts(self, tiny_config, tiny_cases):
        units = [CaseUnit(tiny_config.with_cores(cores), tiny_cases[0],
                          cores) for cores in (1, 2)]
        sink = RecordingSink()
        run_case_grid(units, tracer=Tracer([sink]))
        names = [unit["name"] for unit in unit_ends(sink)]
        assert names == [unit.key for unit in units]
        assert all(name.endswith("w") for name in names)

    def test_grid_shares_cache_with_plain_sweeps(self, tmp_path,
                                                 tiny_config, tiny_cases):
        cache = CacheStore(tmp_path)
        run_cases(tiny_config.with_cores(2), tiny_cases, num_workers=2,
                  cache=cache)
        units = [CaseUnit(tiny_config.with_cores(cores), case, cores)
                 for cores in (1, 2) for case in tiny_cases]
        run_case_grid(units, cache=cache)
        # The 2-core half of the grid was served from the plain sweep.
        assert cache.stats.hits == len(tiny_cases)
        assert cache.stats.misses == 2 * len(tiny_cases)


class TestScalingNormalisation:
    def test_core_counts_default_sorted_deduped(self):
        assert normalize_core_counts(None) == sorted(DEFAULT_CORE_COUNTS)
        assert normalize_core_counts([8, 2, 8, 1]) == [1, 2, 8]
        with pytest.raises(EvaluationError):
            normalize_core_counts([])
        with pytest.raises(EvaluationError):
            normalize_core_counts([0, 4])

    def test_runtimes_validated_and_ordered(self):
        assert normalize_runtimes(None) == ["nanos-sw", "nanos-rv",
                                            "phentos"]
        assert normalize_runtimes(["phentos", "nanos-sw"]) == \
            ["nanos-sw", "phentos"]
        with pytest.raises(EvaluationError):
            normalize_runtimes(["serial"])
        with pytest.raises(EvaluationError):
            normalize_runtimes([])


class TestScalingCurveSemantics:
    OVERHEADS = {"phentos": 10.0, "nanos-rv": 25.0, "nanos-sw": 50.0}

    def _runs_by_cores(self, speedup_fn):
        counts = (1, 2, 4, 8)
        return {
            cores: [_make_run("stream-barr/x", cores,
                              {rt: speedup_fn(rt, cores)
                               for rt in self.OVERHEADS})]
            for cores in counts
        }

    def test_bound_follows_equation_one(self):
        runs = self._runs_by_cores(lambda rt, cores: min(cores, 3.0))
        curves = build_scaling_curves(runs, self.OVERHEADS)
        for curve in curves:
            for point in curve.points:
                expected = min(point.cores,
                               curve.mean_task_cycles
                               / curve.lifetime_overhead_cycles)
                assert point.mtt_bound == pytest.approx(expected)

    def test_monotone_curve_saturates_at_bound(self):
        # Speedup grows with cores until the MTT bound caps it: the
        # measured saturation must land where growth stops, and no point
        # may exceed its bound.
        overheads = {"phentos": 25.0}  # bound = t/Lo = 100/25 = 4
        runs = self._runs_by_cores(
            lambda rt, cores: min(cores, 100.0 / 25.0))
        curves = build_scaling_curves(runs, overheads, ["phentos"])
        assert len(curves) == 1
        curve = curves[0]
        speedups = [p.speedup_vs_serial for p in curve.points]
        assert speedups == sorted(speedups)  # monotone up to the bound
        for point in curve.points:
            assert point.speedup_vs_serial <= point.mtt_bound + 1e-9
        assert curve.measured_saturation_cores() == 4
        assert curve.bound_saturation_cores == pytest.approx(4.0)

    def test_unsaturated_curve_reports_last_grid_point(self):
        runs = self._runs_by_cores(lambda rt, cores: float(cores))
        curves = build_scaling_curves(runs, self.OVERHEADS, ["phentos"])
        assert curves[0].measured_saturation_cores() == 8

    def test_speedup_at_and_missing_point(self):
        runs = self._runs_by_cores(lambda rt, cores: float(cores))
        curve = build_scaling_curves(runs, self.OVERHEADS, ["phentos"])[0]
        assert curve.speedup_at(4) == pytest.approx(4.0)
        with pytest.raises(EvaluationError):
            curve.speedup_at(64)

    def test_mismatched_case_lists_rejected(self):
        runs = self._runs_by_cores(lambda rt, cores: 1.0)
        runs[8] = [_make_run("stream-barr/other", 8,
                             {rt: 1.0 for rt in self.OVERHEADS})]
        with pytest.raises(EvaluationError):
            build_scaling_curves(runs, self.OVERHEADS)

    def test_missing_overhead_rejected(self):
        runs = self._runs_by_cores(lambda rt, cores: 1.0)
        with pytest.raises(EvaluationError):
            build_scaling_curves(runs, {"phentos": 10.0})

    def test_geomeans_per_runtime_and_cores(self):
        runs = self._runs_by_cores(lambda rt, cores: float(cores))
        curves = build_scaling_curves(runs, self.OVERHEADS,
                                      ["phentos", "nanos-rv"])
        means = scaling_geomeans(curves)
        assert means["phentos"][4] == pytest.approx(4.0)
        assert sorted(means) == ["nanos-rv", "phentos"]


class TestScalingExperiment:
    def test_real_curves_scale_and_match_figure9_at_shared_cores(
            self, tmp_path, tiny_config, tiny_cases):
        engine = ExperimentEngine(config=tiny_config, jobs=2,
                                  cache_dir=tmp_path)
        curves = engine.run("scaling_curves", cases=tiny_cases,
                            core_counts=(1, 2, 8),
                            runtimes=("phentos",))
        assert len(curves) == len(tiny_cases)
        for curve in curves:
            assert [p.cores for p in curve.points] == [1, 2, 8]
        # The 8-core rows must be exactly the Figure 9 results — served
        # from the same cache entries, not recomputed.
        fig9 = ExperimentEngine(config=tiny_config.with_cores(8),
                                cache_dir=tmp_path)
        runs = fig9.run("figure9", cases=tiny_cases)
        assert fig9.cache_stats.misses == 0
        assert fig9.cache_stats.hits == len(tiny_cases)
        by_key = {run.case.key: run for run in runs}
        for curve in curves:
            assert curve.speedup_at(8) == \
                by_key[curve.case_key].speedup_vs_serial("phentos")

    def test_scaling_artifact_round_trip(self, tmp_path, tiny_config,
                                         tiny_cases):
        from repro.harness import ArtifactStore
        engine = ExperimentEngine(config=tiny_config,
                                  artifact_dir=tmp_path / "artifacts")
        curves = engine.run("scaling_curves", cases=tiny_cases[:1],
                            core_counts=(1, 2), runtimes=("phentos",))
        store = ArtifactStore(tmp_path / "artifacts")
        loaded = store.load("scaling_curves")
        assert loaded == curves
        assert isinstance(loaded[0], ScalingCurve)
        assert isinstance(loaded[0].points[0], ScalingPoint)
        assert decode(encode(curves)) == curves

    def test_direct_runner_matches_engine(self, tiny_config, tiny_cases):
        # The registry runner (no harness) must assemble identical curves.
        direct = scaling_curves(tiny_config, core_counts=(1, 2),
                                cases=tiny_cases[:1], runtimes=("phentos",))
        engine = ExperimentEngine(config=tiny_config)
        via_engine = engine.run("scaling_curves", cases=tiny_cases[:1],
                                core_counts=(1, 2), runtimes=("phentos",))
        assert direct == via_engine


class TestEvaluationErrorWrapping:
    def test_headline_names_series_on_degenerate_speedups(self):
        run = _make_run("stream-barr/x", 4,
                        {"nanos-sw": 1.0, "nanos-rv": 1.0, "phentos": 1.0})
        # A corrupted record with negative elapsed cycles yields a
        # non-positive speedup series: the bare ValueError must surface as
        # an EvaluationError naming the experiment and the input series.
        run.results["nanos-rv"].elapsed_cycles = -100
        with pytest.raises(EvaluationError, match="headline.*nanos-rv"):
            headline_summary([run])

    def test_checked_geomean_empty_series(self):
        with pytest.raises(EvaluationError,
                           match="scaling_curves.*empty series"):
            checked_geometric_mean([], "scaling_curves", "empty series")

    def test_figure8_names_case_on_bad_run(self):
        run = _make_run("stream-barr/x", 4,
                        {"nanos-sw": 1.0, "nanos-rv": 1.0, "phentos": 1.0})
        run.results["nanos-sw"].elapsed_cycles = 0  # ZeroDivision territory
        with pytest.raises(EvaluationError,
                           match="figure8.*stream-barr/x"):
            figure8_granularity([run])

    def test_figure8_names_case_on_missing_runtime(self):
        run = _make_run("stream-deps/y", 4, {"phentos": 1.0})
        with pytest.raises(EvaluationError,
                           match="figure8.*stream-deps/y"):
            figure8_granularity([run])

    def test_scaling_wraps_bad_speedup(self):
        runs = {
            1: [_make_run("stream-barr/x", 1, {"phentos": 1.0})],
        }
        runs[1][0].results["phentos"].elapsed_cycles = 0
        with pytest.raises(EvaluationError,
                           match="scaling_curves.*stream-barr/x"):
            build_scaling_curves(runs, {"phentos": 10.0}, ["phentos"])


class TestSweepCli:
    """``repro run scaling_curves --cores``: the core-count sweep."""

    def test_sweep_smoke_and_rerun_is_pure_cache_hit(self, tmp_path,
                                                     capsys):
        argv = ["run", "scaling_curves",
                "--cores", "1,2", "--runtimes", "phentos",
                "--quick", "--scale", "0.05", "--quiet",
                "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "scaling_curves" in first
        assert "1c" in first and "2c" in first
        assert "geomean" in first
        # Second invocation (not --quiet, so the cache line prints):
        # identical report, 100% served from cache.
        assert cli_main(argv[:-3] + ["--cache-dir", str(tmp_path)]) == 0
        rerun = capsys.readouterr()
        assert rerun.out == first
        assert "0 miss(es)" in rerun.err

    def test_sweep_json_round_trips(self, tmp_path, capsys):
        argv = ["run", "scaling_curves", "--cores", "1,2",
                "--runtimes", "phentos", "--quick", "--scale", "0.05",
                "--quiet", "--format", "json", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        curves = decode(payload["scaling_curves"])
        assert all(isinstance(curve, ScalingCurve) for curve in curves)
        assert {point.cores for curve in curves
                for point in curve.points} == {1, 2}

    def test_sweep_rejects_bad_core_list(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "scaling_curves", "--cores", "two,four"])

    def test_sweep_rejects_unknown_runtime(self, capsys):
        assert cli_main(["run", "scaling_curves", "--cores", "1",
                         "--runtimes", "fortran", "--no-cache",
                         "--quick", "--scale", "0.05", "--quiet"]) == 1
