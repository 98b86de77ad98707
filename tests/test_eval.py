"""Tests for the evaluation harness (MTT math, overheads, experiments)."""

from __future__ import annotations

import pytest

from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import EvaluationError
from repro.eval import (
    PAPER_FIGURE7_CYCLES,
    OverheadMeasurement,
    ResourceModel,
    benchmark_cases,
    bound_curve,
    bounds_report,
    default_task_sizes,
    figure6_mtt_bounds,
    figure8_granularity,
    figure10_bounds_vs_measured,
    format_table,
    headline_summary,
    maximum_task_throughput,
    measure_lifetime_overhead,
    overhead_report,
    resource_table,
    resources_report,
    rows_to_csv,
    saturation_task_size,
    speedup_bound,
    table2_resources,
)
from repro.harness import ExperimentEngine


class TestMttMath:
    def test_mtt_is_reciprocal_of_overhead(self):
        assert maximum_task_throughput(200) == pytest.approx(0.005)
        with pytest.raises(EvaluationError):
            maximum_task_throughput(0)

    def test_equation1_capped_at_core_count(self):
        # MS(Lo, t) = t / Lo, capped at N.
        assert speedup_bound(1000, 500, 8) == pytest.approx(2.0)
        assert speedup_bound(100_000, 500, 8) == 8.0
        with pytest.raises(EvaluationError):
            speedup_bound(-1, 500, 8)

    def test_saturation_point(self):
        assert saturation_task_size(329, 8) == pytest.approx(2632)

    def test_bound_curve_is_monotonic(self):
        curve = bound_curve(300, 8, default_task_sizes())
        speedups = [point.max_speedup for point in curve]
        assert speedups == sorted(speedups)
        assert speedups[-1] == 8.0

    def test_paper_figure6_shape(self):
        """At ~1000 cycles Phentos is near 3x while the others are <1x;
        at ~10000 cycles Phentos has saturated and the others are ~<1x."""
        phentos_lo = PAPER_FIGURE7_CYCLES["phentos"]["Task-Chain 1 dep"]
        nanos_rv_lo = PAPER_FIGURE7_CYCLES["nanos-rv"]["Task-Chain 1 dep"]
        assert 2.0 < speedup_bound(1000, phentos_lo, 8) < 4.0
        assert speedup_bound(1000, nanos_rv_lo, 8) < 0.1
        assert speedup_bound(10_000, phentos_lo, 8) == 8.0
        assert speedup_bound(10_000, nanos_rv_lo, 8) < 1.0

    def test_default_task_sizes_span_decades(self):
        sizes = default_task_sizes(2, 5, 4)
        assert sizes[0] == pytest.approx(100.0)
        assert sizes[-1] == pytest.approx(100_000.0)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


class TestOverheadMeasurement:
    def test_phentos_overhead_band(self, config):
        overhead = measure_lifetime_overhead("phentos", "task-chain", 1,
                                             num_tasks=40, config=config)
        assert 150 < overhead < 600

    def test_nanos_rv_overhead_band(self, config):
        overhead = measure_lifetime_overhead("nanos-rv", "task-free", 1,
                                             num_tasks=30, config=config)
        assert 8_000 < overhead < 18_000

    def test_unknown_platform_rejected(self):
        with pytest.raises(EvaluationError):
            measure_lifetime_overhead("not-a-runtime")

    def test_measurement_ratio_helper(self):
        measurement = OverheadMeasurement("phentos", "Task-Free 1 dep",
                                          cycles_per_task=200,
                                          paper_cycles_per_task=185)
        assert measurement.ratio_to_paper == pytest.approx(200 / 185)
        missing = OverheadMeasurement("x", "y", 100, None)
        assert missing.ratio_to_paper is None


class TestResourceModel:
    def test_table2_structure(self):
        entries = table2_resources()
        modules = [entry.module for entry in entries]
        assert modules == ["top", "Core", "fpuOpt", "dcache", "icache",
                           "SSystem"]
        top = entries[0]
        assert top.fraction_of_top == pytest.approx(1.0)

    def test_scheduling_subsystem_is_under_two_percent(self):
        model = ResourceModel()
        assert model.scheduling_fraction < 0.02
        ssystem = next(e for e in model.table() if e.module == "SSystem")
        assert ssystem.cells < 10_000

    def test_cells_scale_with_core_count(self):
        eight = ResourceModel(MachineConfig(num_cores=8))
        four = ResourceModel(MachineConfig(num_cores=4))
        assert eight.top_cells > four.top_cells
        # The scheduling subsystem stays a small fraction in both cases
        # (slightly larger relatively on the smaller SoC, since Picos itself
        # does not shrink with the core count).
        assert eight.scheduling_fraction < 0.02
        assert four.scheduling_fraction < 0.04

    def test_core_breakdown_consistent(self):
        model = ResourceModel()
        assert model.core_cells == (model.CORE_LOGIC_CELLS + model.FPU_CELLS
                                    + model.DCACHE_CELLS + model.ICACHE_CELLS)
        assert resource_table()[1].cells == model.core_cells


class TestBenchmarkCases:
    def test_full_sweep_has_37_inputs(self):
        cases = benchmark_cases()
        assert len(cases) == 37
        by_benchmark = {}
        for case in cases:
            by_benchmark.setdefault(case.benchmark, []).append(case)
        assert len(by_benchmark["blackscholes"]) == 12
        assert len(by_benchmark["jacobi"]) == 3
        assert len(by_benchmark["sparselu"]) == 10
        assert len(by_benchmark["stream-barr"]) == 6
        assert len(by_benchmark["stream-deps"]) == 6

    def test_quick_sweep_is_a_subset(self):
        quick = benchmark_cases(quick=True)
        assert 0 < len(quick) < 37

    def test_cases_build_valid_programs(self):
        for case in benchmark_cases(quick=True, scale=0.25):
            program = case.build()
            assert program.num_tasks > 0

    def test_scale_must_be_positive(self):
        with pytest.raises(EvaluationError):
            benchmark_cases(scale=0)


class TestExperimentRunners:
    @pytest.fixture(scope="class")
    def quick_runs(self):
        config = SimConfig().with_cores(4)
        cases = benchmark_cases(quick=True, scale=0.2)[:4]
        with ExperimentEngine(config=config) as engine:
            return engine.run("figure9", cases=cases, num_workers=4)

    def test_figure9_runs_every_runtime(self, quick_runs):
        assert quick_runs
        for run in quick_runs:
            assert set(run.results) == {"serial", "nanos-sw", "nanos-rv",
                                        "phentos"}
            assert run.speedup_vs_serial("phentos") > 0

    def test_figure8_points_derived_from_runs(self, quick_runs):
        points = figure8_granularity(quick_runs)
        assert len(points) == 3 * len(quick_runs)
        for point in points:
            assert point.task_size_cycles > 0
            assert point.speedup_vs_serial > 0

    def test_figure10_bounds_mostly_hold(self, quick_runs):
        config = SimConfig().with_cores(4)
        bounds = figure6_mtt_bounds(config, task_sizes=[1e2, 1e3, 1e4, 1e5, 1e7],
                                    num_tasks=40)
        comparisons = figure10_bounds_vs_measured(quick_runs, config, bounds)
        for platform in ("phentos", "nanos-rv"):
            comparison = comparisons[platform]
            # Nothing beats the machine and at most one scheduling-bound
            # point sits above the serialised analytic bound (pipelining).
            assert all(speedup <= 4.0 for _, speedup in comparison.measured)
            assert len(comparison.violations(tolerance=1.3)) <= 1

    def test_headline_summary_statistics(self, quick_runs):
        summary = headline_summary(quick_runs)
        assert summary.num_cases == len(quick_runs)
        assert summary.geomean_phentos_vs_sw > summary.geomean_nanos_rv_vs_sw
        assert summary.geomean_nanos_rv_vs_sw > 1.0
        with pytest.raises(EvaluationError):
            headline_summary([])

    def test_figure6_orders_platforms_by_overhead(self, config):
        curves = figure6_mtt_bounds(config, task_sizes=[2_000.0], num_tasks=30)
        at_2k = {name: curve[0].max_speedup for name, curve in curves.items()}
        assert at_2k["phentos"] > at_2k["nanos-rv"]
        assert at_2k["phentos"] > at_2k["nanos-sw"]
        assert at_2k["nanos-rv"] >= at_2k["nanos-sw"]


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(["x", "y"], [[1, 2]])
        assert csv_text.splitlines() == ["x,y", "1,2"]

    def test_reports_render(self, config):
        entries = table2_resources(config)
        assert "SSystem" in resources_report(entries)
        curves = {"phentos": bound_curve(300, 8, [1e2, 1e3])}
        assert "phentos" in bounds_report(curves, sample_sizes=(1e2, 1e3))
        measurement = OverheadMeasurement("phentos", "Task-Free 1 dep", 200, 185)
        assert "phentos" in overhead_report([measurement])
