"""Figure 10 — measured speedups against the MTT-derived bounds.

Overlays the measured speedup of every benchmark run (Figure 9 sweep) on the
MTT bound curve of its platform, per Figure 10 of the paper.  The bound is
not treated as strict: a point "violates" it only when it sits more than 15%
above the Equation-1 curve (ignoring points below 1x).  Per platform the
test asserts that

* no measured speedup exceeds the 8-core count,
* at most ``max(1, points // 4)`` points violate the bound, and
* no point with a mean task size above 1e5 cycles violates it.

Across platforms it asserts that the best Phentos point exceeds 4.5x and
beats the best Nanos-SW point.
"""

from __future__ import annotations

from repro.eval import (
    default_task_sizes,
    figure6_mtt_bounds,
    figure10_bounds_vs_measured,
    format_table,
)

from conftest import quick_mode, write_result


def test_figure10_measured_versus_bounds(benchmark, sim_config,
                                         benchmark_sweep):
    num_tasks = 50 if quick_mode() else 120
    comparisons = {}

    def run():
        bounds = figure6_mtt_bounds(
            sim_config, task_sizes=default_task_sizes(2, 7, 6),
            num_tasks=num_tasks,
        )
        comparisons.clear()
        comparisons.update(
            figure10_bounds_vs_measured(benchmark_sweep, sim_config, bounds)
        )
        return comparisons

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for platform, comparison in comparisons.items():
        top = max(speedup for _, speedup in comparison.measured)
        violations = comparison.violations(tolerance=1.15)
        rows.append([platform, f"{top:.2f}", len(comparison.measured),
                     len(violations)])
    report = format_table(
        ["platform", "best measured speedup", "points", "bound violations"],
        rows,
    )
    print("\nFigure 10 — measured speedups versus MTT bounds\n" + report)
    write_result("figure10_bounds_vs_measured.txt", report)

    # The bound is derived from the fully-serialised Task-Chain lifetime
    # overhead; a real run pipelines submission/fetch/retire across cores, so
    # a small fraction of scheduling-bound points may sit slightly above the
    # analytic curve (they do in the paper's Figure 10 as well).  The strong
    # claims checked here: nothing exceeds the core count, the vast majority
    # of points respect the bound, and the saturated (coarse-task) region is
    # never exceeded.
    for comparison in comparisons.values():
        assert all(speedup <= 8.0 for _, speedup in comparison.measured)
        violating = comparison.violations(tolerance=1.15)
        assert len(violating) <= max(1, len(comparison.measured) // 4)
        coarse_violations = [v for v in violating if v[0] > 1e5]
        assert coarse_violations == []
    # Phentos gets close to saturation on coarse inputs; Nanos-SW never does.
    phentos_best = max(s for _, s in comparisons["phentos"].measured)
    nanos_sw_best = max(s for _, s in comparisons["nanos-sw"].measured)
    assert phentos_best > 4.5
    assert nanos_sw_best < phentos_best
