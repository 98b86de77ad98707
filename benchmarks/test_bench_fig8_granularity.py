"""Figure 8 — speedups as a function of mean task granularity.

Re-expresses the Figure 9 sweep as the three panels of Figure 8: speedup of
each platform over (a) the serial execution, (b) Nanos-SW and (c) Nanos-RV,
plotted against the mean task size of the input.  The asserted shape is the
paper's: the advantage of the hardware-assisted runtimes is largest for
fine-grained tasks and decays as granularity grows.
"""

from __future__ import annotations

from repro.common.stats import geometric_mean
from repro.eval import figure8_granularity, granularity_report

from bench_support import write_result


def test_figure8_speedup_vs_granularity(benchmark, benchmark_sweep):
    points = benchmark.pedantic(
        lambda: figure8_granularity(benchmark_sweep), rounds=1, iterations=1
    )
    report = granularity_report(points)
    print("\nFigure 8 — speedup versus mean task size\n" + report)
    write_result("figure8_granularity.txt", report)

    phentos = [p for p in points if p.runtime == "phentos"]
    fine = [p for p in phentos if p.task_size_cycles < 3_000]
    coarse = [p for p in phentos if p.task_size_cycles > 1e5]
    assert fine and coarse

    # Panel (b): Phentos' advantage over Nanos-SW shrinks with granularity.
    fine_gain = geometric_mean([p.speedup_vs_nanos_sw for p in fine])
    coarse_gain = geometric_mean([p.speedup_vs_nanos_sw for p in coarse])
    assert fine_gain > 10.0
    assert coarse_gain < 3.0
    assert fine_gain > 3 * coarse_gain

    # Panel (c): the same holds against Nanos-RV, with a smaller gap.
    fine_vs_rv = geometric_mean([p.speedup_vs_nanos_rv for p in fine])
    coarse_vs_rv = geometric_mean([p.speedup_vs_nanos_rv for p in coarse])
    assert fine_vs_rv > coarse_vs_rv

    # Panel (a): speedups over serial never exceed the core count and only
    # coarse tasks let the software runtimes approach it.
    assert all(p.speedup_vs_serial <= 8.0 for p in points)
    nanos_sw_fine = [p for p in points
                     if p.runtime == "nanos-sw" and p.task_size_cycles < 3_000]
    assert all(p.speedup_vs_serial < 1.0 for p in nanos_sw_fine)
