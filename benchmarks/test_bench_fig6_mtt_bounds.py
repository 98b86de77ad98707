"""Figure 6 — MTT-derived maximum speedup bounds for an 8-core system.

Regenerates the four bound curves of Figure 6 from the measured Task-Chain
(1 dependence) lifetime overheads via Equation 1, capped at the core count.
The paper's qualitative claims are asserted: at ~1000-cycle tasks Phentos'
bound is already a few x while every other platform is below 1x, and at
~10000-cycle tasks Phentos has saturated at 8x while the others remain
under 1x.
"""

from __future__ import annotations

from repro.eval import bounds_report, default_task_sizes, figure6_mtt_bounds

from bench_support import quick_mode, write_result

_SAMPLE_SIZES = (1e2, 1e3, 1e4, 1e5)


def test_figure6_mtt_speedup_bounds(benchmark, sim_config):
    num_tasks = 50 if quick_mode() else 120
    curves = {}

    def run():
        curves.clear()
        curves.update(figure6_mtt_bounds(
            sim_config, task_sizes=default_task_sizes(2, 5, 8),
            num_tasks=num_tasks,
        ))
        return curves

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = bounds_report(curves, sample_sizes=_SAMPLE_SIZES)
    print("\nFigure 6 — MTT-derived maximum speedup (8 cores)\n" + report)
    write_result("figure6_mtt_bounds.txt", report)

    def bound_at(platform, size):
        curve = curves[platform]
        return min(curve, key=lambda p: abs(p.task_size_cycles - size)).max_speedup

    # Around 1000-cycle tasks: Phentos ~3x, everyone else far below 1x.
    assert 1.5 < bound_at("phentos", 1e3) <= 8.0
    assert bound_at("nanos-rv", 1e3) < 0.2
    assert bound_at("nanos-axi", 1e3) < 0.2
    assert bound_at("nanos-sw", 1e3) < 0.1
    # Around 10000-cycle tasks: Phentos saturated at 8x, the others < 1x.
    assert bound_at("phentos", 1e4) == 8.0
    assert bound_at("nanos-rv", 1e4) < 1.0
    assert bound_at("nanos-sw", 1e4) < 0.5
    # Ordering of the curves matches the ordering of the overheads.
    for size in _SAMPLE_SIZES:
        assert bound_at("phentos", size) >= bound_at("nanos-rv", size)
        assert bound_at("nanos-rv", size) >= bound_at("nanos-sw", size) - 1e-9
