"""Figure 9 — normalised benchmark performance for all inputs and runtimes.

Regenerates the 37-input sweep of Figure 9: blackscholes (12 inputs), jacobi
(3), sparseLU (10), stream-barr (6) and stream-deps (6), each executed by
the serial baseline, Nanos-SW, Nanos-RV and Phentos on eight cores.  The
printed rows are the speedups over the serial execution of the same input —
the same normalisation the paper plots.
"""

from __future__ import annotations

from repro.eval import benchmarks_report

from bench_support import quick_mode, write_result


def test_figure9_benchmark_sweep(benchmark, benchmark_sweep):
    runs = benchmark.pedantic(lambda: benchmark_sweep, rounds=1, iterations=1)
    report = benchmarks_report(runs)
    print("\nFigure 9 — speedup over serial per benchmark input\n" + report)
    write_result("figure9_benchmarks.txt", report)

    expected_cases = 9 if quick_mode() else 37
    assert len(runs) == expected_cases

    for run in runs:
        speedup_sw = run.speedup_vs_serial("nanos-sw")
        speedup_rv = run.speedup_vs_serial("nanos-rv")
        speedup_ph = run.speedup_vs_serial("phentos")
        # Nobody exceeds the core count.
        assert max(speedup_sw, speedup_rv, speedup_ph) <= 8.0
        # Phentos is at worst marginally slower than Nanos-SW on any input
        # (the paper reports a single <=3% regression out of 37).
        assert speedup_ph >= 0.9 * speedup_sw

    # Coarse-grained inputs behave like the paper: every runtime gets decent
    # speedups and the gap between them narrows.
    coarse = [run for run in runs if run.mean_task_cycles > 2e5]
    assert coarse, "the sweep must include coarse-grained inputs"
    for run in coarse:
        assert run.speedup_vs_serial("nanos-sw") > 1.5
        assert run.speedup_over("phentos", "nanos-sw") < 2.0
    # Fine-grained inputs: only Phentos keeps a usable fraction of the
    # machine; Nanos variants collapse below serial speed.
    fine = [run for run in runs if run.mean_task_cycles < 2_000]
    assert fine, "the sweep must include fine-grained inputs"
    assert any(run.speedup_vs_serial("phentos") > 3.0 for run in fine)
    assert all(run.speedup_vs_serial("nanos-sw") < 1.0 for run in fine)
