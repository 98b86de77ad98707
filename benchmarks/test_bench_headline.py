"""Headline numbers — the geometric-mean and maximum speedups of the paper.

From the Figure 9 sweep, computes the statistics quoted in the abstract and
conclusion: Nanos-RV is ~2.13x faster than Nanos-SW on average (geometric
mean), Phentos ~13.19x; maximum speedups over serial reach ~5.6–5.7x on
eight cores; Phentos regresses on at most one input.  The asserted ranges
are deliberately wide — the substrate is a simulator, not the authors'
FPGA — but the ordering and rough factors must hold.
"""

from __future__ import annotations

from repro.eval import headline_report, headline_summary

from bench_support import quick_mode, write_result


def test_headline_summary(benchmark, benchmark_sweep):
    summary = benchmark.pedantic(lambda: headline_summary(benchmark_sweep),
                                 rounds=1, iterations=1)
    report = headline_report(summary)
    print("\nHeadline summary (paper abstract / conclusion)\n" + report)
    write_result("headline_summary.txt", report)

    # Nanos-RV vs Nanos-SW: paper reports 2.13x geometric mean.
    assert 1.5 < summary.geomean_nanos_rv_vs_sw < 3.5
    # Phentos vs Nanos-SW: paper reports 13.19x; the quick sweep
    # over-weights fine-grained inputs, so allow a wider band there.
    upper = 60.0 if quick_mode() else 40.0
    assert 6.0 < summary.geomean_phentos_vs_sw < upper
    # Phentos vs Nanos-RV: paper reports 6.20x.
    assert 3.0 < summary.geomean_phentos_vs_rv < 25.0
    # Maximum speedups over serial on eight cores (paper: 5.62x / 5.72x).
    assert 3.5 < summary.max_speedup_vs_serial_nanos_rv <= 8.0
    assert 4.5 < summary.max_speedup_vs_serial_phentos <= 8.0
    assert summary.max_speedup_vs_serial_phentos >= \
        summary.max_speedup_vs_serial_nanos_rv
    # Fine-grained inputs give Phentos a >100x edge somewhere (paper: 146x).
    assert summary.max_speedup_phentos_vs_sw > 50.0
    # Win/regression counts mirror the paper's 34..36 out of 37.
    assert summary.nanos_rv_wins_vs_sw >= summary.num_cases - 3
    assert summary.phentos_wins_vs_sw >= summary.num_cases - 1
    assert summary.phentos_regressions_vs_sw <= 1
