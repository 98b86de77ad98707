"""Figure 7 — lifetime Task Scheduling overhead per platform and workload.

Regenerates the Figure 7 matrix: the mean per-task scheduling overhead (in
Rocket-Chip cycles) of Phentos, Nanos-RV, Nanos-AXI and Nanos-SW on the
Task-Free and Task-Chain micro-benchmarks with 1 and 15 dependences.  The
measured values are printed next to the paper's numbers; the expected shape
is Phentos a few hundred cycles, Nanos-RV ~12–13k, Nanos-AXI ~13–19k and
Nanos-SW ~25k–99k growing with the dependence count.
"""

from __future__ import annotations

from repro.eval import figure7_overhead, overhead_report

from bench_support import quick_mode, write_result


def test_figure7_lifetime_overhead(benchmark, sim_config):
    num_tasks = 60 if quick_mode() else 120
    measurements = []

    def run():
        measurements.clear()
        measurements.extend(figure7_overhead(sim_config, num_tasks=num_tasks))
        return measurements

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = overhead_report(measurements)
    print("\nFigure 7 — lifetime Task Scheduling overhead (cycles per task)\n"
          + report)
    write_result("figure7_overhead.txt", report)

    by_key = {(m.platform, m.workload): m.cycles_per_task
              for m in measurements}
    # Shape checks mirroring the paper's findings.
    assert by_key[("phentos", "Task-Free 1 dep")] < 1_000
    assert by_key[("nanos-rv", "Task-Free 1 dep")] > 8_000
    assert by_key[("nanos-sw", "Task-Free 15 deps")] > \
        2 * by_key[("nanos-sw", "Task-Free 1 dep")]
    # Nanos-RV reduces the Nanos-SW overhead by a few times; Phentos by two
    # orders of magnitude (the paper reports up to 7.53x and 308x).
    assert 1.5 < (by_key[("nanos-sw", "Task-Chain 1 dep")]
                  / by_key[("nanos-rv", "Task-Chain 1 dep")]) < 10
    assert (by_key[("nanos-sw", "Task-Free 15 deps")]
            / by_key[("phentos", "Task-Free 15 deps")]) > 100
    # The AXI baseline always sits above the tightly-integrated Nanos-RV.
    for workload in ("Task-Free 1 dep", "Task-Chain 15 deps"):
        assert by_key[("nanos-axi", workload)] > by_key[("nanos-rv", workload)]
