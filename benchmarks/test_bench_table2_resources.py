"""Table II — FPGA resource usage breakdown of the prototype SoC.

Regenerates the resource table from the analytic area model and checks the
paper's headline area claim: the whole task-scheduling subsystem (Picos,
Picos Manager and the eight Delegates) occupies less than 2% of the SoC.
"""

from __future__ import annotations

from repro.eval import resources_report, table2_resources

from bench_support import write_result


def test_table2_resource_breakdown(benchmark, sim_config):
    entries = benchmark.pedantic(lambda: table2_resources(sim_config),
                                 rounds=1, iterations=1)
    report = resources_report(entries)
    print("\nTable II — resource usage breakdown (FPGA cells)\n" + report)
    write_result("table2_resources.txt", report)

    by_module = {entry.module: entry for entry in entries}
    assert set(by_module) == {"top", "Core", "fpuOpt", "dcache", "icache",
                              "SSystem"}
    top = by_module["top"]
    core = by_module["Core"]
    ssystem = by_module["SSystem"]
    # Same orderings and magnitudes as the paper's table.
    assert ssystem.fraction_of_top < 0.02
    assert 0.10 < core.fraction_of_top < 0.14
    assert by_module["fpuOpt"].cells < core.cells
    assert by_module["icache"].cells < by_module["dcache"].cells
    assert 300_000 < top.cells < 450_000
    assert 5_000 < ssystem.cells < 9_000
