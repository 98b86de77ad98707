"""Table I — per-instruction behaviour and cost of the ISA extension.

Table I of the paper defines the seven custom task-scheduling instructions.
This benchmark measures the simulated cycle cost of each instruction on the
integrated SoC (issue + delegate + manager handshake), confirming that the
whole software-visible path is a handful of cycles — the property that
separates the tightly-integrated design from the MMIO/AXI baseline, whose
equivalent interactions cost hundreds of cycles each.
"""

from __future__ import annotations

from repro.common.config import SimConfig
from repro.cpu.rocc import RoccCommand, TaskSchedulingFunct
from repro.cpu.soc import SoC
from repro.eval.reporting import format_table

from bench_support import write_result


def _measure_instruction_cost(funct: TaskSchedulingFunct) -> int:
    """Simulated cycles from issue to response for one instruction."""
    soc = SoC(SimConfig().with_cores(1))
    command = RoccCommand(funct, rs1_value=3 if funct.uses_rs1 else 0)

    def program():
        yield from soc.core(0).rocc(command)

    worker = soc.spawn_worker(0, program(), name="instr")
    soc.run([worker])
    return soc.now


def test_table1_instruction_costs(benchmark):
    rows = []

    def run():
        rows.clear()
        for funct in TaskSchedulingFunct:
            cycles = _measure_instruction_cost(funct)
            rows.append([funct.name.title().replace("_", " "),
                         "blocking" if funct.is_blocking else "non-blocking",
                         cycles])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(["Instruction", "Semantics", "Cycles (integrated)"],
                         rows)
    print("\nTable I — custom task-scheduling instructions\n" + table)
    write_result("table1_instructions.txt", table)
    assert len(rows) == 7
    # Every instruction completes within a few cycles on the RoCC path.
    assert all(cycles <= 20 for _, _, cycles in rows)
