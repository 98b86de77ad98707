#!/usr/bin/env python3
"""Quickstart: run one task-parallel program on every runtime model.

The example builds the blackscholes workload (4K options, 32-option blocks),
executes it on the serial baseline and on the four task-scheduling runtimes
the paper evaluates — Nanos-SW (software-only), Nanos-RV and Phentos (both
using the custom Picos instructions) and Nanos-AXI (the Picos++/MMIO
baseline) — and prints the elapsed cycles and speedups.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SimConfig, registry
from repro.apps import blackscholes_program
from repro.eval import format_table


def main() -> None:
    config = SimConfig()  # the paper's 8-core, 80 MHz prototype
    program = blackscholes_program("4K", block_size=32)
    print(f"Workload: {program.name} — {program.num_tasks} tasks, "
          f"mean task size {program.mean_task_cycles:.0f} cycles\n")

    serial = registry.runtime("serial").cls(config).run(program)
    rows = [["serial", 1, serial.elapsed_cycles, "1.00x",
             f"{serial.serial_cycles / 80_000:.2f} ms"]]
    for name in ("nanos-sw", "nanos-axi", "nanos-rv", "phentos"):
        runtime = registry.runtime(name).cls(config)
        result = runtime.run(program)
        rows.append([
            name,
            result.num_cores,
            result.elapsed_cycles,
            f"{serial.elapsed_cycles / result.elapsed_cycles:.2f}x",
            f"{result.elapsed_cycles / 80_000:.2f} ms",
        ])
    print(format_table(
        ["runtime", "cores", "elapsed (cycles)", "speedup vs serial",
         "time @ 80 MHz"],
        rows,
    ))
    print("\nExpected shape: Phentos > Nanos-RV > Nanos-AXI > Nanos-SW, with "
          "Nanos-SW below 1x at this granularity.")


if __name__ == "__main__":
    main()
