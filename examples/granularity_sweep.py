#!/usr/bin/env python3
"""Granularity sweep: where does each runtime stop paying off?

The paper's central argument is that the maximum task throughput (MTT) of a
scheduling runtime bounds the task granularity it can exploit: the higher
the per-task scheduling overhead, the coarser the tasks must be before the
eight cores are kept busy.  This example sweeps the task size of a uniform
independent-task workload from ~100 cycles to ~1M cycles and reports the
speedup of each runtime over serial execution, alongside the analytic
Equation-1 bound derived from the measured Task-Chain overhead.

Run with::

    python examples/granularity_sweep.py [--quick]
"""

from __future__ import annotations

import argparse

from repro import SimConfig, registry
from repro.apps import task_free_program
from repro.eval import format_table, measure_lifetime_overhead, speedup_bound


def sweep(task_sizes, num_tasks, config) -> None:
    runtimes = ("nanos-sw", "nanos-rv", "phentos")
    bounds = {
        name: measure_lifetime_overhead(name, "task-chain", 1,
                                        num_tasks=60, config=config)
        for name in runtimes
    }
    print("Measured Task-Chain (1 dep) lifetime overheads: "
          + ", ".join(f"{name}={cycles:.0f}cy" for name, cycles in bounds.items())
          + "\n")

    headers = ["task size (cy)"]
    for name in runtimes:
        headers.extend([f"{name}", f"{name} bound"])
    rows = []
    for task_size in task_sizes:
        program = task_free_program(num_tasks=num_tasks, num_dependences=1,
                                    payload_cycles=task_size,
                                    name=f"uniform-{task_size}")
        serial = registry.runtime("serial").cls(config).run(program)
        row = [task_size]
        for name in runtimes:
            result = registry.runtime(name).cls(config).run(program)
            measured = serial.elapsed_cycles / result.elapsed_cycles
            bound = speedup_bound(task_size, bounds[name],
                                  config.machine.num_cores)
            row.extend([f"{measured:.2f}x", f"{bound:.2f}x"])
        rows.append(row)
    print(format_table(headers, rows))
    print("\nReading the table: Phentos already profits from ~1000-cycle "
          "tasks, Nanos-RV needs tens of thousands of cycles, Nanos-SW "
          "hundreds of thousands — the crossover structure of Figures 6/10.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer sizes and tasks (for smoke testing)")
    args = parser.parse_args()
    config = SimConfig()
    if args.quick:
        sizes = [500, 5_000, 50_000]
        num_tasks = 48
    else:
        sizes = [200, 1_000, 5_000, 20_000, 100_000, 500_000]
        num_tasks = 96
    sweep(sizes, num_tasks, config)


if __name__ == "__main__":
    main()
