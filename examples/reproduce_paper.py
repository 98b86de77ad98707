#!/usr/bin/env python3
"""Reproduce every table and figure of the paper's evaluation in one go.

Runs, in order: the Figure 7 overhead matrix, the Figure 6 MTT bounds, the
Figure 9 benchmark sweep (with Figures 8 and 10 and the headline summary
derived from it) and the Table II resource breakdown, printing each in the
same rows/series the paper reports.  Use ``--quick`` for a reduced sweep,
``--jobs N`` to fan the sweep out over N host processes and ``--cache-dir``
to serve repeated runs from the result cache.

Run with::

    python examples/reproduce_paper.py --quick --jobs 8

The expensive experiments (the Figure 7 matrix, the Figure 9 sweep, the
Table II model) run through :class:`repro.harness.ExperimentEngine` — the
same execution path as ``python -m repro run`` — so they parallelise and
cache; the derived figures are then computed from the same runs, with the
Figure 6 curves deliberately reused for Figure 10's overlay.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro import SimConfig
from repro.eval import (
    benchmarks_report,
    bounds_report,
    comparisons_report,
    default_task_sizes,
    figure6_mtt_bounds,
    figure8_granularity,
    figure10_bounds_vs_measured,
    granularity_report,
    headline_report,
    headline_summary,
    overhead_report,
    resources_report,
)
from repro.harness import ExperimentEngine


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced benchmark sweep and fewer tasks")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="host processes for the benchmark sweep")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="serve repeated runs from this result cache")
    args = parser.parse_args()
    config = SimConfig()
    engine = ExperimentEngine(config=config, jobs=args.jobs,
                              cache_dir=args.cache_dir, progress=True)
    started = time.time()
    num_tasks = 60 if args.quick else 120

    banner("Figure 7 — lifetime Task Scheduling overhead (cycles per task)")
    print(overhead_report(engine.run("figure7", num_tasks=num_tasks)))

    banner("Figure 6 — MTT-derived maximum speedup bounds (8 cores)")
    curves = figure6_mtt_bounds(config, task_sizes=default_task_sizes(2, 5, 8),
                                num_tasks=num_tasks)
    print(bounds_report(curves))

    banner("Figure 9 — benchmark sweep (speedup over serial)")
    runs = engine.run("figure9", quick=args.quick)
    print(benchmarks_report(runs))

    banner("Figure 8 — speedup versus task granularity")
    print(granularity_report(figure8_granularity(runs), runtime="phentos"))

    banner("Figure 10 — measured speedups versus MTT bounds")
    comparisons = figure10_bounds_vs_measured(runs, config, curves)
    print(comparisons_report(comparisons, tolerance=1.15))

    banner("Table II — FPGA resource usage breakdown")
    print(resources_report(engine.run("table2")))

    banner("Headline summary (abstract / conclusion numbers)")
    print(headline_report(headline_summary(runs)))

    stats = engine.cache_stats
    if stats.lookups:
        print(f"\nCache: {stats.hits} hit(s), {stats.misses} miss(es)")
    print(f"Total host time: {time.time() - started:.1f} s")


if __name__ == "__main__":
    main()
