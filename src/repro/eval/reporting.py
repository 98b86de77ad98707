"""Plain-text and CSV rendering of the experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting in one place so the benchmarks, the examples and
the CLI all show identical tables.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.eval.experiments import (
    BenchmarkRun,
    BoundComparison,
    GranularityPoint,
    HeadlineSummary,
)
from repro.eval.mtt import MttBound
from repro.eval.overhead import OverheadMeasurement
from repro.eval.resources import ResourceEntry
from repro.eval.scaling import ScalingCurve, scaling_geomeans

__all__ = [
    "format_table",
    "overhead_report",
    "bounds_report",
    "benchmarks_report",
    "granularity_report",
    "comparisons_report",
    "resources_report",
    "headline_report",
    "scaling_report",
    "rows_to_csv",
]


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned, pipe-separated text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in materialised:
        lines.append(" | ".join(cell.ljust(widths[i])
                                for i, cell in enumerate(row)))
    return "\n".join(lines)


def rows_to_csv(headers: Sequence[str],
                rows: Iterable[Sequence[object]]) -> str:
    """Render the same rows as CSV text (for archiving results)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def overhead_report(measurements: Sequence[OverheadMeasurement]) -> str:
    """Figure 7: lifetime overhead per task, measured vs paper."""
    rows = []
    for measurement in measurements:
        paper = measurement.paper_cycles_per_task
        ratio = measurement.ratio_to_paper
        rows.append([
            measurement.platform,
            measurement.workload,
            f"{measurement.cycles_per_task:.0f}",
            f"{paper}" if paper else "-",
            f"{ratio:.2f}x" if ratio else "-",
        ])
    return format_table(
        ["platform", "workload", "measured cycles/task", "paper cycles/task",
         "measured/paper"],
        rows,
    )


def bounds_report(curves: Mapping[str, Sequence[MttBound]],
                  sample_sizes: Sequence[float] = (1e2, 1e3, 1e4, 1e5)) -> str:
    """Figure 6: maximum speedup bound at a few representative task sizes."""
    headers = ["platform"] + [f"{size:.0e} cy" for size in sample_sizes]
    rows = []
    for platform, curve in curves.items():
        row = [platform]
        for size in sample_sizes:
            closest = min(curve, key=lambda p: abs(p.task_size_cycles - size))
            row.append(f"{closest.max_speedup:.2f}")
        rows.append(row)
    return format_table(headers, rows)


#: Column titles of the well-known runtimes (registry names otherwise).
_RUNTIME_DISPLAY = {
    "serial": "serial",
    "nanos-sw": "Nanos-SW",
    "nanos-rv": "Nanos-RV",
    "nanos-axi": "Nanos-AXI",
    "phentos": "Phentos",
}


def benchmarks_report(runs: Sequence[BenchmarkRun],
                      runtimes: Optional[Sequence[str]] = None) -> str:
    """Figure 9: speedup over serial per benchmark input and runtime.

    Columns follow the runtimes actually present in the runs (minus the
    serial baseline), optionally narrowed to ``runtimes``, so
    runtime-filtered studies and plugin runtimes render without edits
    here; the default sweep keeps the paper's Nanos-SW / Nanos-RV /
    Phentos columns byte-for-byte.
    """
    if not runs:
        return "no benchmark runs"
    names = [name for name in runs[0].results if name != "serial"]
    if runtimes is not None:
        names = [name for name in names if name in set(runtimes)] or names
    rows = []
    for run in runs:
        rows.append([
            run.case.benchmark,
            run.case.label,
            f"{run.mean_task_cycles:.0f}",
        ] + [f"{run.speedup_vs_serial(name):.2f}" for name in names])
    return format_table(
        ["benchmark", "input", "mean task (cy)"]
        + [_RUNTIME_DISPLAY.get(name, name) for name in names],
        rows,
    )


def granularity_report(points: Sequence[GranularityPoint],
                       runtime: Optional[str] = None) -> str:
    """Figure 8: speedups as a function of mean task size."""
    rows = []
    for point in points:
        if runtime is not None and point.runtime != runtime:
            continue
        rows.append([
            point.runtime,
            f"{point.benchmark}/{point.label}",
            f"{point.task_size_cycles:.0f}",
            f"{point.speedup_vs_serial:.2f}",
            f"{point.speedup_vs_nanos_sw:.2f}",
            f"{point.speedup_vs_nanos_rv:.2f}",
        ])
    return format_table(
        ["runtime", "input", "task size (cy)", "vs serial", "vs Nanos-SW",
         "vs Nanos-RV"],
        rows,
    )


def comparisons_report(comparisons: Mapping[str, BoundComparison],
                       tolerance: float = 1.15) -> str:
    """Figure 10: best measured speedup per platform versus its MTT bound."""
    rows = []
    for platform, comparison in comparisons.items():
        best = max(speedup for _, speedup in comparison.measured)
        rows.append([platform, f"{best:.2f}x",
                     len(comparison.violations(tolerance=tolerance))])
    return format_table(
        ["platform", "best measured speedup",
         "points above the analytic bound"],
        rows,
    )


def resources_report(entries: Sequence[ResourceEntry]) -> str:
    """Table II: FPGA resource usage breakdown."""
    rows = [
        [entry.module, f"{entry.cells / 1000:.0f}K",
         f"{entry.fraction_of_top * 100:.2f}%", entry.description]
        for entry in entries
    ]
    return format_table(["Module", "Usage", "Fraction", "Description"], rows)


def scaling_report(curves: Sequence[ScalingCurve],
                   runtime: Optional[str] = None) -> str:
    """Scaling sweep: speedup per core count, saturation and MTT cap.

    One row per (runtime, input) curve with a column per simulated core
    count (``N* marks points at ≥95% of the MTT bound``), the measured
    saturation core count, and the core count where the analytic bound
    flattens; a geometric-mean row closes each runtime's block.
    """
    if not curves:
        return "no scaling curves"
    selected = [curve for curve in curves
                if runtime is None or curve.runtime == runtime]
    counts = [point.cores for point in selected[0].points] if selected else []
    headers = (["runtime", "input", "task (cy)"]
               + [f"{count}c" for count in counts]
               + ["saturates", "MTT cap"])
    geomeans = scaling_geomeans(selected) if selected else {}
    grouped: Dict[str, List[ScalingCurve]] = {}
    for curve in selected:
        grouped.setdefault(curve.runtime, []).append(curve)
    rows = []
    for name, block in grouped.items():
        for curve in block:
            cells = []
            for point in curve.points:
                marker = ("*" if point.speedup_vs_serial
                          >= 0.95 * point.mtt_bound else "")
                cells.append(f"{point.speedup_vs_serial:.2f}{marker}")
            rows.append(
                [curve.runtime, curve.case_key,
                 f"{curve.mean_task_cycles:.0f}"]
                + cells
                + [f"{curve.measured_saturation_cores()}c",
                   f"{curve.bound_saturation_cores:.1f}c"]
            )
        rows.append(_scaling_geomean_row(name, geomeans, counts))
    return format_table(headers, rows)


def _scaling_geomean_row(runtime: str, geomeans, counts) -> List[str]:
    per_cores = geomeans.get(runtime, {})
    return ([runtime, "geomean", "-"]
            + [f"{per_cores[count]:.2f}" if count in per_cores else "-"
               for count in counts]
            + ["-", "-"])


def headline_report(summary: HeadlineSummary) -> str:
    """The abstract/conclusion numbers."""
    rows = [
        ["geomean Nanos-RV vs Nanos-SW", f"{summary.geomean_nanos_rv_vs_sw:.2f}x",
         "2.13x"],
        ["geomean Phentos vs Nanos-SW", f"{summary.geomean_phentos_vs_sw:.2f}x",
         "13.19x"],
        ["geomean Phentos vs Nanos-RV", f"{summary.geomean_phentos_vs_rv:.2f}x",
         "6.20x"],
        ["max speedup vs serial (Nanos-RV)",
         f"{summary.max_speedup_vs_serial_nanos_rv:.2f}x", "5.62x"],
        ["max speedup vs serial (Phentos)",
         f"{summary.max_speedup_vs_serial_phentos:.2f}x", "5.72x"],
        ["max Phentos vs Nanos-SW", f"{summary.max_speedup_phentos_vs_sw:.2f}x",
         "146.01x"],
        ["Nanos-RV wins vs Nanos-SW",
         f"{summary.nanos_rv_wins_vs_sw}/{summary.num_cases}", "34/37"],
        ["Phentos wins vs Nanos-SW",
         f"{summary.phentos_wins_vs_sw}/{summary.num_cases}", "36/37"],
        ["Phentos wins vs Nanos-RV",
         f"{summary.phentos_wins_vs_rv}/{summary.num_cases}", "34/37"],
        ["Phentos regressions vs Nanos-SW (>3%)",
         f"{summary.phentos_regressions_vs_sw}/{summary.num_cases}", "1/37"],
    ]
    return format_table(["metric", "measured", "paper"], rows)
