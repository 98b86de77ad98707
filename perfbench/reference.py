"""Reference tables the benchmark checks simulated results against.

The committed ``benchmarks/results/*.txt`` tables are pipe-separated text
written by :func:`repro.eval.reporting.format_table`: a header row, a
``---+---`` rule, then one row per entry.  The benchmark re-formats each
simulated number exactly as the table does and compares strings, so a
result passes only when it would regenerate the committed table.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

FIGURE9_TABLE = Path("benchmarks/results/figure9_benchmarks.txt")
FIGURE7_TABLE = Path("benchmarks/results/figure7_overhead.txt")

#: Figure 9 column per compared runtime.
FIGURE9_COLUMNS = {"nanos-sw": "Nanos-SW", "nanos-rv": "Nanos-RV",
                   "phentos": "Phentos"}


class ReferenceError(ValueError):
    """A reference table is missing, malformed or lacks a row."""


def parse_table(text: str) -> List[Dict[str, str]]:
    """Rows of a ``format_table`` table as ``{header: cell}`` dicts."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or set(lines[1].replace("+", "").strip()) != {"-"}:
        raise ReferenceError("not a pipe table: missing header or rule")
    headers = [cell.strip() for cell in lines[0].split("|")]
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) != len(headers):
            raise ReferenceError(
                f"line {number}: {len(cells)} cells, expected {len(headers)}")
        rows.append(dict(zip(headers, cells)))
    return rows


def load_figure9(root: Path) -> Dict[Tuple[str, str], str]:
    """``(case key, runtime) -> speedup cell`` from the Figure 9 table."""
    table = {}
    for row in parse_table((root / FIGURE9_TABLE).read_text()):
        key = f"{row['benchmark']}/{row['input']}"
        for runtime, column in FIGURE9_COLUMNS.items():
            table[(key, runtime)] = row[column]
    return table


def load_figure7(root: Path) -> Dict[Tuple[str, str], str]:
    """``(platform, workload) -> measured cycles/task cell`` (Figure 7)."""
    return {(row["platform"], row["workload"]): row["measured cycles/task"]
            for row in parse_table((root / FIGURE7_TABLE).read_text())}


def expect(table: Mapping[Tuple[str, str], str], key: Tuple[str, str],
           measured: str) -> None:
    """Raise :class:`ReferenceError` unless ``measured`` is the table cell."""
    if key not in table:
        raise ReferenceError(f"no reference row for {key}")
    if table[key] != measured:
        raise ReferenceError(
            f"{key}: measured {measured}, reference {table[key]}")


def paper_error(cycles: Mapping[Tuple[str, str], float],
                paper: Mapping[str, Mapping[str, int]]) -> float:
    """Geometric mean of ``max(m/p, p/m)`` over the Figure 7 cells.

    ``cycles`` maps ``(platform, workload)`` to measured cycles per task;
    ``paper`` is :data:`repro.eval.overhead.PAPER_FIGURE7_CYCLES`.  Every
    paper cell must be measured, so a dropped cell cannot lower the error.
    """
    logs = []
    for platform, cells in paper.items():
        for workload, reported in cells.items():
            measured = cycles[(platform, workload)]
            logs.append(abs(math.log(measured / reported)))
    if not logs:
        raise ReferenceError("no paper cells to compare")
    return math.exp(sum(logs) / len(logs))
