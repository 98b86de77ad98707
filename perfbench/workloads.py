"""The benchmark's workloads: set-up, one timed pass, and its checks.

Each workload is a class whose constructor is the set-up (imports,
registry self-registration, ``SimConfig`` and, where the workload runs
runtimes directly, building the task programs), whose :meth:`run_pass` is
the timed work and whose :meth:`check` compares that work's results with
the committed reference tables.  Every (input, runtime) run, and every
Figure 7 cell, is one operation: a mismatch or an exception fails it.

The inputs are the paper's fixed inputs.  The seed sets the order in which
the inputs of ``fig9-quick`` and ``phentos-8c`` run; ``overhead-1c`` runs
the fixed Figure 7 matrix through one engine call, so its seed changes
nothing.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import reference

#: Task count of each Figure 7 cell; ``figure7_overhead.txt`` was written
#: with it.  Nanos-AXI Task-Free on one worker stalls from 260 tasks on.
FIGURE7_TASKS = 120

#: The full-size Figure 9 inputs ``phentos-8c`` runs on Phentos alone.
PHENTOS_INPUTS = ("blackscholes/16K B8", "jacobi/N512 B1",
                  "sparselu/N128 M4", "stream-deps/4096x4096")
PHENTOS_CORES = 8


@dataclass
class Tally:
    """Operations attempted and failed, and tasks the timed work retired."""

    attempted: int = 0
    failed: int = 0
    tasks: int = 0

    def check(self, name: str, condition: bool, detail: str = "") -> None:
        """Count one operation; report it on stderr when it failed."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def fail_all(self, names: List[str], exc: BaseException) -> None:
        """Count every operation of work that raised ``exc`` as failed."""
        for name in names:
            self.check(name, False, f"{type(exc).__name__}: {exc}")


def _check_result(tally: Tally, name: str, result, num_tasks: int,
                  table: Dict[Tuple[str, str], str], key: Tuple[str, str]
                  ) -> None:
    """One (input, runtime) operation: task count, Picos retirements and,
    for compared runtimes, the speedup cell of the reference table."""
    problems = []
    if result.tasks_executed != num_tasks:
        problems.append(f"{result.tasks_executed} of {num_tasks} tasks")
    retired = result.stats.get("picos.tasks_retired")
    if retired is not None and retired != num_tasks:
        problems.append(f"Picos retired {retired:.0f} of {num_tasks}")
    if key[1] in reference.FIGURE9_COLUMNS:
        try:
            reference.expect(table, key, f"{result.speedup_vs_serial:.2f}")
        except reference.ReferenceError as exc:
            problems.append(str(exc))
    tally.check(name, not problems, "; ".join(problems))


class Figure7Matrix:
    """The Figure 7 matrix through ``ExperimentEngine(jobs=1)``."""

    def __init__(self, root: Path) -> None:
        from repro.common.config import SimConfig
        from repro.eval.overhead import PAPER_FIGURE7_CYCLES
        from repro.harness.engine import ExperimentEngine
        self._engine_class = ExperimentEngine
        self.paper = PAPER_FIGURE7_CYCLES
        self.config = SimConfig()
        self.root = root

    def run_pass(self):
        with self._engine_class(self.config, jobs=1) as engine:
            return engine.run("figure7", num_tasks=FIGURE7_TASKS)

    def cell_names(self) -> List[str]:
        return [f"figure7/{platform}/{workload}"
                for platform, cells in self.paper.items()
                for workload in cells]

    def check(self, rows, tally: Tally) -> float:
        """Check every cell; return the paper error of the matrix."""
        table = reference.load_figure7(self.root)
        cycles = {}
        for row in rows:
            cycles[(row.platform, row.workload)] = row.cycles_per_task
            try:
                reference.expect(table, (row.platform, row.workload),
                                 f"{row.cycles_per_task:.0f}")
                tally.check(f"figure7/{row.platform}/{row.workload}", True)
            except reference.ReferenceError as exc:
                tally.check(f"figure7/{row.platform}/{row.workload}", False,
                            str(exc))
        missing = set(table) - set(cycles)
        for platform, workload in sorted(missing):
            tally.check(f"figure7/{platform}/{workload}", False, "not run")
        tally.tasks += len(rows) * FIGURE7_TASKS
        return reference.paper_error(cycles, self.paper)


class Workload:
    """Defaults for the optional steps of a workload."""

    #: The Figure 7 paper error, for a workload whose pass runs Figure 7.
    paper_err = None

    def check_setup(self, tally: Tally) -> None:
        """Check results produced during set-up (none by default)."""

    def cleanup(self) -> None:
        """Remove what the timed passes left on disk (nothing by default)."""


class Fig9Quick(Workload):
    """The 9-input quick Figure 9 sweep, cold cache, serial sweep."""

    name = "fig9-quick"

    def __init__(self, seed: int, root: Path, work_dir: Path) -> None:
        from repro.common.config import SimConfig
        from repro.eval.experiments import benchmark_cases
        from repro.harness.engine import ExperimentEngine
        self._engine_class = ExperimentEngine
        self.root = root
        self.work_dir = work_dir
        self.config = SimConfig()
        self.cases = benchmark_cases(quick=True)
        random.Random(seed).shuffle(self.cases)
        self._cache_dirs: List[str] = []

    def run_pass(self):
        # A fresh, empty cache of the default backend: every unit misses,
        # simulates and is stored, as a first `repro run figure9 --quick`.
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        self._cache_dirs.append(cache_dir)
        with self._engine_class(self.config, jobs=1,
                                cache_dir=cache_dir) as engine:
            return engine.run("figure9", cases=self.cases)

    def cleanup(self) -> None:
        while self._cache_dirs:
            shutil.rmtree(self._cache_dirs.pop(), ignore_errors=True)

    def operation_names(self) -> List[str]:
        return [f"{case.key}/{runtime}" for case in self.cases
                for runtime in ("serial", *reference.FIGURE9_COLUMNS)]

    def check(self, runs, tally: Tally) -> None:
        table = reference.load_figure9(self.root)
        by_key = {run.case.key: run for run in runs}
        for case in self.cases:
            num_tasks = case.build().num_tasks
            run = by_key.get(case.key)
            for runtime in ("serial", *reference.FIGURE9_COLUMNS):
                name = f"{case.key}/{runtime}"
                if run is None or runtime not in run.results:
                    tally.check(name, False, "not run")
                    continue
                result = run.results[runtime]
                _check_result(tally, name, result, num_tasks, table,
                              (case.key, runtime))
                if runtime != "serial":
                    tally.tasks += result.tasks_executed


class Phentos8c(Workload):
    """Phentos alone at 8 cores on four full-size Figure 9 inputs."""

    name = "phentos-8c"

    def __init__(self, seed: int, root: Path, work_dir: Path) -> None:
        from repro import registry
        from repro.common.config import SimConfig
        from repro.eval.experiments import benchmark_cases
        self.root = root
        self.config = SimConfig()
        self._phentos = registry.runtime("phentos").cls
        by_key = {case.key: case for case in benchmark_cases()}
        keys = list(PHENTOS_INPUTS)
        random.Random(seed).shuffle(keys)
        self.programs = [(key, by_key[key].build()) for key in keys]
        # The serial baselines of Figure 9 run here, in set-up; they are
        # checked with the timed runs.
        serial = registry.runtime("serial").cls
        self.serial = {key: serial(self.config).run(program, num_workers=1)
                       for key, program in self.programs}

    def run_pass(self):
        return {key: self._phentos(self.config).run(
                    program, num_workers=PHENTOS_CORES)
                for key, program in self.programs}

    def operation_names(self) -> List[str]:
        return [f"{key}/phentos" for key, _ in self.programs]

    def check_setup(self, tally: Tally) -> None:
        for key, program in self.programs:
            _check_result(tally, f"{key}/serial", self.serial[key],
                          program.num_tasks, {}, (key, "serial"))

    def check(self, results, tally: Tally) -> None:
        table = reference.load_figure9(self.root)
        for key, program in self.programs:
            name = f"{key}/phentos"
            if key not in results:
                tally.check(name, False, "not run")
                continue
            _check_result(tally, name, results[key], program.num_tasks,
                          table, (key, "phentos"))
            tally.tasks += results[key].tasks_executed


class Overhead1c(Workload):
    """The Figure 7 matrix: 4 platforms x 4 micro-benchmarks, one worker."""

    name = "overhead-1c"

    def __init__(self, seed: int, root: Path, work_dir: Path) -> None:
        self.matrix = Figure7Matrix(root)

    def run_pass(self):
        return self.matrix.run_pass()

    def operation_names(self) -> List[str]:
        return self.matrix.cell_names()

    def check(self, rows, tally: Tally) -> None:
        self.paper_err = self.matrix.check(rows, tally)


WORKLOADS = {cls.name: cls for cls in (Fig9Quick, Phentos8c, Overhead1c)}
