"""Scaling-scenario evaluation: speedup-versus-cores beyond the prototype.

The paper only evaluates the 8-core FPGA prototype, but nothing in the
models is specific to eight cores: :meth:`SimConfig.with_cores` rebuilds
the machine at any width and the MTT bound of Equation 1 is parametric in
the core count.  This module runs every Figure 9 benchmark input on every
compared runtime across a grid of core counts (1..64 by default) and
reports each (case, runtime) pair as a :class:`ScalingCurve`: measured
speedup over serial at every core count, side by side with the MTT bound
``min(N, t / Lo)`` at that count, plus the two saturation points that
summarise the curve —

* the **bound saturation** ``t / Lo``: the core count beyond which the
  analytic bound stops growing (adding cores cannot help, the scheduler's
  task throughput is the limit), and
* the **measured saturation**: the smallest simulated core count after
  which the measured speedup never improves by more than a tolerance.

``scaling_curves`` is the first experiment in the registry that the paper
does not contain; the harness engine fans its (case × core count) grid
through the same process pool and result cache as the Figure 9 sweep, so
the 8-core column is served from (and is bit-identical to) the existing
Figure 9 results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import (
    EXPERIMENT_SPECS,
    EXPERIMENTS,
    FIGURE6_DEFAULT_NUM_TASKS,
    BenchmarkCase,
    BenchmarkRun,
    ExperimentSpec,
    benchmark_cases,
    checked_geometric_mean,
    run_benchmark_case,
)
from repro.registry import RegistryError
from repro.eval.mtt import speedup_bound
from repro.eval.overhead import measure_lifetime_overhead

__all__ = [
    "DEFAULT_CORE_COUNTS",
    "SATURATION_TOLERANCE",
    "ScalingPoint",
    "ScalingCurve",
    "normalize_core_counts",
    "normalize_runtimes",
    "align_runs_by_cores",
    "measure_scaling_overheads",
    "build_scaling_curves",
    "scaling_curves",
    "scaling_geomeans",
]

#: Core counts of the default scaling grid: the paper's 8-core point plus
#: the halvings below it and the doublings the prototype never built.
DEFAULT_CORE_COUNTS = (1, 2, 4, 8, 16, 32, 64)

#: A curve counts as saturated once growing the machine further never buys
#: more than this fractional speedup improvement.
SATURATION_TOLERANCE = 0.05

#: Task count of the single-worker overhead measurement behind each curve's
#: MTT bound — the Figure 6 default, so bounds agree across figures.
DEFAULT_OVERHEAD_NUM_TASKS = FIGURE6_DEFAULT_NUM_TASKS


@dataclass(frozen=True)
class ScalingPoint:
    """One core count of one (case, runtime) scaling curve."""

    cores: int
    speedup_vs_serial: float
    #: Equation 1 at this core count: ``min(cores, task_size / Lo)``.
    mtt_bound: float


@dataclass
class ScalingCurve:
    """Speedup-versus-cores of one benchmark input on one runtime."""

    runtime: str
    benchmark: str
    label: str
    mean_task_cycles: float
    #: Single-worker Task-Chain lifetime overhead ``Lo`` of the runtime.
    lifetime_overhead_cycles: float
    points: List[ScalingPoint] = field(default_factory=list)

    @property
    def case_key(self) -> str:
        """Stable case identifier, e.g. ``blackscholes/4K B8``."""
        return f"{self.benchmark}/{self.label}"

    def speedup_at(self, cores: int) -> float:
        """Measured speedup at ``cores`` (raises if the grid lacks it)."""
        for point in self.points:
            if point.cores == cores:
                return point.speedup_vs_serial
        raise EvaluationError(
            f"scaling_curves: no {cores}-core point for {self.case_key} "
            f"({self.runtime}); grid has {[p.cores for p in self.points]}"
        )

    @property
    def bound_saturation_cores(self) -> float:
        """Core count where the MTT bound flattens (``t / Lo``)."""
        return self.mean_task_cycles / self.lifetime_overhead_cycles

    def measured_saturation_cores(
            self, tolerance: float = SATURATION_TOLERANCE) -> int:
        """Smallest simulated core count after which scaling has flattened.

        Returns the cores of the first point whose speedup every later
        point fails to beat by more than ``tolerance`` (fractionally); the
        largest simulated count when the curve is still growing at the end
        of the grid.
        """
        for index, point in enumerate(self.points):
            ceiling = point.speedup_vs_serial * (1.0 + tolerance)
            if all(later.speedup_vs_serial <= ceiling
                   for later in self.points[index + 1:]):
                return point.cores
        return self.points[-1].cores


def normalize_core_counts(
        core_counts: Optional[Sequence[int]] = None) -> List[int]:
    """Sorted, de-duplicated, validated core counts (default 1..64 grid)."""
    counts = sorted(set(core_counts if core_counts is not None
                        else DEFAULT_CORE_COUNTS))
    if not counts:
        raise EvaluationError("scaling_curves: core_counts must not be empty")
    for count in counts:
        if not isinstance(count, int) or count <= 0:
            raise EvaluationError(
                f"scaling_curves: core counts must be positive integers, "
                f"got {count!r}"
            )
    return counts


def normalize_runtimes(
        runtimes: Optional[Sequence[str]] = None) -> List[str]:
    """Validated runtime selection in the registry's plotting (rank) order.

    Defaults to the compared platforms of the paper; any registered
    non-serial runtime — including drop-in plugins — is accepted.  Unknown
    names raise :class:`EvaluationError` with a did-you-mean suggestion.
    """
    if runtimes is None:
        return registry.compared_runtime_names()
    selected = list(dict.fromkeys(runtimes))
    if not selected or "serial" in selected:
        raise EvaluationError(
            f"scaling_curves: runtimes must be a non-empty selection of "
            f"non-serial runtimes, got {list(runtimes)!r} (the serial "
            f"baseline always runs; it has no scaling curve of its own)"
        )
    for name in selected:
        try:
            registry.runtime(name)
        except RegistryError as exc:
            raise EvaluationError(f"scaling_curves: {exc}") from exc
    return [name for name in registry.runtime_names() if name in selected]


def align_runs_by_cores(
    runs_by_cores: Mapping[int, Sequence[BenchmarkRun]],
) -> Tuple[Dict[int, List[BenchmarkRun]], List[str]]:
    """Restrict per-core-count sweeps to the cases present at every count.

    Partial sweeps (keep-going mode with failed units) may be missing
    different cases at different core counts; scaling curves need every
    case at every count.  Returns ``(aligned, dropped)`` where ``aligned``
    keeps only the cases covered by *all* counts (in the order of the
    smallest count's sweep) and ``dropped`` lists the case keys that had
    to be discarded, so callers can report the loss.
    """
    if not runs_by_cores:
        return {}, []
    key_sets = [{run.case.key for run in runs}
                for runs in runs_by_cores.values()]
    common = set.intersection(*key_sets)
    aligned = {
        count: [run for run in runs if run.case.key in common]
        for count, runs in runs_by_cores.items()
    }
    dropped = sorted(set.union(*key_sets) - common)
    return aligned, dropped


def measure_scaling_overheads(
        config: Optional[SimConfig] = None,
        runtimes: Optional[Sequence[str]] = None,
        num_tasks: int = DEFAULT_OVERHEAD_NUM_TASKS) -> Dict[str, float]:
    """Single-worker Task-Chain ``Lo`` per runtime, for the MTT bounds.

    Measured exactly like the Figure 6 bound inputs (Task-Chain, one
    dependence, one worker), so scaling bounds and Figure 6/10 bounds agree.
    """
    return {
        runtime: measure_lifetime_overhead(
            runtime, "task-chain", 1, num_tasks, config
        )
        for runtime in normalize_runtimes(runtimes)
    }


def build_scaling_curves(
    runs_by_cores: Mapping[int, Sequence[BenchmarkRun]],
    overheads: Mapping[str, float],
    runtimes: Optional[Sequence[str]] = None,
) -> List[ScalingCurve]:
    """Assemble curves from per-core-count Figure 9 sweeps.

    ``runs_by_cores`` maps each simulated core count to the benchmark runs
    executed at that count; every count must cover the same case list.
    ``overheads`` supplies the per-runtime ``Lo`` behind the MTT bounds.
    """
    counts = normalize_core_counts(list(runs_by_cores))
    selected = normalize_runtimes(runtimes)
    missing = [runtime for runtime in selected if runtime not in overheads]
    if missing:
        raise EvaluationError(
            f"scaling_curves: no lifetime overhead measured for {missing!r}"
        )
    reference = list(runs_by_cores[counts[0]])
    reference_keys = [run.case.key for run in reference]
    for count in counts[1:]:
        keys = [run.case.key for run in runs_by_cores[count]]
        if keys != reference_keys:
            raise EvaluationError(
                f"scaling_curves: case list at {count} cores does not match "
                f"the {counts[0]}-core sweep"
            )
    curves: List[ScalingCurve] = []
    for index, run in enumerate(reference):
        for runtime in selected:
            overhead = overheads[runtime]
            curve = ScalingCurve(
                runtime=runtime,
                benchmark=run.case.benchmark,
                label=run.case.label,
                mean_task_cycles=run.mean_task_cycles,
                lifetime_overhead_cycles=overhead,
            )
            for count in counts:
                at_count = runs_by_cores[count][index]
                try:
                    speedup = at_count.speedup_vs_serial(runtime)
                except Exception as exc:
                    raise EvaluationError(
                        f"scaling_curves: cannot compute the {count}-core "
                        f"speedup of {run.case.key} ({runtime}): {exc}"
                    ) from exc
                curve.points.append(ScalingPoint(
                    cores=count,
                    speedup_vs_serial=speedup,
                    mtt_bound=speedup_bound(run.mean_task_cycles, overhead,
                                            count),
                ))
            curves.append(curve)
    return curves


def scaling_curves(
    config: Optional[SimConfig] = None,
    core_counts: Optional[Sequence[int]] = None,
    quick: bool = False,
    scale: float = 1.0,
    cases: Optional[Sequence[BenchmarkCase]] = None,
    runtimes: Optional[Sequence[str]] = None,
    runs_by_cores: Optional[Mapping[int, Sequence[BenchmarkRun]]] = None,
    overheads: Optional[Mapping[str, float]] = None,
) -> List[ScalingCurve]:
    """Run (or assemble) the scaling-curve experiment.

    Without ``runs_by_cores`` this executes the benchmark sweep once per
    core count in-process — correct but serial; the harness engine passes
    pre-computed sweeps instead, fanned out over its process pool and
    served from its result cache
    (``python -m repro run scaling_curves --cores ...``).
    """
    config = config if config is not None else SimConfig()
    counts = normalize_core_counts(core_counts)
    selected = normalize_runtimes(runtimes)
    if overheads is None:
        overheads = measure_scaling_overheads(config, selected)
    if runs_by_cores is None:
        chosen = (list(cases) if cases is not None
                  else benchmark_cases(quick, scale))
        runs_by_cores = {
            count: [run_benchmark_case(case, config.with_cores(count), count,
                                       runtimes=selected)
                    for case in chosen]
            for count in counts
        }
    else:
        grid_counts = sorted(runs_by_cores)
        if grid_counts != counts:
            raise EvaluationError(
                f"scaling_curves: runs_by_cores covers {grid_counts}, "
                f"expected {counts}"
            )
    return build_scaling_curves(runs_by_cores, overheads, selected)


def scaling_geomeans(
        curves: Sequence[ScalingCurve]) -> Dict[str, Dict[int, float]]:
    """Geometric-mean speedup per runtime and core count across all cases."""
    grouped: Dict[str, Dict[int, List[float]]] = {}
    for curve in curves:
        per_cores = grouped.setdefault(curve.runtime, {})
        for point in curve.points:
            per_cores.setdefault(point.cores, []).append(
                point.speedup_vs_serial)
    return {
        runtime: {
            cores: checked_geometric_mean(
                values, "scaling_curves",
                f"{runtime} speedups at {cores} cores",
            )
            for cores, values in sorted(per_cores.items())
        }
        for runtime, per_cores in grouped.items()
    }


# --------------------------------------------------------------------- #
# Registry self-registration
# --------------------------------------------------------------------- #
# ``repro.eval.experiments`` must not import this module (scaling imports
# the case/runtime machinery from it), so the spec registers itself on
# import; ``repro.eval`` and the harness engine/CLI all import this module,
# which keeps the registry complete on every entry path.
EXPERIMENT_SPECS.setdefault(
    "scaling_curves",
    ExperimentSpec(
        "scaling_curves",
        "Speedup versus core count (1..64) against the MTT bounds",
        scaling_curves,
        depends_on=("figure9",),
    ),
)
EXPERIMENTS.setdefault("scaling_curves", scaling_curves)
