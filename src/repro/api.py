"""The unified Study API: one fluent front door for every execution mode.

A :class:`Study` describes *what* to evaluate — workloads (by name or tag),
runtimes, core counts, problem scale — and :meth:`Study.run` dispatches to
the right :class:`~repro.harness.engine.ExperimentEngine` machinery: a
single-machine benchmark sweep, a multi-core grid, or a full scaling study
with MTT bounds.  Everything comes back as one typed :class:`StudyResult`
that round-trips through the artifact codec
(:mod:`repro.harness.artifacts`).

    from repro.api import Study

    result = (Study()
              .workloads("jacobi", tags=["memory-bound"])
              .runtimes("phentos", "nanos-rv")
              .cores(1, 64)
              .quick()
              .run(jobs=8))
    print(result.geomean("phentos"))

Workloads and runtimes resolve through the plugin registries
(:mod:`repro.registry`), so a third-party workload registered with
``@register_workload`` is studyable with no further wiring — see
``examples/custom_workload.py`` and ``docs/extending.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import (
    BenchmarkCase,
    BenchmarkRun,
    checked_geometric_mean,
)
from repro.eval.scaling import (
    ScalingCurve,
    normalize_core_counts,
    normalize_runtimes,
)

if TYPE_CHECKING:  # imported lazily at runtime (harness imports this module)
    from repro.harness.executor import UnitFailure

__all__ = ["Study", "StudyResult", "StudySweep"]


@dataclass(frozen=True)
class StudySweep:
    """All benchmark runs of one core count of a study."""

    cores: int
    runs: Tuple[BenchmarkRun, ...]


@dataclass
class StudyResult:
    """The typed outcome of one :meth:`Study.run` invocation.

    ``sweeps`` holds the per-core-count benchmark runs (one entry for a
    plain study, one per grid column for a scaling study) and ``curves``
    the assembled :class:`~repro.eval.scaling.ScalingCurve` records when
    more than one core count was requested.  ``failures`` lists the
    :class:`~repro.harness.executor.UnitFailure` records of a
    :meth:`Study.keep_going` study whose sweep lost units — empty means
    the results are complete.  The whole record round-trips through
    :func:`repro.harness.artifacts.encode` / ``decode``.
    """

    label: str
    workloads: Tuple[str, ...]
    runtimes: Tuple[str, ...]
    core_counts: Tuple[int, ...]
    quick: bool
    scale: float
    sweeps: Tuple[StudySweep, ...] = ()
    curves: Tuple[ScalingCurve, ...] = ()
    failures: Tuple["UnitFailure", ...] = ()
    #: Where the study's telemetry trace was recorded (``Study.trace``),
    #: or None for an untraced study.
    trace_path: Optional[str] = None

    @property
    def case_keys(self) -> List[str]:
        """Stable case identifiers of the study, in sweep order."""
        if not self.sweeps:
            return []
        return [run.case.key for run in self.sweeps[0].runs]

    def sweep_at(self, cores: int) -> StudySweep:
        """The sweep executed at ``cores`` simulated cores."""
        for sweep in self.sweeps:
            if sweep.cores == cores:
                return sweep
        raise EvaluationError(
            f"study {self.label!r} has no {cores}-core sweep; "
            f"core counts: {list(self.core_counts)}"
        )

    def runs(self, cores: Optional[int] = None) -> List[BenchmarkRun]:
        """Benchmark runs at ``cores`` (default: the widest machine)."""
        if not self.sweeps:
            return []
        if cores is None:
            return list(self.sweeps[-1].runs)
        return list(self.sweep_at(cores).runs)

    def speedups(self, runtime: str,
                 cores: Optional[int] = None) -> Dict[str, float]:
        """Speedup over serial per case for ``runtime`` at ``cores``."""
        return {run.case.key: run.speedup_vs_serial(runtime)
                for run in self.runs(cores)}

    def geomean(self, runtime: str, cores: Optional[int] = None) -> float:
        """Geometric-mean speedup over serial of ``runtime`` at ``cores``."""
        values = list(self.speedups(runtime, cores).values())
        return checked_geometric_mean(
            values, "study", f"{runtime} speedups ({self.label})")


def _study_label(workloads: Optional[Sequence[str]],
                 tags: Optional[Sequence[str]],
                 counts: Sequence[int]) -> str:
    """Default study label, e.g. ``study:jacobi+stream@1,8,64c``."""
    if workloads:
        scope = "+".join(workloads)
    elif tags:
        scope = "tag:" + "+".join(tags)
    else:
        scope = "paper"
    cores = ",".join(str(count) for count in counts)
    return f"study:{scope}@{cores}c"


class Study:
    """Fluent builder describing one evaluation study.

    Every chainable method validates eagerly (unknown workload/runtime
    names fail at the call site, with a did-you-mean suggestion) and
    returns ``self``; :meth:`run` executes the study through one
    :class:`~repro.harness.engine.ExperimentEngine` and returns a
    :class:`StudyResult`.
    """

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self._config = config if config is not None else SimConfig()
        self._workloads: Optional[List[str]] = None
        self._workload_tags: Optional[List[str]] = None
        self._runtimes: Optional[List[str]] = None
        self._cases: Optional[List[BenchmarkCase]] = None
        self._cores: Optional[List[int]] = None
        self._quick = False
        self._scale = 1.0
        self._keep_going = False
        self._retries = 1
        self._label: Optional[str] = None
        self._cache_dir = None
        self._artifact_dir: Optional[Path] = None
        self._trace_path: Optional[Path] = None

    # ------------------------------------------------------------------ #
    # Workload, runtime and machine selection
    # ------------------------------------------------------------------ #
    def workloads(self, *names: str,
                  tags: Optional[Sequence[str]] = None) -> "Study":
        """Select workloads by registry name and/or tag.

        With names, the study sweeps exactly those workloads (optionally
        narrowed to the ones carrying every tag); with only ``tags``, every
        registered workload carrying them; with neither, the paper's
        Figure 9 set.
        """
        for name in names:
            registry.workload(name)  # did-you-mean on unknown, eagerly
        self._workloads = list(dict.fromkeys(names)) if names else None
        self._workload_tags = list(tags) if tags else None
        return self

    def runtimes(self, *names: str) -> "Study":
        """Select the runtimes to compare (default: the paper's three).

        The serial baseline always runs — every speedup is measured
        against it — so it need not (and cannot) be selected here.  The
        result lists the runtimes in the order given.
        """
        normalize_runtimes(names)  # did-you-mean on unknown, eagerly
        self._runtimes = list(dict.fromkeys(names))
        return self

    def cases(self, *cases: BenchmarkCase) -> "Study":
        """Sweep an explicit case list instead of registry-derived one."""
        if not cases:
            raise EvaluationError("Study.cases() needs at least one case")
        self._cases = list(cases)
        return self

    def cores(self, *counts: int) -> "Study":
        """Simulated core counts; more than one turns on scaling curves."""
        self._cores = normalize_core_counts(counts)
        return self

    # ------------------------------------------------------------------ #
    # Execution knobs
    # ------------------------------------------------------------------ #
    def quick(self, enabled: bool = True) -> "Study":
        """Use the reduced (quick) input set of every workload."""
        self._quick = enabled
        return self

    def scale(self, factor: float) -> "Study":
        """Shrink problem sizes proportionally (``0 < factor <= 1``)."""
        if factor <= 0:
            raise EvaluationError("scale must be positive")
        self._scale = factor
        return self

    def keep_going(self, enabled: bool = True) -> "Study":
        """Deliver partial results instead of failing the whole study.

        With this set, a sweep unit that fails every retry becomes a
        :class:`~repro.harness.executor.UnitFailure` on
        :attr:`StudyResult.failures` while every other unit completes
        (and lands in the cache); without it, failures raise one
        aggregated :class:`~repro.harness.executor.SweepError`.
        """
        self._keep_going = enabled
        return self

    def retries(self, count: int) -> "Study":
        """Re-attempts per failed sweep unit, each in a fresh worker.

        Default 1: one retry guards against transient worker failures and
        poisoned interpreter state; 0 disables retrying.
        """
        if count < 0:
            raise EvaluationError("retries must be >= 0")
        self._retries = count
        return self

    def label(self, text: str) -> "Study":
        """Name the study (used for artifacts and the run manifest)."""
        self._label = text
        return self

    def cache(self, cache_dir) -> "Study":
        """Enable the result cache.

        ``cache_dir`` is a directory path or a pre-built
        :class:`~repro.harness.cache.CacheStore`.  An entry is served only
        while the ``repro`` sources that produced it are unchanged.
        """
        self._cache_dir = cache_dir
        return self

    def artifacts(self, artifact_dir) -> "Study":
        """Archive the :class:`StudyResult` as JSON under ``artifact_dir``."""
        self._artifact_dir = Path(artifact_dir)
        return self

    def trace(self, trace_path) -> "Study":
        """Record the study's telemetry stream as JSONL under ``path``.

        The trace carries the run manifest, the phase/sweep/unit span
        hierarchy and the cache/pool counters
        (:mod:`repro.harness.telemetry`); digest it with
        ``python -m repro trace summary PATH``.  The recorded path comes
        back on :attr:`StudyResult.trace_path`.
        """
        self._trace_path = Path(trace_path)
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, jobs: int = 1, engine=None,
            progress: bool = False) -> StudyResult:
        """Execute the study and return its :class:`StudyResult`.

        ``jobs`` is the host process fan-out of the benchmark sweep.  A
        pre-built engine may be injected (its cache/memo is then shared
        with other studies); otherwise one is constructed from the study's
        knobs.  Single core count → one benchmark sweep
        (``ExperimentEngine.run("figure9")``); several → one batched grid
        plus assembled scaling curves against the MTT bounds.
        ``progress=True`` prints live status lines on stderr (ignored with
        an injected engine, which renders through its own tracer).
        """
        # Imported lazily: the harness imports this module's result types
        # for its artifact codec, so the engine cannot be a top-level
        # import here.
        from repro.harness.engine import ExperimentEngine

        counts = (list(self._cores) if self._cores
                  else [self._config.machine.num_cores])
        label = self._label or _study_label(self._workloads,
                                            self._workload_tags, counts)
        owns_engine = engine is None
        if owns_engine:
            engine = ExperimentEngine(
                config=self._config,
                jobs=jobs,
                cache_dir=self._cache_dir,
                progress=progress,
                run_label=label,
                keep_going=self._keep_going,
                retries=self._retries,
                trace_path=self._trace_path,
            )
        failures_before = len(engine.unit_failures)
        try:
            cases = (list(self._cases) if self._cases is not None
                     else benchmark_cases_for(self._workloads,
                                              self._workload_tags,
                                              self._quick, self._scale))
            curves: Tuple[ScalingCurve, ...] = ()
            if len(counts) > 1:
                curves = tuple(engine.run(
                    "scaling_curves", quick=self._quick, scale=self._scale,
                    cases=cases, core_counts=counts,
                    runtimes=self._runtimes,
                ))
            sweeps = tuple(
                StudySweep(count, tuple(engine.run(
                    "figure9", quick=self._quick, scale=self._scale,
                    cases=cases, num_workers=count, runtimes=self._runtimes,
                )))
                for count in counts
            )
            # Memo-served partial sweeps re-report their failures (so a
            # shared engine cannot hide gaps); collapse the repeats.
            failures = tuple(dict.fromkeys(
                engine.unit_failures[failures_before:]))
        finally:
            if owns_engine:
                # An injected engine's warm pool belongs to the caller
                # (shared across studies); our own is done.
                engine.close()
        result = StudyResult(
            label=label,
            workloads=tuple(dict.fromkeys(run.case.builder
                                          for run in sweeps[0].runs)),
            runtimes=tuple(self._runtimes
                           if self._runtimes is not None
                           else registry.compared_runtime_names()),
            core_counts=tuple(counts),
            quick=self._quick,
            scale=self._scale,
            sweeps=sweeps,
            curves=curves,
            failures=failures,
            trace_path=(str(self._trace_path)
                        if self._trace_path is not None and owns_engine
                        else None),
        )
        if self._artifact_dir is not None:
            from repro.harness.artifacts import ArtifactStore
            store = ArtifactStore(self._artifact_dir)
            store.save(_artifact_name(label), result,
                       core_counts=list(counts), jobs=jobs)
        return result


def benchmark_cases_for(workloads: Optional[Sequence[str]],
                        tags: Optional[Sequence[str]],
                        quick: bool, scale: float) -> List[BenchmarkCase]:
    """The registry-derived case list of a study (shared with the CLI)."""
    from repro.eval.experiments import benchmark_cases
    return benchmark_cases(quick=quick, scale=scale,
                           workloads=workloads, tags=tags)


def _artifact_name(label: str) -> str:
    """A filesystem-safe artifact name for a study label."""
    safe = "".join(ch if ch.isalnum() or ch in "-_+," else "_"
                   for ch in label)
    return safe or "study"
