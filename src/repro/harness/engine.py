"""The experiment engine: one execution path for every evaluation artefact.

:class:`ExperimentEngine` drives the :data:`repro.eval.EXPERIMENT_SPECS`
registry.  It resolves experiment dependencies (Figures 8/10 and the
headline summary are derived from the Figure 9 sweep), fans the sweep out
over a process pool, and serves anything it has computed before from the
content-addressed result cache, as long as the model sources that
computed it are unchanged (:mod:`repro.harness.cache.store`).  The
examples, the benchmark conftest and the ``python -m repro`` CLI all sit
on top of this one class, so they cannot drift apart.

Every benchmark sweep goes through one memoised method,
:meth:`ExperimentEngine._sweep`, which takes a list of configurations:
``figure9`` and the experiments derived from it are a one-configuration
call, and the ``scaling_curves`` experiment — every Figure 9 case at
every requested core count, assembled into speedup-versus-cores curves
against the MTT bounds (:mod:`repro.eval.scaling`) — is one call over
the core counts, batched through one runner call.  Because cache keys
canonicalise the worker count into the configuration, the 8-core column
of a scaling run addresses exactly the Figure 9 entries.

The engine owns one :class:`~repro.harness.executor.ExecutorBackend`
(serial for ``jobs=1``, a persistent warm process pool otherwise) shared
by every sweep and scaling phase it drives, so a multi-phase study
builds one pool and reuses warm workers instead of re-importing the
package per sweep; :meth:`close` (or using the engine as a context
manager) releases it.  Failure isolation is engine-wide too: a failing
unit becomes a :class:`~repro.harness.executor.UnitFailure` (retried
``retries`` times in a fresh worker first), and sweeps either raise one
aggregated :class:`~repro.harness.executor.SweepError` or — when the
engine was built with ``keep_going=True`` — deliver partial results while
collecting every failure in :attr:`unit_failures`, with everything
completed already landed in the cache.

The engine is the telemetry root (:mod:`repro.harness.telemetry`): it owns
one :class:`~repro.harness.telemetry.Tracer` shared with its cache and
executor, opens the *run* span (stamped with the
:class:`~repro.harness.telemetry.RunManifest` — version, config
fingerprint, jobs, host, plugin registries) on the first experiment, nests
a *phase* span per :meth:`run` around the runner's sweep and unit spans,
and snapshots every counter when :meth:`close` ends the run.  Unit spans
are the only record of what a sweep did (each carries its wall clock,
simulated cycles and throughput).  ``trace_path``
attaches a :class:`~repro.harness.telemetry.JsonlSink` (the ``--trace`` /
``$REPRO_TRACE`` surface) and ``progress=True`` a
:class:`~repro.harness.telemetry.ConsoleSink`, so the stderr status line
consumes the same stream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import (
    EXPERIMENT_SPECS,
    FIGURE6_DEFAULT_NUM_TASKS,
    BenchmarkCase,
    BenchmarkRun,
    benchmark_cases,
    canonical_runtime_selection,
    figure6_mtt_bounds,
    figure10_bound_task_sizes,
)
from repro.eval.overhead import DEFAULT_NUM_TASKS as FIGURE7_DEFAULT_NUM_TASKS
from repro.eval.overhead import measure_lifetime_overhead
from repro.eval.scaling import (
    DEFAULT_OVERHEAD_NUM_TASKS,
    align_runs_by_cores,
    build_scaling_curves,
    normalize_core_counts,
    normalize_runtimes,
)
from repro.harness.artifacts import ArtifactStore, decode_cached, encode
from repro.harness.cache import CacheStats, CacheStore, open_store
from repro.harness.executor import (
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    UnitFailure,
)
from repro.harness.hashing import canonical_case_config, experiment_cache_key
from repro.harness.runner import CaseUnit, run_units
from repro.registry import suggest
from repro.harness.telemetry import (
    ConsoleSink,
    JsonlSink,
    NullSink,
    Tracer,
    build_manifest,
)

__all__ = ["ExperimentEngine"]

#: Default micro-benchmark lengths of the overhead-based experiments,
#: taken from the eval layer's own defaults so the engine cannot drift from
#: direct calls (``figure10`` uses figure6's bounds internally, hence
#: shares its task count).
_DEFAULT_NUM_TASKS = {
    "figure6": FIGURE6_DEFAULT_NUM_TASKS,
    "figure7": FIGURE7_DEFAULT_NUM_TASKS,
    "figure10": FIGURE6_DEFAULT_NUM_TASKS,
}


class ExperimentEngine:
    """Runs registry experiments with caching, chaining and parallelism."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        artifact_dir: Optional[Path] = None,
        progress: bool = False,
        run_label: Optional[str] = None,
        keep_going: bool = False,
        retries: int = 1,
        trace_path: Optional[Path] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Create an engine.

        ``jobs`` is the worker-pool width of the benchmark sweep;
        ``cache_dir`` enables the result cache — a directory path or a
        pre-built :class:`~repro.harness.cache.CacheStore` (see
        :func:`repro.harness.cache.open_store`); ``artifact_dir``
        archives every experiment result as JSON; ``progress`` prints live
        status lines on stderr through a
        :class:`~repro.harness.telemetry.ConsoleSink`; ``run_label`` is
        recorded on the run manifest so a trace is attributable to the
        Study/CLI invocation that produced it.
        ``retries`` is how many times a failing sweep unit is re-attempted
        in a fresh worker; ``keep_going`` turns failed sweeps into partial
        results plus :attr:`unit_failures` records instead of an
        aggregated :class:`~repro.harness.executor.SweepError`.
        ``trace_path`` records the run's telemetry stream as JSONL
        (readable by ``repro trace summary``); alternatively a pre-built
        ``tracer`` may be injected, in which case the engine uses it as-is
        (``progress`` and ``trace_path`` are then ignored: the tracer's
        own sinks decide what renders) and leaves closing its sinks to
        the caller.
        """
        if jobs <= 0:
            raise EvaluationError("jobs must be positive")
        if retries < 0:
            raise EvaluationError("retries must be >= 0")
        self.config = config if config is not None else SimConfig()
        self.jobs = jobs
        self._owns_tracer = tracer is None
        if tracer is None:
            sinks = []
            if progress:
                sinks.append(ConsoleSink())
            if trace_path is not None:
                sinks.append(JsonlSink(trace_path))
            tracer = Tracer(sinks or [NullSink()])
        self.tracer = tracer
        self.cache: Optional[CacheStore] = (
            open_store(cache_dir, tracer=self.tracer)
            if cache_dir is not None else None)
        self.artifacts = (ArtifactStore(artifact_dir)
                          if artifact_dir is not None else None)
        self.run_label = run_label
        self.keep_going = keep_going
        self.retries = retries
        #: Every :class:`UnitFailure` any sweep of this engine produced
        #: (only populated under ``keep_going``; strict sweeps raise).
        self.unit_failures: List[UnitFailure] = []
        # Units that failed, each counted once when it failed: the run
        # span's count, which memo-served re-reports must not inflate.
        self._failed_units = 0
        # The open run span (started lazily with the RunManifest on the
        # first experiment, ended by close()).
        self._run_span = None
        # In-memory memo of completed sweeps keyed by (config, workers,
        # cases), so chained derived experiments and scaling columns in one
        # engine share the Figure 9 runs even with no disk cache.
        self._sweep_memo: dict = {}
        # Failures of partial (keep-going) sweeps, by memo key: a
        # memo-served partial sweep must re-report its losses, so callers
        # (and the scaling partiality check) never mistake a gap-ridden
        # result for a complete one.
        self._partial_memo: dict = {}
        # The persistent execution backend, built lazily on first use and
        # shared by every sweep/scaling phase this engine drives.
        self._executor: Optional[ExecutorBackend] = None

    @property
    def executor(self) -> ExecutorBackend:
        """The engine's execution backend (a warm pool when ``jobs > 1``).

        Created on first access and kept until :meth:`close`, so
        multi-phase runs (a Study's scaling run plus its per-count
        sweeps, or ``repro run all``) reuse one set of warm workers.
        """
        if self._executor is None:
            self._executor = (SerialBackend() if self.jobs == 1
                              else ProcessPoolBackend(self.jobs))
            self._executor.tracer = self.tracer
        return self._executor

    def _ensure_run_span(self) -> None:
        """Open the run span (manifest-stamped) on the first experiment."""
        if self._run_span is not None:
            return
        manifest = build_manifest(self.config, self.jobs,
                                  label=self.run_label)
        # The run span outlives this call — it is opened by the first
        # experiment and closed in close() — so a with-block cannot
        # express its lifetime.
        self._run_span = self.tracer.start_span(  # repro: lint-ignore[telemetry]
            "run", "run", keep_going=self.keep_going, retries=self.retries,
            **manifest.as_attributes())

    def close(self) -> None:
        """Shut the engine down (idempotent; everything lazily rebuilt).

        Releases the execution backend, closes the run span and snapshots
        the telemetry counters into the trace, and — when the engine built
        its own tracer — closes the trace sinks.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()
        run_span, self._run_span = self._run_span, None
        if run_span is not None:
            if self._failed_units:
                run_span.set(unit_failures=self._failed_units)
            # Closes the run span opened in _ensure_run_span() (see the
            # pragma there for why it is not a with-block).
            self.tracer.end_span(run_span)  # repro: lint-ignore[telemetry]
        if self._owns_tracer:
            self.tracer.close()  # snapshots counters, closes sinks
        elif run_span is not None:
            self.tracer.emit_counters()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the attached cache (zeros when disabled)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    def run(
        self,
        experiment_id: str,
        quick: bool = False,
        scale: float = 1.0,
        num_workers: Optional[int] = None,
        num_tasks: Optional[int] = None,
        cases: Optional[Sequence[BenchmarkCase]] = None,
        core_counts: Optional[Sequence[int]] = None,
        runtimes: Optional[Sequence[str]] = None,
    ) -> object:
        """Run one experiment, chaining its dependencies as needed.

        Returns exactly what the underlying :data:`EXPERIMENTS` runner
        returns, so callers migrating from direct calls keep their types.
        ``quick``/``scale``/``cases`` select the benchmark sweep inputs and
        ``num_tasks`` the micro-benchmark length of the overhead-based
        experiments; ``core_counts``/``runtimes`` parameterise the
        ``scaling_curves`` grid; irrelevant knobs are ignored per
        experiment.
        """
        spec = EXPERIMENT_SPECS.get(experiment_id)
        if spec is None:
            raise EvaluationError(
                f"unknown experiment {experiment_id!r}"
                f"{suggest(experiment_id, list(EXPERIMENT_SPECS))}"
            )
        self._ensure_run_span()
        with self.tracer.span(experiment_id, "phase",
                              quick=quick, scale=scale):
            if experiment_id == "scaling_curves":
                result = self._run_scaling(quick, scale, cases, core_counts,
                                           runtimes)
            elif experiment_id == "figure9":
                [result] = self._sweep([self.config], quick, scale, cases,
                                       runtimes, num_workers)
            elif spec.is_derived:
                result = self._run_derived(experiment_id, quick, scale,
                                           num_workers, num_tasks, cases)
            else:
                result = self._run_simple(experiment_id, num_tasks)
        if self.artifacts is not None:
            self.artifacts.save(experiment_id, result,
                                quick=quick, scale=scale)
        return result

    # ------------------------------------------------------------------ #
    # Execution strategies
    # ------------------------------------------------------------------ #
    def _sweep(
        self,
        configs: Sequence[SimConfig],
        quick: bool,
        scale: float,
        cases: Optional[Sequence[BenchmarkCase]],
        runtimes: Optional[Sequence[str]] = None,
        num_workers: Optional[int] = None,
        grid: bool = False,
    ) -> List[List[BenchmarkRun]]:
        """The benchmark sweep under each of ``configs``, memoised.

        Returns one list of completed runs per configuration.  Sweeps
        memoised earlier are served as they are; every pending (config ×
        case) unit goes through one :func:`~repro.harness.runner.run_units`
        call on the engine's backend, and each configuration's runs and
        partial failures are memoised exactly once.  The memo key folds
        the worker count (``num_workers``, or each config's core count)
        into the configuration
        (:func:`~repro.harness.hashing.canonical_case_config`) exactly
        like the disk cache, so a scaling column at N cores and a direct
        ``num_workers=N`` sweep share one entry.  ``grid`` names the
        sweep's telemetry as a grid over several configurations.
        """
        selected = (list(cases) if cases is not None
                    else benchmark_cases(quick, scale))
        selection = canonical_runtime_selection(runtimes)
        keys = []
        pending: Dict[tuple, List[CaseUnit]] = {}
        for config in configs:
            workers = (num_workers if num_workers is not None
                       else config.machine.num_cores)
            key = (canonical_case_config(config, workers), tuple(selected),
                   selection)
            keys.append(key)
            if key in self._sweep_memo:
                # A memo-served *partial* sweep re-reports its failures,
                # so the result is never mistaken for a complete one.
                self.unit_failures.extend(self._partial_memo.get(key, ()))
            else:
                pending[key] = [CaseUnit(config, case, workers, selection)
                                for case in selected]
        if pending:
            failures: List[UnitFailure] = []
            runs = run_units(
                [unit for units in pending.values() for unit in units],
                self.executor, cache=self.cache, grid=grid,
                keep_going=self.keep_going, retries=self.retries,
                failures=failures, tracer=self.tracer)
            self.unit_failures.extend(failures)
            self._failed_units += len(failures)
            # Runs are slot-aligned with the units (failed slots are None
            # under keep-going), so each configuration takes its slot
            # range and the failures that fall in it.
            for index, key in enumerate(pending):
                first, end = index * len(selected), (index + 1) * len(selected)
                self._sweep_memo[key] = [run for run in runs[first:end]
                                         if run is not None]
                own = tuple(failure for failure in failures
                            if first <= failure.slot < end)
                if own:
                    self._partial_memo[key] = own
        return [list(self._sweep_memo[key]) for key in keys]

    def _run_simple(self, experiment_id: str,
                    num_tasks: Optional[int]) -> object:
        """Self-contained experiments: run the registry runner, cached."""
        runner = EXPERIMENT_SPECS[experiment_id].runner
        parameters = {}
        if experiment_id in _DEFAULT_NUM_TASKS:
            parameters["num_tasks"] = (
                num_tasks if num_tasks is not None
                else _DEFAULT_NUM_TASKS[experiment_id]
            )
        return self._run_cached(
            experiment_id, parameters,
            lambda: runner(self.config, **parameters),
        )

    def _run_cached(self, experiment_id: str, parameters: dict,
                    compute) -> object:
        """Whole-result caching for the non-sweep experiments."""
        if self.cache is None:
            return compute()
        key = experiment_cache_key(experiment_id, self.config, parameters)
        result = decode_cached(self.cache, key)
        if result is None:
            result = compute()
            self.cache.put(key, encode(result), experiment=experiment_id)
        return result

    def _run_derived(
        self,
        experiment_id: str,
        quick: bool,
        scale: float,
        num_workers: Optional[int],
        num_tasks: Optional[int],
        cases: Optional[Sequence[BenchmarkCase]],
    ) -> object:
        """Experiments computed from the Figure 9 sweep."""
        config = self.config
        spec = EXPERIMENT_SPECS[experiment_id]
        if spec.depends_on != ("figure9",):
            raise EvaluationError(
                f"unsupported dependency chain {spec.depends_on!r} "
                f"for {experiment_id!r}"
            )
        # Dependency runs go through _sweep directly (not self.run) so
        # they share the memo/cache without re-saving the figure9 artifact
        # once per derived experiment.
        [runs] = self._sweep([config], quick, scale, cases,
                             num_workers=num_workers)
        runner = spec.runner
        if experiment_id == "figure10":
            # Figure 10 overlays the runs on the MTT bound curves, which
            # come from their own (cached) overhead measurement.
            tasks = (num_tasks if num_tasks is not None
                     else _DEFAULT_NUM_TASKS["figure10"])
            sizes = figure10_bound_task_sizes()
            bounds = self._run_cached(
                "figure6", {"num_tasks": tasks, "task_sizes": sizes},
                lambda: figure6_mtt_bounds(config, task_sizes=sizes,
                                           num_tasks=tasks),
            )
            return runner(runs, config, bounds)
        return runner(runs)

    def scaling_overheads(self, runtimes: Sequence[str]) -> Dict[str, float]:
        """Single-worker Task-Chain ``Lo`` per runtime, engine-cached.

        The measurement behind every scaling curve's MTT bound; whole-result
        cached per runtime, so repeated studies/sweeps measure each runtime
        once.
        """
        return {
            runtime: self._run_cached(
                f"scaling-overhead-{runtime}",
                {"workload": "task-chain", "dependences": 1,
                 "num_tasks": DEFAULT_OVERHEAD_NUM_TASKS},
                lambda runtime=runtime: measure_lifetime_overhead(
                    runtime, "task-chain", 1, DEFAULT_OVERHEAD_NUM_TASKS,
                    self.config),
            )
            for runtime in runtimes
        }

    def _run_scaling(
        self,
        quick: bool,
        scale: float,
        cases: Optional[Sequence[BenchmarkCase]],
        core_counts: Optional[Sequence[int]],
        runtimes: Optional[Sequence[str]],
    ) -> object:
        """The scaling curves: every case at every core count.

        Fans the (case × core count) product through the shared pool/cache
        in one :meth:`_sweep` grid, measures (and caches) the single-worker
        lifetime overheads behind the MTT bounds, and assembles
        :class:`~repro.eval.scaling.ScalingCurve` records.  A warm re-run
        is served by the per-case cache entries and the cached overheads.
        """
        counts = normalize_core_counts(core_counts)
        selected_runtimes = normalize_runtimes(runtimes)
        failures_before = len(self.unit_failures)
        columns = self._sweep([self.config.with_cores(count)
                               for count in counts],
                              quick, scale, cases, selected_runtimes,
                              grid=True)
        runs_by_cores: Dict[int, List[BenchmarkRun]] = dict(zip(counts,
                                                                columns))
        if len(self.unit_failures) > failures_before:
            # Keep-going mode with failures: assemble curves from the
            # cases that completed at *every* core count, so one failed
            # column doesn't abort the whole experiment.
            runs_by_cores, _dropped = align_runs_by_cores(runs_by_cores)
        overheads = self.scaling_overheads(selected_runtimes)
        return build_scaling_curves(runs_by_cores, overheads,
                                    selected_runtimes)
