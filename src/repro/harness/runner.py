"""Parallel execution of benchmark cases with cached, deterministic results.

:func:`run_units` fans benchmark work out over the
:class:`~repro.harness.executor.ExecutorBackend` its caller passes in —
in-process (:class:`~repro.harness.executor.SerialBackend`) or a
persistent process pool, which the
:class:`~repro.harness.engine.ExperimentEngine` owns and shares across
its sweeps.  The unit of work is one :class:`CaseUnit` — a benchmark case
under one configuration and simulated worker count — executed by the same
case-level hook the serial path uses
(:func:`repro.eval.experiments.run_benchmark_case`), in a worker process
with its own simulator state, so parallel results are identical to serial
ones.  A unit list may mix configurations freely — all of Figure 9 is one
configuration, a scaling grid is the (case × core count) product — and
every unit shares the one backend, so a grid's wall clock is bounded by
total work, not by its slowest column.  Units are grouped into small
batches per dispatch (:func:`~repro.harness.executor.batch_size`) to
amortise IPC, and assembly is order-independent: results land in a slot
indexed by the unit's position in the input list, whatever order workers
finish in.  Units name their workload and runtimes; each batch carries the
registry specs of the plugins it names, whole, so a spawned worker installs
exactly the parent's entries (:func:`_plugin_payload`).

Failures are isolated per unit: a unit whose builder or simulation raises
becomes a typed :class:`~repro.harness.executor.UnitFailure` instead of
aborting the sweep.  Failed units are retried (``retries`` times, once by
default) in a fresh worker process — a guard against poisoned interpreter
state — and a sweep that still has failures either raises one aggregated
:class:`~repro.harness.executor.SweepError` naming every failed unit, or,
with ``keep_going=True``, returns the completed runs (failed slots are
``None``, keeping results zippable against the input units) plus the
failure list through the ``failures`` out-parameter.  Either way, every
completed unit has already landed in the result cache.

When a :class:`~repro.harness.cache.CacheStore` is supplied, each unit is
looked up before any work is scheduled and stored (JSON-encoded) as soon as
it completes, so overlapping sweeps and re-runs only simulate the units they
have never seen.  Cache keys canonicalise the worker count into the config
(:func:`repro.harness.hashing.case_cache_key`) and never include host
execution knobs, so the ``jobs`` fan-out cannot cause spurious misses.

Execution reports through one channel, the
:class:`~repro.harness.telemetry.Tracer` threaded down from the engine:
the sweep runs inside a *sweep* span, and every resolved unit becomes a
*unit* span carrying its cached/failed state, retry count and — for an
executed unit, timed where it runs (inside the worker process for
parallel sweeps) — its wall clock, simulated cycles and sim-core
throughput.  Failures increment the ``sweep.unit_failures`` /
``sweep.retries`` counters.  The live stderr status lines are one more
consumer of those spans (:class:`~repro.harness.telemetry.ConsoleSink`);
a sweep without a tracer reports nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import (
    BenchmarkCase,
    BenchmarkRun,
    run_benchmark_case,
)
from repro.harness.artifacts import decode_cached, encode
from repro.harness.cache import CacheStore
from repro.harness.executor import (
    ExecutorBackend,
    SweepError,
    UnitFailure,
    batch_size,
)
from repro.harness.hashing import case_cache_key
from repro.harness.telemetry import Tracer, null_tracer

__all__ = ["CaseUnit", "run_units"]


@dataclass(frozen=True)
class CaseUnit:
    """One schedulable unit: a case under one config and worker count.

    ``runtimes`` is the canonical runtime selection of the unit (``None``
    means the default case runtimes; see
    :func:`~repro.eval.experiments.canonical_runtime_selection`).
    """

    config: SimConfig
    case: BenchmarkCase
    num_workers: int
    runtimes: Optional[Tuple[str, ...]] = None

    @property
    def key(self) -> str:
        """Display/span name, e.g. ``blackscholes/4K B8@8w``."""
        return f"{self.case.key}@{self.num_workers}w"


def _plugin_payload(units: Sequence[CaseUnit]
                    ) -> Tuple[Tuple[object, ...], Tuple[str, ...]]:
    """The plugin payload workers need to resolve ``units`` by name.

    Cases travel to workers as registry *names*; a spawned (or forkserver)
    worker re-imports only the ``repro`` built-ins, so the plugin specs
    the units name must travel with them.  Two transports, per spec:

    * a plugin from an **importable module** ships its whole
      :class:`~repro.registry.WorkloadSpec` /
      :class:`~repro.registry.RuntimeSpec` (pickled, its builder or class
      by reference), which the worker installs under its name;
    * a plugin loaded from a **file path** (``--plugin FILE.py``) lives in
      a synthetic module no other process can import, so its source path
      ships instead and the worker re-loads the file, firing the file's
      own ``@register_*`` decorators.

    Both parts are empty for built-in-only units, keeping the common path
    payload-free.
    """
    workloads = dict.fromkeys(unit.case.builder for unit in units)
    runtimes = dict.fromkeys(name for unit in units
                             for name in unit.runtimes or ())
    entries = [(spec, spec.builder)
               for spec in map(registry.workload, workloads)]
    entries += [(spec, spec.cls) for spec in map(registry.runtime, runtimes)]
    specs: List[object] = []
    plugin_files: List[str] = []
    for spec, obj in entries:
        if (obj.__module__ or "").partition(".")[0] == "repro":
            continue
        source = registry.plugin_file_of(obj)
        if source is not None:
            plugin_files.append(source)
        else:
            specs.append(spec)
    return tuple(specs), tuple(dict.fromkeys(plugin_files))


def _register_payload(specs: Tuple[object, ...],
                      plugin_files: Tuple[str, ...]) -> None:
    """Worker-side plugin registration; idempotent, so warm workers that
    already saw a payload in an earlier batch end up unchanged."""
    for path in plugin_files:
        registry.load_plugin(path)
    for spec in specs:
        target = (registry.WORKLOADS
                  if isinstance(spec, registry.WorkloadSpec)
                  else registry.RUNTIMES)
        target.remove(spec.name)  # the parent's spec replaces a stale one
        target.add(spec)


def _execute_batch(payload: Tuple[Tuple, Tuple],
                   tasks: Tuple[Tuple, ...]) -> List[Tuple]:
    """Batched worker entry point with per-unit failure isolation.

    ``payload`` is the plugin payload of the whole batch
    (:func:`_plugin_payload`), registered once per dispatch (and a no-op
    in a warm worker that already saw it); ``tasks`` are ``(config, case,
    num_workers, runtimes)`` tuples.  Returns one outcome per task, in order:
    ``("ok", run, seconds)`` or ``("err", error_type, error_text)`` — unit
    exceptions are *data*, never raised, so one bad unit cannot take the
    batch (or the pool) down with it.  Each unit is timed here, in the
    worker, so parallel sweeps measure simulation cost rather than pool
    scheduling latency.
    """
    _register_payload(*payload)
    outcomes: List[Tuple] = []
    for config, case, num_workers, runtimes in tasks:
        started = time.perf_counter()
        try:
            run = run_benchmark_case(case, config, num_workers, runtimes)
        except Exception as exc:
            outcomes.append(("err", type(exc).__name__, str(exc)))
        else:
            outcomes.append(("ok", run, time.perf_counter() - started))
    return outcomes


def _unit_task(unit: CaseUnit) -> Tuple:
    return (unit.config, unit.case, unit.num_workers, unit.runtimes)


def _describe_error(exc: BaseException) -> Tuple[str, str]:
    return type(exc).__name__, str(exc)


def _dispatch_pending(
    backend: ExecutorBackend,
    pending: Sequence[Tuple[int, CaseUnit, Optional[str]]],
    retries: int,
    record,
    fail,
    tracer: Optional[Tracer] = None,
) -> None:
    """Drive ``pending`` units through ``backend`` with retry-on-failure.

    First round: units are batched and fanned out through
    :meth:`~repro.harness.executor.ExecutorBackend.dispatch`; a unit-level
    exception (reported as an ``("err", ...)`` outcome) or a batch-level
    one (a dead worker broke the pool) marks its units failed-once.  Retry
    rounds then re-execute each failed unit individually in a *fresh*
    worker (:meth:`run_isolated`), up to ``retries`` extra attempts; what
    still fails is reported through ``fail(slot, unit, error_type, error,
    attempts)``.  Completed units are reported through ``record`` exactly
    once, whichever round they complete in.
    """
    size = batch_size(len(pending), backend.width)
    batches = [tuple(pending[start:start + size])
               for start in range(0, len(pending), size)]
    jobs = [(_plugin_payload([unit for _slot, unit, _key in items]),
             tuple(_unit_task(unit) for _slot, unit, _key in items),
             items)
            for items in batches]

    # (item, payload, error_type, error_text, attempts so far)
    failed: List[Tuple] = []
    for index, outcome in backend.dispatch(
            _execute_batch, [(payload, tasks) for payload, tasks, _ in jobs]):
        payload, tasks, items = jobs[index]
        if isinstance(outcome, BaseException):
            # The whole batch died (worker crash / transport failure):
            # every unit of it gets the batch's error as its first attempt.
            error_type, error_text = _describe_error(outcome)
            failed.extend((item, payload, error_type, error_text, 1)
                          for item in items)
            continue
        for position, item in enumerate(items):
            unit_outcome = (outcome[position] if position < len(outcome)
                            else ("err", "EvaluationError",
                                  "batch returned no outcome for this unit"))
            if unit_outcome[0] == "ok":
                record(item, unit_outcome[1], unit_outcome[2])
            else:
                failed.append((item, payload,
                               unit_outcome[1], unit_outcome[2], 1))

    attempt = 1
    while failed and attempt <= retries:
        attempt += 1
        still_failed: List[Tuple] = []
        for item, payload, _error_type, _error_text, _attempts in failed:
            _slot, unit, _key = item
            if tracer is not None:
                tracer.count("sweep.retries")
                tracer.event("unit.retry", unit=unit.key, attempt=attempt)
            try:
                outcomes = backend.run_isolated(
                    _execute_batch, payload, (_unit_task(unit),))
                unit_outcome = outcomes[0]
            except Exception as exc:
                unit_outcome = ("err", *_describe_error(exc))
            if unit_outcome[0] == "ok":
                record(item, unit_outcome[1], unit_outcome[2])
            else:
                still_failed.append((item, payload, unit_outcome[1],
                                     unit_outcome[2], attempt))
        failed = still_failed

    for item, _payload, error_type, error_text, attempts in failed:
        slot, unit, _key = item
        fail(slot, unit, error_type, error_text, attempts)


def _unit_sim_cycles(run: BenchmarkRun) -> int:
    """Total simulated cycles across every runtime result of ``run``."""
    return sum(result.elapsed_cycles for result in run.results.values())


def run_units(
    units: Sequence[CaseUnit],
    executor: ExecutorBackend,
    cache: Optional[CacheStore] = None,
    grid: bool = False,
    keep_going: bool = False,
    retries: int = 1,
    failures: Optional[List[UnitFailure]] = None,
    tracer: Optional[Tracer] = None,
) -> List[Optional[BenchmarkRun]]:
    """Execute ``units`` on ``executor``; runs come back in input order.

    Each unit's ``num_workers`` is the number of *simulated* cores its
    non-serial runtimes use; the host fan-out is the backend's.  A unit
    that fails is retried ``retries`` times in a fresh worker; with
    ``keep_going`` the sweep returns anyway — failed slots are ``None``,
    keeping the list zippable against ``units``, and the failure records
    are appended to the ``failures`` list — otherwise it raises one
    :class:`~repro.harness.executor.SweepError` naming every failed unit.

    ``tracer`` carries the sweep's telemetry: one sweep span, and one unit
    span per unit (a cache hit is ``cached`` with zero seconds; a
    simulated unit carries its wall clock and sim-core throughput).  A
    plain sweep is the ``benchmark sweep`` with units named ``case.key``;
    a ``grid`` sweep is the ``grid sweep``, whose unit names carry the
    worker count (``case.key@Nw``) to keep its columns distinguishable.
    """
    if tracer is None:
        tracer = null_tracer()
    title = "grid sweep" if grid else "benchmark sweep"
    names = [unit.key if grid else unit.case.key for unit in units]

    results: List[Optional[BenchmarkRun]] = [None] * len(units)
    failed: Dict[int, UnitFailure] = {}

    def record(item: Tuple[int, CaseUnit, Optional[str]],
               run: BenchmarkRun, seconds: float) -> None:
        slot, unit, key = item
        results[slot] = run
        if cache is not None and key is not None:
            cache.put(key, encode(run), case=unit.case.key,
                      num_workers=unit.num_workers)
        cycles = _unit_sim_cycles(run)
        tracer.unit(names[slot], seconds, sim_cycles=cycles,
                    sim_cycles_per_sec=cycles / seconds if seconds > 0
                    else 0.0)

    def fail(slot: int, unit: CaseUnit, error_type: str, error: str,
             attempts: int) -> None:
        failed[slot] = UnitFailure(key=unit.key, slot=slot,
                                   error_type=error_type, error=error,
                                   attempts=attempts)
        tracer.count("sweep.unit_failures")
        tracer.unit(names[slot], 0.0, failed=True,
                    error_type=error_type, error=error, attempts=attempts)

    # The sweep span closes however the dispatch ends, so a worker
    # exception cannot leave the status line dangling mid-render.
    with tracer.span(title, "sweep", total=len(units)) as sweep_span:
        pending = []  # (slot, unit, cache key)
        for slot, unit in enumerate(units):
            key = None
            if cache is not None:
                key = case_cache_key(unit.case, unit.config, unit.num_workers,
                                     runtimes=unit.runtimes)
                run = decode_cached(cache, key, BenchmarkRun)
                if run is not None:
                    results[slot] = run
                    tracer.unit(names[slot], 0.0, cached=True)
                    continue
            pending.append((slot, unit, key))

        if pending:
            _dispatch_pending(executor, pending, retries, record, fail,
                              tracer=tracer)
        sweep_span.set(total=len(units),
                       simulated=len(pending) - len(failed),
                       cached=len(units) - len(pending),
                       failed=len(failed))

    sweep_failures = [failed[slot] for slot in sorted(failed)]
    if failures is not None:
        failures.extend(sweep_failures)
    completed = sum(1 for run in results if run is not None)
    if sweep_failures and not keep_going:
        raise SweepError(sweep_failures, completed=completed,
                         total=len(units))
    unfilled = [units[slot].key for slot, run in enumerate(results)
                if run is None and slot not in failed]
    if unfilled:
        # Every pending unit must resolve to a run or a UnitFailure; a
        # silently-dropped slot would mis-zip runs against cases downstream.
        raise EvaluationError(
            f"{title} left {len(unfilled)} unit slot(s) unfilled: "
            f"{', '.join(unfilled)}"
        )
    return results
