"""Execution backends: where sweep units run, and how their failures land.

The runner (:mod:`repro.harness.runner`) used to own a transient
``ProcessPoolExecutor`` per sweep: every sweep of a multi-phase study paid
full pool cold-start (re-importing the ~100-module package per worker), and
one crashed worker aborted the whole sweep with every in-flight unit
discarded.  This module decomposes that into an :class:`ExecutorBackend`
abstraction the :class:`~repro.harness.engine.ExperimentEngine` owns and
shares across every sweep and scaling phase it drives:

* :class:`SerialBackend` — everything in-process, the ``jobs=1`` path;
* :class:`ProcessPoolBackend` — a persistent **warm pool** of worker
  processes, built once and reused across dispatches, so the second and
  later phases of a study pay dispatch cost only.

Failure isolation is typed rather than exceptional: a unit that raises
produces a :class:`UnitFailure` (unit key, exception text, attempt count)
instead of propagating out of ``future.result()`` and tearing down the
sweep.  Failed units are retried in a **fresh** worker process
(:meth:`ExecutorBackend.run_isolated`) — a deliberate guard against
poisoned interpreter state in a warm worker — and whatever still fails is
aggregated into one :class:`SweepError` naming every failed unit, or, under
keep-going mode, returned alongside the partial results.  A worker that
dies hard (``os._exit``, a segfault) breaks the pool; the backend detects
that, rebuilds the pool, and the driver retries the affected batches, so a
single crash costs one retry round instead of the whole sweep.

Backends speak in **batches** (tuples of picklable argument tuples), so
small units amortise IPC and pickling over one dispatch; the runner picks
the batch size (:func:`batch_size`).

Backends are observable: attaching a
:class:`~repro.harness.telemetry.Tracer` (the ``tracer`` attribute, set by
the engine) counts pool constructions (``pool.starts``), dispatch rounds
(``pool.dispatches``), crash-triggered rebuilds (``pool.rebuilds``) and
fresh-worker retry executions (``pool.retries``), and emits a
``pool.rebuild`` event when a broken pool is discarded — so a ``--trace``
run records every pool lifecycle transition a sweep went through.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, \
    as_completed
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import EvaluationError

__all__ = [
    "UnitFailure",
    "SweepError",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "batch_size",
]


@dataclass(frozen=True)
class UnitFailure:
    """One sweep unit that failed every attempt it was given.

    ``key`` is the unit's display key (``case.key@Nw``), ``slot`` its
    position in the sweep's input list (so callers can zip failures back
    against their unit list), ``error_type``/``error`` the exception class
    name and text of the *last* attempt, and ``attempts`` how many times
    the unit was executed before being given up on.
    """

    key: str
    slot: int
    error_type: str
    error: str
    attempts: int

    def describe(self) -> str:
        """One-line human-readable form, used by reports and errors."""
        return (f"{self.key}: {self.error_type}: {self.error} "
                f"(after {self.attempts} attempt(s))")


class SweepError(EvaluationError):
    """A sweep finished with failed units (strict, non-keep-going mode).

    Carries the full :class:`UnitFailure` list plus completion counters;
    the message names every failed unit, so the CLI error line alone
    identifies what was lost.  Everything that *did* complete before the
    error was already landed in the result cache — re-running the sweep
    only re-attempts the failed units.
    """

    def __init__(self, failures: Sequence[UnitFailure],
                 completed: int, total: int) -> None:
        self.failures = list(failures)
        self.completed = completed
        self.total = total
        details = "; ".join(failure.describe() for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} of {total} sweep unit(s) failed "
            f"({completed} completed, results cached): {details}"
        )


def batch_size(num_units: int, width: int) -> int:
    """Units per dispatched batch for ``num_units`` over ``width`` workers.

    Batching amortises per-dispatch IPC and pickling, but oversized batches
    destroy load balance (units vary wildly in simulation cost), so aim for
    at least four batches per worker and never more than eight units per
    batch.  Serial execution (``width <= 1``) keeps batches of one so
    unit spans (and the status lines they feed) stay per-unit.
    """
    if width <= 1:
        return 1
    return max(1, min(8, num_units // (width * 4)))


class ExecutorBackend:
    """Where sweep batches execute.

    The two operations sweeps need: :meth:`dispatch` fans a list of batches
    out and yields their outcomes as they complete (an outcome is either
    the worker function's return value or the exception that killed the
    batch — never raised), and :meth:`run_isolated` runs one call in a
    fresh worker, the retry path for units suspected of poisoning their
    worker's interpreter state.  ``width`` is the usable parallelism, used
    by the runner to size batches.
    """

    kind = "abstract"

    #: Optional :class:`~repro.harness.telemetry.Tracer` receiving
    #: ``pool.*`` counters/events; set by the owner (the engine).
    tracer = None

    def _count(self, name: str, value: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    @property
    def width(self) -> int:
        raise NotImplementedError

    def dispatch(self, fn: Callable, batches: Sequence[Tuple]
                 ) -> Iterator[Tuple[int, object]]:
        """Yield ``(batch_index, outcome)`` as batches complete.

        ``outcome`` is ``fn(*batches[batch_index])``'s return value, or the
        exception it (or the transport under it) raised; exceptions are
        yielded, not raised, so one bad batch cannot abort the dispatch.
        """
        raise NotImplementedError

    def run_isolated(self, fn: Callable, *args: object) -> object:
        """Run ``fn(*args)`` in a fresh worker; exceptions propagate."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources; the backend may be restarted later."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutorBackend):
    """In-process execution — the ``jobs=1`` path, no pool machinery.

    Batches run one after another as the dispatch iterator is consumed, so
    unit spans are emitted live exactly like on the pool path.  "Isolated"
    retries simply re-run in-process: there is no worker state to poison.
    """

    kind = "serial"

    @property
    def width(self) -> int:
        return 1

    def dispatch(self, fn: Callable, batches: Sequence[Tuple]
                 ) -> Iterator[Tuple[int, object]]:
        self._count("pool.dispatches")
        for index, batch in enumerate(batches):
            try:
                yield index, fn(*batch)
            except Exception as exc:  # isolation: yield, don't raise
                yield index, exc

    def run_isolated(self, fn: Callable, *args: object) -> object:
        self._count("pool.retries")
        return fn(*args)


class ProcessPoolBackend(ExecutorBackend):
    """A persistent warm pool of ``max_workers`` worker processes.

    The underlying :class:`ProcessPoolExecutor` is created lazily on the
    first dispatch and *kept* across dispatches until :meth:`close` — an
    engine-owned backend therefore imports the package once per worker for
    an entire multi-phase study.  ``starts`` counts pool constructions
    (1 for a healthy lifetime; +1 per crash recovery) and ``dispatches``
    counts dispatch rounds, so tests can verify warm reuse.

    A batch whose worker dies hard breaks the whole pool
    (:class:`concurrent.futures.BrokenExecutor`): the remaining in-flight
    futures all fail with the same error.  ``dispatch`` yields those as
    per-batch outcomes and discards the broken pool, so the next dispatch
    (or the driver's retry round) transparently builds a fresh one.
    """

    kind = "process-pool"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise EvaluationError("max_workers must be positive")
        self.max_workers = max_workers
        self.starts = 0
        self.dispatches = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def width(self) -> int:
        return self.max_workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.starts += 1
            self._count("pool.starts")
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next dispatch starts a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            self._count("pool.rebuilds")
            if self.tracer is not None:
                self.tracer.event("pool.rebuild", workers=self.max_workers)

    def dispatch(self, fn: Callable, batches: Sequence[Tuple]
                 ) -> Iterator[Tuple[int, object]]:
        self.dispatches += 1
        self._count("pool.dispatches")
        # Submission can itself hit a broken pool: a warm worker that died
        # *between* dispatches makes the next submit raise BrokenExecutor
        # synchronously.  That costs one pool rebuild; a second breakage
        # during the same dispatch fails the remaining batches as
        # outcomes (the driver's retry path picks them up) rather than
        # thrashing through pool restarts.
        futures = {}
        failed_submits: List[Tuple[int, BaseException]] = []
        items = list(enumerate(batches))
        position = 0
        rebuilt = False
        while position < len(items):
            index, batch = items[position]
            try:
                futures[self._ensure_pool().submit(fn, *batch)] = index
            except BrokenExecutor as exc:
                self._discard_pool()
                if rebuilt:
                    failed_submits.extend(
                        (i, exc) for i, _batch in items[position:])
                    break
                rebuilt = True
                continue  # retry the same batch on a fresh pool
            position += 1
        for index, exc in failed_submits:
            yield index, exc
        broken = False
        for future in as_completed(futures):
            index = futures[future]
            try:
                yield index, future.result()
            except Exception as exc:
                if isinstance(exc, BrokenExecutor):
                    broken = True
                yield index, exc
        if broken:
            self._discard_pool()

    def run_isolated(self, fn: Callable, *args: object) -> object:
        # A single-use single-worker pool: the retried call gets a process
        # no previous unit can have poisoned, and its crash cannot touch
        # the warm pool.
        self._count("pool.retries")
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn, *args).result()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
