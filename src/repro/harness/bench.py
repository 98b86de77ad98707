"""Engine microbenchmarks and the ``BENCH_engine.json`` perf trajectory.

Every figure of the paper is regenerated by pumping events through
:class:`repro.sim.engine.Engine`, so engine throughput directly bounds how
fast the evaluation can run.  This module measures it two ways:

* :func:`measure_synthetic` — events/sec on a synthetic workload (a
  deterministic mix of pure-``Delay`` timer processes and blocking
  producer/consumer queue traffic, the two shapes that dominate the real
  runtime models).
* :func:`measure_case` — wall-clock seconds of one real Figure 9 benchmark
  case executed on every runtime, i.e. the unit of work the sweep harness
  parallelises.

:class:`PerfTrajectory` persists measurements as an append-only JSON
document (one entry per run, stamped with the package version and a
timestamp) so the performance curve of the engine is visible across
commits: run ``python -m repro bench`` (or ``benchmarks/bench_engine.py``)
before and after a change and compare the last two entries.

The trajectory file also receives one ``"sweep"`` entry per harness sweep
when :class:`~repro.harness.engine.ExperimentEngine` is constructed with a
``bench_path`` — recording the per-case wall-clock of real experiment runs,
not just the microbenchmark.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.sim.engine import Delay, Engine, Get, Put
from repro.sim.queues import DecoupledQueue

__all__ = [
    "DEFAULT_TRAJECTORY",
    "PerfTrajectory",
    "measure_synthetic",
    "measure_case",
    "measure_cache",
    "measure_pool",
    "run_engine_bench",
]

#: Default trajectory filename (relative to the invoking directory).
DEFAULT_TRAJECTORY = "BENCH_engine.json"

#: Schema version written into trajectory documents.
_SCHEMA = 1


# --------------------------------------------------------------------- #
# Microbenchmarks
# --------------------------------------------------------------------- #
def _spawn_synthetic(engine: Engine, num_events: int) -> int:
    """Spawn the synthetic workload on ``engine``; return its event count.

    The workload is deterministic (no randomness, no wall-clock input):
    roughly two thirds of the events are pure ``Delay`` resumptions spread
    over 64 timer processes, the rest are blocking ``Put``/``Get`` pairs
    over 16 bounded queues — mirroring the timer/queue mix the runtime
    models generate.
    """
    if num_events <= 0:
        raise EvaluationError("num_events must be positive")
    timer_events = (num_events * 2) // 3
    queue_events = num_events - timer_events

    n_timers = 64
    per_timer = max(timer_events // n_timers, 1)

    def timer(period: int):
        for _ in range(per_timer):
            yield Delay(period)

    for i in range(n_timers):
        engine.spawn(timer(1 + (i % 7)), name=f"timer{i}")

    n_pairs = 16
    # A producer yields Put+Delay per item, a consumer yields Get: 3 events
    # per item moved through a queue.
    items = max(queue_events // (n_pairs * 3), 1)

    def producer(queue: DecoupledQueue):
        for value in range(items):
            yield Put(queue, value)
            yield Delay(1)

    def consumer(queue: DecoupledQueue):
        for _ in range(items):
            yield Get(queue)

    for i in range(n_pairs):
        queue = DecoupledQueue(engine, 4, name=f"bench{i}")
        engine.spawn(producer(queue), name=f"prod{i}")
        engine.spawn(consumer(queue), name=f"cons{i}")

    return n_timers * per_timer + n_pairs * items * 3


def measure_synthetic(num_events: int = 1_000_000) -> Dict[str, float]:
    """Run the synthetic workload and return throughput figures.

    Returns a dict with ``events`` (actual event count), ``seconds`` and
    ``events_per_sec``.  Compare entries across trajectory runs to track
    the engine's throughput over commits.
    """
    engine = Engine()
    events = _spawn_synthetic(engine, num_events)
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return {
        "events": float(events),
        "seconds": elapsed,
        "events_per_sec": events / elapsed if elapsed > 0 else float("inf"),
    }


def measure_case(config: Optional[SimConfig] = None,
                 num_workers: int = 8,
                 case_index: int = 0,
                 workload: Optional[str] = None,
                 runtimes: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Time one real benchmark case end to end.

    Uses the quick sweep's case list (index ``case_index``) so the
    measurement is cheap enough for CI; ``workload`` restricts the list to
    one registered workload's cases and ``runtimes`` selects the runtimes
    the case runs on (default: the registry's case set).  Returns the case
    key, its wall clock in seconds and the total simulated cycles covered.
    """
    # Imported here so `repro.harness.bench` stays importable without the
    # evaluation layer (the synthetic benchmark needs only repro.sim).
    from repro.eval.experiments import benchmark_cases, run_benchmark_case

    config = config if config is not None else SimConfig()
    workloads = None if workload is None else [workload]
    cases = benchmark_cases(quick=True, workloads=workloads)
    if not 0 <= case_index < len(cases):
        raise EvaluationError(f"case_index {case_index} out of range")
    case = cases[case_index]
    started = time.perf_counter()
    run = run_benchmark_case(case, config, num_workers, runtimes)
    elapsed = time.perf_counter() - started
    simulated = sum(result.elapsed_cycles for result in run.results.values())
    return {
        "case": case.key,
        "seconds": elapsed,
        "simulated_cycles": float(simulated),
    }


def _pool_probe(*args: object) -> Tuple[object, ...]:
    """A no-op batch function: measures transport, not work."""
    return args


def measure_pool(max_workers: int = 2,
                 dispatches: int = 8) -> Dict[str, Any]:
    """Measure worker-pool warm-up versus warm-dispatch overhead.

    Warm-up is the wall clock of the *first* dispatch through a fresh
    :class:`~repro.harness.executor.ProcessPoolBackend` — pool
    construction plus one no-op round trip, i.e. the cold-start cost every
    sweep used to pay before the engine kept its pool warm.  Dispatch is
    the per-round-trip cost of the same no-op through the already-warm
    pool, amortised over ``dispatches`` rounds.  The gap between the two
    is what warm-pool reuse saves per sweep phase.
    """
    from repro.harness.executor import ProcessPoolBackend

    if dispatches <= 0:
        raise EvaluationError("dispatches must be positive")
    backend = ProcessPoolBackend(max_workers)
    try:
        started = time.perf_counter()
        list(backend.dispatch(_pool_probe, [((),)]))
        warmup = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(dispatches):
            list(backend.dispatch(_pool_probe, [((),)] * max_workers))
        dispatch_seconds = time.perf_counter() - started
    finally:
        backend.close()
    return {
        "workers": max_workers,
        "warmup_seconds": warmup,
        "dispatches": dispatches,
        "dispatch_seconds": dispatch_seconds,
        "dispatch_per_round_seconds": dispatch_seconds / dispatches,
    }


def _percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = min(len(sorted_samples) - 1,
               max(0, int(round(fraction * (len(sorted_samples) - 1)))))
    return sorted_samples[rank]


def measure_cache(entries: int = 64,
                  payload_fields: int = 32) -> Dict[str, Any]:
    """Measure result-cache put/get latency of the on-disk backend.

    Writes then reads ``entries`` synthetic documents (a ``payload_fields``
    -field dict each, roughly the shape of an encoded benchmark run)
    through a :class:`ShardedDiskStore` in a temporary directory, and
    reports p50/p95 latencies per operation under the ``"sharded"`` key —
    the cache rows of the perf trajectory.
    """
    import hashlib
    import tempfile

    from repro.harness.cache import ShardedDiskStore

    if entries <= 0:
        raise EvaluationError("entries must be positive")
    payload = {f"field{i}": float(i) for i in range(payload_fields)}
    keys = [hashlib.sha256(f"bench{i}".encode("ascii")).hexdigest()
            for i in range(entries)]
    with tempfile.TemporaryDirectory(prefix="repro-cache-bench-") as tmp:
        store = ShardedDiskStore(Path(tmp) / "sharded")
        puts: List[float] = []
        gets: List[float] = []
        for key in keys:
            started = time.perf_counter()
            store.put(key, payload, bench=True)
            puts.append(time.perf_counter() - started)
        for key in keys:
            started = time.perf_counter()
            store.get(key)
            gets.append(time.perf_counter() - started)
    puts.sort()
    gets.sort()
    return {
        "entries": entries,
        "sharded": {
            "put_p50_seconds": _percentile(puts, 0.50),
            "put_p95_seconds": _percentile(puts, 0.95),
            "get_p50_seconds": _percentile(gets, 0.50),
            "get_p95_seconds": _percentile(gets, 0.95),
        },
    }


def run_engine_bench(num_events: int = 1_000_000,
                     include_case: bool = True,
                     config: Optional[SimConfig] = None,
                     num_workers: int = 8,
                     repeats: int = 3,
                     workload: Optional[str] = None,
                     runtimes: Optional[Sequence[str]] = None,
                     include_pool: bool = True,
                     pool_workers: int = 2,
                     include_cache: bool = True,
                     ) -> Dict[str, Any]:
    """Run the full engine microbenchmark; return one trajectory entry.

    The entry records the synthetic events/sec of the engine loop, the
    wall clock of one real Figure 9 case (when ``include_case``), and the
    worker-pool warm-up versus warm-dispatch overhead (when
    ``include_pool``) — the cost the engine's persistent pool saves per
    sweep phase — and result-cache put/get p50/p95 latency of the on-disk
    backend (when ``include_cache``).  Each synthetic
    measurement is the best of ``repeats``
    runs, which suppresses transient host load — the standard way to make
    a throughput microbenchmark reproducible.  Regressions are found by
    comparing against the previous entries of the same trajectory.
    """
    if repeats <= 0:
        raise EvaluationError("repeats must be positive")
    fast = max((measure_synthetic(num_events) for _ in range(repeats)),
               key=lambda r: r["events_per_sec"])
    synthetic: Dict[str, Any] = {
        "num_events": int(fast["events"]),
        "repeats": repeats,
        "events_per_sec": fast["events_per_sec"],
    }
    entry: Dict[str, Any] = {
        "kind": "microbench",
        "timestamp": time.time(),
        "version": repro.__version__,
        "synthetic": synthetic,
    }
    if include_case:
        entry["figure9_case"] = measure_case(config, num_workers,
                                             workload=workload,
                                             runtimes=runtimes)
    if include_pool:
        entry["pool"] = measure_pool(max_workers=pool_workers)
    if include_cache:
        entry["cache"] = measure_cache()
    return entry


# --------------------------------------------------------------------- #
# Trajectory persistence
# --------------------------------------------------------------------- #
class PerfTrajectory:
    """Append-only JSON log of engine performance measurements.

    The file holds ``{"schema": 1, "entries": [...]}``; every
    :meth:`append` re-reads the document, adds one entry and rewrites it,
    so interleaved writers lose at most each other's concurrent entry (the
    file is a dashboard, not a database).  An empty, truncated or otherwise
    unreadable document never raises: readers get the salvageable entries
    (possibly none) plus a :class:`UserWarning`, and the next
    :meth:`append` re-seeds the file with a fresh document.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def _load(self) -> Tuple[List[Dict[str, Any]], Optional[str]]:
        """Read the document; return ``(entries, problem)``.

        ``problem`` is None for a healthy (or simply missing) file and a
        human-readable description when the document was empty, truncated
        or structurally invalid — the caller decides whether to warn.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            # A missing trajectory is the normal first-run state.
            return [], None
        if not text.strip():
            return [], "file is empty"
        try:
            document = json.loads(text)
            entries = document["entries"]
        except (ValueError, KeyError, TypeError):
            return [], "document is truncated or not a trajectory"
        if not isinstance(entries, list):
            return [], "'entries' is not a list"
        kept = [entry for entry in entries if isinstance(entry, dict)]
        if len(kept) != len(entries):
            return kept, f"dropped {len(entries) - len(kept)} malformed entries"
        return kept, None

    def entries(self) -> List[Dict[str, Any]]:
        """Every recorded entry, oldest first (empty for a missing file).

        A corrupt document yields whatever entries could be salvaged and a
        :class:`UserWarning`; it never raises, so a damaged trajectory
        cannot block a benchmark or sweep run.
        """
        entries, problem = self._load()
        if problem is not None:
            warnings.warn(
                f"perf trajectory {self.path} is corrupt ({problem}); "
                f"recovering {len(entries)} entries and re-seeding on the "
                f"next append",
                stacklevel=2,
            )
        return entries

    def last(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The most recent entry (of ``kind``, if given), or None."""
        for entry in reversed(self.entries()):
            if kind is None or entry.get("kind") == kind:
                return entry
        return None

    def append(self, entry: Dict[str, Any]) -> Path:
        """Add ``entry`` to the trajectory and return the file written."""
        entries = self.entries()
        entries.append(entry)
        document = {"schema": _SCHEMA, "entries": entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return self.path

    def record_sweep(self, experiment_id: str,
                     timings: Dict[str, float],
                     label: Optional[str] = None,
                     rates: Optional[Dict[str, float]] = None
                     ) -> Optional[Path]:
        """Append one ``"sweep"`` entry of per-case wall-clock seconds.

        ``label`` names the Study/grid/CLI invocation that produced the
        sweep, so trajectory entries are attributable to their scenario.
        ``rates`` adds each simulated case's sim-core throughput
        (simulated cycles per wall-second) as a ``"unit_rates"`` field, so
        the trajectory tracks real-experiment engine throughput, not just
        wall clock.  No entry is written when ``timings`` is empty (a
        fully cached sweep measured nothing).
        """
        if not timings:
            return None
        entry = {
            "kind": "sweep",
            "timestamp": time.time(),
            "version": repro.__version__,
            "experiment": experiment_id,
            "cases": dict(sorted(timings.items())),
            "total_seconds": sum(timings.values()),
        }
        if label is not None:
            entry["label"] = label
        if rates:
            entry["unit_rates"] = dict(sorted(rates.items()))
        return self.append(entry)
