"""Experiment harness: parallel execution, result caching, artifacts, CLI.

The harness is the orchestration layer above :mod:`repro.eval`:

* :mod:`repro.harness.hashing` — stable content fingerprints of configs,
  cases and experiment requests, used as cache keys.
* :mod:`repro.harness.cache` — a content-addressed on-disk result cache so
  re-runs and overlapping sweeps are served from disk.
* :mod:`repro.harness.artifacts` — JSON round-tripping of every result
  dataclass plus an artifact store for archiving experiment outputs.
* :mod:`repro.harness.executor` — execution backends: serial in-process
  execution and the persistent warm process pool the engine shares across
  sweep phases, plus the typed failure records (``UnitFailure`` /
  ``SweepError``) of per-unit failure isolation.
* :mod:`repro.harness.runner` — ``run_units``, its one entry: fans
  benchmark (case × config) units out over the executor backend its
  caller passes in, with deterministic, order-independent result
  assembly, per-dispatch batching and retry-in-a-fresh-worker failure
  handling.
* :mod:`repro.harness.engine` — the experiment engine, the only code
  that runs an experiment of the :data:`repro.eval.EXPERIMENT_SPECS`
  registry, chaining derived experiments behind their inputs; one
  memoised sweep method runs the Figure 9 sweep and the
  ``scaling_curves`` (case × core count) grid alike.
* :mod:`repro.harness.telemetry` — structured run telemetry: hierarchical
  spans (run → phase → sweep → unit), counters, run manifests and the
  pluggable sinks (JSONL trace files, the live stderr status lines) they
  feed; the one channel through which a sweep reports its units.
* :mod:`repro.harness.cli` — the ``python -m repro`` command-line front end.

Typical usage::

    from repro.harness import ExperimentEngine

    engine = ExperimentEngine(jobs=8, cache_dir=".repro_cache")
    runs = engine.run("figure9", quick=True)
    summary = engine.run("headline", quick=True)   # served from cache
"""

from repro.harness.artifacts import ArtifactStore, decode, encode
from repro.harness.cache import CacheStats, CacheStore, open_store
from repro.harness.engine import ExperimentEngine
from repro.harness.executor import (
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    SweepError,
    UnitFailure,
)
from repro.harness.hashing import (
    CACHE_SCHEMA,
    canonical_case_config,
    case_cache_key,
    config_fingerprint,
    experiment_cache_key,
    stable_hash,
)
from repro.harness.runner import CaseUnit, run_units
from repro.harness.telemetry import (
    ConsoleSink,
    JsonlSink,
    NullSink,
    RunManifest,
    SpanHandle,
    TelemetrySink,
    TraceSummary,
    Tracer,
    build_manifest,
    null_tracer,
    read_trace,
    summarize_trace,
)

__all__ = [
    "ArtifactStore",
    "CACHE_SCHEMA",
    "CacheStats",
    "CacheStore",
    "CaseUnit",
    "ConsoleSink",
    "ExecutorBackend",
    "ExperimentEngine",
    "JsonlSink",
    "NullSink",
    "ProcessPoolBackend",
    "RunManifest",
    "SerialBackend",
    "SpanHandle",
    "SweepError",
    "TelemetrySink",
    "TraceSummary",
    "Tracer",
    "UnitFailure",
    "build_manifest",
    "canonical_case_config",
    "case_cache_key",
    "config_fingerprint",
    "decode",
    "encode",
    "experiment_cache_key",
    "null_tracer",
    "open_store",
    "read_trace",
    "run_units",
    "stable_hash",
    "summarize_trace",
]
