"""Structured run telemetry: hierarchical spans, counters and manifests.

Telemetry is the one channel through which a sweep reports its work: a
:class:`Tracer` emits hierarchical spans (run → phase → sweep → unit) plus
point events to pluggable :class:`TelemetrySink` objects, and accumulates
named counters (cache hits/misses, pool starts/rebuilds, retry rounds)
that are snapshotted into the trace when the run closes.  Three sinks
cover the built-in needs:

* :class:`NullSink` — swallows everything; a tracer with no live sink
  skips record construction entirely, so the default (untraced) path adds
  no overhead to a sweep;
* :class:`JsonlSink` — appends one JSON object per line to a
  ``trace.jsonl`` file (the ``--trace PATH`` / ``$REPRO_TRACE`` surface),
  the seam a future ``repro serve`` daemon will stream job status from;
* :class:`ConsoleSink` — renders the live stderr status lines of
  ``python -m repro`` (header, per-unit advance with pace and ETA, and
  the simulated/cached/failed breakdown) from sweep and unit spans.

Every record is a flat JSON document stamped with :data:`TRACE_SCHEMA`:

* ``span_start`` — ``{"type", "schema", "span", "parent", "name",
  "kind", "ts", "attrs"}``; the *run* span's attrs carry the
  :class:`RunManifest` (package version, config fingerprint, jobs, host,
  plugin list);
* ``span_end`` — the same identity fields plus ``"seconds"`` (wall-clock
  duration) and the span's final attributes;
* ``event`` — a point record parented at the current span;
* ``counters`` — a snapshot of every counter accumulated so far.

Span identifiers are sequential integers assigned in emission order and
parentage follows a plain stack, so a single-threaded run always produces
a byte-for-byte deterministic span *structure* (timestamps and durations
vary, nesting and ordering do not).  Unit spans are synthesised at
completion time — the coordinator only learns a unit's fate (and its
worker-measured wall clock) when the result lands — so their
``span_start``/``span_end`` records are emitted back-to-back with the
start timestamp back-dated by the measured duration.

:func:`read_trace` parses a trace file strictly (CI validates traces with
it) and :func:`summarize_trace` folds one into a :class:`TraceSummary` —
per-phase wall-clock, unit-latency percentiles, cache hit ratio, pool
counters and the failure list — rendered by ``repro trace summary``.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO

from repro.common.errors import EvaluationError

__all__ = [
    "TRACE_SCHEMA",
    "COUNTER_NAMES",
    "TelemetrySink",
    "NullSink",
    "JsonlSink",
    "ConsoleSink",
    "SpanHandle",
    "Tracer",
    "null_tracer",
    "RunManifest",
    "build_manifest",
    "read_trace",
    "summarize_trace",
    "TraceSummary",
]

#: Version stamped into every emitted record; bumped when record fields
#: change shape so trace consumers can dispatch on it.
TRACE_SCHEMA = 1


# --------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------- #
class TelemetrySink:
    """Receives telemetry records; implementations must never raise."""

    def emit(self, record: Dict[str, Any]) -> None:
        """Consume one record (a plain JSON-serialisable dict)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further emits are undefined."""


class NullSink(TelemetrySink):
    """Swallows every record — the zero-overhead default for tests.

    A :class:`Tracer` treats a sink list containing only null sinks as
    *inactive* and skips record construction altogether, so attaching a
    ``NullSink`` costs a sweep nothing beyond counter bookkeeping.
    """

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class JsonlSink(TelemetrySink):
    """Appends records to ``path``, one compact JSON object per line.

    The file handle opens lazily on the first emit and every line is
    flushed, so a crashed run still leaves a parseable prefix — an
    append-only trace is the debugging artifact of last resort and must
    survive the process that wrote it.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = None

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        json.dump(record, self._handle, sort_keys=True,
                  separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


class ConsoleSink(TelemetrySink):
    """Live status lines on ``stream`` (stderr by default).

    Exactly the rendering ``python -m repro`` shows, read off the span
    records: a sweep span's start prints the ``label: N unit(s)`` header,
    each unit span's end prints one ``[done/total]`` line with the phase's
    pace and ETA, and the sweep span's end prints its wall clock and the
    simulated/cached/failed breakdown.  A sweep of zero units prints
    nothing, not even the closing line.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0
        self._cached = 0
        self._failed = 0
        self._started = 0.0

    def _print(self, line: str) -> None:
        print(line, file=self.stream, flush=True)

    def emit(self, record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "unit" and record["type"] == "span_end":
            self._advance(record)
        elif kind == "sweep" and record["type"] == "span_start":
            self._total = int(record["attrs"].get("total", 0))
            self._done = self._cached = self._failed = 0
            self._started = record["ts"]
            if self._total:
                self._print(f"{record['name']}: {self._total} unit(s)")
        elif kind == "sweep" and record["type"] == "span_end" \
                and self._total:
            simulated = self._done - self._cached - self._failed
            self._print(f"{record['name']}: done in "
                        f"{record['seconds']:.1f}s ({simulated} simulated, "
                        f"{self._cached} cached, {self._failed} failed)")

    def _advance(self, record: Dict[str, Any]) -> None:
        """One resolved unit (completed, cache-served or failed)."""
        attrs = record.get("attrs", {})
        self._done += 1
        if attrs.get("cached"):
            self._cached += 1
            suffix = " (cached)"
        elif attrs.get("failed"):
            self._failed += 1
            suffix = " (FAILED)"
        else:
            suffix = ""
        pace = ""
        elapsed = record["ts"] - self._started
        if elapsed > 0:
            rate = self._done / elapsed
            remaining = self._total - self._done
            pace = (f" [{rate:.1f} unit/s]" if remaining <= 0 else
                    f" [{rate:.1f} unit/s, ETA {remaining / rate:.0f}s]")
        self._print(f"  [{self._done}/{self._total}] {record['name']}"
                    f"{suffix}{pace}")


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
@dataclass
class SpanHandle:
    """One open span; ``set`` folds attributes into the end record."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    attributes: Dict[str, Any]
    started: float = 0.0

    def set(self, **attributes: Any) -> "SpanHandle":
        """Attach attributes reported with the span's end record."""
        self.attributes.update(attributes)
        return self


#: Every counter name the harness may emit.  ``Tracer.count()`` validates
#: against this set at runtime and the ``telemetry`` lint rule validates
#: string literals statically, so the two enforcement layers share one
#: source of truth and a typo cannot mint a phantom metric series.
COUNTER_NAMES = frozenset({
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.read_seconds",
    "cache.write_seconds",
    "pool.starts",
    "pool.dispatches",
    "pool.rebuilds",
    "pool.retries",
    "sweep.retries",
    "sweep.unit_failures",
})


class Tracer:
    """Emits hierarchical spans and counters to a set of sinks.

    Spans nest through a plain stack (the harness coordinates work from
    one thread), identifiers are sequential, and counters are in-memory
    name → number accumulators snapshotted by :meth:`emit_counters`.  A
    tracer whose sinks are all :class:`NullSink` is *inactive*: spans
    still nest (so counters and structure stay correct) but no record is
    built or emitted.  Counter names must come from :data:`COUNTER_NAMES`.
    """

    def __init__(self,
                 sinks: Optional[Sequence[TelemetrySink]] = None) -> None:
        self.sinks: List[TelemetrySink] = list(sinks or [])
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._stack: List[SpanHandle] = []

    # ------------------------------ state ----------------------------- #
    @property
    def active(self) -> bool:
        """Whether any attached sink actually consumes records."""
        return any(not isinstance(sink, NullSink) for sink in self.sinks)

    @property
    def current_span(self) -> Optional[SpanHandle]:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero).

        ``name`` must be declared in :data:`COUNTER_NAMES`; rejecting
        unknown names here keeps the metric namespace closed so a typo
        shows up as a crash in tests, not as a phantom series in traces.
        """
        if name not in COUNTER_NAMES:
            raise ValueError(
                f"unknown telemetry counter {name!r}; declare it in "
                "repro.harness.telemetry.COUNTER_NAMES")
        self.counters[name] = self.counters.get(name, 0) + value

    # ----------------------------- spans ------------------------------ #
    def _emit(self, record: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def start_span(self, name: str, kind: str,
                   **attributes: Any) -> SpanHandle:
        """Open a span under the current one and emit its start record."""
        parent = self._stack[-1].span_id if self._stack else None
        handle = SpanHandle(span_id=next(self._ids), parent_id=parent,
                            name=name, kind=kind,
                            attributes=dict(attributes),
                            started=time.perf_counter())
        self._stack.append(handle)
        if self.active:
            self._emit({
                "type": "span_start", "schema": TRACE_SCHEMA,
                "span": handle.span_id, "parent": handle.parent_id,
                "name": name, "kind": kind, "ts": time.time(),
                "attrs": dict(handle.attributes),
            })
        return handle

    def end_span(self, handle: SpanHandle) -> None:
        """Close ``handle`` (and anything still open inside it)."""
        while self._stack:
            top = self._stack.pop()
            seconds = time.perf_counter() - top.started
            if self.active:
                self._emit({
                    "type": "span_end", "schema": TRACE_SCHEMA,
                    "span": top.span_id, "parent": top.parent_id,
                    "name": top.name, "kind": top.kind, "ts": time.time(),
                    "seconds": seconds, "attrs": dict(top.attributes),
                })
            if top is handle:
                return
        raise EvaluationError(
            f"span {handle.name!r} (id {handle.span_id}) is not open"
        )

    @contextmanager
    def span(self, name: str, kind: str,
             **attributes: Any) -> Iterator[SpanHandle]:
        """Context-managed :meth:`start_span` / :meth:`end_span` pair."""
        handle = self.start_span(name, kind, **attributes)
        try:
            yield handle
        finally:
            self.end_span(handle)

    def unit(self, name: str, seconds: float, **attributes: Any) -> None:
        """Emit one completed *unit* span under the current span.

        Units finish in worker processes and report their wall clock with
        the result, so the span pair is synthesised here at completion
        time: the start timestamp is back-dated by ``seconds``.
        """
        if not self.active:
            return
        parent = self._stack[-1].span_id if self._stack else None
        span_id = next(self._ids)
        ended = time.time()
        attrs = dict(attributes)
        self._emit({
            "type": "span_start", "schema": TRACE_SCHEMA,
            "span": span_id, "parent": parent, "name": name,
            "kind": "unit", "ts": ended - seconds, "attrs": attrs,
        })
        self._emit({
            "type": "span_end", "schema": TRACE_SCHEMA,
            "span": span_id, "parent": parent, "name": name,
            "kind": "unit", "ts": ended, "seconds": seconds,
            "attrs": attrs,
        })

    def event(self, name: str, **attributes: Any) -> None:
        """Emit a point event parented at the current span."""
        if not self.active:
            return
        parent = self._stack[-1].span_id if self._stack else None
        self._emit({
            "type": "event", "schema": TRACE_SCHEMA, "span": parent,
            "name": name, "ts": time.time(), "attrs": dict(attributes),
        })

    # --------------------------- lifecycle ---------------------------- #
    def emit_counters(self) -> None:
        """Snapshot every counter into the trace (no-op when inactive)."""
        if self.active and self.counters:
            self._emit({
                "type": "counters", "schema": TRACE_SCHEMA,
                "ts": time.time(),
                "values": dict(sorted(self.counters.items())),
            })

    def close(self) -> None:
        """Unwind open spans, snapshot counters and close every sink."""
        while self._stack:
            self.end_span(self._stack[0])
        self.emit_counters()
        for sink in self.sinks:
            sink.close()


def null_tracer() -> Tracer:
    """A tracer that records counters but emits nothing."""
    return Tracer([NullSink()])


# --------------------------------------------------------------------- #
# Run manifest
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunManifest:
    """What a run *was*: the identity card stamped on the run span.

    Everything a later reader needs to attribute a trace: the package
    version, a stable fingerprint of the simulated configuration, the
    host fan-out, where it ran and which plugins were loaded.
    """

    version: str
    config_fingerprint: str
    jobs: int
    host: Dict[str, str]
    workloads: List[str] = field(default_factory=list)
    runtimes: List[str] = field(default_factory=list)
    label: Optional[str] = None

    def as_attributes(self) -> Dict[str, Any]:
        """The manifest as flat span attributes (``manifest.*`` keys)."""
        attrs: Dict[str, Any] = {
            "manifest.version": self.version,
            "manifest.config": self.config_fingerprint,
            "manifest.jobs": self.jobs,
            "manifest.host": dict(self.host),
            "manifest.workloads": list(self.workloads),
            "manifest.runtimes": list(self.runtimes),
        }
        if self.label is not None:
            attrs["manifest.label"] = self.label
        return attrs


def build_manifest(config: object, jobs: int,
                   label: Optional[str] = None) -> RunManifest:
    """Assemble the :class:`RunManifest` of one engine run.

    Imports the hashing/registry layers lazily so this module stays
    importable from the cache and executor (which sit below them).
    """
    import platform
    import sys

    import repro
    from repro import registry
    from repro.harness.hashing import config_fingerprint, stable_hash

    return RunManifest(
        version=repro.__version__,
        config_fingerprint=stable_hash(config_fingerprint(config)),
        jobs=jobs,
        host={
            "hostname": platform.node(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
        workloads=registry.WORKLOADS.names(),
        runtimes=registry.RUNTIMES.names(),
        label=label,
    )


# --------------------------------------------------------------------- #
# Trace reading and summarisation
# --------------------------------------------------------------------- #
def read_trace(path) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file strictly; malformed lines raise.

    Strictness is the point: CI validates the trace a run produced, and a
    half-written line (a crash mid-emit) must surface, not be skipped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise EvaluationError(f"cannot read trace {path}: {exc}")
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise EvaluationError(
                f"trace {path} line {number} is not valid JSON: {exc}"
            )
        if not isinstance(record, dict) or "type" not in record:
            raise EvaluationError(
                f"trace {path} line {number} is not a telemetry record"
            )
        records.append(record)
    return records


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class TraceSummary:
    """The digest ``repro trace summary`` renders from one trace file."""

    manifest: Dict[str, Any]
    phases: List[Dict[str, Any]]
    unit_seconds: List[float]
    cached_units: int
    failed_units: List[Dict[str, Any]]
    total_units: int
    counters: Dict[str, float]
    run_seconds: Optional[float] = None

    @property
    def cache_hit_ratio(self) -> Optional[float]:
        """Cache hits / lookups from the counter snapshot (None if none)."""
        hits = self.counters.get("cache.hits", 0)
        misses = self.counters.get("cache.misses", 0)
        lookups = hits + misses
        return hits / lookups if lookups else None

    def latency(self, fraction: float) -> Optional[float]:
        """Unit-latency percentile over the simulated (non-cached) units."""
        if not self.unit_seconds:
            return None
        return _percentile(self.unit_seconds, fraction)

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines: List[str] = []
        if self.manifest:
            version = self.manifest.get("manifest.version", "?")
            host = self.manifest.get("manifest.host", {})
            lines.append(
                f"run: repro {version} on {host.get('hostname', '?')} "
                f"(python {host.get('python', '?')}, "
                f"jobs={self.manifest.get('manifest.jobs', '?')})"
            )
            config = self.manifest.get("manifest.config")
            if config:
                lines.append(f"config fingerprint: {config[:16]}")
            label = self.manifest.get("manifest.label")
            if label:
                lines.append(f"label: {label}")
        if self.run_seconds is not None:
            lines.append(f"run wall-clock: {self.run_seconds:.2f}s")
        if self.phases:
            lines.append("phases:")
            for phase in self.phases:
                lines.append(f"  {phase['name']:<24} "
                             f"{phase['seconds']:8.2f}s  ({phase['kind']})")
        simulated = len(self.unit_seconds)
        lines.append(
            f"units: {self.total_units} total, {simulated} simulated, "
            f"{self.cached_units} cached, {len(self.failed_units)} failed"
        )
        if self.unit_seconds:
            lines.append(
                f"unit latency: p50 {self.latency(0.50):.3f}s, "
                f"p95 {self.latency(0.95):.3f}s, "
                f"max {max(self.unit_seconds):.3f}s"
            )
        ratio = self.cache_hit_ratio
        if ratio is not None:
            lines.append(
                f"cache: {self.counters.get('cache.hits', 0):.0f} hit(s), "
                f"{self.counters.get('cache.misses', 0):.0f} miss(es) "
                f"({ratio * 100:.0f}% hit ratio)"
            )
        pool = {name: value for name, value in sorted(self.counters.items())
                if name.startswith("pool.")}
        if pool:
            rendered = ", ".join(f"{name.split('.', 1)[1]}={value:.0f}"
                                 for name, value in pool.items())
            lines.append(f"pool: {rendered}")
        retries = self.counters.get("sweep.retries")
        if retries:
            lines.append(f"retries: {retries:.0f} isolated re-attempt(s)")
        for failure in self.failed_units:
            attrs = failure.get("attrs", {})
            lines.append(
                f"  FAILED {failure.get('name')}: "
                f"{attrs.get('error_type', '?')}: {attrs.get('error', '?')} "
                f"(after {attrs.get('attempts', '?')} attempt(s))"
            )
        return "\n".join(lines)


def summarize_trace(path) -> TraceSummary:
    """Fold the trace at ``path`` into a :class:`TraceSummary`."""
    records = read_trace(path)
    manifest: Dict[str, Any] = {}
    phases: List[Dict[str, Any]] = []
    unit_seconds: List[float] = []
    cached = 0
    failed: List[Dict[str, Any]] = []
    total_units = 0
    counters: Dict[str, float] = {}
    run_seconds: Optional[float] = None
    for record in records:
        record_type = record.get("type")
        kind = record.get("kind")
        if record_type == "span_start" and kind == "run" and not manifest:
            manifest = dict(record.get("attrs", {}))
        elif record_type == "span_end":
            if kind == "run" and run_seconds is None:
                run_seconds = float(record.get("seconds", 0.0))
            elif kind in ("phase", "sweep"):
                phases.append({"name": record.get("name"),
                               "kind": kind,
                               "seconds": float(record.get("seconds", 0.0))})
            elif kind == "unit":
                total_units += 1
                attrs = record.get("attrs", {})
                if attrs.get("failed"):
                    failed.append(record)
                elif attrs.get("cached"):
                    cached += 1
                else:
                    unit_seconds.append(float(record.get("seconds", 0.0)))
        elif record_type == "counters":
            # Later snapshots supersede earlier ones (close() re-emits).
            counters = {str(name): float(value)
                        for name, value in record.get("values", {}).items()}
    return TraceSummary(manifest=manifest, phases=phases,
                        unit_seconds=unit_seconds, cached_units=cached,
                        failed_units=failed, total_units=total_units,
                        counters=counters, run_seconds=run_seconds)
