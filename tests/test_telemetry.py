"""Tests for structured run telemetry: spans, sinks, manifests, summaries."""

from __future__ import annotations

import io
import json

import pytest

from repro.api import Study
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import benchmark_cases
from repro.harness import ExperimentEngine
from repro.harness.cache import CacheStore
from repro.harness.cli import main as cli_main
from repro.harness.telemetry import (
    TRACE_SCHEMA,
    ConsoleSink,
    JsonlSink,
    NullSink,
    Tracer,
    build_manifest,
    null_tracer,
    read_trace,
    summarize_trace,
)
from tests.helpers import RecordingSink, sweep_cases, unit_ends


@pytest.fixture(scope="module")
def tiny_config() -> SimConfig:
    return SimConfig(max_cycles=200_000_000).with_cores(4)


@pytest.fixture(scope="module")
def tiny_cases():
    return benchmark_cases(quick=True, scale=0.2)[:2]


# --------------------------------------------------------------------- #
# Tracer core: nesting, ordering, determinism
# --------------------------------------------------------------------- #
class TestTracerSpans:
    def test_span_nesting_and_ordering(self):
        sink = RecordingSink()
        tracer = Tracer([sink])
        with tracer.span("run", "run") as run_span:
            with tracer.span("phase-a", "phase"):
                tracer.unit("u1", 0.5, sim_cycles=100)
            with tracer.span("phase-b", "phase"):
                pass
        types = [(r["type"], r["name"]) for r in sink.records]
        assert types == [
            ("span_start", "run"),
            ("span_start", "phase-a"),
            ("span_start", "u1"),
            ("span_end", "u1"),
            ("span_end", "phase-a"),
            ("span_start", "phase-b"),
            ("span_end", "phase-b"),
            ("span_end", "run"),
        ]
        assert run_span.span_id == 1
        by_name = {r["name"]: r for r in sink.records
                   if r["type"] == "span_start"}
        assert by_name["run"]["parent"] is None
        assert by_name["phase-a"]["parent"] == by_name["run"]["span"]
        assert by_name["u1"]["parent"] == by_name["phase-a"]["span"]
        assert all(r["schema"] == TRACE_SCHEMA for r in sink.records)

    def test_span_ids_are_deterministic(self):
        def structure():
            sink = RecordingSink()
            tracer = Tracer([sink])
            with tracer.span("run", "run"):
                with tracer.span("sweep", "sweep", total=2):
                    tracer.unit("a", 0.1)
                    tracer.unit("b", 0.2, cached=True)
            return [(r["type"], r["span"], r.get("parent"), r["name"])
                    for r in sink.records]

        assert structure() == structure()

    def test_end_span_unwinds_nested_children(self):
        sink = RecordingSink()
        tracer = Tracer([sink])
        outer = tracer.start_span("outer", "phase")
        tracer.start_span("inner", "sweep")
        tracer.end_span(outer)
        assert tracer.current_span is None
        names = [r["name"] for r in sink.records if r["type"] == "span_end"]
        assert names == ["inner", "outer"]

    def test_end_span_on_closed_span_raises(self):
        tracer = Tracer([RecordingSink()])
        handle = tracer.start_span("x", "phase")
        tracer.end_span(handle)
        with pytest.raises(EvaluationError):
            tracer.end_span(handle)

    def test_unit_backdates_start_timestamp(self):
        sink = RecordingSink()
        tracer = Tracer([sink])
        tracer.unit("u", 2.5, sim_cycles=10)
        start, end = sink.records
        assert end["ts"] - start["ts"] == pytest.approx(2.5)
        assert end["seconds"] == pytest.approx(2.5)

    def test_close_unwinds_and_snapshots_counters(self):
        sink = RecordingSink()
        tracer = Tracer([sink])
        tracer.start_span("run", "run")
        tracer.count("cache.hits", 3)
        tracer.close()
        assert sink.closed
        assert sink.records[-1]["type"] == "counters"
        assert sink.records[-1]["values"] == {"cache.hits": 3}
        assert sink.records[-2] == {
            **sink.records[-2], "type": "span_end", "name": "run"}

    def test_set_attributes_land_on_end_record(self):
        sink = RecordingSink()
        tracer = Tracer([sink])
        with tracer.span("sweep", "sweep") as span:
            span.set(simulated=3, cached=1)
        end = sink.records[-1]
        assert end["attrs"] == {"simulated": 3, "cached": 1}


class TestInactiveTracer:
    def test_null_tracer_emits_nothing_but_counts(self):
        tracer = null_tracer()
        assert not tracer.active
        with tracer.span("run", "run"):
            tracer.unit("u", 1.0)
            tracer.event("e")
            tracer.count("cache.hits")
        tracer.emit_counters()
        assert tracer.counters == {"cache.hits": 1}

    def test_inactive_tracer_builds_no_records(self, monkeypatch):
        tracer = Tracer([NullSink()])
        monkeypatch.setattr(
            tracer, "_emit",
            lambda record: pytest.fail("inactive tracer emitted a record"))
        with tracer.span("run", "run"):
            tracer.unit("u", 1.0)
            tracer.event("e")
        tracer.emit_counters()

    def test_engine_progress_flag_attaches_console_sink(self):
        with ExperimentEngine() as quiet:
            assert not quiet.tracer.active
        with ExperimentEngine(progress=True) as loud:
            assert loud.tracer.active
            assert any(isinstance(sink, ConsoleSink)
                       for sink in loud.tracer.sinks)


# --------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------- #
class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonlSink(path)])
        with tracer.span("run", "run", **{"manifest.jobs": 2}):
            tracer.unit("case-a", 0.25, sim_cycles=500,
                        sim_cycles_per_sec=2000.0)
        tracer.count("cache.misses", 2)
        tracer.close()
        records = read_trace(path)
        assert [r["type"] for r in records] == [
            "span_start", "span_start", "span_end", "span_end", "counters"]
        unit_end = records[2]
        assert unit_end["kind"] == "unit"
        assert unit_end["attrs"]["sim_cycles"] == 500
        assert records[-1]["values"] == {"cache.misses": 2}
        # Every line is standalone JSON (a crashed run leaves a prefix).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_append_not_truncate(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            tracer = Tracer([JsonlSink(path)])
            with tracer.span("run", "run"):
                pass
            tracer.close()
        assert len(read_trace(path)) == 4

    def test_read_trace_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event"}\nnot json\n')
        with pytest.raises(EvaluationError, match="line 2"):
            read_trace(path)
        path.write_text('["no", "type"]\n')
        with pytest.raises(EvaluationError, match="not a telemetry record"):
            read_trace(path)
        with pytest.raises(EvaluationError, match="cannot read"):
            read_trace(tmp_path / "missing.jsonl")


def _console():
    """A StringIO, a ConsoleSink writing to it and a Tracer feeding it."""
    stream = io.StringIO()
    sink = ConsoleSink(stream)
    return stream, sink, Tracer([sink])


class TestConsoleSink:
    def test_renders_sweep_and_unit_spans(self):
        stream, _sink, tracer = _console()
        with tracer.span("benchmark sweep", "sweep", total=3):
            tracer.unit("a", 0.1)
            tracer.unit("b", 0.0, cached=True)
            tracer.unit("c", 0.0, failed=True, error_type="X", error="boom")
        lines = stream.getvalue().splitlines()
        assert lines[0] == "benchmark sweep: 3 unit(s)"
        assert lines[1].startswith("  [1/3] a")
        assert lines[2].startswith("  [2/3] b (cached)")
        assert lines[3].startswith("  [3/3] c (FAILED)")
        assert lines[4].startswith("benchmark sweep: done in ")
        assert lines[4].endswith("(1 simulated, 1 cached, 1 failed)")
        assert len(lines) == 5

    def test_ignores_non_sweep_spans(self):
        stream, _sink, tracer = _console()
        with tracer.span("run", "run"):
            with tracer.span("figure9", "phase"):
                tracer.event("e")
        tracer.close()
        assert stream.getvalue() == ""


# --------------------------------------------------------------------- #
# Console rendering: pace, finish counts, total=0 suppression
# --------------------------------------------------------------------- #
class TestProgressReporting:
    def _lines(self, stream):
        return stream.getvalue().splitlines()

    def test_advance_reports_rate_and_eta(self):
        stream, sink, tracer = _console()
        with tracer.span("sweep", "sweep", total=4):
            sink._started -= 1.0  # pretend a second elapsed
            tracer.unit("a", 0.1)
            line = self._lines(stream)[-1]
        assert "unit/s" in line and "ETA" in line

    def test_last_advance_omits_eta(self):
        stream, sink, tracer = _console()
        with tracer.span("sweep", "sweep", total=1):
            sink._started -= 1.0
            tracer.unit("a", 0.1)
            line = self._lines(stream)[-1]
        assert "unit/s" in line and "ETA" not in line

    def test_finish_reports_breakdown(self):
        stream, _sink, tracer = _console()
        with tracer.span("sweep", "sweep", total=3):
            tracer.unit("a", 0.1)
            tracer.unit("b", 0.0, cached=True)
            tracer.unit("c", 0.0, failed=True)
        line = self._lines(stream)[-1]
        assert "1 simulated" in line
        assert "1 cached" in line
        assert "1 failed" in line

    def test_empty_phase_prints_nothing(self):
        stream, _sink, tracer = _console()
        with tracer.span("before", "sweep", total=1):
            tracer.unit("a", 0.1)
        lines_before = len(self._lines(stream))
        with tracer.span("empty", "sweep", total=0):
            pass
        assert len(self._lines(stream)) == lines_before


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
class TestRunManifest:
    def test_build_manifest_contents(self):
        import repro

        manifest = build_manifest(SimConfig(), jobs=4, label="test-run")
        attrs = manifest.as_attributes()
        assert attrs["manifest.version"] == repro.__version__
        assert attrs["manifest.jobs"] == 4
        assert attrs["manifest.label"] == "test-run"
        assert "hostname" in attrs["manifest.host"]
        assert "python" in attrs["manifest.host"]
        assert "jacobi" in attrs["manifest.workloads"]
        assert "phentos" in attrs["manifest.runtimes"]
        assert len(attrs["manifest.config"]) == 64  # sha-256 hex

    def test_fingerprint_tracks_config(self):
        base = build_manifest(SimConfig(), jobs=1)
        same = build_manifest(SimConfig(), jobs=8)
        other = build_manifest(SimConfig().with_cores(2), jobs=1)
        assert base.config_fingerprint == same.config_fingerprint
        assert base.config_fingerprint != other.config_fingerprint


# --------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------- #
class TestEngineTracing:
    def test_traced_run_produces_full_hierarchy(self, tmp_path, tiny_config,
                                                tiny_cases):
        trace = tmp_path / "trace.jsonl"
        with ExperimentEngine(config=tiny_config, trace_path=trace,
                              cache_dir=tmp_path / "cache") as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        records = read_trace(trace)
        kinds = {(r["kind"], r["name"]) for r in records
                 if r["type"] == "span_start"}
        assert ("run", "run") in kinds
        assert ("phase", "figure9") in kinds
        assert ("sweep", "benchmark sweep") in kinds
        unit_names = {r["name"] for r in records
                      if r["type"] == "span_start" and r["kind"] == "unit"}
        assert unit_names == {case.key for case in tiny_cases}
        run_start = next(r for r in records
                         if r["type"] == "span_start" and r["kind"] == "run")
        assert run_start["attrs"]["manifest.jobs"] == 1
        counters = [r for r in records if r["type"] == "counters"]
        assert counters
        assert counters[-1]["values"]["cache.misses"] == len(tiny_cases)
        assert counters[-1]["values"]["cache.stores"] == len(tiny_cases)
        units = [r for r in records
                 if r["type"] == "span_end" and r["kind"] == "unit"]
        for unit in units:
            assert unit["attrs"]["sim_cycles"] > 0
            assert unit["attrs"]["sim_cycles_per_sec"] > 0

    def test_cached_rerun_traces_hits(self, tmp_path, tiny_config,
                                      tiny_cases):
        cache_dir = tmp_path / "cache"
        with ExperimentEngine(config=tiny_config,
                              cache_dir=cache_dir) as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        trace = tmp_path / "warm.jsonl"
        with ExperimentEngine(config=tiny_config, trace_path=trace,
                              cache_dir=cache_dir) as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        summary = summarize_trace(trace)
        assert summary.cached_units == len(tiny_cases)
        assert summary.unit_seconds == []
        assert summary.cache_hit_ratio == 1.0

    def test_untraced_engine_is_inactive_and_result_identical(
            self, tmp_path, tiny_config, tiny_cases):
        with ExperimentEngine(config=tiny_config) as engine:
            assert not engine.tracer.active
            plain = engine.run("figure9", quick=True, cases=tiny_cases)
        trace = tmp_path / "trace.jsonl"
        with ExperimentEngine(config=tiny_config,
                              trace_path=trace) as engine:
            traced = engine.run("figure9", quick=True, cases=tiny_cases)
        from repro.harness.artifacts import encode
        assert encode(plain) == encode(traced)

    def test_injected_tracer_is_not_closed_by_engine(self, tiny_config,
                                                     tiny_cases):
        sink = RecordingSink()
        tracer = Tracer([sink])
        with ExperimentEngine(config=tiny_config, tracer=tracer) as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        assert not sink.closed
        # The engine still ended its run span and snapshotted counters.
        assert any(r["type"] == "span_end" and r["kind"] == "run"
                   for r in sink.records)
        assert sink.records[-1]["type"] == "counters"

    def test_case_rates_populated(self, tiny_config, tiny_cases):
        sink = RecordingSink()
        with ExperimentEngine(config=tiny_config,
                              tracer=Tracer([sink])) as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        rates = {unit["name"]: unit["attrs"]["sim_cycles_per_sec"]
                 for unit in unit_ends(sink)}
        assert set(rates) == {case.key for case in tiny_cases}
        assert all(rate > 0 for rate in rates.values())

    def test_simulated_unit_spans_carry_rates(self, tiny_config,
                                              tiny_cases):
        sink = RecordingSink()
        runs = sweep_cases(tiny_config, tiny_cases, num_workers=2,
                           tracer=Tracer([sink]))
        assert len(runs) == len(tiny_cases)
        units = unit_ends(sink)
        assert sorted(unit["name"] for unit in units) == sorted(
            case.key for case in tiny_cases)
        for unit in units:
            assert unit["seconds"] > 0
            assert unit["attrs"]["sim_cycles"] > 0
            assert unit["attrs"]["sim_cycles_per_sec"] > 0

    def test_cache_hits_are_cached_unit_spans_with_zero_seconds(
            self, tmp_path, tiny_config, tiny_cases):
        cache = CacheStore(tmp_path / "cache")
        sweep_cases(tiny_config, tiny_cases, num_workers=2, cache=cache)
        sink = RecordingSink()
        sweep_cases(tiny_config, tiny_cases, num_workers=2, cache=cache,
                    tracer=Tracer([sink]))
        units = unit_ends(sink)
        assert len(units) == len(tiny_cases)
        for unit in units:
            assert unit["attrs"] == {"cached": True}
            assert unit["seconds"] == 0


class TestCountersUnderFailure:
    def test_keep_going_with_retry_counts(self, tmp_path, tiny_config,
                                          tiny_cases, poison_case):
        trace = tmp_path / "trace.jsonl"
        cases = [tiny_cases[0], poison_case]
        with ExperimentEngine(config=tiny_config, trace_path=trace,
                              keep_going=True, retries=2) as engine:
            runs = engine.run("figure9", quick=True, cases=cases)
        assert len(runs) == 1
        records = read_trace(trace)
        counters = [r for r in records if r["type"] == "counters"][-1]
        assert counters["values"]["sweep.unit_failures"] == 1
        assert counters["values"]["sweep.retries"] == 2
        retries = [r for r in records
                   if r["type"] == "event" and r["name"] == "unit.retry"]
        assert len(retries) == 2
        summary = summarize_trace(trace)
        assert len(summary.failed_units) == 1
        failed = summary.failed_units[0]
        assert failed["attrs"]["error_type"] == "RuntimeError"
        assert failed["attrs"]["attempts"] == 3
        run_end = next(r for r in records
                       if r["type"] == "span_end" and r["kind"] == "run")
        assert run_end["attrs"]["unit_failures"] == 1


@pytest.fixture
def poison_case():
    """A benchmark case whose builder always raises; yields the case."""
    from repro import registry
    from repro.registry import register_workload

    name = "poison-telemetry-test"

    @register_workload(name, description="always fails (test)")
    def _poison(**params):
        raise RuntimeError("injected unit failure")

    yield benchmark_cases(workloads=[name])[0]
    registry.WORKLOADS.remove(name)


# --------------------------------------------------------------------- #
# Summary and CLI
# --------------------------------------------------------------------- #
class TestTraceSummary:
    def test_percentiles(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        tracer = Tracer([JsonlSink(trace)])
        with tracer.span("run", "run"):
            with tracer.span("sweep", "sweep", total=10):
                for index in range(10):
                    tracer.unit(f"u{index}", float(index + 1))
        tracer.close()
        summary = summarize_trace(trace)
        assert summary.total_units == 10
        assert summary.latency(0.50) == pytest.approx(5.0)
        assert summary.latency(0.95) == pytest.approx(10.0)
        assert summary.run_seconds is not None

    def test_render_reports_sections(self, tmp_path, tiny_config,
                                     tiny_cases):
        trace = tmp_path / "trace.jsonl"
        with ExperimentEngine(config=tiny_config, trace_path=trace,
                              cache_dir=tmp_path / "cache") as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        text = summarize_trace(trace).render()
        assert "run: repro" in text
        assert "config fingerprint:" in text
        assert "figure9" in text
        assert "unit latency: p50" in text
        assert "cache:" in text
        assert "pool:" in text

    def test_cli_trace_summary(self, tmp_path, capsys, tiny_config,
                               tiny_cases):
        trace = tmp_path / "trace.jsonl"
        with ExperimentEngine(config=tiny_config, trace_path=trace) as engine:
            engine.run("figure9", quick=True, cases=tiny_cases)
        assert cli_main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "units: 2 total, 2 simulated" in out

    def test_cli_trace_summary_missing_file(self, tmp_path, capsys):
        assert cli_main(["trace", "summary",
                         str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliTracing:
    def test_run_with_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = cli_main(["run", "figure7", "--num-tasks", "16",
                         "--no-cache", "--quiet", "--trace", str(trace)])
        assert code == 0
        records = read_trace(trace)
        assert any(r["type"] == "span_start" and r["kind"] == "run"
                   for r in records)
        assert any(r["type"] == "span_end" and r["kind"] == "phase"
                   and r["name"] == "figure7" for r in records)

    def test_trace_env_var(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        code = cli_main(["run", "figure7", "--num-tasks", "16",
                         "--no-cache", "--quiet"])
        assert code == 0
        assert read_trace(trace)

    def test_run_jobs_defaults_to_env(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "jobs.jsonl"
        monkeypatch.setenv("REPRO_JOBS", "2")
        code = cli_main(["run", "figure9", "--workload", "jacobi",
                         "--runtime", "phentos", "--quick", "--scale",
                         "0.05", "--no-cache", "--quiet",
                         "--trace", str(trace)])
        assert code == 0
        run_start = next(r for r in read_trace(trace)
                         if r["type"] == "span_start" and r["kind"] == "run")
        assert run_start["attrs"]["manifest.jobs"] == 2

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_sweep_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--cores", "2,4"])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Study API
# --------------------------------------------------------------------- #
class TestStudyTrace:
    def test_study_trace_records_and_reports_path(self, tmp_path,
                                                  tiny_cases):
        trace = tmp_path / "study.jsonl"
        result = (Study(SimConfig(max_cycles=200_000_000).with_cores(4))
                  .cases(*tiny_cases)
                  .quick()
                  .trace(trace)
                  .run())
        assert result.trace_path == str(trace)
        summary = summarize_trace(trace)
        assert summary.total_units == len(tiny_cases)
        assert summary.manifest.get("manifest.label") == result.label

    def test_untraced_study_has_no_trace_path(self, tiny_cases):
        result = (Study(SimConfig(max_cycles=200_000_000).with_cores(4))
                  .cases(*tiny_cases)
                  .quick()
                  .run())
        assert result.trace_path is None

    def test_study_result_roundtrips_trace_path(self, tmp_path, tiny_cases):
        from repro.harness.artifacts import decode, encode
        trace = tmp_path / "study.jsonl"
        result = (Study(SimConfig(max_cycles=200_000_000).with_cores(4))
                  .cases(*tiny_cases)
                  .quick()
                  .trace(trace)
                  .run())
        decoded = decode(json.loads(json.dumps(encode(result))))
        assert decoded.trace_path == str(trace)

    def test_direct_runner_progress_interface_unchanged(self, tiny_config,
                                                        tiny_cases):
        sink = RecordingSink()
        sweep_cases(tiny_config, tiny_cases, 4, tracer=Tracer([sink]))
        first, last = sink.records[0], sink.records[-1]
        assert (first["type"], first["kind"]) == ("span_start", "sweep")
        assert first["attrs"]["total"] == len(tiny_cases)
        assert (last["type"], last["kind"]) == ("span_end", "sweep")
        assert [unit["name"] for unit in unit_ends(sink)] == \
            [case.key for case in tiny_cases]
