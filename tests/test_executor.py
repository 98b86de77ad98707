"""Tests for the executor backends and sweep failure isolation."""

from __future__ import annotations

import json
import os

import pytest

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import benchmark_cases
from repro.eval.scaling import align_runs_by_cores
from repro.harness import CacheStore, ExperimentEngine
from repro.harness.cli import main as cli_main
from repro.harness.executor import (
    ProcessPoolBackend,
    SerialBackend,
    SweepError,
    UnitFailure,
    batch_size,
)
from repro.harness.runner import CaseUnit, _plugin_payload, run_units
from repro.harness.telemetry import Tracer
from repro.registry import register_runtime, register_workload
from tests.helpers import RecordingSink, sweep_cases, sweep_units, unit_ends

POISON_PLUGIN = os.path.join(os.path.dirname(__file__), "plugins",
                             "poison_workload.py")


@pytest.fixture(scope="module")
def tiny_config() -> SimConfig:
    return SimConfig(max_cycles=200_000_000).with_cores(4)


@pytest.fixture(scope="module")
def tiny_cases():
    return benchmark_cases(quick=True, scale=0.2)[:2]


@pytest.fixture
def poison_workload():
    """Register an always-failing workload; yields its name."""
    name = "poison-unit-test"

    @register_workload(name, description="always fails (test)")
    def _poison(**params):
        raise RuntimeError("injected unit failure")

    yield name
    registry.WORKLOADS.remove(name)


def _mixed_cases(tiny_cases, poison_name):
    poisoned = benchmark_cases(workloads=[poison_name])
    return list(tiny_cases) + poisoned


def _crash_worker(value):
    """Module-level worker for pool tests: hard-kills on value == 13."""
    if value == 13:
        os._exit(13)
    return value * 2


def _raise_worker(value):
    raise ValueError(f"bad value {value}")


class TestBackends:
    def test_batch_size_serial_is_one(self):
        assert batch_size(100, 1) == 1

    def test_batch_size_targets_four_batches_per_worker(self):
        assert batch_size(64, 4) == 4
        assert batch_size(10, 8) == 1     # fewer units than slots
        assert batch_size(10_000, 8) == 8  # capped

    def test_serial_dispatch_isolates_exceptions(self):
        backend = SerialBackend()
        outcomes = dict(backend.dispatch(_raise_worker, [(1,), (2,)]))
        assert all(isinstance(out, ValueError) for out in outcomes.values())
        assert backend.run_isolated(_crash_worker, 3) == 6

    def test_pool_reused_across_dispatches(self):
        backend = ProcessPoolBackend(2)
        try:
            first = dict(backend.dispatch(_crash_worker, [(1,), (2,)]))
            second = dict(backend.dispatch(_crash_worker, [(3,)]))
            assert first == {0: 2, 1: 4}
            assert second == {0: 6}
            assert backend.starts == 1       # one warm pool, two rounds
            assert backend.dispatches == 2
        finally:
            backend.close()

    def test_pool_rebuilds_after_worker_crash(self):
        backend = ProcessPoolBackend(2)
        try:
            outcomes = dict(backend.dispatch(_crash_worker, [(13,), (1,)]))
            assert any(isinstance(out, BaseException)
                       for out in outcomes.values())
            # The broken pool was discarded; the next dispatch works.
            healthy = dict(backend.dispatch(_crash_worker, [(2,), (3,)]))
            assert healthy == {0: 4, 1: 6}
            assert backend.starts == 2
        finally:
            backend.close()

    def test_pool_broken_between_dispatches_recovers(self):
        # A warm worker dying while *idle* makes the next submit raise
        # BrokenExecutor synchronously; dispatch must absorb that (one
        # rebuild), never raise, and stay usable afterwards.
        import signal
        import time

        backend = ProcessPoolBackend(1)
        try:
            assert dict(backend.dispatch(_crash_worker, [(1,)])) == {0: 2}
            worker_pid = next(iter(backend._pool._processes))
            os.kill(worker_pid, signal.SIGKILL)
            time.sleep(0.3)  # let the executor notice the death
            outcomes = dict(backend.dispatch(_crash_worker, [(2,), (3,)]))
            assert set(outcomes) == {0, 1}  # yielded, not raised
            recovered = dict(backend.dispatch(_crash_worker, [(4,)]))
            assert recovered == {0: 8}
        finally:
            backend.close()

    def test_run_isolated_uses_fresh_process(self):
        backend = ProcessPoolBackend(2)
        try:
            assert backend.run_isolated(os.getpid) != os.getpid()
            # An isolated crash leaves the warm pool untouched.
            with pytest.raises(Exception):
                backend.run_isolated(_crash_worker, 13)
            assert dict(backend.dispatch(_crash_worker, [(1,)])) == {0: 2}
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(1)
        list(backend.dispatch(_crash_worker, [(1,)]))
        backend.close()
        backend.close()

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(EvaluationError):
            ProcessPoolBackend(0)


class TestFailureRecords:
    def test_unit_failure_describe(self):
        failure = UnitFailure(key="app/x@4w", slot=3, error_type="ValueError",
                              error="boom", attempts=2)
        text = failure.describe()
        assert "app/x@4w" in text and "ValueError" in text and "2" in text

    def test_sweep_error_names_every_unit(self):
        failures = [
            UnitFailure("a/one@2w", 0, "ValueError", "x", 2),
            UnitFailure("b/two@2w", 1, "RuntimeError", "y", 2),
        ]
        error = SweepError(failures, completed=5, total=7)
        message = str(error)
        assert "a/one@2w" in message and "b/two@2w" in message
        assert "2 of 7" in message and "5 completed" in message
        assert error.failures == failures


class TestSweepFailureIsolation:
    def test_strict_mode_raises_aggregated_sweep_error(
            self, tiny_config, tiny_cases, poison_workload):
        cases = _mixed_cases(tiny_cases, poison_workload)
        with pytest.raises(SweepError) as excinfo:
            sweep_cases(tiny_config, cases, num_workers=2, retries=0)
        assert len(excinfo.value.failures) == 1
        assert poison_workload in excinfo.value.failures[0].key

    def test_grid_with_one_failure_completes_rest_and_caches(
            self, tmp_path, tiny_config, tiny_cases, poison_workload):
        # The acceptance scenario: one poisoned unit in a grid; every
        # other unit completes, lands in the cache, and exactly one
        # UnitFailure is reported.
        cases = _mixed_cases(tiny_cases, poison_workload)
        units = [CaseUnit(tiny_config, case, workers)
                 for workers in (2, 4) for case in cases]
        cache = CacheStore(tmp_path)
        failures = []
        runs = sweep_units(units, jobs=2, grid=True, cache=cache,
                           keep_going=True, retries=1, failures=failures)
        assert len(failures) == 2  # the poisoned case at both core counts
        assert len(runs) == len(units)  # slot-aligned, failures are None
        completed = [run for run in runs if run is not None]
        assert len(completed) == len(units) - 2
        # Zip-safety: every non-None slot matches its unit.
        for unit, run in zip(units, runs):
            if run is not None:
                assert run.case == unit.case
        # Completed units were cached: a rerun is all hits + same failure.
        rerun_failures = []
        rerun = sweep_units(units, grid=True, cache=cache, keep_going=True,
                            retries=0, failures=rerun_failures)
        assert cache.stats.hits >= len(completed)
        assert [r.case.key for r in rerun if r is not None] == \
            [r.case.key for r in completed]
        assert len(rerun_failures) == 2

    def test_exactly_one_unit_failure_for_one_poisoned_unit(
            self, tmp_path, tiny_config, tiny_cases, poison_workload):
        cases = _mixed_cases(tiny_cases, poison_workload)
        units = [CaseUnit(tiny_config, case, 2) for case in cases]
        cache = CacheStore(tmp_path)
        failures = []
        runs = sweep_units(units, jobs=2, grid=True, cache=cache,
                           keep_going=True, failures=failures)
        assert len(failures) == 1
        assert failures[0].key == f"{poison_workload}/default@2w"
        assert sum(run is not None for run in runs) == len(cases) - 1

    def test_failed_unit_is_retried(self, tmp_path, tiny_config, tiny_cases,
                                    poison_workload):
        cases = _mixed_cases(tiny_cases, poison_workload)
        failures = []
        sweep_cases(tiny_config, cases, num_workers=2, keep_going=True,
                    retries=1, failures=failures)
        assert failures[0].attempts == 2  # first attempt + one retry
        failures = []
        sweep_cases(tiny_config, cases, num_workers=2, keep_going=True,
                    retries=0, failures=failures)
        assert failures[0].attempts == 1

    def test_transient_failure_recovers_on_retry(self, tmp_path, tiny_config,
                                                 tiny_cases):
        # A builder that fails once then succeeds: the retry (in a fresh
        # worker for pools; in-process for serial) must land the unit.
        name = "flaky-unit-test"
        flag = tmp_path / "first-attempt"

        def flaky(**params):
            if not flag.exists():
                flag.write_text("tried", encoding="utf-8")
                raise RuntimeError("transient failure")
            from tests.helpers import make_chain_program
            return make_chain_program(num_tasks=4, payload=50)

        register_workload(name, description="fails once (test)")(flaky)
        try:
            cases = benchmark_cases(workloads=[name])
            failures = []
            runs = sweep_cases(tiny_config, cases, num_workers=2,
                               retries=1, failures=failures)
            assert failures == []
            assert runs[0].results["serial"].elapsed_cycles > 0
        finally:
            registry.WORKLOADS.remove(name)

    def test_rejects_negative_retries(self, tiny_config):
        # The engine validates the retry budget before any sweep runs.
        with pytest.raises(EvaluationError):
            ExperimentEngine(config=tiny_config, keep_going=True,
                             retries=-1)

    def test_truncated_batch_outcome_becomes_failure(self, tiny_config,
                                                     tiny_cases):
        # A batch returning fewer outcomes than tasks must not silently
        # shorten the run list: the missing unit is treated as failed
        # (and recovered by the retry here).
        class TruncatingBackend(SerialBackend):
            def dispatch(self, fn, batches):
                for index, batch in enumerate(batches):
                    yield index, fn(*batch)[:-1]  # drop the last outcome

        failures = []
        units = [CaseUnit(tiny_config, case, 2) for case in tiny_cases]
        runs = run_units(units, TruncatingBackend(), retries=1,
                         failures=failures)
        assert failures == []
        assert [run.case.key for run in runs] == \
            [case.key for case in tiny_cases]

    def test_unfilled_slot_raises_naming_units(self, tiny_config,
                                               tiny_cases):
        # A backend that silently drops a whole batch must surface as an
        # EvaluationError naming the units, not a shortened run list.
        import re

        class LossyBackend(SerialBackend):
            def dispatch(self, fn, batches):
                for index, batch in list(enumerate(batches))[:-1]:
                    yield index, fn(*batch)

        with pytest.raises(EvaluationError,
                           match=re.escape(tiny_cases[-1].key)):
            run_units([CaseUnit(tiny_config, case, 2)
                       for case in tiny_cases], LossyBackend())

    def test_progress_finishes_and_marks_failures(
            self, tiny_config, tiny_cases, poison_workload):
        sink = RecordingSink()
        cases = _mixed_cases(tiny_cases, poison_workload)
        with pytest.raises(SweepError):
            sweep_cases(tiny_config, cases, num_workers=2, retries=0,
                        tracer=Tracer([sink]))
        # The sweep span closed although the sweep raised, and the
        # poisoned unit was marked failed rather than dropped.
        last = sink.records[-1]
        assert (last["type"], last["kind"]) == ("span_end", "sweep")
        failed = [unit["name"] for unit in unit_ends(sink)
                  if unit["attrs"].get("failed")]
        assert failed == [f"{poison_workload}/default"]


class TestPluginPayloadGuards:
    def test_runtime_class_with_none_module_ships_by_reference(
            self, tiny_config, tiny_cases):
        from tests.helpers import PluginRuntime

        class NoModuleRuntime(PluginRuntime):
            pass

        NoModuleRuntime.__module__ = None
        name = "no-module-rt"
        register_runtime(name, rank=7)(NoModuleRuntime)
        try:
            unit = CaseUnit(tiny_config, tiny_cases[0], 2, ("serial", name))
            _builder, plugin_runtimes, _files = _plugin_payload(unit)
            assert plugin_runtimes == {name: (NoModuleRuntime, 7)}
        finally:
            registry.RUNTIMES.remove(name)


class TestCacheMaintenance:
    def test_clear_sweeps_stale_tmp_files(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        # A writer killed between NamedTemporaryFile and os.replace
        # leaves a .tmp sibling behind; an in-flight (fresh) temporary of
        # a concurrent writer must survive the sweep.
        parent = cache.path_for("ab" * 32).parent
        stale = parent / ".abab1234-dead.tmp"
        stale.write_text("{", encoding="utf-8")
        os.utime(stale, (1, 1))  # killed long ago
        fresh = parent / ".abab1234-live.tmp"
        fresh.write_text("{", encoding="utf-8")
        assert cache.clear() == 1  # temporaries don't count as entries
        assert not stale.exists()
        assert fresh.exists()
        assert len(cache) == 0

    def test_size_bytes_tolerates_concurrent_deletion(self, tmp_path,
                                                      monkeypatch):
        cache = CacheStore(tmp_path)
        cache.put("cd" * 32, {"x": 1})
        real = cache.path_for("cd" * 32)
        ghost = real.parent / "ghost.json"

        monkeypatch.setattr(CacheStore, "entries",
                            lambda self: iter([real, ghost]))
        assert cache.size_bytes() == real.stat().st_size

    def test_clear_tolerates_concurrent_deletion(self, tmp_path,
                                                 monkeypatch):
        cache = CacheStore(tmp_path)
        cache.put("ef" * 32, {"x": 1})
        real = cache.path_for("ef" * 32)
        ghost = real.parent / "ghost.json"
        monkeypatch.setattr(CacheStore, "entries",
                            lambda self: iter([ghost, real]))
        assert cache.clear() == 1


class TestEngineExecutorOwnership:
    def test_warm_pool_reused_across_sweep_phases(self, tiny_config,
                                                  tiny_cases):
        with ExperimentEngine(config=tiny_config, jobs=2) as engine:
            engine.run("figure9", cases=tiny_cases, num_workers=2)
            engine.run("figure9", cases=tiny_cases, num_workers=4)
            backend = engine.executor
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.starts == 1
            assert backend.dispatches == 2

    def test_close_is_idempotent_and_backend_rebuilds(self, tiny_config):
        engine = ExperimentEngine(config=tiny_config, jobs=2)
        first = engine.executor
        engine.close()
        engine.close()
        assert engine.executor is not first

    def test_serial_engine_uses_serial_backend(self, tiny_config):
        with ExperimentEngine(config=tiny_config, jobs=1) as engine:
            assert isinstance(engine.executor, SerialBackend)

    def test_engine_rejects_negative_retries(self, tiny_config):
        with pytest.raises(EvaluationError):
            ExperimentEngine(config=tiny_config, retries=-1)

    def test_keep_going_engine_collects_failures(
            self, tiny_config, tiny_cases, poison_workload):
        cases = _mixed_cases(tiny_cases, poison_workload)
        with ExperimentEngine(config=tiny_config, jobs=2,
                              keep_going=True, retries=0) as engine:
            runs = engine.run("figure9", cases=cases, num_workers=2)
            assert len(runs) == len(cases) - 1
            assert len(engine.unit_failures) == 1
            assert poison_workload in engine.unit_failures[0].key

    def test_strict_engine_raises_sweep_error(
            self, tiny_config, tiny_cases, poison_workload):
        cases = _mixed_cases(tiny_cases, poison_workload)
        with ExperimentEngine(config=tiny_config, retries=0) as engine:
            with pytest.raises(SweepError):
                engine.run("figure9", cases=cases, num_workers=2)

    def test_memo_served_partial_sweep_re_reports_failures(
            self, tiny_config, tiny_cases, poison_workload):
        # A partial result served from the sweep memo must re-report its
        # failures: a caller of the second run would otherwise mistake
        # the gap-ridden result for a complete one.
        cases = _mixed_cases(tiny_cases, poison_workload)
        with ExperimentEngine(config=tiny_config, keep_going=True,
                              retries=0) as engine:
            engine.run("figure9", cases=cases, num_workers=2)
            after_first = len(engine.unit_failures)
            runs = engine.run("figure9", cases=cases, num_workers=2)
            assert len(runs) == len(cases) - 1
            assert len(engine.unit_failures) > after_first

    def test_partial_scaling_curves_never_cached(
            self, tmp_path, tiny_config, tiny_cases, poison_workload):
        # Even when every column is memo-served (second run), only the
        # completed units of a partial curve set are cached: a fresh
        # engine must re-attempt the poisoned units, not be served gaps.
        cases = _mixed_cases(tiny_cases[:1], poison_workload)
        with ExperimentEngine(config=tiny_config, cache_dir=tmp_path,
                              keep_going=True, retries=0) as engine:
            engine.run("scaling_curves", cases=cases, core_counts=[1, 2])
            engine.run("scaling_curves", cases=cases, core_counts=[1, 2])
        with ExperimentEngine(config=tiny_config, cache_dir=tmp_path,
                              keep_going=True, retries=0) as fresh:
            fresh.run("scaling_curves", cases=cases, core_counts=[1, 2])
            assert fresh.unit_failures  # re-attempted, not served gaps

    def test_scaling_grid_records_each_failure_once(
            self, tmp_path, tiny_config, tiny_cases, poison_workload):
        # One poisoned case at two core counts fails two units: the grid
        # records each once, and the run span agrees with the counter.
        from repro.harness.telemetry import read_trace

        trace = tmp_path / "trace.jsonl"
        cases = _mixed_cases(tiny_cases[:1], poison_workload)
        with ExperimentEngine(config=tiny_config, keep_going=True,
                              retries=0, trace_path=trace) as engine:
            engine.run("scaling_curves", cases=cases, core_counts=[1, 2])
            assert len(engine.unit_failures) == 2
        records = read_trace(trace)
        counters = [r for r in records if r["type"] == "counters"][-1]
        run_end = next(r for r in records
                       if r["type"] == "span_end" and r["kind"] == "run")
        assert counters["values"]["sweep.unit_failures"] == 2
        assert run_end["attrs"]["unit_failures"] == 2

    def test_memo_served_failures_are_counted_once_in_the_run_span(
            self, tmp_path, tiny_config, tiny_cases, poison_workload):
        # figure8 is served figure9's partial sweep from the memo and
        # re-reports its one failure, but only one unit ever failed: the
        # run span agrees with the counter.
        from repro.harness.telemetry import read_trace

        trace = tmp_path / "trace.jsonl"
        cases = _mixed_cases(tiny_cases[:1], poison_workload)
        with ExperimentEngine(config=tiny_config, keep_going=True,
                              retries=0, trace_path=trace) as engine:
            engine.run("figure9", cases=cases, num_workers=2)
            engine.run("figure8", cases=cases, num_workers=2)
            assert len(engine.unit_failures) == 2
        records = read_trace(trace)
        counters = [r for r in records if r["type"] == "counters"][-1]
        run_end = next(r for r in records
                       if r["type"] == "span_end" and r["kind"] == "run")
        assert counters["values"]["sweep.unit_failures"] == 1
        assert run_end["attrs"]["unit_failures"] == 1

    def test_keep_going_scaling_aligns_surviving_cases(
            self, tiny_config, tiny_cases, poison_workload):
        cases = _mixed_cases(tiny_cases[:1], poison_workload)
        with ExperimentEngine(config=tiny_config, keep_going=True,
                              retries=0) as engine:
            curves = engine.run("scaling_curves", cases=cases,
                                core_counts=[1, 2])
            surviving = {curve.case_key for curve in curves}
            assert surviving == {tiny_cases[0].key}
            assert engine.unit_failures  # the poisoned column was recorded


class TestScalingAlignment:
    def test_align_drops_cases_missing_anywhere(self, tiny_config,
                                                tiny_cases):
        from repro.eval.experiments import run_benchmark_case

        full = [run_benchmark_case(case, tiny_config, 1)
                for case in tiny_cases]
        aligned, dropped = align_runs_by_cores({1: full, 2: full[:1]})
        assert dropped == [tiny_cases[1].key]
        assert [run.case.key for run in aligned[1]] == [tiny_cases[0].key]
        assert [run.case.key for run in aligned[2]] == [tiny_cases[0].key]

    def test_align_empty_input(self):
        assert align_runs_by_cores({}) == ({}, [])


class TestStudyFailureKnobs:
    def test_keep_going_study_reports_failures(self, tiny_config,
                                               poison_workload):
        from repro.api import Study
        from repro.harness.artifacts import decode, encode

        result = (Study(tiny_config).workloads("jacobi", poison_workload)
                  .quick().scale(0.2).keep_going().retries(0).run())
        assert len(result.failures) == 1
        assert poison_workload in result.failures[0].key
        assert result.runs()  # the healthy workload completed
        clone = decode(encode(result))
        assert clone == result

    def test_strict_study_raises(self, tiny_config, poison_workload):
        from repro.api import Study

        with pytest.raises(SweepError):
            (Study(tiny_config).workloads("jacobi", poison_workload)
             .quick().scale(0.2).retries(0).run())

    def test_retries_validates(self):
        from repro.api import Study

        with pytest.raises(EvaluationError):
            Study().retries(-1)


class TestCliFailureHandling:
    def test_keep_going_exits_zero_with_failure_report(self, capsys):
        code = cli_main(["run", "figure9", "--plugin", POISON_PLUGIN,
                         "--workload", "jacobi,poison", "--quick",
                         "--scale", "0.2", "--no-cache", "--quiet",
                         "--keep-going", "--retries", "0",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "poison/default" in captured.err
        assert "1 unit(s) failed" in captured.err
        payload = json.loads(captured.out)
        # N-1 results: the sweep rendered, minus the poisoned unit.
        from repro.harness.artifacts import decode
        runs = decode(payload["figure9"])
        assert runs
        assert all(run.case.benchmark != "poison" for run in runs)

    def test_strict_mode_exits_nonzero_naming_unit(self, capsys):
        code = cli_main(["run", "figure9", "--plugin", POISON_PLUGIN,
                         "--workload", "jacobi,poison", "--quick",
                         "--scale", "0.2", "--no-cache", "--quiet",
                         "--retries", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "poison/default" in captured.err
