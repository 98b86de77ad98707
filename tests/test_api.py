"""Tests for the unified Study API and the registry-aware CLI surface.

Exercises the ISSUE-4 tentpole end to end: the fluent builder dispatches
to the engine's sweep/scaling machinery, returns a typed
:class:`~repro.api.StudyResult` that round-trips through the artifact
codec, and a workload registered only via ``@register_workload`` runs
through both :class:`Study` and ``python -m repro run`` with no edits to
the eval layer or the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro import Study, registry
from repro.api import StudyResult, StudySweep
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import benchmark_cases
from repro.harness.artifacts import decode, encode
from repro.harness.cli import main as cli_main
from repro.harness.engine import ExperimentEngine
from repro.harness.telemetry import Tracer
from repro.registry import register_workload
from tests.helpers import RecordingSink, unit_ends


@pytest.fixture(scope="module")
def tiny_config() -> SimConfig:
    return SimConfig(max_cycles=200_000_000).with_cores(4)


@pytest.fixture
def fib_workload():
    """A throwaway plugin workload (binary reduction), auto-unregistered."""
    from repro.runtime.task import Task, TaskProgram, in_dep, out_dep

    name = "test-fib"

    @register_workload(name, tags=("test-plugin",),
                       defaults={"levels": 3, "task_cycles": 500},
                       description="binary reduction test workload")
    def build(*, levels: int, task_cycles: int) -> TaskProgram:
        tasks = []
        base = 0x7000_0000
        previous: list = []
        for level in range(levels, -1, -1):
            current = []
            for slot in range(2 ** level):
                address = base + len(tasks) * 64
                deps = [out_dep(address)]
                if previous:
                    deps += [in_dep(previous[2 * slot]),
                             in_dep(previous[2 * slot + 1])]
                tasks.append(Task(index=len(tasks),
                                  payload_cycles=task_cycles,
                                  dependences=tuple(deps),
                                  name=f"n{level}_{slot}"))
                current.append(address)
            previous = current
        return TaskProgram(name="test-fib", tasks=tasks)

    try:
        yield name
    finally:
        registry.WORKLOADS.remove(name)


class TestStudyBuilder:
    def test_unknown_workload_fails_eagerly(self):
        with pytest.raises(Exception, match="did you mean 'jacobi'"):
            Study().workloads("jacobbi")

    def test_unknown_runtime_fails_eagerly(self):
        with pytest.raises(Exception, match="did you mean 'phentos'"):
            Study().runtimes("fentos")

    def test_serial_runtime_rejected(self):
        with pytest.raises(EvaluationError, match="serial baseline"):
            Study().runtimes("serial")

    def test_cores_validated(self):
        with pytest.raises(EvaluationError):
            Study().cores()
        with pytest.raises(EvaluationError):
            Study().cores(0)
        with pytest.raises(EvaluationError):
            Study().cores(2.5)  # type: ignore[arg-type]

    def test_scale_validated(self):
        with pytest.raises(EvaluationError):
            Study().scale(0)

    def test_methods_chain(self):
        study = Study().workloads("jacobi").runtimes("phentos") \
            .cores(2, 4).quick().scale(0.5).label("x")
        assert isinstance(study, Study)


class TestStudyRun:
    def test_single_count_study(self, tiny_config):
        result = (Study(tiny_config).workloads("jacobi")
                  .runtimes("phentos", "nanos-rv")
                  .quick().scale(0.1).run())
        assert isinstance(result, StudyResult)
        assert result.workloads == ("jacobi",)
        assert result.runtimes == ("phentos", "nanos-rv")
        assert result.core_counts == (4,)
        assert result.curves == ()
        assert result.case_keys == ["jacobi/N128 B1"]
        assert result.speedups("phentos")["jacobi/N128 B1"] > 1.0
        assert result.geomean("phentos") > 1.0

    def test_multi_count_study_builds_curves(self, tiny_config):
        result = (Study(tiny_config).workloads("jacobi")
                  .cores(2, 4).quick().scale(0.1).run())
        assert result.core_counts == (2, 4)
        assert [sweep.cores for sweep in result.sweeps] == [2, 4]
        # one curve per (case, compared runtime)
        assert len(result.curves) == 3
        assert {point.cores for point in result.curves[0].points} == {2, 4}
        assert result.sweep_at(2).runs[0].case.key == "jacobi/N128 B1"
        with pytest.raises(EvaluationError, match="no 16-core sweep"):
            result.sweep_at(16)

    def test_runs_defaults_to_widest_machine(self, tiny_config):
        result = (Study(tiny_config).workloads("jacobi")
                  .cores(2, 4).quick().scale(0.1).run())
        assert result.runs() == list(result.sweep_at(4).runs)

    def test_result_roundtrips_through_codec(self, tiny_config):
        result = (Study(tiny_config).workloads("jacobi")
                  .cores(2, 4).quick().scale(0.1).run())
        assert decode(encode(result)) == result

    def test_shared_engine_memoises_across_studies(self, tiny_config):
        sink = RecordingSink()
        engine = ExperimentEngine(config=tiny_config, tracer=Tracer([sink]))
        study = Study(tiny_config).workloads("jacobi").quick().scale(0.1)
        first = study.run(engine=engine)
        simulated = len(unit_ends(sink))
        assert simulated  # simulated something
        second = study.run(engine=engine)
        assert len(unit_ends(sink)) == simulated  # pure memo assembly
        assert first == second

    def test_explicit_cases(self, tiny_config):
        cases = benchmark_cases(quick=True, scale=0.1)[:1]
        result = Study(tiny_config).cases(*cases).run()
        assert result.case_keys == [cases[0].key]

    def test_study_archives_artifact(self, tiny_config, tmp_path):
        (Study(tiny_config).workloads("jacobi").quick().scale(0.1)
         .label("arch-test").artifacts(tmp_path / "art").run())
        from repro.harness.artifacts import ArtifactStore
        store = ArtifactStore(tmp_path / "art")
        names = store.names()
        assert names and "arch-test" in names[0]
        assert isinstance(store.load(names[0]), StudyResult)

    def test_label_recorded_in_run_manifest(self, tiny_config, tmp_path):
        from repro.harness.telemetry import summarize_trace
        trace = tmp_path / "trace.jsonl"
        (Study(tiny_config).workloads("jacobi").quick().scale(0.1)
         .label("manifest-label-test").trace(trace).run())
        summary = summarize_trace(trace)
        assert summary.manifest["manifest.label"] == "manifest-label-test"
        assert summary.total_units


class TestPluginWorkloadEndToEnd:
    """Acceptance: a new workload via @register_workload only."""

    def test_runs_through_study(self, fib_workload, tiny_config):
        result = (Study(tiny_config).workloads(fib_workload)
                  .runtimes("phentos").run())
        assert result.workloads == (fib_workload,)
        assert result.case_keys == [f"{fib_workload}/default"]
        assert result.runs()[0].results["phentos"].elapsed_cycles > 0

    def test_runs_through_cli(self, fib_workload, capsys):
        code = cli_main(["run", "figure9", "--workload", fib_workload,
                         "--no-cache", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert fib_workload in out

    def test_listed_by_cli(self, fib_workload, capsys):
        assert cli_main(["workloads", "--tag", "test-plugin"]) == 0
        out = capsys.readouterr().out
        assert fib_workload in out
        assert "binary reduction" in out


class TestPluginTransport:
    """Plugin registrations reach pool workers and fresh CLI processes."""

    def test_plugin_workload_survives_worker_boundary(self, tiny_config):
        # Simulate a spawned worker: the plugin is absent from the
        # registry when _execute_batch runs, and the shipped builder
        # payload re-registers it.
        from repro.harness.executor import ProcessPoolBackend
        from repro.harness.runner import CaseUnit, _execute_batch, \
            _plugin_payload, run_units
        from tests.helpers import plugin_chain_builder

        name = "transport-wl"
        register_workload(name, defaults={"num_tasks": 4, "payload": 50})(
            plugin_chain_builder)
        try:
            cases = benchmark_cases(workloads=[name])
            unit = CaseUnit(tiny_config, cases[0], 2)
            builder, plugin_runtimes, plugin_files = _plugin_payload(unit)
            assert builder is plugin_chain_builder
            assert plugin_runtimes == {}
            assert plugin_files == ()
            # parallel path end to end (payload attached per batch)
            with ProcessPoolBackend(2) as backend:
                runs = run_units([unit], backend)
            assert runs[0].results["phentos"].elapsed_cycles > 0
        finally:
            registry.WORKLOADS.remove(name)
        # Worker side: registry no longer knows the name; the payload
        # must be enough to execute the unit.
        [outcome] = _execute_batch(
            ({name: plugin_chain_builder}, {}, ()),
            ((tiny_config, cases[0], 2, None),))
        try:
            assert outcome[0] == "ok"
            assert outcome[1].results["serial"].elapsed_cycles > 0
        finally:
            registry.WORKLOADS.remove(name)

    def test_builtin_units_ship_no_payload(self, tiny_config):
        from repro.harness.runner import CaseUnit, _plugin_payload

        case = benchmark_cases(quick=True)[0]
        builder, plugin_runtimes, plugin_files = _plugin_payload(
            CaseUnit(tiny_config, case, 2, ("serial", "nanos-axi")))
        assert builder is None
        assert plugin_runtimes == {}
        assert plugin_files == ()

    def test_plugin_runtime_payload_carries_rank(self, tiny_config):
        from repro.harness.runner import CaseUnit, _plugin_payload
        from repro.registry import register_runtime
        from tests.helpers import PluginRuntime

        name = "ranked-rt"
        register_runtime(name, rank=5)(PluginRuntime)
        try:
            case = benchmark_cases(quick=True)[0]
            _builder, plugin_runtimes, _files = _plugin_payload(
                CaseUnit(tiny_config, case, 2, ("serial", name)))
            # rank travels with the class, so worker-side canonical
            # ordering matches the parent's
            assert plugin_runtimes == {name: (PluginRuntime, 5)}
        finally:
            registry.RUNTIMES.remove(name)

    def test_file_plugin_ships_as_path_and_reloads_in_worker(
            self, tiny_config, tmp_path):
        # A --plugin FILE.py workload lives in a synthetic module no other
        # process can import; its *path* must travel to workers, which
        # re-load the file (firing its @register_workload) before running.
        import sys

        from repro.harness.runner import CaseUnit, _execute_batch, \
            _plugin_payload
        from repro.registry import PLUGIN_MODULE_PREFIX, load_plugin

        plugin = tmp_path / "file_plugin.py"
        plugin.write_text(
            "from repro.registry import register_workload\n"
            "from repro.apps.granularity import task_chain_program\n"
            "@register_workload('file-plug-wl', defaults={'num_tasks': 4})\n"
            "def build(num_tasks=4, num_dependences=1, payload_cycles=0,\n"
            "          name=None):\n"
            "    return task_chain_program(num_tasks, num_dependences,\n"
            "                              payload_cycles, name)\n",
            encoding="utf-8",
        )
        load_plugin(str(plugin))
        try:
            cases = benchmark_cases(workloads=["file-plug-wl"])
            builder, _runtimes, plugin_files = _plugin_payload(
                CaseUnit(tiny_config, cases[0], 2))
            assert builder is None  # not picklable by reference...
            assert plugin_files == (str(plugin),)  # ...so the path ships
            # Simulate a spawned worker: no synthetic module, no
            # registration — only the shipped path.
            for module_name in [m for m in sys.modules
                                if m.startswith(PLUGIN_MODULE_PREFIX)]:
                del sys.modules[module_name]
            registry.WORKLOADS.remove("file-plug-wl")
            [outcome] = _execute_batch(
                ({}, {}, plugin_files), ((tiny_config, cases[0], 2, None),))
            assert outcome[0] == "ok"
            assert outcome[1].results["serial"].elapsed_cycles > 0
        finally:
            registry.WORKLOADS.remove("file-plug-wl")
            for module_name in [m for m in sys.modules
                                if m.startswith(PLUGIN_MODULE_PREFIX)]:
                del sys.modules[module_name]

    def test_cli_plugin_file_flag(self, tmp_path, capsys):
        plugin = tmp_path / "my_plugin.py"
        plugin.write_text(
            "from repro.registry import register_workload\n"
            "from repro.apps.granularity import task_chain_program\n"
            "register_workload('cli-plug-wl', tags=('cli-plug',),\n"
            "                  defaults={'num_tasks': 4})("
            "task_chain_program)\n",
            encoding="utf-8",
        )
        try:
            assert cli_main(["workloads", "--tag", "cli-plug",
                             "--plugin", str(plugin)]) == 0
            assert "cli-plug-wl" in capsys.readouterr().out
            assert cli_main(["run", "figure9", "--workload", "cli-plug-wl",
                             "--no-cache", "--quiet",
                             "--plugin", str(plugin)]) == 0
            assert "cli-plug-wl" in capsys.readouterr().out
        finally:
            registry.WORKLOADS.remove("cli-plug-wl")

    def test_cli_plugins_env_var(self, tmp_path, capsys, monkeypatch):
        plugin = tmp_path / "env_plugin.py"
        plugin.write_text(
            "from repro.registry import register_workload\n"
            "from repro.apps.granularity import task_free_program\n"
            "register_workload('env-plug-wl', tags=('env-plug',),\n"
            "                  defaults={'num_tasks': 4})("
            "task_free_program)\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("REPRO_PLUGINS", str(plugin))
        try:
            assert cli_main(["workloads", "--tag", "env-plug"]) == 0
            assert "env-plug-wl" in capsys.readouterr().out
        finally:
            registry.WORKLOADS.remove("env-plug-wl")

    def test_cli_missing_plugin_fails_cleanly(self, capsys):
        assert cli_main(["workloads", "--plugin", "no_such_module_xyz"]) == 1
        assert "failed to import" in capsys.readouterr().err


class TestCliRegistrySurface:
    def test_workloads_subcommand(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("blackscholes", "jacobi", "sparselu", "stream"):
            assert name in out

    def test_runtimes_subcommand(self, capsys):
        assert cli_main(["runtimes"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "nanos-sw", "nanos-rv", "nanos-axi",
                     "phentos"):
            assert name in out

    def test_runtimes_tag_filter(self, capsys):
        assert cli_main(["runtimes", "--tag", "compared"]) == 0
        out = capsys.readouterr().out
        assert "nanos-axi" not in out
        assert "phentos" in out

    def test_workloads_unmatched_tag_fails(self, capsys):
        assert cli_main(["workloads", "--tag", "no-such-tag"]) == 1

    def test_unknown_experiment_did_you_mean(self, capsys):
        assert cli_main(["run", "figure99", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'figure9'" in err

    def test_unknown_workload_did_you_mean(self, capsys):
        code = cli_main(["run", "figure9", "--workload", "jacobbi",
                         "--quick", "--no-cache", "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "did you mean 'jacobi'" in err

    def test_unknown_runtime_did_you_mean(self, capsys):
        code = cli_main(["run", "figure9", "--runtime", "fentos",
                         "--quick", "--scale", "0.05", "--no-cache",
                         "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "did you mean 'phentos'" in err

    def test_run_workload_and_runtime_filter(self, capsys):
        code = cli_main(["run", "figure9", "--workload", "jacobi",
                         "--runtime", "phentos", "--quick", "--scale",
                         "0.1", "--no-cache", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jacobi" in out
        assert "Phentos" in out
        assert "Nanos-SW" not in out  # report narrowed to the selection

    def test_run_json_with_filters(self, capsys):
        code = cli_main(["run", "figure9", "--workload", "jacobi",
                         "--quick", "--scale", "0.1", "--no-cache",
                         "--quiet", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["figure9"]) == 1

    def test_sweep_workload_filter(self, capsys):
        code = cli_main(["run", "scaling_curves",
                         "--cores", "1,2", "--workload", "jacobi",
                         "--runtimes", "phentos", "--quick", "--scale",
                         "0.05", "--no-cache", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jacobi" in out
        assert "blackscholes" not in out
