"""Tests for the plugin registries and the registry-backed eval layer.

Covers the ISSUE-4 registry semantics: duplicate-name rejection, tag
filtering, lazy self-registration on import, did-you-mean lookups, and —
most load-bearing — byte-stability of the Figure 9 cache keys and case
artifacts across the registry redesign (fixture recorded pre-redesign by
``tools/record_figure9_fingerprints.py``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import (
    BenchmarkCase,
    benchmark_cases,
    canonical_runtime_selection,
    run_benchmark_case,
)
from repro.harness.artifacts import encode
from repro.harness.hashing import case_cache_key
from repro.registry import (
    RegistryError,
    register_runtime,
    register_workload,
    suggest,
)
from repro.runtime.phentos import PhentosRuntime

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "figure9_fingerprints.json")
    .read_text(encoding="utf-8")
)


@pytest.fixture
def scratch_workload():
    """Register a throwaway workload; always unregistered afterwards."""
    from repro.apps.granularity import task_chain_program

    name = "scratch-workload"
    register_workload(
        name, tags=("scratch", "micro"),
        defaults={"num_tasks": 5, "num_dependences": 1, "payload_cycles": 50},
        description="throwaway test workload",
    )(task_chain_program)
    try:
        yield name
    finally:
        registry.WORKLOADS.remove(name)


@pytest.fixture
def scratch_runtime():
    """Register Phentos under a second name; unregistered afterwards."""
    name = "scratch-phentos"
    register_runtime(name, tags=("scratch", "hardware"), rank=90,
                     description="throwaway test runtime")(PhentosRuntime)
    try:
        yield name
    finally:
        registry.RUNTIMES.remove(name)


class TestRegistrySemantics:
    def test_builtins_registered_in_order(self):
        assert registry.workload_names(tags=("paper",)) == [
            "blackscholes", "jacobi", "sparselu", "stream"]
        assert registry.runtime_names() == [
            "serial", "nanos-sw", "nanos-rv", "nanos-axi", "phentos"]
        assert registry.case_runtime_names() == [
            "serial", "nanos-sw", "nanos-rv", "phentos"]
        assert registry.compared_runtime_names() == [
            "nanos-sw", "nanos-rv", "phentos"]

    def test_duplicate_workload_name_rejected(self, scratch_workload):
        with pytest.raises(RegistryError, match="duplicate workload"):
            register_workload(scratch_workload)(lambda **kw: None)

    def test_duplicate_runtime_name_rejected(self, scratch_runtime):
        with pytest.raises(RegistryError, match="duplicate runtime"):
            register_runtime(scratch_runtime)(object)

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError, match="non-empty"):
            register_workload("")(lambda **kw: None)

    def test_tag_filtering_requires_every_tag(self, scratch_workload):
        names = registry.workload_names(tags=("scratch",))
        assert names == [scratch_workload]
        assert registry.workload_names(tags=("scratch", "micro")) == \
            [scratch_workload]
        assert registry.workload_names(tags=("scratch", "paper")) == []

    def test_unknown_workload_has_did_you_mean(self):
        with pytest.raises(RegistryError) as excinfo:
            registry.workload("jacobbi")
        assert "did you mean 'jacobi'" in str(excinfo.value)
        assert "sparselu" in str(excinfo.value)  # lists registered names

    def test_unknown_runtime_has_did_you_mean(self):
        with pytest.raises(RegistryError) as excinfo:
            registry.runtime("fentos")
        assert "did you mean 'phentos'" in str(excinfo.value)

    def test_suggest_without_close_match_lists_names(self):
        text = suggest("zzz", ["alpha", "beta"])
        assert "did you mean" not in text
        assert "alpha, beta" in text

    def test_lazy_self_registration_on_import(self):
        # A fresh interpreter that only imports repro.registry must see
        # the built-in workloads and runtimes on first lookup.
        script = (
            "import repro.registry as r; "
            "assert 'jacobi' in r.workload_names(), r.workload_names(); "
            "assert 'phentos' in r.runtime_names(), r.runtime_names(); "
            "print('lazy-ok')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "lazy-ok" in proc.stdout

    def test_workload_spec_build_merges_defaults(self, scratch_workload):
        spec = registry.workload(scratch_workload)
        program = spec.build()
        assert program.num_tasks == 5
        assert spec.build(num_tasks=3).num_tasks == 3

    def test_workload_without_paper_cases_contributes_default(
            self, scratch_workload):
        cases = benchmark_cases(workloads=[scratch_workload])
        assert len(cases) == 1
        assert cases[0].builder == scratch_workload
        assert cases[0].label == "default"
        assert cases[0].build().num_tasks == 5

    def test_internal_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            benchmark_cases(quick=True)
            benchmark_cases(quick=True)[0].build()


class TestByteStability:
    """The acceptance criterion: keys/artifacts identical to pre-redesign."""

    def test_full_sweep_cache_keys_unchanged(self):
        config = SimConfig()
        cases = benchmark_cases()
        assert len(cases) == 37
        keys = {case.key: case_cache_key(case, config) for case in cases}
        assert keys == FIXTURE["full_case_keys"]

    def test_quick_sweep_cache_keys_unchanged(self):
        config = SimConfig()
        keys = {case.key: case_cache_key(case, config)
                for case in benchmark_cases(quick=True)}
        assert keys == FIXTURE["quick_case_keys"]

    def test_case_list_encoding_unchanged(self):
        encoded = json.dumps(encode(benchmark_cases()), sort_keys=True,
                             separators=(",", ":"))
        assert encoded == FIXTURE["full_cases_encoded"]

    def test_case_artifacts_byte_identical(self):
        config = SimConfig()
        for case in benchmark_cases(quick=True, scale=0.05)[:2]:
            key = case_cache_key(case, config, 4)
            run = run_benchmark_case(case, config, num_workers=4)
            encoded = json.dumps(encode(run), sort_keys=True,
                                 separators=(",", ":"))
            assert encoded == FIXTURE["artifact_runs"][key]


class TestRuntimeSelection:
    def test_default_and_subsets_canonicalise_to_none(self):
        assert canonical_runtime_selection(None) is None
        assert canonical_runtime_selection(["phentos"]) is None
        assert canonical_runtime_selection(
            ["phentos", "nanos-sw", "serial"]) is None

    def test_outside_selection_gets_serial_and_rank_order(self):
        assert canonical_runtime_selection(["nanos-axi"]) == \
            ("serial", "nanos-axi")
        assert canonical_runtime_selection(["nanos-axi", "phentos"]) == \
            ("serial", "nanos-axi", "phentos")

    def test_serial_only_selection_rejected(self):
        with pytest.raises(EvaluationError):
            canonical_runtime_selection(["serial"])
        with pytest.raises(EvaluationError):
            canonical_runtime_selection([])

    def test_unknown_runtime_selection_did_you_mean(self):
        with pytest.raises(EvaluationError, match="did you mean"):
            canonical_runtime_selection(["fentos"])

    def test_subset_selection_shares_default_cache_key(self):
        config = SimConfig()
        case = benchmark_cases(quick=True)[0]
        default = case_cache_key(case, config, 4)
        assert case_cache_key(case, config, 4,
                              runtimes=["phentos"]) == default
        assert case_cache_key(case, config, 4,
                              runtimes=["nanos-axi"]) != default

    def test_case_tagged_plugin_runtime_changes_default_key(self):
        # A plugin extending the *case* set must not be served cache
        # entries written without it: the default selection stops
        # canonicalising to None and gets its own key.
        config = SimConfig()
        case = benchmark_cases(quick=True)[0]
        default_key = case_cache_key(case, config, 4)
        name = "scratch-case-rt"
        register_runtime(name, tags=("case",), rank=95)(PhentosRuntime)
        try:
            selection = canonical_runtime_selection(None)
            assert selection == ("serial", "nanos-sw", "nanos-rv",
                                 "phentos", name)
            assert case_cache_key(case, config, 4) != default_key
            assert case_cache_key(
                case, config, 4, runtimes=["phentos", name]) != default_key
        finally:
            registry.RUNTIMES.remove(name)
        assert canonical_runtime_selection(None) is None
        assert case_cache_key(case, config, 4) == default_key

    def test_run_case_on_plugin_runtime(self, scratch_runtime):
        config = SimConfig(max_cycles=200_000_000).with_cores(2)
        case = benchmark_cases(quick=True, scale=0.05)[0]
        run = run_benchmark_case(case, config, 2,
                                 runtimes=[scratch_runtime])
        assert set(run.results) == {"serial", scratch_runtime}
        reference = run_benchmark_case(case, config, 2)
        assert run.results[scratch_runtime].elapsed_cycles == \
            reference.results["phentos"].elapsed_cycles

    def test_unknown_case_builder_error_suggests(self):
        case = BenchmarkCase("x", "y", "jacobbi", (("grid_blocks", 2),))
        with pytest.raises(EvaluationError, match="did you mean 'jacobi'"):
            case.build()


class TestBenchmarkCaseSelection:
    def test_workload_filter(self):
        cases = benchmark_cases(quick=True, workloads=["jacobi", "stream"])
        assert {case.builder for case in cases} == {"jacobi", "stream"}
        # selection order follows the given names, deduplicated
        assert cases[0].builder == "jacobi"

    def test_tag_filter(self):
        cases = benchmark_cases(quick=True, tags=["memory-bound"])
        assert {case.builder for case in cases} == {"jacobi", "stream"}

    def test_unknown_workload_name_raises_with_suggestion(self):
        with pytest.raises(EvaluationError, match="did you mean 'stream'"):
            benchmark_cases(workloads=["streem"])

    def test_no_match_raises(self):
        with pytest.raises(EvaluationError, match="no registered workload"):
            benchmark_cases(tags=["no-such-tag"])
