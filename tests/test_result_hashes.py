"""Every quick Figure 9 result stays byte-identical.

``tests/data/quick_result_hashes.json`` holds one SHA-256 per (input,
runtime) result of the quick sweep at eight workers, recorded by
``tools/record_quick_result_hashes.py``.  A change that only makes the
simulator faster or simpler must leave every hash alone; a change meant to
move the modelled numbers re-records the fixture and says so.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORDER = REPO_ROOT / "tools" / "record_quick_result_hashes.py"


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_quick_result_hashes",
                                                  RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_results_match_recorded_hashes():
    recorder = _load_recorder()
    expected = json.loads(recorder.OUT.read_text(encoding="utf-8"))
    assert len(expected) == 36
    actual = recorder.quick_result_hashes()
    changed = sorted(key for key in expected if actual.get(key) != expected[key])
    assert not changed, f"results changed: {changed}"
    assert list(actual) == list(expected)


def test_parallel_hashes_are_byte_identical_to_the_fixture(monkeypatch):
    recorder = _load_recorder()
    # Spawned workers import ``case_hashes`` by its module's name.
    monkeypatch.syspath_prepend(str(RECORDER.parent))
    monkeypatch.setitem(sys.modules, recorder.__name__, recorder)
    hashes = recorder.result_hashes(quick=True, jobs=2)
    text = json.dumps(hashes, indent=2) + "\n"
    assert text == recorder.OUT.read_text(encoding="utf-8")


def test_full_fixture_lists_every_full_size_result():
    # The 148 full-size hashes are checked in CI, not here (about a
    # minute); this keeps the fixture in step with the case list and
    # with the quick fixture, whose inputs are among the full ones.
    from repro.eval.experiments import benchmark_cases

    recorder = _load_recorder()
    full = json.loads(recorder.FULL_OUT.read_text(encoding="utf-8"))
    quick = json.loads(recorder.OUT.read_text(encoding="utf-8"))
    assert len(full) == 148
    keys = list(full)
    runtimes = [key.rsplit("/", 1)[1] for key in keys[:4]]
    assert keys == [f"{case.key}/{runtime}" for case in benchmark_cases()
                    for runtime in runtimes]
    shared = [key for key in quick if key in full]
    assert shared
    assert all(full[key] == quick[key] for key in shared)


def test_figure7_report_matches_the_pinned_table():
    # The only pinned Nanos-AXI output: quick tier-1 runs never rewrite
    # or compare benchmarks/results, and the hash fixtures hold no AXI
    # result, so the full-size Figure 7 table is compared here.
    from repro.common.config import SimConfig
    from repro.eval import figure7_overhead, overhead_report

    pinned = REPO_ROOT / "benchmarks" / "results" / "figure7_overhead.txt"
    report = overhead_report(figure7_overhead(SimConfig(), num_tasks=120))
    assert report + "\n" == pinned.read_text(encoding="utf-8")
