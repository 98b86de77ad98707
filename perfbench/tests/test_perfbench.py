"""Tests of the benchmark's own code (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# Reference tables
# ---------------------------------------------------------------------- #
def test_parse_table_reads_format_table_output():
    from repro.eval.reporting import format_table
    text = format_table(["a", "long header"], [["x", 1], ["yy", "2.50"]])
    assert reference.parse_table(text) == [
        {"a": "x", "long header": "1"}, {"a": "yy", "long header": "2.50"}]


@pytest.mark.parametrize("text", [
    "", "a | b\nx | y\n", "a | b\n--+--\nx | y | z\n"])
def test_parse_table_rejects_malformed_tables(text):
    with pytest.raises(reference.ReferenceError):
        reference.parse_table(text)


def test_committed_tables_parse_completely():
    figure9 = reference.load_figure9(ROOT)
    figure7 = reference.load_figure7(ROOT)
    assert len(figure9) == 37 * 3
    assert figure9[("blackscholes/16K B8", "phentos")] == "5.17"
    assert len(figure7) == 16
    assert figure7[("nanos-sw", "Task-Free 15 deps")] == "93009"


def test_paper_error_is_symmetric_geomean():
    paper = {"p": {"a": 100, "b": 100}}
    assert reference.paper_error({("p", "a"): 200, ("p", "b"): 50},
                                 paper) == pytest.approx(2.0)
    with pytest.raises(KeyError):
        reference.paper_error({("p", "a"): 100}, paper)


# ---------------------------------------------------------------------- #
# Metric names
# ---------------------------------------------------------------------- #
def test_every_name_and_unit_follows_the_grammar():
    spec = _spec()
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry


def test_declared_metrics_are_the_reported_ones():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
    for metric in spec["per_layer"]:
        assert metric["unit"] == run._layer_unit(metric["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------- #
# Failure accounting
# ---------------------------------------------------------------------- #
def _figure7_rows(root: Path):
    from repro.eval.overhead import OverheadMeasurement
    return [OverheadMeasurement(platform, workload, float(cell))
            for (platform, workload), cell
            in reference.load_figure7(root).items()]


def _copy_tables(tmp_path: Path) -> Path:
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    for table in (reference.FIGURE7_TABLE, reference.FIGURE9_TABLE):
        shutil.copy(ROOT / table, results)
    return tmp_path


def test_figure7_check_counts_a_wrong_reference_row(tmp_path):
    rows = _figure7_rows(ROOT)
    tally = workloads.Tally()
    workloads.Figure7Matrix(ROOT).check(rows, tally)
    assert (tally.attempted, tally.failed) == (16, 0)

    root = _copy_tables(tmp_path)
    table = root / reference.FIGURE7_TABLE
    table.write_text(table.read_text().replace("| 23905 ", "| 23906 "))
    tally = workloads.Tally()
    workloads.Figure7Matrix(root).check(rows, tally)
    assert (tally.attempted, tally.failed) == (16, 1)


def _result(speedup_cycles: int, tasks: int = 10, retired=None):
    from repro.runtime.base import RuntimeResult
    stats = {} if retired is None else {"picos.tasks_retired": retired}
    return RuntimeResult("phentos", "p", 8, 100, tasks, speedup_cycles, 1.0,
                         0, 0, stats=stats)


def test_figure9_check_counts_each_mismatch(tmp_path):
    key = ("blackscholes/16K B8", "phentos")
    table = reference.load_figure9(ROOT)
    tally = workloads.Tally()
    workloads._check_result(tally, "ok", _result(517), 10, table, key)
    workloads._check_result(tally, "speedup", _result(518), 10, table, key)
    workloads._check_result(tally, "tasks", _result(517, tasks=9), 10,
                            table, key)
    workloads._check_result(tally, "retired", _result(517, retired=9), 10,
                            table, key)
    workloads._check_result(tally, "row", _result(517), 10, {}, key)
    assert (tally.attempted, tally.failed) == (5, 4)

    root = _copy_tables(tmp_path)
    path = root / reference.FIGURE9_TABLE
    path.write_text(path.read_text().replace("| 5.17 ", "| 5.18 ", 1))
    tally = workloads.Tally()
    workloads._check_result(tally, "wrong row", _result(517), 10,
                            reference.load_figure9(root), key)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_a_raising_pass_fails_every_operation():
    class Broken(workloads.Workload):
        def operation_names(self):
            return ["a", "b", "c"]

        def run_pass(self):
            raise RuntimeError("boom")

    tally = workloads.Tally()
    result, start, end, _cpu = worker._timed_pass(Broken())
    worker._check(Broken(), result, tally)
    assert isinstance(result, RuntimeError) and end >= start
    assert (tally.attempted, tally.failed) == (3, 3)


# ---------------------------------------------------------------------- #
# Host clock
# ---------------------------------------------------------------------- #
def test_reference_seconds_scale_each_stretch_and_skip_samples():
    ref = hostspeed.REFERENCE_LOOP_S
    # Loop times ref, then 2 * ref: the host halves its speed at t = 2.
    samples = [(1.0, 1.0 + ref, ref), (2.0, 2.0 + 2 * ref, 2 * ref),
               (3.0, 3.0 + 2 * ref, 2 * ref)]
    # Before the first sample at full speed; [1+ref, 2] at the mean speed
    # 0.75; [2+2ref, 3] and after at half speed.
    expected = (0.5 + (1 - ref) * 0.75 + (1 - 2 * ref) / 2
                + (4 - 3 - 2 * ref) / 2)
    assert hostspeed.reference_seconds(samples, 0.5, 4.0) \
        == pytest.approx(expected)
    # A span inside one stretch, and one past the last sample.
    assert hostspeed.reference_seconds(samples, 2.5, 2.75) \
        == pytest.approx(0.125)
    assert hostspeed.reference_seconds(samples, 5.0, 6.0) \
        == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        hostspeed.reference_seconds([], 0.0, 1.0)


def test_host_clock_samples_and_restores_the_alarm_handler():
    import signal
    import time
    previous = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.HostClock().start()
    start = time.perf_counter()
    while len(clock.samples) < 5:
        hostspeed.calibration_loop(1000)
    end = time.perf_counter()
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < clock.seconds(start, end) and clock.slowdown() > 0


# ---------------------------------------------------------------------- #
# Layer wrappers
# ---------------------------------------------------------------------- #
def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)


def test_install_and_uninstall_restore_every_original():
    trace = layers.LayerTrace()
    points = trace.targets()
    originals = [(owner, name, _current(owner, name))
                 for owner, name, _make in points]
    with trace:
        for owner, name, original in originals:
            assert _current(owner, name) is not original, (owner, name)
    for owner, name, original in originals:
        assert _current(owner, name) is original, (owner, name)
    with pytest.raises(RuntimeError):
        trace.install().install()
    trace.uninstall()


def test_traced_run_counts_calls_and_leaves_results_unchanged():
    from repro.eval.overhead import measure_lifetime_overhead
    expected = measure_lifetime_overhead("phentos", "task-free", 15, 20)
    trace = layers.LayerTrace()
    with trace:
        traced = measure_lifetime_overhead("phentos", "task-free", 15, 20)
    assert traced == expected
    metrics = trace.metrics()
    assert set(metrics) == set(layers.per_layer_names()) \
        - set(layers.RUN_METRICS)
    assert metrics["sim.run.calls"] == 1
    assert metrics["runtime.phentos.runs"] == 1
    assert metrics["runtime.phentos.tasks"] == 20
    assert metrics["apps.build.calls"] == 1
    assert metrics["picos.decode.calls"] == 20
    assert metrics["cpu.rocc.calls"] == metrics["delegate.commands"] > 0
    assert 0 < metrics["sim.self_s"] < metrics["sim.run.s"]
    assert metrics["runtime.phentos.s"] >= metrics["sim.run.s"]


# ---------------------------------------------------------------------- #
# Outside a checkout
# ---------------------------------------------------------------------- #
def test_run_refuses_a_directory_without_the_repo(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "overhead-1c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
