"""The tracked tables under ``benchmarks/results/`` are written only by a
run in the paper's configuration: full inputs on eight workers."""

from __future__ import annotations

import pytest

from bench_support import write_result


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    """Point ``write_result`` at a scratch directory, not the tree."""
    monkeypatch.setitem(write_result.__globals__, "RESULTS_DIR",
                        tmp_path / "results")
    return tmp_path / "results"


@pytest.mark.parametrize("quick, workers", [("1", "8"), ("0", "4"),
                                            ("1", "4")])
def test_other_configurations_leave_the_tables_alone(results_dir, monkeypatch,
                                                      quick, workers):
    monkeypatch.setenv("REPRO_QUICK", quick)
    monkeypatch.setenv("REPRO_WORKERS", workers)
    assert write_result("figure9_benchmarks.txt", "rows") is None
    assert not results_dir.exists()


def test_the_paper_configuration_writes_the_table(results_dir, monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "0")
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    path = write_result("figure9_benchmarks.txt", "rows")
    assert path == results_dir / "figure9_benchmarks.txt"
    assert path.read_text() == "rows\n"
