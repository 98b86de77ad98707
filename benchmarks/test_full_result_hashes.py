"""The session's Figure 9 sweep, in the paper's configuration, is the
full-size sweep: every one of its 148 results must hash as pinned in
``tests/data/full_result_hashes.json``.  This costs no simulation beyond
the sweep the other benchmarks already share.  A quick or resized sweep
skips the check; CI's ``--full --check`` step covers it there."""

from __future__ import annotations

import pytest

from bench_support import full_size_hashes, paper_configuration


def test_full_sweep_matches_the_pinned_result_hashes(benchmark_sweep):
    if not paper_configuration():
        pytest.skip("not the full-size sweep on eight workers")
    hashes = full_size_hashes(benchmark_sweep)
    assert not hashes["changed"], f"results changed: {hashes['changed']}"
    assert list(hashes["actual"]) == list(hashes["expected"])


def test_every_missing_result_is_named():
    # No runs at all: each of the 148 pinned keys is reported by name.
    hashes = full_size_hashes([])
    assert len(hashes["changed"]) == 148
    assert hashes["changed"] == sorted(hashes["expected"])
