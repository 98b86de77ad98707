"""Session fixtures of the paper-reproduction benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section and prints the corresponding rows/series.  The Figure 8, 9, 10 and
headline benchmarks all consume the same 37-input sweep, which is expensive,
so it is computed once per session through the
:class:`repro.harness.ExperimentEngine` — the same execution path as
``python -m repro run`` — and optionally fanned out over a process pool
and/or served from the on-disk result cache.  The environment knobs and
the helpers the benchmarks import are in ``bench_support.py``.
"""

from __future__ import annotations

import pytest

from bench_support import cache_dir, job_count, quick_mode, worker_count
from repro.common.config import SimConfig
from repro.harness import ExperimentEngine


@pytest.fixture(scope="session")
def sim_config() -> SimConfig:
    """The paper's machine: eight in-order cores, Picos integrated."""
    return SimConfig().with_cores(worker_count())


@pytest.fixture(scope="session")
def harness_engine(sim_config) -> ExperimentEngine:
    """One engine per session so every benchmark shares its sweep/cache."""
    return ExperimentEngine(config=sim_config, jobs=job_count(),
                            cache_dir=cache_dir())


@pytest.fixture(scope="session")
def benchmark_sweep(harness_engine):
    """The Figure 9 sweep shared by the Figure 8/9/10/headline benchmarks."""
    return harness_engine.run("figure9", quick=quick_mode(),
                              num_workers=worker_count())
