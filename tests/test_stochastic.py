"""The stochastic scenario layer: determinism battery + distributions.

Two test families guard the ISSUE-7 scenario layer:

* **Seeded determinism** — the same (scenario, seed) must produce
  byte-identical results and identical cache keys across the serial
  backend, a warm process pool, a fresh-worker retry and two cold
  processes; different seeds must never share a cache key.
* **Statistical acceptance** — fixed-seed samples from every built-in
  arrival and execution-time model must match their nominal
  distributions (KS / chi-squared style bounds plus mean/variance
  sanity), so a refactor that silently breaks a sampler fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import ReproError
from repro.eval.experiments import benchmark_cases, run_benchmark_case
from repro.harness import ShardedDiskStore
from repro.harness.artifacts import encode
from repro.harness.executor import ProcessPoolBackend, SerialBackend
from repro.harness.hashing import case_cache_key, scenario_fingerprint
from repro.harness.runner import run_cases
from repro.registry import register_workload
from repro.scenario import (
    Pcg64Stream,
    ScenarioSpec,
    canonical_scenario,
    compile_scenario,
    derive_stream,
    scenario_case_context,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bursty_spec(seed: int = 7) -> ScenarioSpec:
    return ScenarioSpec.make(
        arrival="bursty", arrival_params={"load": 0.8},
        etm="lognormal", scheduler="random",
        seed=seed, deadline_factor=20.0,
    )


@pytest.fixture(scope="module")
def tiny_config() -> SimConfig:
    return SimConfig(max_cycles=200_000_000).with_cores(4)


@pytest.fixture(scope="module")
def tiny_case():
    return benchmark_cases(quick=True, scale=0.05)[0]


def _digest(runs) -> str:
    """Canonical byte digest of a list of benchmark runs."""
    text = json.dumps(encode(list(runs)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Satellite 1: the seeded determinism battery
# --------------------------------------------------------------------- #
class TestSeededDeterminism:
    def test_serial_vs_warm_pool_byte_identical(self, tiny_config,
                                                tiny_case):
        spec = _bursty_spec()
        serial = run_cases(tiny_config, [tiny_case], num_workers=2,
                           executor=SerialBackend(), scenario=spec)
        pool = ProcessPoolBackend(2)
        try:
            # First dispatch warms the pool; the second runs on warm
            # workers — both must match the serial bytes exactly.
            cold = run_cases(tiny_config, [tiny_case], num_workers=2,
                             jobs=2, executor=pool, scenario=spec)
            warm = run_cases(tiny_config, [tiny_case], num_workers=2,
                             jobs=2, executor=pool, scenario=spec)
        finally:
            pool.close()
        assert _digest(serial) == _digest(cold) == _digest(warm)

    def test_two_cold_processes_byte_identical(self, tmp_path):
        script = (
            "import hashlib, json\n"
            "from repro.common.config import SimConfig\n"
            "from repro.eval.experiments import benchmark_cases, "
            "run_benchmark_case\n"
            "from repro.harness.artifacts import encode\n"
            "from repro.harness.hashing import case_cache_key\n"
            "from repro.scenario import ScenarioSpec\n"
            "spec = ScenarioSpec.make(arrival='bursty', "
            "arrival_params={'load': 0.8}, etm='lognormal', "
            "scheduler='random', seed=7, deadline_factor=20.0)\n"
            "config = SimConfig(max_cycles=200_000_000).with_cores(4)\n"
            "case = benchmark_cases(quick=True, scale=0.05)[0]\n"
            "run = run_benchmark_case(case, config, num_workers=2, "
            "scenario=spec)\n"
            "text = json.dumps(encode(run), sort_keys=True, "
            "separators=(',', ':'))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
            "print(case_cache_key(case, config, 2, scenario=spec))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        outputs = [
            subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True,
                           cwd=REPO_ROOT).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        digest, key = outputs[0].split()
        assert len(digest) == 64 and len(key) == 64

    def test_retry_in_fresh_worker_byte_identical(self, tmp_path,
                                                  tiny_config):
        # A unit whose builder fails on the first attempt is re-run in a
        # fresh worker (retries=1); its result must be byte-identical to
        # a clean, never-failed run of the same seeded scenario.
        name = "stochastic-flaky-test"
        flag = tmp_path / "first-attempt"

        def flaky(**params):
            if not flag.exists():
                flag.write_text("tried", encoding="utf-8")
                raise RuntimeError("transient failure")
            from tests.helpers import make_chain_program
            return make_chain_program(num_tasks=6, payload=400)

        register_workload(name, description="fails once (test)")(flaky)
        try:
            spec = _bursty_spec()
            cases = benchmark_cases(workloads=[name])
            failures = []
            retried = run_cases(tiny_config, cases, num_workers=2,
                                retries=1, failures=failures,
                                scenario=spec)
            assert failures == []
            clean = run_cases(tiny_config, cases, num_workers=2,
                              retries=1, scenario=spec)
            assert _digest(retried) == _digest(clean)
        finally:
            registry.WORKLOADS.remove(name)

    def test_warm_cache_rerun_is_all_hits(self, tmp_path, tiny_config,
                                          tiny_case):
        spec = _bursty_spec()
        cache = ShardedDiskStore(tmp_path / "cache")
        first = run_cases(tiny_config, [tiny_case], num_workers=2,
                          cache=cache, scenario=spec)
        misses = cache.stats.misses
        assert misses >= 1
        second = run_cases(tiny_config, [tiny_case], num_workers=2,
                           cache=cache, scenario=spec)
        assert cache.stats.misses == misses  # zero new misses
        assert cache.stats.hits >= 1
        assert _digest(first) == _digest(second)

    def test_distinct_seeds_never_share_a_cache_key(self, tiny_case):
        config = SimConfig()
        base_key = case_cache_key(tiny_case, config)
        keys = {case_cache_key(tiny_case, config,
                               scenario=_bursty_spec(seed))
                for seed in range(10)}
        assert len(keys) == 10
        assert base_key not in keys

    def test_distinct_seeds_produce_distinct_results(self, tiny_config,
                                                     tiny_case):
        runs = {
            seed: run_benchmark_case(tiny_case, tiny_config, num_workers=2,
                                     scenario=_bursty_spec(seed))
            for seed in (3, 7)
        }
        p50 = {seed: run.results["phentos"].stats["scenario.latency_p50"]
               for seed, run in runs.items()}
        assert p50[3] != p50[7]

    def test_scenario_streams_independent_of_host_prng(self, tiny_case):
        # derive_stream must depend only on (seed, context), never on
        # process state, so pool workers and retries draw identically.
        stream_a = derive_stream(7, "etm", scenario_case_context(tiny_case))
        stream_b = derive_stream(7, "etm", scenario_case_context(tiny_case))
        assert [stream_a.next64() for _ in range(8)] == \
            [stream_b.next64() for _ in range(8)]
        other_role = derive_stream(7, "arrival",
                                   scenario_case_context(tiny_case))
        assert stream_a.next64() != other_role.next64()


# --------------------------------------------------------------------- #
# Scenario spec / fingerprint semantics
# --------------------------------------------------------------------- #
class TestScenarioSpec:
    def test_default_spec_canonicalises_to_none(self):
        assert canonical_scenario(None) is None
        assert canonical_scenario(ScenarioSpec()) is None
        assert scenario_fingerprint(ScenarioSpec()) is None

    def test_nonzero_seed_alone_is_not_default(self):
        spec = ScenarioSpec.make(seed=5)
        assert canonical_scenario(spec) is not None
        assert scenario_fingerprint(spec) is not None

    def test_component_params_enter_the_fingerprint(self):
        light = ScenarioSpec.make(arrival="poisson", seed=1)
        heavy = ScenarioSpec.make(arrival="poisson",
                                  arrival_params={"load": 0.5}, seed=1)
        assert scenario_fingerprint(light) != scenario_fingerprint(heavy)

    def test_describe_names_every_component(self):
        text = _bursty_spec().describe()
        assert "bursty" in text and "lognormal" in text
        assert "random" in text and "seed7" in text

    def test_unknown_scheduler_fails_at_compile(self, tiny_case):
        from tests.helpers import make_chain_program

        spec = ScenarioSpec.make(scheduler="edf-zzz", seed=1)
        with pytest.raises(ReproError):
            compile_scenario(spec, scenario_case_context(tiny_case),
                             make_chain_program(num_tasks=4, payload=50))

    def test_compiled_program_stamps_releases_and_deadlines(self,
                                                            tiny_case):
        from tests.helpers import make_chain_program

        program = make_chain_program(num_tasks=8, payload=500)
        compiled = compile_scenario(_bursty_spec(),
                                    scenario_case_context(tiny_case),
                                    program)
        releases = [task.release_cycle for task in compiled.program.tasks]
        assert releases == sorted(releases)
        assert releases[-1] > 0
        for task in compiled.program.tasks:
            assert task.deadline_cycle is not None
            assert task.deadline_cycle >= task.release_cycle + 1


# --------------------------------------------------------------------- #
# Satellite 2: statistical acceptance of the built-in distributions
# --------------------------------------------------------------------- #
def _ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov–Smirnov distance of samples from ``cdf``."""
    ordered = sorted(samples)
    n = len(ordered)
    distance = 0.0
    for index, value in enumerate(ordered):
        probability = cdf(value)
        distance = max(distance,
                       abs((index + 1) / n - probability),
                       abs(probability - index / n))
    return distance


_MEAN_TASK = 10_000.0  # large mean so integer rounding is negligible


def _arrival_samples(name: str, seed: int, count: int = 2000, **params):
    model = registry.arrival(name).create(**params)
    stream = derive_stream(seed, "acceptance", name)
    return model.inter_arrivals(stream, count, _MEAN_TASK)


def _etm_samples(name: str, seed: int, nominal: int = 10_000,
                 count: int = 2000, **params):
    model = registry.etm(name).create(**params)
    stream = derive_stream(seed, "acceptance", name)
    return [model.sample(stream, nominal) for _ in range(count)]


class TestArrivalDistributions:
    def test_periodic_gaps_are_constant(self):
        gaps = _arrival_samples("periodic", seed=1, load=1.0)
        assert len(set(gaps)) == 1
        assert gaps[0] == round(_MEAN_TASK)

    def test_periodic_load_scales_the_gap(self):
        slow = _arrival_samples("periodic", seed=1, load=0.5)
        fast = _arrival_samples("periodic", seed=1, load=2.0)
        assert slow[0] == 4 * fast[0]

    def test_poisson_gaps_pass_ks_against_exponential(self):
        gaps = _arrival_samples("poisson", seed=2, load=1.0)
        scale = _MEAN_TASK
        # Evaluate the CDF at value + 0.5 to undo the integer rounding.
        distance = _ks_statistic(
            gaps, lambda value: 1.0 - math.exp(-(value + 0.5) / scale))
        # 1% KS critical value at n=2000 is ~0.036; allow rounding slack.
        assert distance < 0.05

    def test_poisson_mean_and_variance_sane(self):
        gaps = _arrival_samples("poisson", seed=3, load=1.0)
        n = len(gaps)
        mean = sum(gaps) / n
        variance = sum((gap - mean) ** 2 for gap in gaps) / n
        assert abs(mean - _MEAN_TASK) / _MEAN_TASK < 0.1
        # Exponential: variance == mean^2 (CV == 1).
        assert 0.7 < variance / mean ** 2 < 1.4

    def test_bursty_is_overdispersed_versus_poisson(self):
        gaps = _arrival_samples("bursty", seed=4, load=1.0, burst=8.0,
                                switch=0.05)
        n = len(gaps)
        mean = sum(gaps) / n
        variance = sum((gap - mean) ** 2 for gap in gaps) / n
        # An MMPP mixes fast and slow phases: its squared coefficient of
        # variation must exceed the exponential's 1.
        assert variance / mean ** 2 > 1.3

    def test_bursty_visits_both_phases(self):
        gaps = _arrival_samples("bursty", seed=5, load=1.0, burst=8.0,
                                switch=0.1)
        mean = sum(gaps) / len(gaps)
        assert any(gap < mean / 2 for gap in gaps)
        assert any(gap > mean * 2 for gap in gaps)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ReproError):
            _arrival_samples("poisson", seed=1, load=0.0)

    def test_gaps_are_positive_integers(self):
        for name in registry.arrival_names():
            gaps = _arrival_samples(name, seed=6, count=200)
            assert all(isinstance(gap, int) and gap >= 1 for gap in gaps)


class TestEtmDistributions:
    def test_constant_is_exact(self):
        samples = _etm_samples("constant", seed=1, factor=1.5, count=50)
        assert set(samples) == {15_000}

    def test_uniform_stays_in_bounds_with_unit_mean(self):
        samples = _etm_samples("uniform", seed=2)
        assert all(8_000 <= sample <= 12_000 for sample in samples)
        mean = sum(samples) / len(samples)
        assert abs(mean - 10_000) / 10_000 < 0.02

    def test_uniform_chi_squared_uniformity(self):
        samples = _etm_samples("uniform", seed=3, count=4000)
        bins = [0] * 10
        for sample in samples:
            index = min(int((sample - 8_000) / 400), 9)
            bins[index] += 1
        expected = len(samples) / len(bins)
        chi2 = sum((count - expected) ** 2 / expected for count in bins)
        # 9 degrees of freedom: 1% critical value is 21.7.
        assert chi2 < 27.0

    def test_lognormal_unit_mean_and_positive_skew(self):
        samples = _etm_samples("lognormal", seed=4, count=4000)
        mean = sum(samples) / len(samples)
        assert abs(mean - 10_000) / 10_000 < 0.05  # mean-1 normalisation
        assert all(sample >= 1 for sample in samples)
        ordered = sorted(samples)
        median = ordered[len(ordered) // 2]
        assert mean > median  # right-skewed

    def test_zero_payload_stays_zero(self):
        for name in registry.etm_names():
            model = registry.etm(name).create()
            stream = derive_stream(1, "zero", name)
            assert model.sample(stream, 0) == 0


class TestStreamStatistics:
    def test_randrange_chi_squared_uniform(self):
        stream = derive_stream(9, "chi2")
        bins = [0] * 20
        for _ in range(20_000):
            bins[stream.randrange(20)] += 1
        expected = 1000.0
        chi2 = sum((count - expected) ** 2 / expected for count in bins)
        # 19 degrees of freedom: 1% critical value is 36.2.
        assert chi2 < 40.0

    def test_normal_moments(self):
        stream = derive_stream(10, "normal")
        samples = [stream.normal(0.0, 1.0) for _ in range(8000)]
        mean = sum(samples) / len(samples)
        variance = sum((value - mean) ** 2 for value in samples) / len(samples)
        assert abs(mean) < 0.05
        assert abs(variance - 1.0) < 0.1

    def test_random_is_in_unit_interval(self):
        stream = derive_stream(11, "unit")
        values = [stream.random() for _ in range(1000)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.05
