"""Tests for the configuration objects and the statistics helpers."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.common.config import (
    AxiCosts,
    CostModel,
    MachineConfig,
    MemoryCosts,
    NanosCosts,
    PhentosCosts,
    PicosCosts,
    RoccCosts,
    SimConfig,
    default_cost_model,
    default_machine,
)
from repro.common.errors import ConfigurationError
from repro.common.stats import Histogram, Stats, geometric_mean, merge_stats


class TestMachineConfig:
    def test_defaults_match_the_paper_prototype(self):
        machine = default_machine()
        assert machine.num_cores == 8
        assert machine.core_clock_mhz == pytest.approx(80.0)
        assert machine.memory_clock_mhz == pytest.approx(667.0)
        assert machine.l1_size_bytes == 32 * 1024
        assert machine.l1_ways == 8
        assert machine.has_shared_l2 is False
        assert machine.fpga == "ZCU102-ES2"

    def test_l1_geometry(self):
        machine = default_machine()
        assert machine.l1_sets == 64
        assert machine.l1_sets * machine.l1_ways * machine.cache_line_bytes \
            == machine.l1_size_bytes

    def test_memory_clock_ratio(self):
        machine = default_machine()
        assert machine.memory_clock_ratio == pytest.approx(667.0 / 80.0)

    def test_cycles_to_seconds(self):
        machine = default_machine()
        assert machine.cycles_to_seconds(80_000_000) == pytest.approx(1.0)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(l1_size_bytes=1000)  # not divisible

    def test_non_positive_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(core_clock_mhz=-1)


class TestSimConfig:
    def test_with_cores_returns_new_config(self):
        config = SimConfig()
        four = config.with_cores(4)
        assert four.machine.num_cores == 4
        assert config.machine.num_cores == 8
        assert four.costs is config.costs

    def test_max_cycles_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimConfig(max_cycles=0)

    def test_default_cost_model_is_complete(self):
        costs = default_cost_model()
        assert isinstance(costs, CostModel)
        assert isinstance(costs.memory, MemoryCosts)
        assert isinstance(costs.rocc, RoccCosts)
        assert isinstance(costs.picos, PicosCosts)
        assert isinstance(costs.axi, AxiCosts)
        assert isinstance(costs.nanos, NanosCosts)
        assert isinstance(costs.phentos, PhentosCosts)


class TestCostTables:
    def test_cost_tables_reject_negative_values(self):
        with pytest.raises(ConfigurationError):
            MemoryCosts(l1_hit=-1)
        with pytest.raises(ConfigurationError):
            PicosCosts(ready_emit_cycles=-2)
        with pytest.raises(ConfigurationError):
            NanosCosts(submit_instructions=-5)
        with pytest.raises(ConfigurationError):
            PhentosCosts(fetch_instructions=-5)
        with pytest.raises(ConfigurationError):
            AxiCosts(submit_transaction=-1)

    @pytest.mark.parametrize("table, costs", [
        (RoccCosts, {"manager_handshake": 0}),
        (PicosCosts, {"retire_cycles": 1}),
        (PicosCosts, {"submission_packet_cycles": 0, "retire_cycles": 0}),
        (PicosCosts, {"submission_packet_cycles": 8}),
        (PicosCosts, {"ready_emit_cycles": 1}),
        (PicosCosts, {"submission_packet_cycles": 30}),
    ], ids=["handshake-0", "packet-1-retire-1", "packet-0-retire-0",
            "packet-8-retire-8", "packet-1-emit-1", "packet-30-emit-30"])
    def test_costs_the_submission_stream_cannot_place_are_rejected(
            self, table, costs):
        # A hook call needs a handshake to come first in its cycle, and a
        # packet period equal to the retirement or ready-emission period
        # could tie a Picos step with the descriptor insert.
        with pytest.raises(ConfigurationError):
            table(**costs)

    def test_cost_tables_are_frozen(self):
        costs = MemoryCosts()
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.l1_hit = 99  # type: ignore[misc]

    def test_phentos_metadata_element_thresholds(self):
        costs = PhentosCosts()
        assert costs.metadata_lines_small == 1
        assert costs.metadata_lines_large == 2
        assert costs.small_element_max_deps == 7

    def test_nanos_costs_dominate_phentos_costs(self):
        nanos = NanosCosts()
        phentos = PhentosCosts()
        assert nanos.submit_instructions > 10 * phentos.submit_instructions
        assert nanos.fetch_instructions > 10 * phentos.fetch_instructions


class TestStats:
    def test_counters_accumulate(self):
        stats = Stats("unit")
        stats.incr("events")
        stats.incr("events", 2)
        stats.add("cycles", 100)
        assert stats.counter("events") == 3
        assert stats.counter("cycles") == 100
        assert stats.counter("missing") == 0

    def test_items_are_scoped(self):
        stats = Stats("core0")
        stats.incr("loads")
        assert dict(stats.items()) == {"core0.loads": 1.0}

    def test_reset_clears_everything(self):
        stats = Stats()
        stats.incr("x")
        stats.observe("h", 1.0)
        stats.reset()
        assert stats.counter("x") == 0
        assert stats.histogram("h").count == 0

    def test_merge_stats_sums_counters(self):
        a = Stats("a")
        b = Stats("b")
        a.incr("n", 2)
        b.incr("n", 3)
        merged = merge_stats([a, b])
        assert merged == {"a.n": 2.0, "b.n": 3.0}


class TestHistogram:
    def test_streaming_moments(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.stddev == pytest.approx(math.sqrt(1.25))

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)

    def test_empty_histogram_properties(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.variance == 0.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.13]) == pytest.approx(2.13)

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
