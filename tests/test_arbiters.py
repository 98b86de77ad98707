"""Unit tests for the arbiter models used by Picos Manager."""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.sim.arbiters import RoundRobinArbiter
from repro.sim.engine import Delay, Engine, Wait
from repro.sim.queues import DecoupledQueue
from tests.helpers import GuidedArbiter


def _drain(queue):
    items = []
    while queue.valid:
        items.append(queue.try_get())
    return items


class TestRoundRobinArbiter:
    def test_merges_inputs_round_robin(self):
        engine = Engine()
        inputs = [DecoupledQueue(engine, 8, name=f"in{i}") for i in range(3)]
        output = DecoupledQueue(engine, 16, name="out")
        RoundRobinArbiter(engine, inputs, output)
        for index, queue in enumerate(inputs):
            queue.try_put(f"a{index}")
            queue.try_put(f"b{index}")
        engine.run()
        merged = _drain(output)
        assert sorted(merged) == sorted(["a0", "a1", "a2", "b0", "b1", "b2"])
        # Rotating priority: the first three grants cover all three inputs.
        assert {item[1] for item in merged[:3]} == {"0", "1", "2"}

    def test_idle_when_inputs_empty(self):
        engine = Engine()
        inputs = [DecoupledQueue(engine, 4)]
        output = DecoupledQueue(engine, 4)
        arbiter = RoundRobinArbiter(engine, inputs, output)
        engine.run()
        assert arbiter.grants == 0
        assert engine.now == 0

    def test_respects_output_backpressure(self):
        engine = Engine()
        inputs = [DecoupledQueue(engine, 8)]
        output = DecoupledQueue(engine, 1)
        arbiter = RoundRobinArbiter(engine, inputs, output)
        inputs[0].try_put(1)
        inputs[0].try_put(2)
        engine.run()
        assert len(output) == 1
        assert arbiter.grants == 1
        # Draining the output lets the arbiter move the next item.
        output.try_get()
        engine.run()
        assert len(output) == 1
        assert arbiter.grants == 2

    def test_requires_inputs_and_positive_grant_cycles(self):
        engine = Engine()
        output = DecoupledQueue(engine, 4)
        with pytest.raises(ProtocolError):
            RoundRobinArbiter(engine, [], output)
        with pytest.raises(ProtocolError):
            RoundRobinArbiter(engine, [DecoupledQueue(engine, 4)], output,
                              cycles_per_grant=0)


class TestGuidedArbiter:
    def test_exclusive_grant_for_whole_sequence(self):
        engine = Engine()
        arbiter = GuidedArbiter(engine, num_requesters=2)
        grant_a = arbiter.request(0, beats=3)
        grant_b = arbiter.request(1, beats=2)
        assert grant_a.triggered
        assert not grant_b.triggered
        arbiter.transfer_beat(0)
        arbiter.transfer_beat(0)
        assert not grant_b.triggered
        arbiter.transfer_beat(0)
        # Releasing after the last beat hands the grant to the next requester.
        assert grant_b.triggered
        assert arbiter.current_owner == 1
        assert arbiter.sequences_completed == 1

    def test_transfer_without_ownership_raises(self):
        engine = Engine()
        arbiter = GuidedArbiter(engine, num_requesters=2)
        arbiter.request(0, beats=1)
        with pytest.raises(ProtocolError):
            arbiter.transfer_beat(1)

    def test_invalid_requester_or_beats_rejected(self):
        engine = Engine()
        arbiter = GuidedArbiter(engine, num_requesters=2)
        with pytest.raises(ProtocolError):
            arbiter.request(5, beats=1)
        with pytest.raises(ProtocolError):
            arbiter.request(0, beats=0)

    def test_pending_requests_counter(self):
        engine = Engine()
        arbiter = GuidedArbiter(engine, num_requesters=3)
        arbiter.request(0, beats=1)
        arbiter.request(1, beats=1)
        arbiter.request(2, beats=1)
        assert arbiter.busy
        assert arbiter.pending_requests == 2

    def test_grants_usable_from_processes(self):
        engine = Engine()
        arbiter = GuidedArbiter(engine, num_requesters=2)
        order = []

        def requester(core, beats, delay):
            yield Delay(delay)
            grant = arbiter.request(core, beats)
            yield Wait(grant)
            for _ in range(beats):
                yield Delay(1)
                arbiter.transfer_beat(core)
            order.append((core, engine.now))

        engine.spawn(requester(0, 3, 0))
        engine.spawn(requester(1, 2, 1))
        engine.run()
        assert [core for core, _ in order] == [0, 1]
        # Core 1 could only start after core 0 finished all three beats.
        assert order[1][1] >= order[0][1] + 2
