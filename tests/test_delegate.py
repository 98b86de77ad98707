"""Tests for the Picos Delegate: the seven custom instructions of Table I."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ProtocolError
from repro.cpu.rocc import (FAILURE_FLAG, RoccCommand, RoccResponse,
                            TaskSchedulingFunct)
from repro.cpu.soc import SoC
from repro.manager.manager import ManagerError
from repro.picos.packets import encode_nonzero_packets, TaskDescriptor, \
    TaskDependence, Direction
from repro.sim.engine import Delay


def make_soc(num_cores=2):
    return SoC(SimConfig().with_cores(num_cores))


def run_instruction(soc, core_id, command):
    """Issue one RoCC command from a core and return its response."""
    responses = []

    def program():
        response = yield from soc.core(core_id).rocc(command)
        responses.append(response)

    process = soc.engine.spawn(program(), name="instr")
    soc.engine.run_until_complete([process])
    return responses[0]


def run_program(soc, core_id, generator):
    process = soc.engine.spawn(generator, name="program")
    soc.engine.run_until_complete([process])
    return process.result


def settle(soc, cycles=5_000):
    def idler():
        yield Delay(cycles)

    process = soc.engine.spawn(idler(), name="settle")
    soc.engine.run_until_complete([process])


def submit_whole_task(soc, core_id, sw_id, deps=()):
    """Drive Submission Request + Submit Three Packets for one descriptor."""
    descriptor = TaskDescriptor(sw_id=sw_id, dependences=tuple(deps))
    packets = encode_nonzero_packets(descriptor)

    def program():
        core = soc.core(core_id)
        response = yield from core.rocc(RoccCommand(
            TaskSchedulingFunct.SUBMISSION_REQUEST, rs1_value=len(packets)))
        assert response.success
        for offset in range(0, len(packets), 3):
            p1, p2, p3 = packets[offset:offset + 3]
            response = yield from core.rocc(RoccCommand(
                TaskSchedulingFunct.SUBMIT_THREE_PACKETS,
                rs1_value=(p1 << 32) | p2, rs2_value=p3))
            assert response.success

    run_program(soc, core_id, program())
    settle(soc)


class TestSubmissionInstructions:
    def test_submission_request_then_packets_reach_picos(self):
        soc = make_soc()
        submit_whole_task(soc, 0, sw_id=7,
                          deps=[TaskDependence(0x100, Direction.OUT)])
        assert soc.picos.graph.total_submitted == 1
        assert soc.picos.sw_id_of(0) == 7

    def test_submit_packet_single_word_variant(self):
        soc = make_soc()

        def program():
            core = soc.core(0)
            response = yield from core.rocc(RoccCommand(
                TaskSchedulingFunct.SUBMISSION_REQUEST, rs1_value=3))
            assert response.success
            # sw_id = 9, zero dependences, one packet at a time.
            for word in (0, 9, 0):
                response = yield from core.rocc(RoccCommand(
                    TaskSchedulingFunct.SUBMIT_PACKET, rs1_value=word))
                assert response.success

        run_program(soc, 0, program())
        settle(soc)
        assert soc.picos.graph.total_submitted == 1
        assert soc.picos.sw_id_of(0) == 9

    def test_submission_request_failure_flag_when_announcements_pile_up(self):
        """Announcing without ever sending packets eventually fails fast.

        The Submission Handler can hold a small number of outstanding
        announcements per core (its announcement queue plus the one the pump
        is currently serving); beyond that the non-blocking instruction must
        return the failure flag instead of stalling the core.
        """
        soc = make_soc()
        command = RoccCommand(TaskSchedulingFunct.SUBMISSION_REQUEST,
                              rs1_value=3)
        responses = [run_instruction(soc, 0, command) for _ in range(6)]
        assert responses[0].success
        failures = [r for r in responses if r.failed]
        assert failures, "Submission Request never reported back-pressure"
        assert all(r.value == FAILURE_FLAG for r in failures)
        # Once a request fails, later ones keep failing until packets arrive.
        assert run_instruction(soc, 0, command).failed


class TestWorkFetchInstructions:
    def test_fetch_sw_id_fails_on_empty_queue(self):
        soc = make_soc()
        response = run_instruction(
            soc, 0, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        assert response.failed

    def test_fetch_picos_id_requires_prior_fetch_sw_id(self):
        soc = make_soc()
        submit_whole_task(soc, 0, sw_id=3)
        assert run_instruction(
            soc, 1, RoccCommand(TaskSchedulingFunct.READY_TASK_REQUEST)).success
        settle(soc)
        # Skipping Fetch SW ID: Fetch Picos ID must fail and not pop.
        response = run_instruction(
            soc, 1, RoccCommand(TaskSchedulingFunct.FETCH_PICOS_ID))
        assert response.failed
        assert not soc.manager.core_ready_queue(1).empty

    def test_full_fetch_sequence_returns_ids_and_pops_queue(self):
        soc = make_soc()
        submit_whole_task(soc, 0, sw_id=55)
        assert run_instruction(
            soc, 1, RoccCommand(TaskSchedulingFunct.READY_TASK_REQUEST)).success
        settle(soc)
        sw = run_instruction(soc, 1,
                             RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        assert sw.success and sw.value == 55
        assert soc.delegates[1].sw_id_flag
        picos = run_instruction(soc, 1,
                                RoccCommand(TaskSchedulingFunct.FETCH_PICOS_ID))
        assert picos.success
        assert soc.manager.core_ready_queue(1).empty
        assert not soc.delegates[1].sw_id_flag
        # A second Fetch SW ID on the now-empty queue fails again.
        assert run_instruction(
            soc, 1, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID)).failed

    def test_fetch_sw_id_does_not_pop(self):
        soc = make_soc()
        submit_whole_task(soc, 0, sw_id=4)
        run_instruction(soc, 0,
                        RoccCommand(TaskSchedulingFunct.READY_TASK_REQUEST))
        settle(soc)
        first = run_instruction(soc, 0,
                                RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        second = run_instruction(soc, 0,
                                 RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        assert first.value == second.value == 4
        assert len(soc.manager.core_ready_queue(0)) == 1


class TestRetireInstruction:
    def test_retire_task_removes_task_and_wakes_dependent(self):
        soc = make_soc()
        shared = TaskDependence(0x800, Direction.INOUT)
        submit_whole_task(soc, 0, sw_id=0, deps=[shared])
        submit_whole_task(soc, 0, sw_id=1, deps=[shared])
        run_instruction(soc, 0,
                        RoccCommand(TaskSchedulingFunct.READY_TASK_REQUEST))
        settle(soc)
        run_instruction(soc, 0, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        picos = run_instruction(
            soc, 0, RoccCommand(TaskSchedulingFunct.FETCH_PICOS_ID))
        response = run_instruction(
            soc, 0, RoccCommand(TaskSchedulingFunct.RETIRE_TASK,
                                rs1_value=picos.value))
        assert response.success
        settle(soc)
        assert soc.picos.graph.total_retired == 1
        # The dependent task (sw_id 1) is now fetchable.
        run_instruction(soc, 1,
                        RoccCommand(TaskSchedulingFunct.READY_TASK_REQUEST))
        settle(soc)
        sw = run_instruction(soc, 1,
                             RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        assert sw.success and sw.value == 1


class TestDelegateConstruction:
    def test_core_id_bounds_checked(self):
        soc = make_soc(num_cores=2)
        from repro.delegate.delegate import PicosDelegate
        with pytest.raises(ProtocolError):
            PicosDelegate(5, soc.engine, soc.manager, SimConfig().costs.rocc)

    def test_instruction_stats_recorded(self):
        soc = make_soc()
        run_instruction(soc, 0,
                        RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        delegate = soc.delegates[0]
        assert delegate.stats.counter("instr_fetch_sw_id") == 1
        assert delegate.stats.counter("fail_fetch_sw_id") == 1
        core = soc.core(0)
        assert core.stats.counter("rocc_instructions") == 1


def _forward(steps, yielded):
    """Run ``steps`` as ``yield from`` would, recording what it yields."""
    value = None
    while True:
        try:
            command = steps.send(value)
        except StopIteration as stop:
            return stop.value
        yielded.append(command)
        value = yield command


class TestHandshakeInPlace:
    """``Core.rocc`` waits out the issue and the delegate's handshake."""

    def _issue(self, soc, command, blocker_in=None, hook_cycles=None):
        """Issue ``command`` on core 0 after the SoC settles; returns the
        response, the commands the instruction yielded and the cycles it
        took.  ``blocker_in`` schedules a callback that many cycles ahead
        of the issue, which appends the cycle it runs in to
        ``hook_cycles``."""
        engine = soc.engine
        outcome = {}

        def program():
            yield Delay(100)
            start = engine.now
            if blocker_in is not None:
                ran = hook_cycles if hook_cycles is not None else []
                engine.schedule_callback(
                    blocker_in, lambda: ran.append(engine.now - start))
            yielded = []
            response = yield from _forward(soc.core(0).rocc(command), yielded)
            outcome.update(response=response, yielded=yielded,
                           cycles=engine.now - start)

        run_program(soc, 0, program())
        return outcome["response"], outcome["yielded"], outcome["cycles"]

    @staticmethod
    def _costs(soc):
        rocc = soc.config.costs.rocc
        return rocc.issue, rocc.manager_handshake

    def test_handshake_that_fits_completes_without_a_yield(self):
        soc = make_soc()
        issue, handshake = self._costs(soc)
        response, yielded, cycles = self._issue(
            soc, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        assert response.failed
        assert yielded == []
        assert cycles == issue + handshake

    def test_handshake_that_does_not_fit_yields_one_delay(self):
        soc = make_soc()
        issue, handshake = self._costs(soc)
        response, yielded, cycles = self._issue(
            soc, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID),
            blocker_in=issue + handshake)
        assert response.failed
        assert yielded == [Delay(handshake)]
        assert cycles == issue + handshake

    def test_traced_engine_keeps_the_handshake_delay(self):
        soc = SoC(dataclasses.replace(SimConfig(), trace=True).with_cores(2))
        issue, handshake = self._costs(soc)
        _response, yielded, cycles = self._issue(
            soc, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
        assert yielded == [Delay(issue), Delay(handshake)]
        assert cycles == issue + handshake

    @pytest.mark.parametrize("blocker_in", [0, 1, 2, 3])
    def test_a_due_callback_runs_in_the_cycle_of_the_two_step_path(
            self, blocker_in):
        """A callback due before the handshake ends splits the wait into
        the issue and the handshake, as a traced run (which never advances
        in place) does; the callback runs in the same cycle either way and
        the instruction takes the same cycles."""
        command = RoccCommand(TaskSchedulingFunct.FETCH_SW_ID)
        runs = {}
        for trace in (False, True):
            soc = SoC(dataclasses.replace(SimConfig(),
                                          trace=trace).with_cores(2))
            hook_cycles = []
            _response, yielded, cycles = self._issue(
                soc, command, blocker_in=blocker_in, hook_cycles=hook_cycles)
            runs[trace] = (hook_cycles, cycles, soc)
            issue, handshake = self._costs(soc)
        assert runs[False][:2] == runs[True][:2] == (
            [blocker_in], issue + handshake)
        for soc in (runs[False][2], runs[True][2]):
            assert soc.delegates[0].stats.counter("instr_fetch_sw_id") == 1

    def test_two_step_path_splits_where_the_callback_falls(self):
        soc = make_soc()
        issue, handshake = self._costs(soc)
        # Due within the issue: the issue yields, the handshake fits.
        _response, yielded, _cycles = self._issue(
            soc, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID), blocker_in=1)
        assert yielded == [Delay(issue)]
        # Due just after the handshake: one in-place advance covers both.
        _response, yielded, _cycles = self._issue(
            soc, RoccCommand(TaskSchedulingFunct.FETCH_SW_ID),
            blocker_in=issue + handshake + 1)
        assert yielded == []

    def test_traced_run_logs_a_delay_line_per_step(self):
        """A traced instruction logs the issue and the handshake as two
        ``Delay`` lines, and Retire Task its round trip and ``Put`` too."""
        soc = SoC(dataclasses.replace(SimConfig(), trace=True).with_cores(2))
        engine = soc.engine

        def program():
            yield Delay(100)
            yield from soc.core(0).rocc(
                RoccCommand(TaskSchedulingFunct.FETCH_SW_ID))
            yield from soc.core(0).rocc(
                RoccCommand(TaskSchedulingFunct.RETIRE_TASK, rs1_value=0))

        process = engine.spawn(program(), name="instr")
        engine.run_until_complete([process])
        lines = [line for line in engine.trace_log if " instr " in line]
        assert lines == [
            "[0] instr -> Delay", "[100] instr -> Delay",
            "[102] instr -> Delay", "[103] instr -> Delay",
            "[105] instr -> Delay", "[106] instr -> Delay",
            "[108] instr -> Put", "[108] instr finished",
        ]


class TestFailedInstructionBookkeeping:
    def test_failing_submit_three_packets_flags_every_failure(self):
        soc = make_soc()
        command = RoccCommand(TaskSchedulingFunct.SUBMIT_THREE_PACKETS,
                              rs1_value=(1 << 32) | 2, rs2_value=3)
        responses = [run_instruction(soc, 0, command) for _ in range(40)]
        failed = [r for r in responses if r.failed]
        # The buffer fills, then every further triple fails.
        assert failed and responses[-1].failed
        assert all(r is RoccResponse.failure() for r in failed)
        assert all(r.value == FAILURE_FLAG for r in failed)
        assert soc.delegates[0].stats.counter(
            "fail_submit_three_packets") == len(failed)
        assert soc.delegates[0].stats.counter(
            "instr_submit_three_packets") == 40
        manager = soc.manager
        assert manager.stats.counter(
            "error_submission_overflow") == len(failed)
        assert manager.error_register is ManagerError.SUBMISSION_OVERFLOW
        manager.clear_errors()
        assert run_instruction(soc, 0, command).failed
        assert manager.error_register is ManagerError.SUBMISSION_OVERFLOW
        assert manager.stats.counter(
            "error_submission_overflow") == len(failed) + 1

    def test_failing_fetch_sw_id_leaves_the_error_register(self):
        soc = make_soc()
        command = RoccCommand(TaskSchedulingFunct.FETCH_SW_ID)
        assert run_instruction(soc, 0, command).failed
        assert run_instruction(soc, 0, command).failed
        assert soc.delegates[0].stats.counter("fail_fetch_sw_id") == 2
        assert soc.manager.error_register is ManagerError.NONE
        assert list(soc.core(0).stats.counters()) == [
            "rocc_instructions", "rocc_fetch_sw_id"]
        assert soc.core(0).stats.counter("rocc_instructions") == 2
