"""Behavioural tests for the five runtime models."""

from __future__ import annotations

import dataclasses

import pytest

from repro import registry
from repro.common.config import SimConfig
from repro.runtime import (
    NanosAXIRuntime,
    NanosRVRuntime,
    NanosSWRuntime,
    PhentosRuntime,
    SerialRuntime,
)
from repro.runtime.task import Task, TaskProgram, in_dep, out_dep

from tests.helpers import (
    make_chain_program,
    make_fork_join_program,
    make_independent_program,
    picos_config,
)

ALL_PARALLEL_RUNTIMES = [NanosSWRuntime, NanosRVRuntime, NanosAXIRuntime,
                         PhentosRuntime]


@pytest.fixture(scope="module")
def four_core_config():
    return SimConfig(max_cycles=500_000_000).with_cores(4)


class TestSerialRuntime:
    def test_elapsed_matches_payloads_plus_loop_overhead(self):
        program = make_independent_program(num_tasks=10, payload=1000)
        result = SerialRuntime().run(program)
        assert result.num_cores == 1
        assert result.elapsed_cycles >= program.total_payload_cycles
        # Loop overhead is a few cycles per task, not more.
        assert result.elapsed_cycles <= program.total_payload_cycles + 10 * 20
        assert result.speedup_vs_serial == pytest.approx(
            program.serial_cycles / result.elapsed_cycles)

    def test_serial_sections_included(self):
        program = TaskProgram(
            name="with-serial",
            tasks=[Task(index=0, payload_cycles=100)],
            serial_sections_cycles=400,
        )
        result = SerialRuntime().run(program)
        assert result.elapsed_cycles >= 500

    def test_tasks_executed_counts_task_bodies_run(self):
        # A runtime that loses a task must say so: the count is of the
        # task bodies run, not the program's task count.
        class SkipLastTask(SerialRuntime):
            def _main(self, soc, program):
                return super()._main(
                    soc, TaskProgram(program.name, program.tasks[:-1]))

        program = make_independent_program(num_tasks=6, payload=100)
        assert SkipLastTask().run(program).tasks_executed == 5
        assert SerialRuntime().run(program).tasks_executed == 6


class TestRuntimeRegistry:
    def test_registry_contains_all_five_models(self):
        assert registry.RUNTIMES.names() == [
            "serial", "nanos-sw", "nanos-rv", "nanos-axi", "phentos"]

    def test_registry_names_match_class_attribute(self):
        for spec in registry.RUNTIMES.specs():
            assert spec.cls.name == spec.name


@pytest.mark.parametrize("runtime_cls", ALL_PARALLEL_RUNTIMES)
class TestAllParallelRuntimes:
    def test_executes_every_task_of_independent_program(self, runtime_cls,
                                                         four_core_config):
        program = make_independent_program(num_tasks=12, payload=400)
        executed = []
        tasks = [
            Task(index=t.index, payload_cycles=t.payload_cycles,
                 dependences=t.dependences,
                 kernel=lambda i=t.index: executed.append(i))
            for t in program.tasks
        ]
        program = TaskProgram(name="tracked", tasks=tasks)
        result = runtime_cls(four_core_config).run(program, num_workers=4)
        assert sorted(executed) == list(range(12))
        assert result.tasks_executed == 12
        assert result.elapsed_cycles > 0

    def test_chain_preserves_order(self, runtime_cls, four_core_config):
        order = []
        base = make_chain_program(num_tasks=8, payload=100)
        tasks = [
            Task(index=t.index, payload_cycles=t.payload_cycles,
                 dependences=t.dependences,
                 kernel=lambda i=t.index: order.append(i))
            for t in base.tasks
        ]
        program = TaskProgram(name="ordered-chain", tasks=tasks)
        runtime_cls(four_core_config).run(program, num_workers=4)
        assert order == list(range(8))

    def test_fork_join_respects_dependences(self, runtime_cls,
                                            four_core_config):
        events = []
        base = make_fork_join_program(width=4, payload=200)
        tasks = [
            Task(index=t.index, payload_cycles=t.payload_cycles,
                 dependences=t.dependences,
                 kernel=lambda i=t.index: events.append(i))
            for t in base.tasks
        ]
        program = TaskProgram(name="fork-join-tracked", tasks=tasks)
        runtime_cls(four_core_config).run(program, num_workers=4)
        assert events[0] == 0                       # producer first
        assert events[-1] == len(tasks) - 1         # reducer last
        assert set(events) == set(range(len(tasks)))

    def test_taskwait_barrier_orders_phases(self, runtime_cls,
                                            four_core_config):
        events = []
        tasks = []
        for index in range(6):
            tasks.append(Task(
                index=index, payload_cycles=150,
                dependences=(out_dep(0xC000_0000 + 4096 * index),),
                kernel=lambda i=index: events.append(i),
            ))
        program = TaskProgram(name="two-phases", tasks=tasks,
                              taskwait_after={2})
        runtime_cls(four_core_config).run(program, num_workers=4)
        first_phase = set(events[:3])
        second_phase = set(events[3:])
        assert first_phase == {0, 1, 2}
        assert second_phase == {3, 4, 5}

    def test_single_worker_run_completes(self, runtime_cls, four_core_config):
        program = make_independent_program(num_tasks=6, payload=300)
        result = runtime_cls(four_core_config).run(program, num_workers=1)
        assert result.num_cores == 1
        assert result.elapsed_cycles > program.total_payload_cycles


@pytest.mark.parametrize("runtime_cls", [NanosRVRuntime, NanosAXIRuntime,
                                         PhentosRuntime])
@pytest.mark.parametrize("num_tasks", [1, 2])
def test_every_retirement_is_counted(runtime_cls, num_tasks):
    # On one worker the last retirement is still in Picos's 50-cycle
    # retirement pipeline when the threads end; the report counts it, and
    # the elapsed time still ends with the threads.
    program = make_independent_program(num_tasks=num_tasks, payload=100)
    config = picos_config(SimConfig(max_cycles=2_000_000), retire_cycles=50)
    runtime = runtime_cls(config)
    result = runtime.run(program, num_workers=1)
    assert result.stats["picos.tasks_retired"] == num_tasks
    soc = runtime.build_soc(1)
    runtime._execute(soc, program, 1)
    assert result.elapsed_cycles == soc.now


@pytest.mark.parametrize("runtime_cls", [PhentosRuntime, NanosRVRuntime])
def test_traced_run_gives_the_untraced_result(runtime_cls, four_core_config):
    # A traced engine refuses every in-place advance, so each RoCC
    # handshake and charge step waits in the loop; the modelled run, and
    # the order its counters first appear in, must not notice.
    program = make_fork_join_program(width=6, payload=300)
    traced_config = dataclasses.replace(four_core_config, trace=True)
    plain = runtime_cls(four_core_config).run(program, num_workers=4)
    traced = runtime_cls(traced_config).run(program, num_workers=4)
    assert traced == plain
    assert list(traced.stats.items()) == list(plain.stats.items())


class TestRelativePerformance:
    """The orderings the paper's evaluation hinges on."""

    @pytest.fixture(scope="class")
    def results(self):
        config = SimConfig(max_cycles=500_000_000).with_cores(4)
        program = make_independent_program(num_tasks=24, payload=3000)
        out = {}
        for name in ("serial", "nanos-sw", "nanos-rv", "phentos"):
            runtime = registry.runtime(name).cls(config)
            out[name] = runtime.run(
                program, num_workers=1 if name == "serial" else 4
            )
        return out

    def test_phentos_faster_than_nanos_rv(self, results):
        assert results["phentos"].elapsed_cycles < \
            results["nanos-rv"].elapsed_cycles

    def test_nanos_rv_faster_than_nanos_sw(self, results):
        assert results["nanos-rv"].elapsed_cycles < \
            results["nanos-sw"].elapsed_cycles

    def test_phentos_achieves_parallel_speedup(self, results):
        assert results["phentos"].speedup_vs_serial > 2.0

    def test_utilization_bounded_by_one(self, results):
        for result in results.values():
            assert 0.0 <= result.utilization <= 1.0


class TestPhentosSpecifics:
    def test_role_switching_survives_reservation_station_pressure(self):
        """More in-flight tasks than Picos capacity with a single worker.

        Without the paper's role-switching (Section IV-C) the main thread
        would spin forever on failing submissions; with it the run finishes.
        """
        config = SimConfig(max_cycles=2_000_000_000).with_cores(1)
        capacity = config.costs.picos.max_in_flight_tasks
        program = make_independent_program(num_tasks=capacity + 40, payload=50,
                                           name="overflow")
        result = PhentosRuntime(config).run(program, num_workers=1)
        assert result.tasks_executed == capacity + 40

    def test_taskwait_sees_a_flush_that_lands_while_it_reads(self):
        """The end-of-program taskwait counts the main thread's unflushed
        retirements when it decides to sleep; a worker's flush landing
        between that read and the sleep must not be lost.  This program
        once deadlocked at cycle 926 with the counter at 4 of 5."""
        a, b = 0x9000_0000, 0x9000_0040
        program = TaskProgram(name="lost-wake-up", tasks=[
            Task(index=0, payload_cycles=195),
            Task(index=1, payload_cycles=0, dependences=(out_dep(a),)),
            Task(index=2, payload_cycles=0,
                 dependences=(in_dep(a), in_dep(b))),
            Task(index=3, payload_cycles=1, dependences=(out_dep(a),)),
            Task(index=4, payload_cycles=134),
        ])
        result = PhentosRuntime(SimConfig()).run(program, num_workers=3)
        assert result.tasks_executed == 5

    def test_metadata_element_size_follows_dependence_count(self):
        config = SimConfig().with_cores(2)
        runtime = PhentosRuntime(config)
        small = make_chain_program(num_tasks=4, payload=10, num_deps=7,
                                   name="small-deps")
        large = make_chain_program(num_tasks=4, payload=10, num_deps=15,
                                   name="large-deps")
        # Run both; the large-dependence program must still complete (two
        # cache-line metadata elements) and take at least as long per task.
        result_small = runtime.run(small, num_workers=2)
        result_large = PhentosRuntime(config).run(large, num_workers=2)
        assert result_large.elapsed_cycles > result_small.elapsed_cycles


class TestNanosSpecifics:
    def test_nanos_sw_runs_without_picos_hardware(self, four_core_config):
        program = make_independent_program(num_tasks=8, payload=100)
        runtime = NanosSWRuntime(four_core_config)
        soc = runtime.build_soc(4)
        assert soc.picos is None
        result = runtime.run(program, num_workers=4)
        assert result.tasks_executed == 8

    def test_nanos_axi_builds_soc_without_rocc_path(self, four_core_config):
        runtime = NanosAXIRuntime(four_core_config)
        soc = runtime.build_soc(4)
        assert soc.picos is not None
        assert soc.manager is None

    def test_nanos_overhead_dominates_fine_grained_tasks(self,
                                                         four_core_config):
        program = make_independent_program(num_tasks=10, payload=100,
                                           name="tiny-tasks")
        serial = SerialRuntime(four_core_config).run(program)
        nanos = NanosSWRuntime(four_core_config).run(program, num_workers=4)
        # Fine-grained tasks under Nanos-SW are far slower than serial.
        assert nanos.elapsed_cycles > 10 * serial.elapsed_cycles
