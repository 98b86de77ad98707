"""Unit tests for the instruction-level helpers and the Nanos machinery."""

from __future__ import annotations

import dataclasses

from repro.common.config import CACHE_LINE_BYTES, NanosCosts, SimConfig
from repro.cpu.soc import SoC
from repro.memory.mesi import AccessType, CoherenceDirectory
from repro.runtime.hw_interface import (
    FetchedTask,
    fetch_ready_task,
    request_ready_task,
    retire_task_hw,
    submit_task_hw,
)
from repro.runtime.nanos import SoftwareBackend
from repro.runtime.nanos_machinery import _SHARED_POOL_LINES, NanosMachinery
from repro.runtime.task import Task, out_dep
from repro.runtime.worker import HwWorkerContext
from tests.helpers import make_independent_program


def run_on_core(soc, core_id, generator):
    process = soc.spawn_worker(core_id, generator, name="driver")
    soc.run([process])
    return process.result


class TestHwInterface:
    def test_submit_then_fetch_then_retire_roundtrip(self):
        soc = SoC(SimConfig().with_cores(2))
        task = Task(index=0, payload_cycles=0,
                    dependences=(out_dep(0x1234_0000),))

        def driver():
            core = soc.core(0)
            retries = yield from submit_task_hw(core, task, sw_id=0)
            assert retries == 0
            accepted = yield from request_ready_task(core)
            assert accepted
            fetched = None
            while fetched is None:
                fetched = yield from fetch_ready_task(core)
            assert isinstance(fetched, FetchedTask)
            assert fetched.sw_id == 0
            yield from retire_task_hw(core, fetched.picos_id)
            return fetched

        fetched = run_on_core(soc, 0, driver())
        assert fetched.sw_id == 0

        def settle():
            from repro.sim.engine import Delay
            yield Delay(2_000)

        run_on_core(soc, 1, settle())
        assert soc.picos.graph.total_retired == 1

    def test_fetch_on_empty_queue_returns_none(self):
        soc = SoC(SimConfig().with_cores(1))

        def driver():
            return (yield from fetch_ready_task(soc.core(0)))

        assert run_on_core(soc, 0, driver()) is None

    def test_worker_context_tracks_outstanding_requests(self):
        soc = SoC(SimConfig().with_cores(1))
        done = soc.engine.event("done")
        context = HwWorkerContext(soc, 0, done)

        def driver():
            ok = yield from context.ensure_request()
            assert ok
            assert context.outstanding_requests == 1
            # A second call does not issue another request.
            ok = yield from context.ensure_request()
            assert ok
            assert context.outstanding_requests == 1
            missing = yield from context.try_fetch()
            assert missing is None
            assert context.fetch_failures == 1

        run_on_core(soc, 0, driver())

    def test_acquire_task_returns_none_after_done(self):
        soc = SoC(SimConfig().with_cores(1))
        done = soc.engine.event("done")
        done.trigger(None)
        context = HwWorkerContext(soc, 0, done)

        def driver():
            return (yield from context.acquire_task())

        assert run_on_core(soc, 0, driver()) is None


class TestNanosMachinery:
    def _build(self):
        config = SimConfig().with_cores(2)
        soc = SoC(config, with_picos=False)
        program = make_independent_program(num_tasks=4, payload=10)
        machinery = NanosMachinery(soc, program, config.costs.nanos)
        return soc, program, machinery

    def test_submission_charges_substantial_cycles(self):
        soc, program, machinery = self._build()

        def driver():
            yield from machinery.charge_submission(soc.core(0),
                                                   program.tasks[0])

        run_on_core(soc, 0, driver())
        # The Nanos submission path costs thousands of cycles (Figure 7).
        assert soc.now > 3_000
        assert machinery.stats.counter("submissions") == 1

    def test_software_graph_round_trip(self):
        soc, program, machinery = self._build()
        backend = SoftwareBackend(soc, program, machinery, 1, "done")
        outcomes = []

        def driver():
            core = soc.core(0)
            for task in program.tasks:
                ready = yield from backend.submit(core, task, None)
                outcomes.append(ready)
            popped = []
            while True:
                index = yield from machinery.pop_ready(core)
                if index is None:
                    break
                popped.append(index)
                yield from backend.retire(core, index)
            return popped

        popped = run_on_core(soc, 0, driver())
        assert outcomes == [True] * 4      # independent tasks: all ready
        assert sorted(popped) == [0, 1, 2, 3]
        assert backend.graph.in_flight == 0

    def test_idle_check_occasionally_pays_a_syscall(self):
        soc, program, machinery = self._build()
        core = soc.core(0)

        def driver():
            for _ in range(machinery.costs.idle_checks_per_syscall):
                yield from machinery.charge_idle_check(core)

        run_on_core(soc, 0, driver())
        assert core.stats.counter("syscalls") == 1

    def test_interleaved_pool_touches_follow_the_live_cursor(self,
                                                             monkeypatch):
        soc, _program, machinery = self._build()
        first_line = machinery.shared_pool.base // CACHE_LINE_BYTES
        touched = {0: [], 1: []}
        kinds = {AccessType.READ: "load", AccessType.WRITE: "store"}
        original = CoherenceDirectory.access

        def recording(directory, core, line, kind):
            touched[core].append((kinds[kind], line - first_line))
            return original(directory, core, line, kind)

        # The pool charges go straight to the directory, so record there.
        monkeypatch.setattr(CoherenceDirectory, "access", recording)
        machinery._pool_cursor = _SHARED_POOL_LINES - 2

        def finish(steps):
            # Outside a run every step is refused; answer each with the
            # limit the engine then gives, as the engine loop would.
            try:
                while True:
                    steps.send(-1)
            except StopIteration:
                pass

        first = machinery._charge(soc.core(0), None, 0, 4, None, 0)
        next(first)
        # Core 1 runs a whole call while core 0 waits on its first access.
        second = machinery._charge(soc.core(1), None, 0, 3, None, 0)
        next(second)
        finish(second)
        finish(first)
        assert touched[1] == [("load", 62), ("store", 63), ("load", 0)]
        # Core 0's later offsets start from the cursor core 1 advanced.
        assert touched[0] == [("load", 62), ("store", 2), ("load", 3),
                              ("store", 4)]
        assert machinery._pool_cursor == 5
        assert soc.core(0).stats.counter("loads") == 2
        assert soc.core(0).stats.counter("stores") == 2
        assert soc.core(1).stats.counter("loads") == 2

    def test_pool_charges_longer_than_the_pool_wrap_around_it(
            self, monkeypatch):
        # A configured shared-line count above the pool size still walks
        # the pool in order from the cursor, alternating reads and writes.
        costs = dataclasses.replace(NanosCosts(), submit_shared_lines=150)
        soc = SoC(SimConfig().with_cores(2), with_picos=False)
        machinery = NanosMachinery(
            soc, make_independent_program(num_tasks=4, payload=10), costs)
        first_line = machinery.shared_pool.base // CACHE_LINE_BYTES
        touched = []
        original = CoherenceDirectory.access

        def recording(directory, core, line, kind):
            touched.append((kind, line - first_line))
            return original(directory, core, line, kind)

        monkeypatch.setattr(CoherenceDirectory, "access", recording)
        machinery._pool_cursor = _SHARED_POOL_LINES - 1
        # Outside a run every step is refused: answer each with the limit
        # the engine then gives.
        steps = machinery._charge(soc.core(0), None, 0, 150, None, 0)
        next(steps)
        try:
            while True:
                steps.send(-1)
        except StopIteration:
            pass
        assert touched == [
            (AccessType.WRITE if offset % 2 else AccessType.READ,
             (_SHARED_POOL_LINES - 1 + offset) % _SHARED_POOL_LINES)
            for offset in range(150)]
        assert machinery._pool_cursor == (
            _SHARED_POOL_LINES - 1 + 150) % _SHARED_POOL_LINES
