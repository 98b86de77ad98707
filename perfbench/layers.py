"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps the public functions of the simulator's layers
(``repro.sim``, ``memory``, ``picos``, ``manager``, ``delegate``, ``cpu``,
``runtime``, ``apps`` and ``harness``), counts the calls into each and
times the ones that return a value.  Nothing under ``src/`` changes: the
wrappers are installed on the classes and modules where callers look the
names up, only in the traced process, and :meth:`LayerTrace.uninstall` puts
every original object back.

Generator functions (``Core.rocc``, ``PicosDelegate.execute``, the
``AxiPicosInterface`` methods) are counted but not timed: their wall time
would include the engine's, since they only run while the engine resumes
them.

Timed spans nest.  A span's inclusive seconds count once per outermost
call of its key, and a span's *self* time is its duration minus the spans
of other layers directly inside it (for ``sim.run`` the memory, Picos,
manager and CPU calls made while the engine runs).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

RUNTIMES = ("serial", "nanos-sw", "nanos-rv", "nanos-axi", "phentos")
RUNTIME_FIELDS = ("s", "runs", "tasks", "sim_cycles", "host_ns_per_task")
DELEGATE_INSTRUCTIONS = ("submission_request", "submit_packet",
                         "submit_three_packets", "ready_task_request",
                         "fetch_sw_id", "fetch_picos_id", "retire_task")

#: Per-layer metrics that compare or describe whole passes, so the caller
#: that ran them adds them: the traced over the untraced pass time in
#: reference seconds, and the untraced pass's wall and CPU seconds and the
#: host's slowdown (see ``hostspeed.py``).
RUN_METRICS = ("trace.overhead", "host.wall_s", "host.cpu_s", "host.slowdown")

#: Inclusive-time keys whose self time is reported.
_SELF_KEYS = ("sim.run", "harness.run")


def per_layer_names() -> List[str]:
    """Every per-layer metric :meth:`LayerTrace.metrics` reports, in order."""
    names = [
        "sim.run.calls", "sim.run.s", "sim.self_s", "sim.spawn.calls",
        "sim.callback.calls", "sim.queue.put.calls", "sim.queue.get.calls",
        "sim.queue.put_refused_ratio",
        "memory.access.calls", "memory.access.s", "memory.ops.calls",
        "memory.ops.s", "memory.span_lines.calls", "memory.counter.calls",
        "memory.mutex.calls", "memory.accesses", "memory.misses",
        "memory.invalidations", "memory.miss_ratio",
        "picos.graph_submit.calls", "picos.graph_submit.s",
        "picos.graph_retire.calls", "picos.graph_retire.s",
        "picos.decode.calls", "picos.decode.s", "picos.capacity_polls",
        "picos.accept_ratio", "picos.tasks_accepted",
        "picos.submission_packets", "picos.axi.calls",
        "manager.submit.calls", "manager.submit.s",
        "manager.submit.refused_ratio", "manager.ready_request.calls",
        "manager.ready_request.refused_ratio",
        "delegate.commands",
    ]
    names += [f"delegate.instr_{name}" for name in DELEGATE_INSTRUCTIONS]
    names += ["delegate.fetch_fail_ratio", "cpu.rocc.calls",
              "cpu.soc_build.calls", "cpu.soc_build.s", "cpu.stats_report.s"]
    names += [f"runtime.{runtime}.{field}"
              for runtime in RUNTIMES for field in RUNTIME_FIELDS]
    names += ["apps.build.calls", "apps.build.s", "harness.run.s",
              "harness.self_s", "harness.cache.put.calls",
              "harness.cache.put.s", "harness.cache.get.calls",
              "harness.cache.get.s"]
    return names + list(RUN_METRICS)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTrace:
    """Counts and times calls into the simulator's layers while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.refused: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: Sum of every ``RuntimeResult.stats`` produced while installed.
        self.stats: Counter = Counter()
        self.tasks: Counter = Counter()
        self.sim_cycles: Counter = Counter()
        self._active: Counter = Counter()
        # One frame per open span: [layer, seconds of other-layer spans
        # directly inside it].
        self._stack: List[list] = []
        # (owner, attribute, original, setter) per installed wrapper.
        self._patches: List[Tuple[object, str, object, Callable]] = []

    # ------------------------------------------------------------------ #
    # Wrapper factories
    # ------------------------------------------------------------------ #
    def _counted(self, key: str, original: Callable,
                 refusals: bool = False) -> Callable:
        calls, refused = self.calls, self.refused
        if refusals:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                result = original(*args, **kwargs)
                if not result:
                    refused[key] += 1
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
        return wrapper

    def _timed(self, key: str, layer: str, original: Callable,
               refusals: bool = False, key_of: Callable = None,
               on_result: Callable = None) -> Callable:
        calls, refused, seconds = self.calls, self.refused, self.seconds
        self_seconds, active, stack = self.self_seconds, self._active, \
            self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = key_of(args[0]) if key_of is not None else key
            calls[span] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            active[span] += 1
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                active[span] -= 1
                if not active[span]:
                    seconds[span] += elapsed
                    if span in _SELF_KEYS:
                        self_seconds[span] += elapsed - frame[1]
                if stack and stack[-1][0] != layer:
                    stack[-1][1] += elapsed
            if refusals and not result:
                refused[span] += 1
            if on_result is not None:
                on_result(span, result)
            return result
        return wrapper

    def _note_runtime(self, span: str, result) -> None:
        self.tasks[span] += result.tasks_executed
        self.sim_cycles[span] += result.elapsed_cycles
        self.stats.update(result.stats)

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def _patch(self, owner: object, name: str, make: Callable) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
            setter = setattr
        elif dataclasses.is_dataclass(owner):
            # Registry specs are frozen dataclasses; instrumentation swaps
            # their builder and restores it, bypassing the frozen guard.
            original = getattr(owner, name)
            setter = object.__setattr__
        else:
            original = getattr(owner, name)
            setter = setattr
        setter(owner, name, make(original))
        self._patches.append((owner, name, original, setter))

    def targets(self) -> List[Tuple[object, str, Callable]]:
        """``(owner, attribute, wrapper factory)`` for every patch point."""
        from repro import registry
        from repro.cpu.core import Core
        from repro.cpu.soc import SoC
        from repro.delegate.delegate import PicosDelegate
        from repro.eval import overhead
        from repro.harness.cache.store import CacheStore
        from repro.harness.engine import ExperimentEngine
        from repro.manager.manager import PicosManager
        from repro.memory import hierarchy
        from repro.memory.hierarchy import (MemorySystem, SharedCounter,
                                            SoftwareMutex)
        from repro.memory.mesi import CoherenceDirectory
        from repro.picos import device
        from repro.picos.axi import AxiPicosInterface
        from repro.picos.dependence import TaskGraph
        from repro.runtime.base import Runtime
        from repro.sim.engine import Engine
        from repro.sim.queues import DecoupledQueue, ProtocolCrossingQueue

        def counted(key, refusals=False):
            return lambda f: self._counted(key, f, refusals)

        def timed(key, layer, refusals=False):
            return lambda f: self._timed(key, layer, f, refusals)

        points = [
            (Engine, "run_until_complete", timed("sim.run", "sim")),
            (Engine, "spawn", counted("sim.spawn")),
            (Engine, "schedule_callback", counted("sim.callback")),
            (DecoupledQueue, "try_put", counted("sim.queue.put", True)),
            (ProtocolCrossingQueue, "try_put",
             counted("sim.queue.put", True)),
            (DecoupledQueue, "try_get", counted("sim.queue.get")),
            (CoherenceDirectory, "access", timed("memory.access", "memory")),
            (hierarchy, "span_lines", counted("memory.span_lines")),
        ]
        points += [(MemorySystem, name, timed("memory.ops", "memory"))
                   for name in ("load", "store", "atomic_rmw", "touch_lines")]
        points += [(SharedCounter, name, counted("memory.counter"))
                   for name in ("read", "add", "set")]
        points += [(SoftwareMutex, name, counted("memory.mutex"))
                   for name in ("acquire", "release")]
        points += [
            (TaskGraph, "submit", timed("picos.graph_submit", "picos")),
            (TaskGraph, "retire", timed("picos.graph_retire", "picos")),
            (TaskGraph, "has_capacity", counted("picos.capacity_polls")),
            (device, "decode_descriptor", timed("picos.decode", "picos")),
        ]
        points += [(AxiPicosInterface, name, counted("picos.axi"))
                   for name in ("submit_task", "fetch_ready_task",
                                "retire_task")]
        points += [(PicosManager, name,
                    timed("manager.submit", "manager", True))
                   for name in ("announce_submission", "submit_packet",
                                "submit_packets")]
        points += [
            (PicosManager, "request_ready_task",
             counted("manager.ready_request", True)),
            (PicosDelegate, "execute", counted("delegate.commands")),
            (Core, "rocc", counted("cpu.rocc")),
            (SoC, "__init__", timed("cpu.soc_build", "cpu")),
            (SoC, "stats_report", timed("cpu.stats_report", "cpu")),
            (Runtime, "run", lambda f: self._timed(
                "runtime", "runtime", f,
                key_of=lambda runtime: f"runtime.{runtime.name}",
                on_result=self._note_runtime)),
            (ExperimentEngine, "run", timed("harness.run", "harness")),
            (CacheStore, "get", timed("harness.cache.get", "harness")),
            (CacheStore, "put", timed("harness.cache.put", "harness")),
        ]
        # Workload builders are called through their registry spec (Figure
        # 9 cases) and through the names repro.eval.overhead imported
        # (Figure 7), so both are patched.
        points += [(spec, "builder", timed("apps.build", "apps"))
                   for spec in registry.WORKLOADS.specs()]
        points += [(overhead, name, timed("apps.build", "apps"))
                   for name in ("task_free_program", "task_chain_program")]
        return points

    def install(self) -> "LayerTrace":
        """Wrap every patch point; installing twice is an error."""
        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        for owner, name, make in self.targets():
            self._patch(owner, name, make)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, name, original, setter = self._patches.pop()
            setter(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Report
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, float]:
        """Every :func:`per_layer_names` metric but :data:`RUN_METRICS`."""
        calls, seconds, stats = self.calls, self.seconds, self.stats
        out = {
            "sim.run.calls": calls["sim.run"],
            "sim.run.s": seconds["sim.run"],
            "sim.self_s": self.self_seconds["sim.run"],
            "sim.spawn.calls": calls["sim.spawn"],
            "sim.callback.calls": calls["sim.callback"],
            "sim.queue.put.calls": calls["sim.queue.put"],
            "sim.queue.get.calls": calls["sim.queue.get"],
            "sim.queue.put_refused_ratio": _ratio(
                self.refused["sim.queue.put"], calls["sim.queue.put"]),
            "memory.access.calls": calls["memory.access"],
            "memory.access.s": seconds["memory.access"],
            "memory.ops.calls": calls["memory.ops"],
            "memory.ops.s": seconds["memory.ops"],
            "memory.span_lines.calls": calls["memory.span_lines"],
            "memory.counter.calls": calls["memory.counter"],
            "memory.mutex.calls": calls["memory.mutex"],
            "memory.accesses": stats["memory.accesses"],
            "memory.misses": stats["memory.misses"],
            "memory.invalidations": stats["memory.invalidations"],
            "memory.miss_ratio": _ratio(stats["memory.misses"],
                                        stats["memory.accesses"]),
            "picos.graph_submit.calls": calls["picos.graph_submit"],
            "picos.graph_submit.s": seconds["picos.graph_submit"],
            "picos.graph_retire.calls": calls["picos.graph_retire"],
            "picos.graph_retire.s": seconds["picos.graph_retire"],
            "picos.decode.calls": calls["picos.decode"],
            "picos.decode.s": seconds["picos.decode"],
            "picos.capacity_polls": calls["picos.capacity_polls"],
            "picos.accept_ratio": _ratio(stats["picos.tasks_accepted"],
                                         calls["picos.capacity_polls"]),
            "picos.tasks_accepted": stats["picos.tasks_accepted"],
            "picos.submission_packets": stats["picos.submission_packets"],
            "picos.axi.calls": calls["picos.axi"],
            "manager.submit.calls": calls["manager.submit"],
            "manager.submit.s": seconds["manager.submit"],
            "manager.submit.refused_ratio": _ratio(
                self.refused["manager.submit"], calls["manager.submit"]),
            "manager.ready_request.calls": calls["manager.ready_request"],
            "manager.ready_request.refused_ratio": _ratio(
                self.refused["manager.ready_request"],
                calls["manager.ready_request"]),
            "delegate.commands": calls["delegate.commands"],
        }
        instr = Counter()
        for key, value in stats.items():
            scope, _, name = key.partition(".")
            if scope.startswith("delegate"):
                instr[name] += value
        for name in DELEGATE_INSTRUCTIONS:
            out[f"delegate.instr_{name}"] = instr[f"instr_{name}"]
        fetches = instr["instr_fetch_sw_id"] + instr["instr_fetch_picos_id"]
        out["delegate.fetch_fail_ratio"] = _ratio(
            instr["fail_fetch_sw_id"] + instr["fail_fetch_picos_id"], fetches)
        out.update({
            "cpu.rocc.calls": calls["cpu.rocc"],
            "cpu.soc_build.calls": calls["cpu.soc_build"],
            "cpu.soc_build.s": seconds["cpu.soc_build"],
            "cpu.stats_report.s": seconds["cpu.stats_report"],
        })
        for runtime in RUNTIMES:
            span = f"runtime.{runtime}"
            out[f"{span}.s"] = seconds[span]
            out[f"{span}.runs"] = calls[span]
            out[f"{span}.tasks"] = self.tasks[span]
            out[f"{span}.sim_cycles"] = self.sim_cycles[span]
            out[f"{span}.host_ns_per_task"] = _ratio(
                seconds[span] * 1e9, self.tasks[span])
        out.update({
            "apps.build.calls": calls["apps.build"],
            "apps.build.s": seconds["apps.build"],
            "harness.run.s": seconds["harness.run"],
            "harness.self_s": self.self_seconds["harness.run"],
            "harness.cache.put.calls": calls["harness.cache.put"],
            "harness.cache.put.s": seconds["harness.cache.put"],
            "harness.cache.get.calls": calls["harness.cache.get"],
            "harness.cache.get.s": seconds["harness.cache.get"],
        })
        return out
