"""Workload factories and telemetry helpers shared by the test suite."""

from __future__ import annotations

from repro.harness.telemetry import TelemetrySink
from repro.runtime.phentos import PhentosRuntime
from repro.runtime.task import Task, TaskProgram, in_dep, inout_dep, out_dep


class PluginRuntime(PhentosRuntime):
    """A module-level non-``repro`` runtime class for transport tests."""

def make_chain_program(num_tasks: int = 10, payload: int = 200,
                       num_deps: int = 1, name: str = "chain") -> TaskProgram:
    """A dependence chain: every task inout-touches the same addresses."""
    addresses = [0x9000_0000 + 4096 * i for i in range(num_deps)]
    tasks = [
        Task(index=i, payload_cycles=payload,
             dependences=tuple(inout_dep(a) for a in addresses))
        for i in range(num_tasks)
    ]
    return TaskProgram(name=name, tasks=tasks)


def make_independent_program(num_tasks: int = 16, payload: int = 500,
                             name: str = "independent") -> TaskProgram:
    """Fully independent tasks, each writing its own block."""
    tasks = [
        Task(index=i, payload_cycles=payload,
             dependences=(out_dep(0xA000_0000 + 4096 * i),))
        for i in range(num_tasks)
    ]
    return TaskProgram(name=name, tasks=tasks)


def plugin_chain_builder(*, num_tasks: int = 6,
                         payload: int = 100) -> TaskProgram:
    """A module-level plugin builder (pickles by reference to workers)."""
    return make_chain_program(num_tasks=num_tasks, payload=payload,
                              name="plugin-chain")


def make_fork_join_program(width: int = 6, payload: int = 300,
                           name: str = "fork-join") -> TaskProgram:
    """A producer task, ``width`` parallel consumers, and a final reducer."""
    source = 0xB000_0000
    sinks = [0xB100_0000 + 4096 * i for i in range(width)]
    tasks = [Task(index=0, payload_cycles=payload, dependences=(out_dep(source),))]
    for i in range(width):
        tasks.append(Task(index=i + 1, payload_cycles=payload,
                          dependences=(in_dep(source), out_dep(sinks[i]))))
    tasks.append(Task(index=width + 1, payload_cycles=payload,
                      dependences=tuple(in_dep(s) for s in sinks[:8])))
    return TaskProgram(name=name, tasks=tasks)


class RecordingSink(TelemetrySink):
    """Keeps every record in memory for assertions."""

    def __init__(self) -> None:
        self.records = []
        self.closed = False

    def emit(self, record) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


def unit_ends(sink: RecordingSink) -> list:
    """The unit ``span_end`` records ``sink`` saw, in emission order."""
    return [record for record in sink.records
            if record["type"] == "span_end" and record["kind"] == "unit"]
