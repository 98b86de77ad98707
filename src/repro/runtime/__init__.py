"""Task-scheduling runtime models: serial, Nanos and Phentos.

Nanos-SW, Nanos-RV and Nanos-AXI are one Nanos runtime
(:mod:`repro.runtime.nanos`) over three dependence back-ends: a software
task graph, Picos through the custom instructions, and Picos over AXI.
"""

from repro.runtime.base import Runtime, RuntimeResult
from repro.runtime.hw_interface import (
    FetchedTask,
    fetch_ready_task,
    request_ready_task,
    retire_task_hw,
    submit_task_hw,
)
from repro.runtime.nanos import NanosAXIRuntime, NanosRVRuntime, NanosSWRuntime
from repro.runtime.nanos_machinery import NanosMachinery
from repro.runtime.phentos import PhentosRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.task import (
    Task,
    TaskProgram,
    dependence,
    in_dep,
    inout_dep,
    out_dep,
)
from repro.runtime.worker import HwWorkerContext

__all__ = [
    "Runtime",
    "RuntimeResult",
    "FetchedTask",
    "fetch_ready_task",
    "request_ready_task",
    "retire_task_hw",
    "submit_task_hw",
    "NanosAXIRuntime",
    "NanosMachinery",
    "NanosRVRuntime",
    "NanosSWRuntime",
    "PhentosRuntime",
    "SerialRuntime",
    "Task",
    "TaskProgram",
    "dependence",
    "in_dep",
    "inout_dep",
    "out_dep",
    "HwWorkerContext",
]
