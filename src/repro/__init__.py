"""repro: reproduction of "Adding Tightly-Integrated Task Scheduling
Acceleration to a RISC-V Multi-core Processor" (MICRO 2019).

The package simulates, at cycle-accounting granularity, an eight-core
Rocket-Chip-style SoC whose cores reach the Picos hardware task scheduler
through custom RoCC instructions, and models the software runtimes the paper
evaluates on it (Nanos-SW, Nanos-RV, Nanos-AXI and Phentos) together with
its benchmark applications and every figure/table of its evaluation.

Typical usage::

    from repro import PhentosRuntime, SerialRuntime
    from repro.apps import blackscholes_program

    program = blackscholes_program("4K", block_size=32)
    phentos = PhentosRuntime().run(program)
    serial = SerialRuntime().run(program)
    print(phentos.speedup_vs_serial)
"""

from repro.common.config import MachineConfig, SimConfig
from repro.cpu.soc import SoC
from repro.runtime import (
    NanosAXIRuntime,
    NanosRVRuntime,
    NanosSWRuntime,
    PhentosRuntime,
    RuntimeResult,
    SerialRuntime,
    Task,
    TaskProgram,
)

__version__ = "1.1.0"


def __getattr__(name: str):
    """Lazy top-level exports: the Study API and the plugin registry.

    ``repro.api`` pulls in the evaluation and harness layers; importing it
    here eagerly would make ``import repro`` heavyweight and circular
    (``repro.api`` itself imports from ``repro``), so :class:`Study` and
    friends resolve on first attribute access instead (PEP 562).
    """
    if name in ("Study", "StudyResult", "StudySweep"):
        from repro import api
        return getattr(api, name)
    if name == "registry":
        import repro.registry as registry
        return registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MachineConfig",
    "SimConfig",
    "SoC",
    "Study",
    "StudyResult",
    "StudySweep",
    "NanosAXIRuntime",
    "NanosRVRuntime",
    "NanosSWRuntime",
    "PhentosRuntime",
    "RuntimeResult",
    "SerialRuntime",
    "Task",
    "TaskProgram",
    "__version__",
]
