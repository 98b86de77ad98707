"""Serial baseline: execute the task payloads in program order on one core.

The paper's speedup figures are reported against serial executions of the
same kernels compiled with the same ``-O3`` optimisation level.  The serial
model therefore executes every task payload back to back on core 0 with a
tiny per-task loop overhead and no scheduling machinery at all.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.soc import SoC
from repro.registry import register_runtime
from repro.runtime.base import Runtime
from repro.runtime.task import TaskProgram
from repro.sim.engine import ProcessGen

__all__ = ["SerialRuntime"]

#: Instructions of the surrounding loop per task body invocation (increment,
#: compare, branch, call) in the serial binary.
_LOOP_INSTRUCTIONS_PER_TASK = 6


@register_runtime("serial", tags=("case", "baseline", "software"),
                  rank=0,
                  description="Serial baseline: every task on one core")
class SerialRuntime(Runtime):
    """Plain serial execution of the program on a single core."""

    name = "serial"
    uses_picos = False

    def run(self, program: TaskProgram, num_workers: Optional[int] = None):
        # A serial binary always uses exactly one core, whatever the machine.
        return super().run(program, num_workers=1)

    def _execute(self, soc: SoC, program: TaskProgram, num_workers: int) -> None:
        main = soc.spawn_worker(0, self._main(soc, program), name="serial_main")
        soc.run([main])

    def _main(self, soc: SoC, program: TaskProgram) -> ProcessGen:
        core = soc.core(0)
        if program.serial_sections_cycles:
            yield from core.compute(program.serial_sections_cycles)
        for task in program.tasks:
            yield from core.execute(_LOOP_INSTRUCTIONS_PER_TASK)
            task.run_kernel()
            self.tasks_executed += 1
            yield from core.compute(task.payload_cycles)
