"""FPGA resource model reproducing Table II of the paper.

Table II breaks down the FPGA cell usage of the prototype on the ZCU102:
the whole SoC uses ~384K cells, each Rocket core (with FPU and L1 caches)
~44K, and the entire task-scheduling subsystem (Picos + Picos Manager + all
eight Delegates) only ~7K cells — less than 2% of the SoC.  That smallness
is one of the paper's arguments for integrating the scheduler into the
processor.

We obviously cannot synthesise RTL here, so the model is analytic: per-module
cell-count constants (taken from the paper's own numbers and scaled for
configuration changes such as core count) combined into the same table.  The
point of reproducing it is to keep the area argument checkable: the
task-scheduling subsystem must remain a small, fixed fraction of the SoC for
any reasonable configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.config import MachineConfig, default_machine
from repro.common.errors import EvaluationError

__all__ = ["ResourceEntry", "ResourceModel", "resource_table",
           "PAPER_TABLE2_CELLS"]

#: The cell counts reported in Table II of the paper (ZCU102-ES2, 8 cores).
PAPER_TABLE2_CELLS: Dict[str, int] = {
    "top": 384_000,
    "Core": 44_000,
    "fpuOpt": 18_000,
    "dcache": 6_000,
    "icache": 1_000,
    "SSystem": 7_000,
}


@dataclass(frozen=True)
class ResourceEntry:
    """One row of the resource-usage table."""

    module: str
    cells: int
    fraction_of_top: float
    description: str


class ResourceModel:
    """Analytic cell-count model of the prototype SoC."""

    #: Per-module constants, in FPGA cells, for one instance each.
    CORE_LOGIC_CELLS = 19_000        # integer pipeline, CSRs, PTW, TLBs
    FPU_CELLS = 18_000               # fpuOpt in the paper's table
    DCACHE_CELLS = 6_000
    ICACHE_CELLS = 1_000
    UNCORE_CELLS = 24_000            # TileLink interconnect, DDR bridge, ...
    PICOS_CELLS = 4_300              # the Picos accelerator itself
    PICOS_MANAGER_CELLS = 1_600      # arbiter/padding/encoder logic
    DELEGATE_CELLS_PER_CORE = 140    # the per-core RoCC stub

    def __init__(self, machine: Optional[MachineConfig] = None) -> None:
        self.machine = machine if machine is not None else default_machine()

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def core_cells(self) -> int:
        """Cells of one core including its FPU and L1 caches."""
        return (self.CORE_LOGIC_CELLS + self.FPU_CELLS + self.DCACHE_CELLS
                + self.ICACHE_CELLS)

    @property
    def scheduling_subsystem_cells(self) -> int:
        """Picos + Picos Manager + every Picos Delegate (``SSystem``)."""
        return (self.PICOS_CELLS + self.PICOS_MANAGER_CELLS
                + self.DELEGATE_CELLS_PER_CORE * self.machine.num_cores)

    @property
    def top_cells(self) -> int:
        """The whole SoC."""
        return (self.core_cells * self.machine.num_cores + self.UNCORE_CELLS
                + self.scheduling_subsystem_cells)

    @property
    def scheduling_fraction(self) -> float:
        """Fraction of the SoC used by the task-scheduling subsystem."""
        return self.scheduling_subsystem_cells / self.top_cells

    # ------------------------------------------------------------------ #
    # Table II
    # ------------------------------------------------------------------ #
    def table(self) -> List[ResourceEntry]:
        """Rows in the same order and shape as Table II."""
        top = self.top_cells

        def entry(module: str, cells: int, description: str) -> ResourceEntry:
            if cells <= 0:
                raise EvaluationError(f"non-positive cell count for {module}")
            return ResourceEntry(module=module, cells=cells,
                                 fraction_of_top=cells / top,
                                 description=description)

        return [
            entry("top", top, "Whole system"),
            entry("Core", self.core_cells, "Core with FPU and L1$"),
            entry("fpuOpt", self.FPU_CELLS, "Floating-point unit"),
            entry("dcache", self.DCACHE_CELLS, "D-cache of a single core"),
            entry("icache", self.ICACHE_CELLS, "I-cache of a single core"),
            entry("SSystem", self.scheduling_subsystem_cells,
                  "Picos, Picos Manager, and Delegates"),
        ]


def resource_table(machine: Optional[MachineConfig] = None) -> List[ResourceEntry]:
    """Convenience wrapper returning the Table II rows."""
    return ResourceModel(machine).table()
