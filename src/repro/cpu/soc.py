"""The full SoC model: Rocket-Chip-style multi-core with integrated Picos.

:class:`SoC` wires every substrate together the way Figure 2 of the paper
does:

* one discrete-event :class:`~repro.sim.engine.Engine`,
* one :class:`~repro.memory.hierarchy.MemorySystem` (per-core L1s kept
  coherent with MESI, no shared L2),
* ``num_cores`` :class:`~repro.cpu.core.Core` instances,
* one :class:`~repro.picos.device.PicosDevice`,
* one :class:`~repro.manager.manager.PicosManager`,
* one :class:`~repro.delegate.delegate.PicosDelegate` per core, attached to
  its core as the RoCC accelerator,
* optionally an :class:`~repro.picos.axi.AxiPicosInterface` for runtimes
  modelling the Picos++/AXI baseline.

Runtimes spawn one worker process per core through :meth:`spawn_worker` and
the experiment harness drives the whole machine with :meth:`run`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.errors import ConfigurationError
from repro.common.stats import Stats, merge_stats
from repro.cpu.core import Core
from repro.delegate.delegate import PicosDelegate
from repro.manager.manager import PicosManager
from repro.memory.hierarchy import MemorySystem
from repro.picos.axi import AxiPicosInterface
from repro.picos.device import PicosDevice
from repro.sim.engine import Engine, Process, ProcessGen

__all__ = ["SoC"]


class SoC:
    """An eight-core (by default) RISC-V SoC with tightly-integrated Picos."""

    def __init__(self, config: Optional[SimConfig] = None,
                 with_picos: bool = True, with_rocc: bool = True) -> None:
        """Build the SoC.

        ``with_picos`` controls whether a Picos device exists at all (the
        Nanos-SW baseline runs on a machine without it).  ``with_rocc``
        controls whether the tightly-integrated path — Picos Manager plus the
        per-core Picos Delegates — is instantiated; the Picos++/AXI baseline
        sets it to False and reaches the very same device through the
        memory-mapped :meth:`axi_interface` instead.
        """
        self.config = config if config is not None else SimConfig()
        machine = self.config.machine
        self.engine = Engine(max_cycles=self.config.max_cycles,
                             trace=self.config.trace)
        self.memory = MemorySystem(machine.num_cores, self.config.costs.memory,
                                   machine.cache_line_bytes)
        self.cores: List[Core] = [
            Core(core_id, self.engine, self.memory, self.config)
            for core_id in range(machine.num_cores)
        ]
        self.picos: Optional[PicosDevice] = None
        self.manager: Optional[PicosManager] = None
        self.delegates: List[PicosDelegate] = []
        self._axi: Optional[AxiPicosInterface] = None
        if with_picos:
            self.picos = PicosDevice(self.engine, self.config.costs.picos)
            if with_rocc:
                self.manager = PicosManager(
                    self.engine, self.picos, machine.num_cores,
                    self.config.costs.picos,
                )
                for core in self.cores:
                    delegate = PicosDelegate(core.core_id, self.engine,
                                             self.manager,
                                             self.config.costs.rocc)
                    core.attach_accelerator(delegate)
                    self.delegates.append(delegate)
        self._workers: List[Process] = []

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @property
    def num_cores(self) -> int:
        """Number of cores in the SoC."""
        return self.config.machine.num_cores

    def axi_interface(self) -> AxiPicosInterface:
        """The MMIO/AXI access path used by the Nanos-AXI baseline model."""
        if self.picos is None:
            raise ConfigurationError("this SoC was built without Picos")
        if self._axi is None:
            self._axi = AxiPicosInterface(self.engine, self.picos,
                                          self.config.costs.axi)
        return self._axi

    def core(self, core_id: int) -> Core:
        """Core ``core_id`` (bounds checked)."""
        if not 0 <= core_id < self.num_cores:
            raise ConfigurationError(
                f"core {core_id} out of range 0..{self.num_cores - 1}"
            )
        return self.cores[core_id]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def spawn_worker(self, core_id: int, program: ProcessGen,
                     name: Optional[str] = None) -> Process:
        """Spawn a runtime worker program pinned to ``core_id``."""
        worker = self.engine.spawn(
            program, name=name or f"worker{core_id}"
        )
        self._workers.append(worker)
        return worker

    def run(self, watched: Optional[List[Process]] = None) -> int:
        """Run the machine until every watched (default: all) worker ends.

        Returns the total elapsed cycles.
        """
        processes = watched if watched is not None else self._workers
        if not processes:
            raise ConfigurationError("no worker processes have been spawned")
        return self.engine.run_until_complete(processes)

    @property
    def now(self) -> int:
        """Current simulation time in core cycles."""
        return self.engine.now

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats_report(self) -> Dict[str, float]:
        """Merge the statistics of every component into one dictionary."""
        scopes: List[Stats] = [self.memory.stats]
        scopes.extend(core.stats for core in self.cores)
        if self.picos is not None:
            scopes.append(self.picos.stats)
        if self.manager is not None:
            scopes.append(self.manager.stats)
            scopes.append(self.manager.submission_handler.stats)
            scopes.append(self.manager.work_fetch.stats)
        scopes.extend(delegate.stats for delegate in self.delegates)
        if self._axi is not None:
            scopes.append(self._axi.stats)
        return merge_stats(scopes)

    def total_busy_cycles(self) -> int:
        """Sum of task-payload cycles executed by all cores."""
        return sum(core.busy_cycles for core in self.cores)

    def total_overhead_cycles(self) -> int:
        """Sum of scheduling/bookkeeping cycles across all cores."""
        return sum(core.overhead_cycles for core in self.cores)

    def wall_clock_seconds(self) -> float:
        """Elapsed simulated time converted to seconds at the core clock."""
        return self.config.machine.cycles_to_seconds(self.engine.now)
