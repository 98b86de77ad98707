"""Stream-deps and stream-barr: memory-intensive micro-benchmarks (ompss-ee).

Both programs repeatedly apply the four STREAM operations over blocked
arrays ``a``, ``b``, ``c``:

* ``copy``  : ``c[i] = a[i]``
* ``scale`` : ``b[i] = k * c[i]``
* ``add``   : ``c[i] = a[i] + b[i]``
* ``triad`` : ``a[i] = b[i] + k * c[i]``

Each block of each operation is a task.  The two variants differ in how the
operations are synchronised:

* **stream-deps** annotates the blocks each task reads and writes, so the
  runtime chains tasks through data dependences and different operations may
  overlap block-wise (the fine-grained DAG the paper highlights);
* **stream-barr** only annotates the written block and places a ``taskwait``
  barrier after every operation, which is the coarse, barrier-synchronised
  formulation.

The Figure 9 input labels ("64", "16x16", …, "4096x4096") denote the block
count and block length; the generator maps them to block counts and block
sizes that preserve the granularity span while keeping simulated task counts
tractable (the mapping is ``_LABEL_PARAMS`` below).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import WorkloadError
from repro.apps.workload import DEFAULT_KERNEL_COSTS, BlockSpace, KernelCosts
from repro.registry import CaseInput, register_workload, scaled_size
from repro.runtime.task import Task, TaskProgram, in_dep, out_dep

__all__ = [
    "stream_program",
    "stream_reference",
    "PAPER_INPUTS",
    "paper_input_parameters",
]

#: Scaling constant of the scale/triad operations.
SCALAR = 3.0
#: Operations of one STREAM iteration, in order.
OPERATIONS = ("copy", "scale", "add", "triad")
#: Default number of STREAM iterations per program.
DEFAULT_ITERATIONS = 3

#: The input labels shown on the Figure 9 x-axis for both stream variants.
PAPER_INPUTS = ["64", "16x16", "16x128", "128x128", "128x1024", "4096x4096"]

#: Label → (number of blocks, elements per block).  Large inputs are scaled
#: down in block count (not in block size) so that the simulated task count
#: stays tractable while per-task granularity matches the paper's span.
_LABEL_PARAMS: Dict[str, Tuple[int, int]] = {
    "64": (8, 8),
    "16x16": (16, 16),
    "16x128": (16, 128),
    "128x128": (64, 128),
    "128x1024": (64, 1024),
    "4096x4096": (32, 65536),
}


def paper_input_parameters(label: str) -> Tuple[int, int]:
    """Map a Figure 9 stream label to ``(num_blocks, block_elems)``."""
    try:
        return _LABEL_PARAMS[label]
    except KeyError as exc:
        raise WorkloadError(f"unknown stream input label {label!r}") from exc


#: The reduced input set of ``--quick`` sweeps.
QUICK_INPUTS = ["16x16", "128x1024"]

#: The two synchronisation variants of Figure 9 (report name, uses deps).
VARIANTS = (("stream-barr", False), ("stream-deps", True))


def _paper_cases(quick: bool = False, scale: float = 1.0) -> List[CaseInput]:
    """Both stream variants' Figure 9 inputs as registry case descriptions."""
    labels = QUICK_INPUTS if quick else PAPER_INPUTS
    cases: List[CaseInput] = []
    for variant, use_deps in VARIANTS:
        for label in labels:
            blocks, elems = paper_input_parameters(label)
            cases.append(CaseInput(
                variant, label,
                {"num_blocks": max(scaled_size(blocks, scale), 2),
                 "block_elems": elems, "use_dependences": use_deps,
                 "variant": variant, "label": label},
            ))
    return cases


@register_workload(
    "stream",
    tags=("paper", "memory-bound", "micro"),
    defaults={"num_blocks": 16, "block_elems": 16, "use_dependences": True,
              "variant": "stream-deps", "label": "16x16"},
    description="STREAM triad micro-benchmark, barrier and dependence "
                "variants (ompss-ee, Figure 9)",
    paper_cases=_paper_cases,
)
def benchmark_builder(*, num_blocks: int, block_elems: int,
                      use_dependences: bool, variant: str,
                      label: str) -> TaskProgram:
    """Build one Figure 9 stream case from its sweep parameters."""
    return stream_program(num_blocks, block_elems,
                          use_dependences=use_dependences,
                          name=f"{variant}-{label}")


def stream_reference(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     iterations: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply ``iterations`` STREAM rounds to copies of the arrays."""
    a, b, c = a.copy(), b.copy(), c.copy()
    for _ in range(iterations):
        c[:] = a
        b[:] = SCALAR * c
        c[:] = a + b
        a[:] = b + SCALAR * c
    return a, b, c


def stream_program(
    num_blocks: int = 16,
    block_elems: int = 128,
    iterations: int = DEFAULT_ITERATIONS,
    use_dependences: bool = True,
    costs: KernelCosts = DEFAULT_KERNEL_COSTS,
    with_kernels: bool = False,
    name: Optional[str] = None,
) -> TaskProgram:
    """Build stream-deps (``use_dependences=True``) or stream-barr.

    Both variants create ``4 * iterations * num_blocks`` tasks; they differ
    only in the dependence annotations and barrier placement, which is
    exactly the contrast the paper draws between the two programs.
    """
    if num_blocks <= 0 or block_elems <= 0 or iterations <= 0:
        raise WorkloadError(
            "num_blocks, block_elems and iterations must be positive"
        )
    state = None
    if with_kernels:
        rng = np.random.default_rng(3)
        total = num_blocks * block_elems
        state = {
            "a": rng.uniform(0.0, 1.0, total),
            "b": np.zeros(total),
            "c": np.zeros(total),
        }

    blocks = BlockSpace(base_address=0x7800_0000, block_bytes=block_elems * 8)
    payload = block_elems * costs.stream_per_element
    #: (source arrays, destination array) of each STREAM operation.
    op_arrays = {
        "copy": (("a",), "c"),
        "scale": (("c",), "b"),
        "add": (("a", "b"), "c"),
        "triad": (("b", "c"), "a"),
    }

    def make_kernel(operation: str, block: int):
        if state is None:
            return None

        def kernel(s=state, op=operation, b=block, n=block_elems) -> None:
            lo, hi = b * n, (b + 1) * n
            if op == "copy":
                s["c"][lo:hi] = s["a"][lo:hi]
            elif op == "scale":
                s["b"][lo:hi] = SCALAR * s["c"][lo:hi]
            elif op == "add":
                s["c"][lo:hi] = s["a"][lo:hi] + s["b"][lo:hi]
            else:  # triad
                s["a"][lo:hi] = s["b"][lo:hi] + SCALAR * s["c"][lo:hi]

        return kernel

    tasks: List[Task] = []
    taskwait_after = set()
    index = 0
    for _iteration in range(iterations):
        for operation in OPERATIONS:
            sources, destination = op_arrays[operation]
            for block in range(num_blocks):
                if use_dependences:
                    deps = [in_dep(blocks.address(array, block))
                            for array in sources]
                    deps.append(out_dep(blocks.address(destination, block)))
                else:
                    deps = [out_dep(blocks.address(destination, block))]
                tasks.append(
                    Task(index=index, payload_cycles=payload,
                         dependences=tuple(deps),
                         name=f"{operation}_{_iteration}_{block}",
                         kernel=make_kernel(operation, block))
                )
                index += 1
            if not use_dependences:
                # stream-barr: a taskwait after every operation.
                taskwait_after.add(index - 1)

    variant = "stream-deps" if use_dependences else "stream-barr"
    parameters: Dict[str, object] = {
        "benchmark": variant,
        "num_blocks": num_blocks,
        "block_elems": block_elems,
        "iterations": iterations,
    }
    if state is not None:
        parameters["state"] = state
    return TaskProgram(
        name=name or f"{variant}-{num_blocks}x{block_elems}",
        tasks=tasks,
        taskwait_after=taskwait_after,
        parameters=parameters,
    )
