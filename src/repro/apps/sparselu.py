"""SparseLU: blocked LU factorisation of a sparse matrix (KaStORS).

The benchmark factorises a blocked matrix in which only some blocks are
allocated (hence *sparse* LU).  The classic OmpSs task decomposition uses
four kernels per outer iteration ``k``:

* ``lu0(A[k][k])``              — factorise the diagonal block (inout),
* ``fwd(A[k][k], A[k][j])``     — forward-solve every block of row ``k``,
* ``bdiv(A[k][k], A[i][k])``    — divide every block of column ``k``,
* ``bmod(A[i][k], A[k][j], A[i][j])`` — trailing update of the submatrix.

Dependences: ``fwd``/``bdiv`` read the factorised diagonal block and
``bmod`` reads one block of the column and one of the row and inout-updates
the trailing block, which produces the rich, deep DAG that makes SparseLU a
standard task-parallelism benchmark.

The paper's Figure 9 sweeps two matrix sizes ("N32", "N128") and block-size
multipliers M ∈ {1, 2, 4, 8, 16}.  The generator maps those labels to block
counts and block dimensions that preserve the paper's task-granularity span
while keeping simulated task counts tractable (the mapping is
``_LABEL_PARAMS`` below).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import WorkloadError
from repro.apps.workload import DEFAULT_KERNEL_COSTS, BlockSpace, KernelCosts
from repro.registry import CaseInput, register_workload, scaled_size
from repro.runtime.task import Task, TaskProgram, in_dep, inout_dep

__all__ = ["sparselu_program", "sparselu_reference", "PAPER_INPUTS",
           "paper_input_parameters"]

#: The (matrix label, block multiplier) pairs evaluated in Figure 9.
PAPER_INPUTS = [
    ("N32", 1), ("N32", 2), ("N32", 4), ("N32", 8), ("N32", 16),
    ("N128", 1), ("N128", 2), ("N128", 4), ("N128", 8), ("N128", 16),
]

#: The reduced input set of ``--quick`` sweeps.
QUICK_INPUTS = [("N32", 2), ("N32", 16)]


def _paper_cases(quick: bool = False, scale: float = 1.0) -> List[CaseInput]:
    """The Figure 9 sparselu inputs as registry case descriptions."""
    inputs = QUICK_INPUTS if quick else PAPER_INPUTS
    cases: List[CaseInput] = []
    for label, multiplier in inputs:
        blocks, dim = paper_input_parameters(label, multiplier)
        cases.append(CaseInput(
            "sparselu", f"{label} M{multiplier}",
            {"num_blocks": max(scaled_size(blocks, scale), 2),
             "block_dim": dim, "label": label, "multiplier": multiplier},
        ))
    return cases


@register_workload(
    "sparselu",
    tags=("paper", "linear-algebra", "irregular"),
    defaults={"num_blocks": 6, "block_dim": 8, "label": "N32",
              "multiplier": 2},
    description="Blocked sparse LU factorisation (KaStORS, Figure 9)",
    paper_cases=_paper_cases,
)
def benchmark_builder(*, num_blocks: int, block_dim: int, label: str,
                      multiplier: int) -> TaskProgram:
    """Build one Figure 9 sparselu case from its sweep parameters."""
    return sparselu_program(num_blocks, block_dim,
                            name=f"sparselu-{label}-M{multiplier}")

#: Label → (blocks per dimension, base block dimension in elements).
_LABEL_PARAMS = {"N32": (6, 4), "N128": (10, 8)}


def paper_input_parameters(label: str, multiplier: int) -> Tuple[int, int]:
    """Map a Figure 9 input label to ``(num_blocks, block_dim)``."""
    try:
        num_blocks, base_dim = _LABEL_PARAMS[label]
    except KeyError as exc:
        raise WorkloadError(f"unknown sparselu matrix label {label!r}") from exc
    if multiplier <= 0:
        raise WorkloadError("block multiplier must be positive")
    return num_blocks, base_dim * multiplier


def _allocated(i: int, j: int) -> bool:
    """Sparsity pattern: diagonal, first row/column and a scattered band."""
    if i == j or i == 0 or j == 0:
        return True
    return (i + j) % 3 != 0


def sparselu_reference(matrix: np.ndarray) -> np.ndarray:
    """Dense LU factorisation without pivoting (reference for small sizes)."""
    a = matrix.astype(float).copy()
    n = a.shape[0]
    for k in range(n):
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a


def sparselu_program(
    num_blocks: int = 6,
    block_dim: int = 16,
    costs: KernelCosts = DEFAULT_KERNEL_COSTS,
    with_kernels: bool = False,
    name: Optional[str] = None,
) -> TaskProgram:
    """Build the blocked sparse-LU task program.

    ``num_blocks`` is the number of blocks per matrix dimension and
    ``block_dim`` the dimension of each square block in elements.
    """
    if num_blocks <= 0 or block_dim <= 0:
        raise WorkloadError("num_blocks and block_dim must be positive")
    flops_lu0 = 2 * block_dim ** 3 // 3
    flops_trsm = block_dim ** 3
    flops_gemm = 2 * block_dim ** 3

    #: Blocks present in the matrix.  Starts from the static sparsity
    #: pattern and grows with the fill-in blocks that ``bmod`` creates, the
    #: same way the original OmpSs benchmark allocates blocks on demand.
    allocated = {
        (i, j)
        for i in range(num_blocks)
        for j in range(num_blocks)
        if _allocated(i, j)
    }

    state: Optional[Dict[Tuple[int, int], np.ndarray]] = None
    if with_kernels:
        rng = np.random.default_rng(23)
        state = {}
        for i, j in sorted(allocated):
            block = rng.uniform(-1.0, 1.0, (block_dim, block_dim))
            if i == j:
                # Diagonal dominance keeps the factorisation stable
                # without pivoting.
                block += np.eye(block_dim) * block_dim * 2.0
            state[(i, j)] = block

    blocks = BlockSpace(base_address=0x7000_0000,
                        block_bytes=block_dim * block_dim * 8)
    tasks: List[Task] = []
    index = 0

    def add_task(payload: int, deps, label: str, kernel=None) -> None:
        nonlocal index
        tasks.append(Task(index=index, payload_cycles=payload,
                          dependences=tuple(deps), name=label, kernel=kernel))
        index += 1

    for k in range(num_blocks):
        kernel = None
        if state is not None:
            def kernel(s=state, kk=k) -> None:
                s[(kk, kk)][:] = sparselu_reference(s[(kk, kk)])
        add_task(flops_lu0 * costs.lu_per_flop,
                 [inout_dep(blocks.address(k, k))], f"lu0_{k}", kernel)
        for j in range(k + 1, num_blocks):
            if (k, j) not in allocated:
                continue
            kernel = None
            if state is not None:
                def kernel(s=state, kk=k, jj=j) -> None:
                    diag = s[(kk, kk)]
                    lower = np.tril(diag, -1) + np.eye(diag.shape[0])
                    s[(kk, jj)][:] = np.linalg.solve(lower, s[(kk, jj)])
            add_task(flops_trsm * costs.lu_per_flop,
                     [in_dep(blocks.address(k, k)),
                      inout_dep(blocks.address(k, j))],
                     f"fwd_{k}_{j}", kernel)
        for i in range(k + 1, num_blocks):
            if (i, k) not in allocated:
                continue
            kernel = None
            if state is not None:
                def kernel(s=state, kk=k, ii=i) -> None:
                    diag = s[(kk, kk)]
                    upper = np.triu(diag)
                    s[(ii, kk)][:] = np.linalg.solve(upper.T, s[(ii, kk)].T).T
            add_task(flops_trsm * costs.lu_per_flop,
                     [in_dep(blocks.address(k, k)),
                      inout_dep(blocks.address(i, k))],
                     f"bdiv_{i}_{k}", kernel)
        for i in range(k + 1, num_blocks):
            if (i, k) not in allocated:
                continue
            for j in range(k + 1, num_blocks):
                if (k, j) not in allocated:
                    continue
                # Trailing update creates the (i, j) fill-in block if the
                # sparse pattern did not contain it (dynamic allocation in
                # the original benchmark).
                allocated.add((i, j))
                kernel = None
                if state is not None:
                    def kernel(s=state, kk=k, ii=i, jj=j,
                               dim=block_dim) -> None:
                        if (ii, jj) not in s:
                            s[(ii, jj)] = np.zeros((dim, dim))
                        s[(ii, jj)] -= s[(ii, kk)] @ s[(kk, jj)]
                add_task(flops_gemm * costs.lu_per_flop,
                         [in_dep(blocks.address(i, k)),
                          in_dep(blocks.address(k, j)),
                          inout_dep(blocks.address(i, j))],
                         f"bmod_{i}_{j}_{k}", kernel)

    parameters: Dict[str, object] = {
        "benchmark": "sparselu",
        "num_blocks": num_blocks,
        "block_dim": block_dim,
        "num_tasks": len(tasks),
    }
    if state is not None:
        parameters["state"] = state
    return TaskProgram(
        name=name or f"sparselu-NB{num_blocks}-M{block_dim}",
        tasks=tasks,
        parameters=parameters,
    )
