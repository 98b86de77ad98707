#!/usr/bin/env python3
"""Record the hash of every quick Figure 9 result as a regression fixture.

Run from the repository root (PYTHONPATH=src) to (re)generate
``tests/data/quick_result_hashes.json``.  The fixture holds one SHA-256 per
(input, runtime) pair of the quick sweep at eight workers: 9 inputs ×
{serial, Nanos-SW, Nanos-RV, Phentos} = 36 results.  Each hash covers the
full encoded :class:`~repro.runtime.base.RuntimeResult` — cycles, task
counts, per-core busy time and every stat in its first-touch order — so a
model refactor that claims byte-identical results can prove it.

Regenerate only when a change is meant to move the modelled numbers, and
say so in the change description.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.common.config import SimConfig
from repro.eval.experiments import benchmark_cases, run_benchmark_case
from repro.harness.artifacts import encode

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "quick_result_hashes.json"

#: Simulated worker cores of the pinned sweep (the paper's machine).
WORKERS = 8


def quick_result_hashes() -> Dict[str, str]:
    """``"<case key>/<runtime>" -> sha256`` over the quick sweep's results."""
    config = SimConfig()
    hashes: Dict[str, str] = {}
    for case in benchmark_cases(quick=True):
        run = run_benchmark_case(case, config, num_workers=WORKERS)
        for runtime, result in run.results.items():
            text = json.dumps(encode(result), separators=(",", ":"))
            hashes[f"{case.key}/{runtime}"] = \
                hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashes


def main() -> None:
    hashes = quick_result_hashes()
    OUT.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(hashes)} results)")


if __name__ == "__main__":
    main()
