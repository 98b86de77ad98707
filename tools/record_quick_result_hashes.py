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

Options:

``--full``
    Hash the full-size sweep instead: 37 inputs × 4 runtimes = 148
    results, about a minute serially, and write them to
    ``tests/data/full_result_hashes.json``.  That fixture is too slow for
    the test suite; CI checks it in a step of its own::

        python tools/record_quick_result_hashes.py --full --jobs 4 --check \\
            tests/data/full_result_hashes.json

``--check FILE``
    Compare the hashes (quick, or full with ``--full``) against the JSON
    saved in ``FILE`` and write nothing.  Exits 0 when they are identical;
    otherwise exits 1 after naming every key that changed, appeared or
    disappeared.

``--jobs N``
    Hash the cases in a pool of ``N`` worker processes (default 1, in this
    process).  Each case is simulated on its own, so the hashes, and their
    key order, are byte-identical to a serial run.  On a shared two-core
    host the full sweep took 20-28 s with ``--jobs 2`` against 45 s
    serially; the slowest single case bounds it::

        python tools/record_quick_result_hashes.py --full --jobs 2
"""

import argparse
import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from repro.common.config import SimConfig
from repro.eval.experiments import (
    BenchmarkCase,
    BenchmarkRun,
    benchmark_cases,
    run_benchmark_case,
)
from repro.harness.artifacts import encode

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUT = DATA / "quick_result_hashes.json"
FULL_OUT = DATA / "full_result_hashes.json"

#: Simulated worker cores of the pinned sweep (the paper's machine).
WORKERS = 8


def run_hashes(run: BenchmarkRun) -> Dict[str, str]:
    """``"<case key>/<runtime>" -> sha256`` over one input's results; the
    hash covers the result's full encoding."""
    hashes: Dict[str, str] = {}
    for runtime, result in run.results.items():
        text = json.dumps(encode(result), separators=(",", ":"))
        hashes[f"{run.case.key}/{runtime}"] = \
            hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashes


def case_hashes(case: BenchmarkCase) -> Dict[str, str]:
    """``"<case key>/<runtime>" -> sha256`` over one case's results."""
    return run_hashes(run_benchmark_case(case, SimConfig(),
                                         num_workers=WORKERS))


def result_hashes(quick: bool, jobs: int = 1) -> Dict[str, str]:
    """``"<case key>/<runtime>" -> sha256`` over a sweep's results, in case
    order, computed in ``jobs`` worker processes when ``jobs`` > 1."""
    cases = benchmark_cases(quick=quick)
    hashes: Dict[str, str] = {}
    if jobs <= 1:
        for case in cases:
            hashes.update(case_hashes(case))
        return hashes
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        # ``map`` yields in submission order, whichever case ends first.
        for part in pool.map(case_hashes, cases):
            hashes.update(part)
    return hashes


def quick_result_hashes() -> Dict[str, str]:
    """The hashes of the quick sweep, as pinned by the fixture."""
    return result_hashes(quick=True)


def changed_keys(actual: Dict[str, str], expected: Dict[str, str]) -> List[str]:
    """Every key whose hash differs, or that only one side has, sorted."""
    return sorted(key for key in set(actual) | set(expected)
                  if actual.get(key) != expected.get(key))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Hash every Figure 9 result of the quick (or full) sweep.")
    parser.add_argument("--full", action="store_true",
                        help="hash the 148 full-size results instead")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="compare against saved hashes; write nothing")
    parser.add_argument("--jobs", metavar="N", type=int, default=1,
                        help="hash the cases in N worker processes")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    hashes = result_hashes(quick=not args.full, jobs=args.jobs)
    if args.check is not None:
        expected = json.loads(args.check.read_text(encoding="utf-8"))
        changed = changed_keys(hashes, expected)
        for key in changed:
            print(f"changed: {key}", file=sys.stderr)
        print(f"{len(hashes)} results, {len(changed)} changed")
        return 1 if changed else 0
    out = FULL_OUT if args.full else OUT
    out.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(hashes)} results)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
