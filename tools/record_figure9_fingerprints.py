#!/usr/bin/env python3
"""Record Figure 9 cache keys and case artifacts as a regression fixture.

Run from the repository root (PYTHONPATH=src) to (re)generate
``tests/data/figure9_fingerprints.json``.  The fixture pins:

* the cache key of every full-sweep and quick-sweep Figure 9 case,
* the canonical JSON encoding of the full case list,
* the full artifact JSON of two real (reduced-scale) case runs,

so that refactors of the case/registry machinery can prove their cache
keys and artifacts stayed byte-identical.
"""

import json
from pathlib import Path

from repro.common.config import SimConfig
from repro.eval.experiments import benchmark_cases, run_benchmark_case
from repro.harness.artifacts import encode
from repro.harness.hashing import case_cache_key

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "figure9_fingerprints.json"

def main() -> None:
    config = SimConfig()
    full = benchmark_cases()
    quick = benchmark_cases(quick=True)
    document = {
        "config": "SimConfig() default",
        "version_note": "keys embed repro.__version__; regenerate on bumps",
        "full_case_keys": {
            case.key: case_cache_key(case, config) for case in full
        },
        "quick_case_keys": {
            case.key: case_cache_key(case, config) for case in quick
        },
        "full_cases_encoded": json.dumps(
            encode(full), sort_keys=True, separators=(",", ":")),
        "artifact_runs": {},
    }
    tiny = benchmark_cases(quick=True, scale=0.05)[:2]
    for case in tiny:
        run = run_benchmark_case(case, config, num_workers=4)
        document["artifact_runs"][case_cache_key(case, config, 4)] = \
            json.dumps(encode(run), sort_keys=True, separators=(",", ":"))
    OUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {OUT} ({len(full)} full keys, {len(quick)} quick keys)")

if __name__ == "__main__":
    main()
