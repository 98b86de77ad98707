"""Helpers of the paper-reproduction benchmark harness.

The benchmark modules import these by this module's own name; a bare
``from conftest import ...`` would bind whichever ``conftest`` module
pytest imported first (``tests/conftest.py`` when both directories are
collected).  The session fixtures live in ``conftest.py``.

Environment knobs:

* ``REPRO_QUICK=1``   — run a reduced (but still representative) input set.
* ``REPRO_WORKERS=N`` — override the number of simulated cores (default 8).
* ``REPRO_JOBS=N``    — fan the sweep out over N host processes (default 1).
* ``REPRO_CACHE_DIR`` — serve repeated sweeps from this result cache
  (default: no caching, so benchmark numbers are always freshly measured).

Rendered tables are also written to ``benchmarks/results/`` so the numbers
can be archived next to ``EXPERIMENTS.md`` — but only for the paper's
configuration (full inputs on eight workers), since those files are the
tracked reference tables; a quick or resized run leaves them untouched.
The same configuration's sweep is the full-size sweep whose 148 result
hashes ``tests/data/full_result_hashes.json`` pins, so it is checked
against them too (``test_full_result_hashes.py``).
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path
from typing import Dict, Optional

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent
#: Hashes the 148 full-size results and pins them; see its docstring.
RECORDER = REPO_ROOT / "tools" / "record_quick_result_hashes.py"


def quick_mode() -> bool:
    """True when the reduced sweep was requested via REPRO_QUICK."""
    return os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


def worker_count() -> int:
    """Simulated worker cores used by the sweep (the paper uses eight)."""
    return int(os.environ.get("REPRO_WORKERS", "8"))


def job_count() -> int:
    """Host processes the sweep fans out over (default: in-process)."""
    return int(os.environ.get("REPRO_JOBS", "1"))


def cache_dir():
    """Result-cache directory, or None when caching is off (the default)."""
    value = os.environ.get("REPRO_CACHE_DIR", "")
    return Path(value) if value else None


def paper_configuration() -> bool:
    """True for the paper's configuration: full inputs on eight workers."""
    return not quick_mode() and worker_count() == 8


def load_recorder():
    """The result-hash recorder, ``tools/record_quick_result_hashes.py``."""
    spec = importlib.util.spec_from_file_location("record_quick_result_hashes",
                                                  RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def full_size_hashes(runs) -> Dict[str, Dict[str, str]]:
    """The hashes of a sweep's results and the pinned full-size ones."""
    recorder = load_recorder()
    actual: Dict[str, str] = {}
    for run in runs:
        actual.update(recorder.run_hashes(run))
    expected = json.loads(recorder.FULL_OUT.read_text(encoding="utf-8"))
    return {"actual": actual, "expected": expected,
            "changed": recorder.changed_keys(actual, expected)}


def write_result(name: str, text: str) -> Optional[Path]:
    """Persist a rendered table under ``benchmarks/results/``.

    Only the paper's configuration, full inputs on eight workers, writes
    there; any other run returns None and leaves the tracked tables as
    they are.
    """
    if not paper_configuration():
        return None
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path
