"""The repo benchmark: one workload, measured in fresh processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-quick --seed 1 --seconds 20 \\
        --trace 0

With ``--trace 0`` it prints the end-to-end metrics of the workload:
``setup_s`` is the median over several fresh set-up processes, and the
other metrics are medians over timed passes, each in a fresh ``run``
process.  Host times are in reference seconds (see ``hostspeed.py``), which
follow the speed of a shared host far less than wall seconds do.
With ``--trace 1`` it runs one untraced and one traced pass, each in its
own process, and prints the per-layer metrics.  Every simulated result is
checked against the committed tables under ``benchmarks/results``.  The
last line of standard output is the JSON result; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"

WORKLOADS = ("fig9-quick", "phentos-8c", "overhead-1c")

#: Passes per run at least, so each time is a median of more than one
#: sample even where one pass is longer than ``--seconds``.
MIN_PASSES = 2

#: Minimum set-up samples behind ``setup_s``: half from processes that
#: only set up, then every run process's own set-up, topped up after the
#: passes with more set-up-only processes.
SETUP_SAMPLES = 9

#: Files the workloads need besides the benchmark's own.
REQUIRED = ("src/repro/__init__.py", "benchmarks/results/figure9_benchmarks.txt",
            "benchmarks/results/figure7_overhead.txt")

#: Thread pools pinned to one thread, so numpy's import stays
#: single-threaded and CPU time cannot exceed wall time.
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: A child's own limit; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "tasks_per_ref_s": "1/s", "paper_err": "x"}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a failed check)."""


def _child(workload: str, seed: int, role: str, work_dir: Path) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--role", role,
               "--work-dir", str(work_dir)]
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(work_dir / "pycache"))
    # Bytecode is cached, as for a user, but under the run's work
    # directory, so every set-up after the first reads the same warm cache
    # whatever the environment sets and nothing is written outside the
    # checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise BenchmarkError(f"{role} process timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{role} process exited {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float,
               work_dir: Path) -> dict:
    """Timed passes, each in a fresh process, -> end-to-end metrics."""
    _child(workload, seed, "setup", work_dir)  # fills the bytecode cache
    # Set-up samples are taken before and after the passes, so a change in
    # host speed during the run reaches both halves alike.
    setups = [_child(workload, seed, "setup", work_dir)["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    runs = []
    while True:
        runs.append(_child(workload, seed, "run", work_dir))
        walls = [run["wall_s"] for run in runs]
        if (len(walls) >= MIN_PASSES
                and sum(walls) + statistics.median(walls) > seconds):
            break
    setups += [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(workload, seed, "setup", work_dir)["setup_s"])
    checks = list(runs)
    paper = runs[0]
    if paper["paper_err"] is None:
        paper = _child(workload, seed, "paper", work_dir)
        checks.append(paper)
    wall_ref_s = statistics.median(run["wall_ref_s"] for run in runs)
    values = {
        "wall_ref_s": wall_ref_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "tasks_per_ref_s": statistics.median(run["tasks"] for run in runs)
        / wall_ref_s,
        "paper_err": paper["paper_err"],
    }
    refs = [run["wall_ref_s"] for run in runs]
    slowdowns = [run["slowdown"] for run in runs]
    print(f"{workload}: {len(runs)} timed passes, wall "
          f"{min(walls):.3f}-{max(walls):.3f} s, reference "
          f"{min(refs):.3f}-{max(refs):.3f} s, host slowdown "
          f"{min(slowdowns):.2f}-{max(slowdowns):.2f}; setup_s over "
          f"{len(setups)} processes {min(setups):.3f}-{max(setups):.3f} s")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return {"attempted": sum(check["attempted"] for check in checks),
            "failed": sum(check["failed"] for check in checks),
            "metrics": metrics}


def per_layer(workload: str, seed: int, work_dir: Path) -> dict:
    """One untraced and one traced process -> per-layer metrics."""
    import layers
    _child(workload, seed, "setup", work_dir)  # fills the bytecode cache
    untraced = _child(workload, seed, "run", work_dir)
    traced = _child(workload, seed, "traced", work_dir)
    values = dict(traced["layers"])
    values["trace.overhead"] = traced["wall_ref_s"] / untraced["wall_ref_s"]
    values["host.wall_s"] = untraced["wall_s"]
    values["host.cpu_s"] = untraced["cpu_s"]
    values["host.slowdown"] = untraced["slowdown"]
    metrics = {name: {"value": values[name], "unit": _layer_unit(name)}
               for name in layers.per_layer_names()}
    return {"attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name in ("trace.overhead", "host.slowdown"):
        return "ratio"
    if name.endswith("host_ns_per_task"):
        return "ns"
    if name.endswith("sim_cycles"):
        return "cycles"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a repo checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    print(f"host: nproc={len(os.sched_getaffinity(0))} "
          f"load1={os.getloadavg()[0]:.2f} "
          f"python={platform.python_version()}")
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=WORK_DIR))
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, work_dir)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds,
                                work_dir)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": result["failed"] == 0, **result}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
