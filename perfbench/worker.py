"""One workload process: set up, run timed passes, check, report JSON.

``run.py`` starts this script in a fresh interpreter for every sample, so
each set-up is measured from a cold start of the program.  A
:class:`hostspeed.HostClock` starts at the first statement; set-up is
reported in its reference seconds, and a pass in both reference and wall
seconds:

* ``--role setup`` only sets up and reports ``setup_s``;
* ``--role run`` sets up, runs one timed pass, checks it and reports its
  host times and the process's peak RSS;
* ``--role paper`` runs and checks the Figure 7 matrix, untimed, for the
  paper error of workloads that do not run it themselves;
* ``--role traced`` installs the layer wrappers, sets up, runs one timed
  pass, restores the originals, checks the pass and reports the layer
  metrics.

The last line of standard output is one JSON object.
"""

import time

STARTED = time.perf_counter()

import hostspeed  # noqa: E402  (set-up is timed from the line above)

CLOCK = hostspeed.HostClock()
if __name__ == "__main__":
    CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _timed_pass(workload):
    """``(result, start, end, cpu s)`` of one pass, ``start`` and ``end`` on
    the perf counter; a raised error is the result."""
    start = time.perf_counter()
    cpu = time.process_time()
    try:
        result = workload.run_pass()
    except Exception as exc:  # a failed pass is counted, not fatal
        result = exc
    return result, start, time.perf_counter(), time.process_time() - cpu


def _times(start: float, end: float) -> dict:
    return {"wall_ref_s": CLOCK.seconds(start, end), "wall_s": end - start}


def _check(workload, result, tally) -> None:
    workload.cleanup()
    if isinstance(result, Exception):
        tally.fail_all(workload.operation_names(), result)
    else:
        workload.check(result, tally)


def run(workload) -> dict:
    tally = workloads.Tally()
    workload.check_setup(tally)
    result, start, end, cpu = _timed_pass(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _check(workload, result, tally)
    return {**_times(start, end), "cpu_s": cpu, "tasks": tally.tasks,
            "peak_rss_mb": peak_rss_mb, "slowdown": CLOCK.slowdown(),
            "paper_err": workload.paper_err,
            "attempted": tally.attempted, "failed": tally.failed}


def paper() -> dict:
    tally = workloads.Tally()
    matrix = workloads.Figure7Matrix(ROOT)
    paper_err = matrix.check(matrix.run_pass(), tally)
    return {"paper_err": paper_err, "attempted": tally.attempted,
            "failed": tally.failed}


def traced(cls, seed: int, work_dir: Path) -> dict:
    import layers
    trace = layers.LayerTrace().install()
    try:
        workload = cls(seed, ROOT, work_dir)
        result, start, end, _cpu = _timed_pass(workload)
    finally:
        trace.uninstall()
    tally = workloads.Tally()
    workload.check_setup(tally)
    _check(workload, result, tally)
    return {**_times(start, end), "layers": trace.metrics(),
            "attempted": tally.attempted, "failed": tally.failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", required=True,
                        choices=("setup", "run", "paper", "traced"))
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    cls = workloads.WORKLOADS[args.workload]
    if args.role == "traced":
        report = traced(cls, args.seed, args.work_dir)
    elif args.role == "paper":
        report = paper()
    else:
        workload = cls(args.seed, ROOT, args.work_dir)
        report = {"setup_s": CLOCK.seconds(STARTED, time.perf_counter())}
        if args.role == "run":
            report.update(run(workload))
    CLOCK.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
