"""The ``python -m repro`` command-line interface.

Subcommands::

    python -m repro list                      # experiment registry
    python -m repro workloads --tag paper     # workload plugin registry
    python -m repro runtimes                  # runtime plugin registry
    python -m repro run figure9 --quick --jobs 8
    python -m repro run figure9 --workload jacobi --runtime phentos
    python -m repro run all --cache-dir /tmp/repro-cache
    python -m repro run scaling_curves --cores 1,2,4,8
    python -m repro cache [--clear]           # entry count and size
    python -m repro trace summary trace.jsonl # digest a telemetry trace

``run`` accepts ``--workload``/``--runtime``/``--tag`` filters resolved
through the plugin registries (:mod:`repro.registry`), so a workload or
runtime registered by a drop-in plugin is immediately runnable from the
command line; unknown names fail with a did-you-mean suggestion listing
the registered names.

``run`` drives the :class:`~repro.harness.engine.ExperimentEngine`, so every
invocation benefits from the result cache and the engine's persistent warm
worker pool, and renders the same rows/series the paper reports.  Sweeps
isolate unit failures: a failing unit is retried in a fresh worker
(``--retries``, default 1) and remaining failures either abort the run
with one aggregated error naming every failed unit, or — with
``--keep-going`` — are reported on stderr while the run finishes with
partial results and exit code 0.  (The overhead-based bound
experiments accept tuning knobs — ``--num-tasks`` here, explicit task-size
grids in ``examples/reproduce_paper.py`` — so absolute bound values may
differ between entry points when those knobs differ.)

``--cores`` gives the core counts of the ``scaling_curves`` experiment;
the other experiments ignore it.  Its (case × core count) units share one
process pool and the result cache, and its 8-core column addresses
exactly the Figure 9 cache entries.  ``--jobs`` defaults to
``$REPRO_JOBS`` (else 1) and never enters a cache key, so re-running with
any ``--jobs`` value is a pure cache hit.

``run`` prints live status lines on stderr (one per sweep unit,
rendered from the telemetry stream; ``--quiet`` suppresses them) and
accepts ``--trace PATH`` (default ``$REPRO_TRACE``) to record the
invocation's telemetry stream — run manifest, phase/sweep/unit spans,
cache and pool counters — as JSONL (:mod:`repro.harness.telemetry`);
``trace summary FILE`` digests such a file into per-phase wall-clock,
unit-latency percentiles, cache hit ratio and the failure list.
``cache`` reports the cache directory's entry count and size, and
``cache --clear`` empties it.

``--cache-dir`` (default ``$REPRO_CACHE_DIR``, else ``.repro_cache``)
names the result cache directory.  Entries are keyed by configuration,
case parameters and package version, and each records a digest of the
``repro`` sources that produced it: after any edit to the package, the
next run misses and re-stores every entry it touches, so no
``--no-cache`` is needed to see a model change — see
``docs/caching.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import registry
from repro.common.config import SimConfig
from repro.common.errors import ReproError
from repro.eval.experiments import EXPERIMENT_SPECS, benchmark_cases
from repro.eval.reporting import (
    benchmarks_report,
    bounds_report,
    comparisons_report,
    granularity_report,
    headline_report,
    overhead_report,
    resources_report,
    scaling_report,
)
from repro.harness.artifacts import encode
from repro.harness.cache import open_store
from repro.harness.engine import ExperimentEngine

__all__ = ["main", "build_parser", "render_report"]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable giving the default host-process fan-out of
#: ``run`` (never part of any cache key, so changing it cannot
#: invalidate results).
JOBS_ENV = "REPRO_JOBS"

#: Environment variable naming plugin modules (comma-separated module
#: names or ``.py`` file paths) imported before any registry lookup, so
#: ``@register_workload``/``@register_runtime`` plugins are addressable
#: from a fresh CLI process.  ``--plugin`` does the same per invocation.
PLUGINS_ENV = "REPRO_PLUGINS"

#: Environment variable giving the default ``--trace`` path of
#: ``run`` (never part of any cache key, so tracing a
#: run cannot change its results).
TRACE_ENV = "REPRO_TRACE"

#: Experiment identifiers in presentation order ("all" runs these in order;
#: ``scaling_curves`` goes beyond the paper's one machine, so "all" leaves
#: it out and it runs by name).
_RUN_ORDER = ("figure7", "figure6", "figure9", "figure8", "figure10",
              "table2", "headline")

_RENDERERS = {
    "figure6": bounds_report,
    "figure7": overhead_report,
    "figure8": granularity_report,
    "figure9": benchmarks_report,
    "figure10": comparisons_report,
    "table2": resources_report,
    "headline": headline_report,
    "scaling_curves": scaling_report,
}


def render_report(experiment_id: str, result: object,
                  runtimes: Optional[List[str]] = None) -> str:
    """Render one experiment result as the paper's text table.

    ``runtimes`` narrows the figure9 report columns to a selection (the
    other renderers have fixed columns and ignore it).
    """
    if experiment_id == "figure9" and runtimes:
        return _RENDERERS[experiment_id](result, runtimes=runtimes)
    return _RENDERERS[experiment_id](result)


def default_cache_dir() -> Path:
    """The result-cache directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def _parse_cores(text: str) -> List[int]:
    """argparse type for ``--cores``: '1,2,4' -> [1, 2, 4]."""
    try:
        return [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid core list {text!r}; expected comma-separated integers"
        )


def _parse_names(text: str) -> List[str]:
    """argparse type for name lists: 'phentos,nanos-rv' -> list.

    Used with ``action="extend"``, so ``--runtime a,b --runtime c`` and
    ``--runtime a --runtime b --runtime c`` are equivalent.
    """
    return [item.strip() for item in text.split(",") if item.strip()]


#: Experiments whose execution honours a ``--runtime`` selection (the
#: derived figures hard-code the paper's three-way comparison).
_RUNTIME_AWARE = ("figure9", "scaling_curves")


def _selected_cases(args: argparse.Namespace):
    """The registry-derived case list of ``--workload``/``--tag`` filters.

    Returns ``None`` (the experiment default) when no filter was given.
    Unknown workload names raise :class:`EvaluationError` upstream with a
    did-you-mean suggestion.
    """
    if not getattr(args, "workload", None) and not getattr(args, "tag", None):
        return None
    return benchmark_cases(quick=args.quick, scale=args.scale,
                           workloads=args.workload or None,
                           tags=args.tag or None)


def _is_case_aware(experiment_id: str) -> bool:
    """Whether an experiment consumes a benchmark-case selection."""
    if experiment_id in ("figure9", "scaling_curves"):
        return True
    return "figure9" in EXPERIMENT_SPECS[experiment_id].depends_on


def _cases_for(args: argparse.Namespace, cases, experiment_id: str):
    """``cases`` where the experiment consumes them; note-and-drop else."""
    if cases is None or _is_case_aware(experiment_id):
        return cases
    print(f"note: --workload/--tag apply to the benchmark-sweep "
          f"experiments; ignored for {experiment_id}", file=sys.stderr)
    return None


def _runtimes_for(args: argparse.Namespace, experiment_id: str):
    """The ``--runtime`` selection, where the experiment honours it."""
    runtimes = getattr(args, "runtimes", None)
    if not runtimes:
        return None
    if experiment_id not in _RUNTIME_AWARE:
        print(f"note: --runtime applies to "
              f"{'/'.join(_RUNTIME_AWARE)}; ignored for {experiment_id}",
              file=sys.stderr)
        return None
    return runtimes


def _default_jobs() -> int:
    """The ``$REPRO_JOBS`` fan-out, resolved lazily (1 when unset/invalid).

    Resolved at command time rather than parser-build time so a malformed
    value cannot break unrelated subcommands.
    """
    try:
        return int(os.environ.get(JOBS_ENV, "1") or "1")
    except ValueError:
        print(f"warning: ignoring invalid ${JOBS_ENV}="
              f"{os.environ[JOBS_ENV]!r}; using 1 job", file=sys.stderr)
        return 1


def _load_plugins(specs: Optional[List[str]]) -> None:
    """Import every plugin named by ``--plugin`` and ``$REPRO_PLUGINS``.

    Delegates to :func:`repro.registry.load_plugin` (module names or
    ``.py`` paths; idempotent per file), so the CLI, the Study API and
    the pool workers all share one loading path.
    """
    names = list(specs or [])
    names += _parse_names(os.environ.get(PLUGINS_ENV, ""))
    for name in dict.fromkeys(names):
        registry.load_plugin(name)


def _resolve_trace(args: argparse.Namespace) -> Optional[Path]:
    """The trace output path: ``--trace`` or ``$REPRO_TRACE`` (or None)."""
    trace = getattr(args, "trace", None)
    if trace is not None:
        return trace
    from_env = os.environ.get(TRACE_ENV, "").strip()
    return Path(from_env) if from_env else None


def _build_engine(args: argparse.Namespace, jobs: int,
                  run_label: Optional[str] = None) -> ExperimentEngine:
    """The engine wiring of the ``run`` subcommand."""
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    return ExperimentEngine(
        config=SimConfig(),
        jobs=jobs,
        cache_dir=cache_dir,
        artifact_dir=args.artifact_dir,
        progress=not args.quiet,
        run_label=run_label,
        keep_going=getattr(args, "keep_going", False),
        retries=getattr(args, "retries", 1),
        trace_path=_resolve_trace(args),
    )


def _print_cache_stats(engine: ExperimentEngine, quiet: bool) -> None:
    """Report hit/miss counters on stderr (suppressed by ``--quiet``)."""
    stats = engine.cache_stats
    if not quiet and stats.lookups:
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es) "
              f"({stats.hit_rate * 100:.0f}% hit rate)", file=sys.stderr)


def _print_failures(engine: ExperimentEngine) -> None:
    """Report every failed sweep unit on stderr (``--keep-going`` runs).

    Printed even under ``--quiet``: a failure report documents missing
    data, not progress, so it must never be suppressed.
    """
    # Partial results re-served from the sweep memo re-report their
    # failures; collapse those repeats for the human-facing summary.
    failures = list(dict.fromkeys(engine.unit_failures))
    if not failures:
        return
    print(f"{len(failures)} unit(s) failed (results are partial):",
          file=sys.stderr)
    for failure in failures:
        print(f"  FAILED {failure.describe()}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's evaluation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plugins = argparse.ArgumentParser(add_help=False)
    plugins.add_argument("--plugin", dest="plugins", action="append",
                         default=None, metavar="MODULE|FILE.py",
                         help="import this plugin module (or .py file) "
                              "before resolving names; also honours "
                              f"${PLUGINS_ENV} (comma-separated)")

    resilience = argparse.ArgumentParser(add_help=False)
    resilience.add_argument("--keep-going", action="store_true",
                            help="don't abort the sweep when a unit fails: "
                                 "finish everything else, report the "
                                 "failures, exit 0 with partial results")
    resilience.add_argument("--retries", type=int, default=1,
                            help="re-attempts per failed unit, each in a "
                                 "fresh worker process (default 1)")

    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument("--trace", type=Path, default=None, metavar="PATH",
                         help="append the run's telemetry stream (spans, "
                              "counters, run manifest) to this JSONL file; "
                              f"also honours ${TRACE_ENV}; digest it with "
                              "'trace summary'")

    run = sub.add_parser(
        "run", help="run one or more experiments (or 'all')",
        parents=[plugins, resilience, tracing],
    )
    run.add_argument("experiments", nargs="+",
                     help=f"experiment ids ({', '.join(_RUN_ORDER)}) or 'all'")
    run.add_argument("--quick", action="store_true",
                     help="reduced benchmark sweep")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink problem sizes proportionally (default 1.0)")
    run.add_argument("--workload", type=_parse_names, action="extend",
                     default=None, metavar="NAME[,NAME...]",
                     help="restrict the benchmark sweep to these registered "
                          "workloads (see 'workloads')")
    run.add_argument("--tag", type=_parse_names, action="extend",
                     default=None, metavar="TAG[,TAG...]",
                     help="restrict the sweep to workloads carrying every "
                          "listed tag")
    run.add_argument("--runtime", "--runtimes", dest="runtimes",
                     type=_parse_names, action="extend", default=None,
                     metavar="NAME[,NAME...]",
                     help="runtimes to compare for figure9/scaling_curves "
                          "(serial always runs; see 'runtimes')")
    run.add_argument("--jobs", "-j", type=int, default=None,
                     help=f"host processes for the sweep (default "
                          f"${JOBS_ENV} or 1; never part of cache keys)")
    run.add_argument("--workers", type=int, default=None,
                     help="simulated cores per run (default: config)")
    run.add_argument("--num-tasks", type=int, default=None,
                     help="micro-benchmark task count for figures 6/7")
    run.add_argument("--cores", type=_parse_cores, default=None,
                     help="comma-separated core counts for scaling_curves "
                          "(default 1,2,4,8,16,32,64)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help=f"result cache directory (default "
                          f"${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the result cache")
    run.add_argument("--artifact-dir", type=Path, default=None,
                     help="also archive results as JSON artifacts here")
    run.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress output")

    sub.add_parser("list", help="list the experiment registry")

    workloads = sub.add_parser(
        "workloads", help="list the workload plugin registry",
        parents=[plugins],
    )
    workloads.add_argument("--tag", type=_parse_names, action="extend",
                           default=None, metavar="TAG[,TAG...]",
                           help="only workloads carrying every listed tag")

    runtimes = sub.add_parser(
        "runtimes", help="list the runtime plugin registry",
        parents=[plugins],
    )
    runtimes.add_argument("--tag", type=_parse_names, action="extend",
                          default=None, metavar="TAG[,TAG...]",
                          help="only runtimes carrying every listed tag")

    cache = sub.add_parser(
        "cache", help="inspect or clear the result cache")
    cache.add_argument("--cache-dir", default=None, metavar="DIR")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cache entry")

    trace = sub.add_parser(
        "trace", help="inspect telemetry traces recorded with --trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="digest a trace: phase wall-clock, unit latency percentiles, "
             "cache hit ratio, pool counters, failures")
    trace_summary.add_argument("trace_file", type=Path,
                               help="a trace.jsonl recorded with --trace")

    lint = sub.add_parser(
        "lint",
        help="AST invariant linter (determinism, hot-path, cache-key, "
             "spawn-safety, telemetry rules)")
    from repro.analysis.cli import add_lint_arguments
    add_lint_arguments(lint)
    return parser


def _cmd_list(out) -> int:
    """Print the experiment registry, one line per experiment."""
    for experiment_id in _RUN_ORDER + ("scaling_curves",):
        spec = EXPERIMENT_SPECS[experiment_id]
        needs = (f" (derived from {', '.join(spec.depends_on)})"
                 if spec.depends_on else "")
        print(f"{experiment_id:<14} {spec.title}{needs}", file=out)
    print("\nSee 'workloads' and 'runtimes' for the plugin registries.",
          file=out)
    return 0


def _cmd_workloads(args: argparse.Namespace, out) -> int:
    """Print the workload registry: name, tags, cases, description."""
    specs = registry.WORKLOADS.specs(tags=args.tag or None)
    if not specs:
        print(f"no registered workload carries every tag in "
              f"{args.tag!r}", file=sys.stderr)
        return 1
    for spec in specs:
        tags = ",".join(spec.tags) if spec.tags else "-"
        cases = len(spec.cases())
        print(f"{spec.name:<14} {tags:<34} {cases:>3} case(s)  "
              f"{spec.description}", file=out)
    return 0


def _cmd_runtimes(args: argparse.Namespace, out) -> int:
    """Print the runtime registry in rank order: name, tags, description."""
    specs = sorted(registry.RUNTIMES.specs(tags=args.tag or None),
                   key=lambda spec: spec.rank)
    if not specs:
        print(f"no registered runtime carries every tag in "
              f"{args.tag!r}", file=sys.stderr)
        return 1
    for spec in specs:
        tags = ",".join(spec.tags) if spec.tags else "-"
        print(f"{spec.name:<14} {tags:<34} {spec.description}", file=out)
    return 0


def _cmd_cache(args: argparse.Namespace, out) -> int:
    """Inspect or clear the result cache."""
    cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    cache = open_store(cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}", file=out)
        return 0
    print(f"cache directory: {cache.root}", file=out)
    print(f"entries: {len(cache)}", file=out)
    print(f"size: {cache.size_bytes() / 1024:.1f} KiB", file=out)
    return 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    """Digest a recorded trace file (``trace summary FILE``)."""
    from repro.harness.telemetry import summarize_trace

    print(summarize_trace(args.trace_file).render(), file=out)
    return 0


def _cmd_run(args: argparse.Namespace, out) -> int:
    """Run the selected experiments through one shared engine."""
    selected: List[str] = []
    for name in args.experiments:
        if name == "all":
            selected.extend(_RUN_ORDER)
        elif name in EXPERIMENT_SPECS:
            selected.append(name)
        else:
            print(f"error: unknown experiment {name!r}"
                  f"{registry.suggest(name, list(EXPERIMENT_SPECS) + ['all'])}",
                  file=sys.stderr)
            return 2
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    engine = _build_engine(args, jobs,
                           run_label=f"cli:run {','.join(selected)}")
    try:
        cases = _selected_cases(args)
        json_payload = {}
        for experiment_id in selected:
            result = engine.run(
                experiment_id,
                quick=args.quick,
                scale=args.scale,
                num_workers=args.workers,
                num_tasks=args.num_tasks,
                cases=_cases_for(args, cases, experiment_id),
                core_counts=args.cores,
                runtimes=_runtimes_for(args, experiment_id),
            )
            if args.format == "json":
                json_payload[experiment_id] = encode(result)
            else:
                title = EXPERIMENT_SPECS[experiment_id].title
                print(f"\n=== {experiment_id}: {title} ===", file=out)
                print(render_report(experiment_id, result,
                                    runtimes=args.runtimes), file=out)
        if args.format == "json":
            print(json.dumps(json_payload, indent=2, sort_keys=True),
                  file=out)
        _print_failures(engine)
        _print_cache_stats(engine, args.quiet)
        return 0
    finally:
        engine.close()


def _dispatch(args: argparse.Namespace) -> int:
    _load_plugins(getattr(args, "plugins", None))
    if args.command == "list":
        return _cmd_list(sys.stdout)
    if args.command == "workloads":
        return _cmd_workloads(args, sys.stdout)
    if args.command == "runtimes":
        return _cmd_runtimes(args, sys.stdout)
    if args.command == "cache":
        return _cmd_cache(args, sys.stdout)
    if args.command == "trace":
        return _cmd_trace(args, sys.stdout)
    if args.command == "lint":
        from repro.analysis.cli import run_lint
        return run_lint(args, sys.stdout, sys.stderr)
    return _cmd_run(args, sys.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` console script.

    A reader that closes standard output early (``| grep -q``, ``| head``)
    ends the command quietly with status 0: it has read what it wanted.
    """
    args = build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        # Flush here, so that a reader gone by now is caught below rather
        # than at interpreter exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Send what is still buffered to devnull, so the exit-time flush
        # does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
