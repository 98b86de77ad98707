"""Tests for the AST invariant linter (repro.analysis).

Covers, per the linter's contract:

* one positive + one negative fixture per rule family,
* pragma suppression (same line and standalone comment line),
* JSON reporter schema round-trip,
* the CLI exit-code contract (0 clean / 1 findings / 2 usage error),
* a self-lint asserting the shipped tree is violation-free.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import Finding, lint_paths, rule_ids
from repro.analysis.cli import main as lint_main
from repro.analysis.core import LintError, normalize_relpath
from repro.analysis.registry import rule, select_rules
from repro.analysis.reporters import (
    REPORT_SCHEMA,
    parse_report,
    render_json,
)
from repro.harness.cli import main as cli_main
from repro.harness.telemetry import COUNTER_NAMES

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_RULES = ("cache-key", "determinism", "hot-path", "spawn-safety",
             "telemetry")


def lint_snippet(tmp_path: Path, relpath: str, source: str,
                 rules=None):
    """Write ``source`` at ``relpath`` under a scratch root and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    selected = select_rules(list(rules) if rules else None)
    return lint_paths([path], root=tmp_path, rules=selected)


# ---------------------------------------------------------------------- #
# Registry and scoping basics
# ---------------------------------------------------------------------- #
def test_all_five_rule_families_registered():
    assert rule_ids() == sorted(ALL_RULES)


def test_unknown_rule_suggests_known_names():
    with pytest.raises(LintError, match="did you mean 'determinism'"):
        rule("determinsm")


def test_path_scoping_ignores_out_of_scope_files(tmp_path):
    # Entropy in a module outside the deterministic core is fine.
    findings = lint_snippet(
        tmp_path, "src/repro/eval/plots.py",
        "import random\nx = random.random()\n",
        rules=["determinism"])
    assert findings == []


def test_src_prefix_is_normalised(tmp_path):
    flat = lint_snippet(tmp_path, "repro/sim/mod.py", "import random\n",
                        rules=["determinism"])
    nested = lint_snippet(tmp_path, "src/repro/sim/mod.py",
                          "import random\n", rules=["determinism"])
    assert [f.rule for f in flat] == ["determinism"]
    assert [f.file for f in flat] == [f.file for f in nested]


def test_normalize_relpath_outside_root_falls_back_to_name(tmp_path):
    assert normalize_relpath(Path("/etc/hosts"), tmp_path) == "hosts"


# ---------------------------------------------------------------------- #
# determinism rule
# ---------------------------------------------------------------------- #
DETERMINISM_BAD = """\
import random
import time

def jitter(values):
    random.shuffle(values)
    stamp = time.time()
    for item in {1, 2, 3}:
        values.append(item)
    return list(set(values)), stamp
"""

DETERMINISM_GOOD = """\
def rotate(values, offset):
    order = sorted(set(values))
    return [order[(offset + i) % len(order)] for i in range(len(order))]
"""


def test_determinism_positive(tmp_path):
    findings = lint_snippet(tmp_path, "src/repro/sim/bad.py",
                            DETERMINISM_BAD, rules=["determinism"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) >= 4
    assert "entropy module 'random'" in messages
    assert "time.time()" in messages
    assert "iteration over a set" in messages
    assert "list() over a set" in messages
    assert all(f.rule == "determinism" for f in findings)
    assert all(f.file == "repro/sim/bad.py" for f in findings)


def test_determinism_negative(tmp_path):
    assert lint_snippet(tmp_path, "src/repro/sim/good.py",
                        DETERMINISM_GOOD, rules=["determinism"]) == []


# ---------------------------------------------------------------------- #
# hot-path rule
# ---------------------------------------------------------------------- #
HOTPATH_BAD = """\
class Helper:
    def __init__(self):
        self.size = 0

    @property
    def empty(self):
        return self.size == 0

    def _loop(self, items):
        if isinstance(items, list) and not self.empty:
            return sum(x for x in items)
        return None
"""

HOTPATH_GOOD = """\
class Helper:
    __slots__ = ("size",)

    def __init__(self):
        self.size = 0

    def _loop(self, items):
        total = 0
        for x in items:
            total += x
        return total
"""


def test_hotpath_positive(tmp_path):
    findings = lint_snippet(tmp_path, "src/repro/sim/engine.py",
                            HOTPATH_BAD, rules=["hot-path"])
    messages = "\n".join(f.message for f in findings)
    assert "does not declare __slots__" in messages
    assert "isinstance() in hot function '_loop'" in messages
    assert "generator expression in hot function" in messages
    assert "read of property self.empty" in messages


def test_hotpath_negative(tmp_path):
    assert lint_snippet(tmp_path, "src/repro/sim/engine.py",
                        HOTPATH_GOOD, rules=["hot-path"]) == []


def test_hotpath_covers_the_mesi_access_path(tmp_path):
    source = ("class CoherenceDirectory:\n"
              "    __slots__ = ('_lines',)\n"
              "    def access(self, core, line, kind):\n"
              "        return sum(1 for _ in self._lines.get(line, ()))\n"
              "    def sharers(self, line):\n"
              "        return set(c for c in self._lines.get(line, ()))\n")
    findings = lint_snippet(tmp_path, "src/repro/memory/mesi.py", source,
                            rules=["hot-path"])
    assert [(f.line, f.message) for f in findings] == [
        (4, "generator expression in hot function 'access' allocates per "
            "event")]


def test_hotpath_requires_slots_in_memory_modules(tmp_path):
    source = "class SoftwareMutex:\n    def acquire(self, core):\n        pass\n"
    findings = lint_snippet(tmp_path, "src/repro/memory/hierarchy.py",
                            source, rules=["hot-path"])
    assert len(findings) == 1
    assert "'SoftwareMutex'" in findings[0].message
    assert "does not declare __slots__" in findings[0].message


def test_hotpath_covers_the_picos_inserter(tmp_path):
    source = ("class PicosDevice:\n"
              "    __slots__ = ('graph',)\n"
              "    def _insert_task(self, descriptor):\n"
              "        return sum(1 for _ in descriptor.dependences)\n"
              "    def sw_id_of(self, picos_id):\n"
              "        return list(i for i in (picos_id,))\n")
    findings = lint_snippet(tmp_path, "src/repro/picos/device.py", source,
                            rules=["hot-path"])
    assert [(f.line, f.message) for f in findings] == [
        (4, "generator expression in hot function '_insert_task' allocates "
            "per event")]


def test_hotpath_requires_slots_in_picos_dependence(tmp_path):
    source = ("class DependenceTracker:\n"
              "    def forget_task(self, task_id, dependences):\n"
              "        pass\n")
    findings = lint_snippet(tmp_path, "src/repro/picos/dependence.py",
                            source, rules=["hot-path"])
    assert len(findings) == 1
    assert "'DependenceTracker'" in findings[0].message
    assert "does not declare __slots__" in findings[0].message


HOTPATH_TABLE = """\
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "repro/sim/mod.py": frozenset({
        "present",
        "gone",
    }),
    "repro/sim/missing.py": frozenset({"anything"}),
}
"""


def test_hotpath_reports_stale_table_entries(tmp_path):
    module = tmp_path / "src" / "repro" / "sim" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("def present():\n    pass\n", encoding="utf-8")
    findings = lint_snippet(tmp_path, "src/repro/analysis/rules/hotpath.py",
                            HOTPATH_TABLE, rules=["hot-path"])
    assert [(f.line, f.message) for f in findings] == [
        (4, "hot function 'gone' is not defined in repro/sim/mod.py"),
        (6, "hot function 'anything' is not defined in "
            "repro/sim/missing.py"),
    ]


def test_hotpath_table_names_only_existing_functions():
    table = REPO_ROOT / "src" / "repro" / "analysis" / "rules" / "hotpath.py"
    assert lint_paths([table], root=REPO_ROOT,
                      rules=select_rules(["hot-path"])) == []


def test_hotpath_dataclasses_are_slots_exempt(tmp_path):
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Record:\n"
              "    cycles: int = 0\n")
    assert lint_snippet(tmp_path, "src/repro/runtime/base.py", source,
                        rules=["hot-path"]) == []


# ---------------------------------------------------------------------- #
# cache-key rule
# ---------------------------------------------------------------------- #
CACHEKEY_BAD = """\
def fingerprint(config):
    payload = {name: value for name, value in config.items()}
    token = id(config)
    label = f"cfg-{config['scale']}"
    return payload, token, label
"""

CACHEKEY_GOOD = """\
import ast
import json

def fingerprint(config):
    payload = {name: value for name, value in sorted(config.items())}
    if not payload:
        raise ValueError(f"empty config {config!r}")
    return json.dumps(payload, sort_keys=True)
"""


def test_cachekey_positive(tmp_path):
    findings = lint_snippet(tmp_path, "src/repro/harness/hashing.py",
                            CACHEKEY_BAD, rules=["cache-key"])
    messages = "\n".join(f.message for f in findings)
    assert ".items() iterated without sorted()" in messages
    assert "builtin id() is run-dependent" in messages
    assert "f-string on a cache-key path" in messages


def test_cachekey_negative(tmp_path):
    # sorted() iteration and raise-message f-strings are both allowed.
    assert lint_snippet(tmp_path, "src/repro/harness/hashing.py",
                        CACHEKEY_GOOD, rules=["cache-key"]) == []


def test_cachekey_targets_only_named_functions(tmp_path):
    # Outside the targeted functions of experiments.py the rule stays
    # silent.
    source = ("def describe(params):\n"
              "    return {k: v for k, v in params.items()}\n")
    assert lint_snippet(tmp_path, "src/repro/eval/experiments.py", source,
                        rules=["cache-key"]) == []
    targeted = ("def canonical_runtime_selection(params):\n"
                "    return {k: v for k, v in params.items()}\n")
    assert len(lint_snippet(tmp_path, "src/repro/eval/experiments.py",
                            targeted, rules=["cache-key"])) == 1


# ---------------------------------------------------------------------- #
# spawn-safety rule
# ---------------------------------------------------------------------- #
SPAWN_BAD = """\
from repro.registry import register_workload

def install():
    @register_workload("local", tags=())
    def build():
        return None

    register_workload("lam", paper_cases=lambda **kw: [])
    register_workload("obj", tags=())(build)
"""

SPAWN_GOOD = """\
from repro.registry import register_workload

@register_workload("global", tags=())
def build():
    return None
"""


def test_spawn_positive(tmp_path):
    findings = lint_snippet(tmp_path, "src/repro/apps/plugin.py",
                            SPAWN_BAD, rules=["spawn-safety"])
    messages = "\n".join(f.message for f in findings)
    assert "@register_workload applied to 'build' inside a function" in messages
    assert "lambda passed to register_workload()" in messages
    assert "register_workload(...) applied inside a function" in messages


def test_spawn_negative(tmp_path):
    assert lint_snippet(tmp_path, "src/repro/apps/plugin.py", SPAWN_GOOD,
                        rules=["spawn-safety"]) == []


# ---------------------------------------------------------------------- #
# telemetry rule
# ---------------------------------------------------------------------- #
TELEMETRY_BAD = """\
def run(tracer):
    span = tracer.start_span("phase", "phase")
    tracer.count("cache.hitz")
    tracer.end_span(span)
"""

TELEMETRY_GOOD = """\
def run(tracer):
    with tracer.span("phase", "phase"):
        tracer.count("cache.hits")
"""


def test_telemetry_positive(tmp_path):
    findings = lint_snippet(tmp_path, "src/repro/harness/runner.py",
                            TELEMETRY_BAD, rules=["telemetry"])
    messages = "\n".join(f.message for f in findings)
    assert ".start_span() called outside" in messages
    assert ".end_span() called outside" in messages
    assert "counter name 'cache.hitz' is not declared" in messages


def test_telemetry_negative(tmp_path):
    assert lint_snippet(tmp_path, "src/repro/harness/runner.py",
                        TELEMETRY_GOOD, rules=["telemetry"]) == []


def test_tracer_count_rejects_undeclared_names():
    from repro.harness.telemetry import Tracer

    tracer = Tracer()
    tracer.count("cache.hits")
    assert tracer.counters["cache.hits"] == 1
    with pytest.raises(ValueError, match="COUNTER_NAMES"):
        tracer.count("cache.hitz")


def test_counter_names_cover_all_emitted_literals():
    # The runtime validator and the lint rule share this set; every
    # counter the harness emits must be declared.
    assert {"cache.hits", "cache.misses", "pool.starts",
            "sweep.retries"} <= COUNTER_NAMES


# ---------------------------------------------------------------------- #
# Pragmas
# ---------------------------------------------------------------------- #
def test_pragma_suppresses_on_same_line(tmp_path):
    source = ("import random  # repro: lint-ignore[determinism] -- fixture\n")
    assert lint_snippet(tmp_path, "src/repro/sim/mod.py", source,
                        rules=["determinism"]) == []


def test_pragma_on_comment_line_covers_next_line(tmp_path):
    source = ("# repro: lint-ignore[determinism] -- seeded elsewhere\n"
              "import random\n")
    assert lint_snippet(tmp_path, "src/repro/sim/mod.py", source,
                        rules=["determinism"]) == []


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    source = "import random  # repro: lint-ignore[hot-path]\n"
    findings = lint_snippet(tmp_path, "src/repro/sim/mod.py", source,
                            rules=["determinism"])
    assert [f.rule for f in findings] == ["determinism"]


def test_bare_pragma_suppresses_every_rule(tmp_path):
    source = "import random  # repro: lint-ignore[]\n"
    assert lint_snippet(tmp_path, "src/repro/sim/mod.py", source,
                        rules=["determinism"]) == []


# ---------------------------------------------------------------------- #
# Reporters
# ---------------------------------------------------------------------- #
def test_json_report_round_trip():
    findings = [
        Finding(rule="determinism", file="repro/sim/bad.py", line=3,
                col=5, message="import of entropy module 'random'",
                hint="wrap set iteration in sorted()"),
        Finding(rule="hot-path", file="repro/sim/engine.py", line=10,
                col=1, message="class 'X' does not declare __slots__"),
    ]
    text = render_json(findings, files_checked=7, rules=list(ALL_RULES))
    document = parse_report(text)
    assert document["schema"] == REPORT_SCHEMA
    assert document["files_checked"] == 7
    assert document["clean"] is False
    assert document["rules"] == sorted(ALL_RULES)
    assert document["findings"] == findings


def test_json_report_rejects_unknown_schema():
    with pytest.raises(LintError, match="unsupported lint report schema"):
        parse_report(json.dumps({"schema": 999, "findings": []}))


# ---------------------------------------------------------------------- #
# CLI exit-code contract
# ---------------------------------------------------------------------- #
def test_cli_exit_zero_on_clean_fixture(tmp_path, capsys):
    path = tmp_path / "src" / "repro" / "sim" / "clean.py"
    path.parent.mkdir(parents=True)
    path.write_text("VALUE = 1\n", encoding="utf-8")
    code = lint_main([str(path), "--root", str(tmp_path)])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_with_findings_and_locations(tmp_path, capsys):
    path = tmp_path / "src" / "repro" / "sim" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text("import random\n", encoding="utf-8")
    code = lint_main([str(path), "--root", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "repro/sim/bad.py:1:1: [determinism]" in captured.out


def test_cli_exit_two_on_unknown_rule(tmp_path, capsys):
    code = lint_main([str(tmp_path), "--rule", "no-such-rule"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown lint rule" in captured.err


def test_cli_exit_two_on_missing_path(capsys):
    code = lint_main(["/nonexistent/path/xyz.py"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_exit_two_on_syntax_error(tmp_path, capsys):
    path = tmp_path / "src" / "repro" / "sim" / "broken.py"
    path.parent.mkdir(parents=True)
    path.write_text("def broken(:\n", encoding="utf-8")
    code = lint_main([str(path), "--root", str(tmp_path)])
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_json_format(tmp_path, capsys):
    path = tmp_path / "src" / "repro" / "sim" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text("import uuid\n", encoding="utf-8")
    code = lint_main([str(path), "--root", str(tmp_path), "--format",
                      "json"])
    assert code == 1
    document = parse_report(capsys.readouterr().out)
    assert document["clean"] is False
    assert document["findings"][0].rule == "determinism"


def test_harness_cli_lint_subcommand(capsys):
    # ``repro lint`` delegates to the same runner as python -m
    # repro.analysis; --list-rules keeps this hermetic.
    code = cli_main(["lint", "--list-rules"])
    captured = capsys.readouterr()
    assert code == 0
    for rule_id in ALL_RULES:
        assert rule_id in captured.out


def test_changed_and_paths_are_mutually_exclusive(tmp_path, capsys):
    code = lint_main([str(tmp_path), "--changed", "HEAD"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_changed_mode_outside_git_tree(tmp_path, capsys):
    code = lint_main(["--changed", "HEAD", "--root", str(tmp_path)])
    assert code == 2
    assert "git work tree" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# Self-lint: the shipped tree is violation-free
# ---------------------------------------------------------------------- #
def test_shipped_tree_is_violation_free():
    paths = [REPO_ROOT / "src" / "repro", REPO_ROOT / "examples"]
    findings = lint_paths([p for p in paths if p.exists()], root=REPO_ROOT)
    assert findings == [], "\n".join(f.describe() for f in findings)


def _unused_module_imports(path: Path):
    """``(line, name)`` of each module-level import ``path`` never uses.

    A name counts as used when any ``Name`` node reads it, a quoted
    annotation names it or ``__all__`` exports it; an import line marked
    ``# noqa: F401`` (a registration side effect) is exempt.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))
                   and node.annotation is not None]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and node.returns is not None]
    quoted = [ast.parse(node.value, mode="eval")
              for annotation in annotations for node in ast.walk(annotation)
              if isinstance(node, ast.Constant)
              and isinstance(node.value, str)]
    used = {node.id for root in [tree, *quoted] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_src_has_no_unused_module_imports():
    # ``perfbench/`` is left out: it is the benchmark's own code.
    roots = ("src/repro", "tests", "benchmarks", "tools", "examples")
    unused = [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
              for root in roots
              for path in sorted((REPO_ROOT / root).rglob("*.py"))
              for line, name in _unused_module_imports(path)]
    assert unused == [], "\n".join(unused)


def test_unused_import_scan_flags_and_exempts(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from x import exported, Quoted\n"
        "__all__ = ['exported']\n"
        "def f(q: Optional['Quoted']) -> List[int]:\n"
        "    return []\n")
    assert _unused_module_imports(module) == [(2, "os"), (4, "Dict")]
