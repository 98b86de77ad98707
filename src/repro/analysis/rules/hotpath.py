"""Hot-path discipline rule: keep the per-event dispatch code allocation-lean.

PR 2 bought a ~1.7x inner-loop speedup with hand-applied rules — slotted
classes, ``_tag`` dispatch tables instead of ``isinstance`` chains, no
generator expressions or property descriptors on per-event paths.  This
rule pins them:

* every class in the hot modules declares ``__slots__`` (dataclasses are
  exempt: they are built once per run, not once per event, and the tree
  still supports Python 3.9 where ``slots=True`` is unavailable),
* inside the known hot dispatch functions: no ``isinstance`` calls, no
  generator expressions, and no reads of ``self.<prop>`` where ``<prop>``
  is a ``@property`` defined in the same module (cross-object descriptor
  reads are the polymorphic interface and stay allowed),
* every name in :data:`HOT_FUNCTIONS` is a function of its module.  A
  stale entry would silently lint nothing, so when this file itself is
  linted the rule reads the table from it and reports, at the entry, each
  name that its module (resolved next to this file's package) does not
  define.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Set

from repro.analysis.core import FileContext, Finding, LintRule, decorator_name
from repro.analysis.registry import register_rule

#: Per-module sets of functions on the per-event dispatch path.  Nested
#: defs and lambdas inside these count as hot too.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "repro/sim/engine.py": frozenset({
        "__new__", "_loop", "_finish", "_schedule", "_resume",
        "_handle_delay", "_handle_put", "_handle_get", "_handle_wait",
        "_handle_fork", "_handle_join", "schedule_callback", "trigger",
    }),
    "repro/sim/queues.py": frozenset({
        "try_put", "try_get", "_blocking_put", "_blocking_get", "_enqueue",
        "_dequeue", "_pop_item", "_wake_getters", "_wake_putters",
        "_notify", "_land",
    }),
    "repro/sim/arbiters.py": frozenset({"_kick", "_grant"}),
    "repro/memory/mesi.py": frozenset({"access"}),
    "repro/memory/hierarchy.py": frozenset({
        "load", "store", "atomic_rmw", "touch_lines", "_access",
    }),
    "repro/picos/device.py": frozenset({
        "try_intake", "_submission_pipeline", "_insert_task",
        "_retirement_pipeline", "_kick_emitter", "_emit_ready",
    }),
    "repro/picos/dependence.py": frozenset({
        "submit", "retire", "has_capacity", "predecessors_for",
        "forget_task",
    }),
    "repro/manager/submission.py": frozenset({"_pump"}),
    "repro/runtime/base.py": frozenset({"wait_for_signals"}),
}

_DATACLASS_DECORATORS = ("dataclass", "dataclasses.dataclass")

#: This file, where :data:`HOT_FUNCTIONS` is checked for stale entries.
_TABLE_PATH = "repro/analysis/rules/hotpath.py"


@register_rule
class HotPathRule(LintRule):
    id = "hot-path"
    description = ("__slots__ on hot-module classes; no isinstance/genexp/"
                   "property reads in per-event dispatch")
    hint = ("declare __slots__; use _tag dispatch instead of isinstance; "
            "inline property bodies on hot paths")
    paths = tuple(HOT_FUNCTIONS) + (_TABLE_PATH,)
    node_types = (ast.ClassDef, ast.GeneratorExp, ast.Call, ast.Attribute)

    def _in_hot_function(self, ctx: FileContext) -> bool:
        hot = HOT_FUNCTIONS.get(ctx.relpath)
        if not hot:
            return False
        for name in ctx.enclosing_function_names():
            if name in hot:
                return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if ctx.relpath not in HOT_FUNCTIONS:
            return
        if isinstance(node, ast.ClassDef):
            yield from self._check_class(node, ctx)
            return
        if not self._in_hot_function(ctx):
            return
        if isinstance(node, ast.GeneratorExp):
            yield self.finding(
                ctx, node,
                f"generator expression in hot function "
                f"{ctx.current_function_name()!r} allocates per event",
                hint="use a plain loop over the internal containers")
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                yield self.finding(
                    ctx, node,
                    f"isinstance() in hot function "
                    f"{ctx.current_function_name()!r}",
                    hint="dispatch on a class-level _tag (see Command._tag) "
                         "or compare __class__ identity")
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in ctx.properties):
                yield self.finding(
                    ctx, node,
                    f"read of property self.{node.attr} in hot function "
                    f"{ctx.current_function_name()!r} pays a descriptor "
                    "call per event",
                    hint="inline the property body on the hot path")

    def _check_class(self, node: ast.ClassDef,
                     ctx: FileContext) -> Iterable[Finding]:
        for decorator in node.decorator_list:
            if decorator_name(decorator) in _DATACLASS_DECORATORS:
                return
        for statement in node.body:
            targets = ()
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = (statement.target,)
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return
        yield self.finding(
            ctx, node,
            f"class {node.name!r} in a hot module does not declare "
            "__slots__",
            hint="add __slots__ with the instance attributes (dataclasses "
                 "are exempt)")

    def finish(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.relpath != _TABLE_PATH:
            return
        # The directory the table's module paths are relative to.
        root = ctx.path.parents[len(Path(_TABLE_PATH).parts) - 1]
        for module, entries in _table_entries(ctx.tree):
            path = root / module
            defined = _function_names(path) if path.is_file() else set()
            for entry in entries:
                if entry.value not in defined:
                    yield self.finding(
                        ctx, entry,
                        f"hot function {entry.value!r} is not defined in "
                        f"{module}",
                        hint="rename or delete the stale HOT_FUNCTIONS "
                             "entry")


def _table_entries(tree: ast.Module):
    """``(module, [name constants])`` per key of the annotated
    ``HOT_FUNCTIONS`` dict literal in ``tree``."""
    for statement in tree.body:
        if (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == "HOT_FUNCTIONS"
                and isinstance(statement.value, ast.Dict)):
            table = statement.value
            for key, names in zip(table.keys, table.values):
                if isinstance(key, ast.Constant):
                    yield key.value, [node for node in ast.walk(names)
                                      if isinstance(node, ast.Constant)]


def _function_names(path: Path) -> Set[str]:
    """Names of every def in the Python file at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
