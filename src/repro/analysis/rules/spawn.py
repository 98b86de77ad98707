"""Spawn-safety rule: registered objects must be importable by name.

Warm-pool workers re-import registered workloads and runtimes by
``(module, name)`` — see ``plugin_file_of`` and the
``ensure_*`` helpers in :mod:`repro.registry`.  A lambda, closure or
locally-defined class registered from inside a function exists only in
the registering process and silently diverges (or crashes) in a spawned
worker.  This rule flags:

* ``@register_*`` decorators applied to defs/classes nested inside a
  function,
* lambdas passed as arguments to ``register_*`` / ``ensure_*`` calls,
* immediate decorator application (``register_x(...)(obj)``) from inside
  a function body.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.core import FileContext, Finding, LintRule
from repro.analysis.registry import register_rule

_REGISTER_NAMES = frozenset({"register_workload", "register_runtime"})
_ENSURE_NAMES = frozenset({"ensure_workload", "ensure_runtime"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _callable_name(node: ast.AST) -> Optional[str]:
    """Last dotted segment of a call target ("registry.register_runtime" -> ...)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _nested_in_function(node: ast.AST, ctx: FileContext) -> bool:
    parent = ctx.parents.get(node)
    while parent is not None:
        if isinstance(parent, _FUNCTION_NODES):
            return True
        parent = ctx.parents.get(parent)
    return False


@register_rule
class SpawnSafetyRule(LintRule):
    id = "spawn-safety"
    description = ("registered workloads/runtimes must be module-level "
                   "(warm-pool workers re-import them)")
    hint = ("move the registered def/class to module level; lambdas and "
            "closures cannot be re-imported by spawned workers")
    paths = ("repro/*", "examples/*")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                  ast.Call)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from self._check_decorated(node, ctx)
        else:
            yield from self._check_call(node, ctx)

    def _check_decorated(self, node: ast.AST,
                         ctx: FileContext) -> Iterable[Finding]:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator,
                                                  ast.Call) else decorator
            name = _callable_name(target)
            if name in _REGISTER_NAMES and _nested_in_function(node, ctx):
                yield self.finding(
                    ctx, node,
                    f"@{name} applied to {node.name!r} inside a function; "
                    "spawned workers cannot re-import it")

    def _check_call(self, node: ast.Call,
                    ctx: FileContext) -> Iterable[Finding]:
        name = _callable_name(node.func)
        if name in _REGISTER_NAMES or name in _ENSURE_NAMES:
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(value, ast.Lambda):
                    yield self.finding(
                        ctx, value,
                        f"lambda passed to {name}(); spawned workers cannot "
                        "re-import it")
            return
        # register_x(...)(obj) — immediate application inside a function
        # registers a local object.
        if isinstance(node.func, ast.Call):
            inner = _callable_name(node.func.func)
            if inner in _REGISTER_NAMES and _nested_in_function(node, ctx):
                yield self.finding(
                    ctx, node,
                    f"{inner}(...) applied inside a function registers a "
                    "local object; spawned workers cannot re-import it")
