"""Determinism rule: simulation and hashing code must be entropy-free.

Results are pinned by golden traces and byte-stable fingerprints, so code
in ``repro/sim/`` and ``repro/harness/hashing.py`` may not consult
ambient entropy (``random``, ``uuid``, ``secrets``, ``os.urandom``,
wall-clock time) and may not iterate ``set`` objects, whose order is
salted per interpreter run.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import FileContext, Finding, LintRule
from repro.analysis.registry import register_rule

#: Modules whose every use is ambient entropy in deterministic code.
_BANNED_MODULES = frozenset({"random", "uuid", "secrets"})

#: Specific entropy/clock functions from otherwise-legitimate modules.
_BANNED_FUNCTIONS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.urandom",
    "os.getrandom",
})

#: Builtins that materialise their argument's (salted) iteration order.
_ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "iter", "enumerate"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@register_rule
class DeterminismRule(LintRule):
    id = "determinism"
    description = ("no ambient entropy or salted set iteration in "
                   "sim/hashing code")
    hint = ("keep entropy and clocks out of the model; wrap set iteration "
            "in sorted()")
    paths = (
        "repro/sim/*.py",
        "repro/harness/hashing.py",
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call, ast.For,
                  ast.comprehension)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import of entropy module {alias.name!r} in "
                        "deterministic code")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _BANNED_MODULES:
                yield self.finding(
                    ctx, node,
                    f"import from entropy module {node.module!r} in "
                    "deterministic code")
        elif isinstance(node, ast.Call):
            yield from self._check_call(node, ctx)
        elif isinstance(node, ast.For):
            if _is_set_expr(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    "iteration over a set has salted, run-dependent order")
        elif isinstance(node, ast.comprehension):
            if _is_set_expr(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    "comprehension over a set has salted, run-dependent "
                    "order")

    def _check_call(self, node: ast.Call,
                    ctx: FileContext) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            module = ctx.resolve_module(func.value.id).split(".")[0]
            dotted = f"{module}.{func.attr}"
            if module in _BANNED_MODULES:
                yield self.finding(
                    ctx, node,
                    f"call to {dotted}() draws ambient entropy")
            elif dotted in _BANNED_FUNCTIONS:
                yield self.finding(
                    ctx, node,
                    f"call to {dotted}() reads the wall clock / OS entropy")
        elif isinstance(func, ast.Name):
            resolved = ctx.resolve_module(func.id)
            if resolved.split(".")[0] in _BANNED_MODULES:
                yield self.finding(
                    ctx, node,
                    f"call to {resolved}() draws ambient entropy")
            elif resolved in _BANNED_FUNCTIONS:
                yield self.finding(
                    ctx, node,
                    f"call to {resolved}() reads the wall clock / OS entropy")
            elif (func.id in _ORDER_SENSITIVE_BUILTINS and node.args
                  and _is_set_expr(node.args[0])):
                yield self.finding(
                    ctx, node,
                    f"{func.id}() over a set has salted, run-dependent "
                    "order")
