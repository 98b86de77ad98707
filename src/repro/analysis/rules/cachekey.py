"""Cache-key safety rule: keep cache keys and fingerprints byte-stable.

``case_cache_key`` / ``experiment_cache_key`` / the fingerprint helpers hash a
canonical JSON document; the figure-9 fingerprints in
``tests/data/figure9_fingerprints.json`` pin the exact bytes.  Code on
those paths must not:

* iterate mappings (``.items()`` / ``.keys()`` / ``.values()``) without an
  explicit ``sorted(...)`` — insertion order is an implementation detail
  of the caller,
* call ``id()`` or builtin ``hash()`` — both vary across interpreter runs,
* stringify values (f-strings, ``str()``, ``repr()``, ``format()``)
  outside the canonicalizer — float formatting is locale/precision bait.
  Strings built purely for ``raise`` messages are exempt, as are the
  canonicalizer functions themselves and ``__repr__`` debug output.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable

from repro.analysis.core import FileContext, Finding, LintRule
from repro.analysis.registry import register_rule

#: Files linted in full: every line feeds keys or hashes.
_FULL_FILES = (
    "repro/harness/hashing.py",
)

#: Files where only the named key-feeding functions are in scope.
_TARGETED: Dict[str, FrozenSet[str]] = {
    "repro/eval/experiments.py": frozenset({"canonical_runtime_selection"}),
}

#: Functions allowed to stringify: they *are* the canonicalizer.
_CANONICALIZERS = frozenset({"_jsonable", "__repr__"})

_MAPPING_VIEWS = frozenset({"items", "keys", "values"})
_STRINGIFIERS = frozenset({"str", "repr", "format"})


@register_rule
class CacheKeyRule(LintRule):
    id = "cache-key"
    description = ("no unsorted mapping iteration, id()/hash() or ad-hoc "
                   "stringification on cache-key paths")
    hint = ("wrap mapping views in sorted(); derive identity from content, "
            "not id()/hash(); stringify only in the canonicalizer")
    paths = _FULL_FILES + tuple(_TARGETED)
    node_types = (ast.Call, ast.JoinedStr)

    def _in_scope(self, ctx: FileContext) -> bool:
        if ctx.relpath in _FULL_FILES:
            return True
        targets = _TARGETED.get(ctx.relpath)
        if not targets:
            return False
        for name in ctx.enclosing_function_names():
            if name in targets:
                return True
        return False

    def _stringify_allowed(self, ctx: FileContext) -> bool:
        if ctx.in_raise():
            return True
        for name in ctx.enclosing_function_names():
            if name in _CANONICALIZERS:
                return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not self._in_scope(ctx):
            return
        if isinstance(node, ast.JoinedStr):
            if not self._stringify_allowed(ctx):
                yield self.finding(
                    ctx, node,
                    "f-string on a cache-key path stringifies values "
                    "outside the canonicalizer")
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("id", "hash") and func.id not in ctx.imports:
                yield self.finding(
                    ctx, node,
                    f"builtin {func.id}() is run-dependent and must not "
                    "feed a cache key")
            elif (func.id in _STRINGIFIERS
                  and not self._stringify_allowed(ctx)):
                yield self.finding(
                    ctx, node,
                    f"{func.id}() on a cache-key path stringifies values "
                    "outside the canonicalizer")
        elif (isinstance(func, ast.Attribute)
              and func.attr in _MAPPING_VIEWS
              and not node.args and not node.keywords):
            parent = ctx.parents.get(node)
            if not (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id == "sorted"):
                yield self.finding(
                    ctx, node,
                    f".{func.attr}() iterated without sorted() on a "
                    "cache-key path depends on insertion order")
