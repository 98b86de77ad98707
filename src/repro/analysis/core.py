"""Core machinery of the invariant linter: findings, file context, runner.

Each file is parsed once; a single recursive walk dispatches every node to
the rules subscribed to its type while maintaining the lexical context
(enclosing functions, classes, ``raise`` statements) that rules need to
reason about scope.  A per-file symbol index — imported names, methods
decorated with ``@property``, module-level definitions — is built in a
cheap pre-pass so rules never re-walk the tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "LintRule",
    "LintError",
    "iter_python_files",
    "lint_files",
    "lint_paths",
    "normalize_relpath",
]

#: Pragma grammar: ``# repro: lint-ignore[rule-a, rule-b] -- optional reason``.
#: A pragma on a line suppresses findings reported for that line; a pragma on
#: a comment-only line additionally covers the following line.
_PRAGMA = re.compile(r"#\s*repro:\s*lint-ignore\[([^\]]*)\]")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class LintError(Exception):
    """Raised for linter usage errors (unknown rule, unreadable path)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    file: str
    line: int
    col: int
    message: str
    hint: str = ""

    def describe(self) -> str:
        """``file:line:col: [rule] message`` — the text-reporter line."""
        return f"{self.file}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class FileContext:
    """Everything rules may consult about the file being linted.

    Traversal state (``function_stack``, ``class_stack``, ``raise_depth``)
    is mutated by the walker as it descends, so a rule's ``visit`` sees the
    lexical context of the node it was handed.
    """

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.pragmas = _parse_pragmas(self.lines)
        # --- per-file symbol index (pre-pass) -------------------------- #
        #: local alias -> dotted module path ("np" -> "numpy").
        self.imports: Dict[str, str] = {}
        #: names of methods decorated with @property / cached_property.
        self.properties: Set[str] = set()
        #: names bound at module level (defs, classes, assignments).
        self.module_names: Set[str] = set()
        self._build_index()
        # --- traversal state ------------------------------------------- #
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.function_stack: List[ast.AST] = []
        self.class_stack: List[ast.ClassDef] = []
        self.raise_depth = 0

    # ------------------------------------------------------------------ #
    # Symbol index
    # ------------------------------------------------------------------ #
    def _build_index(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = (
                        f"{module}.{alias.name}" if module else alias.name
                    )
            elif isinstance(node, _FUNCTION_NODES):
                for decorator in node.decorator_list:
                    name = decorator_name(decorator)
                    if name in ("property", "cached_property",
                                "functools.cached_property"):
                        self.properties.add(node.name)
        for node in self.tree.body:
            if isinstance(node, (*_FUNCTION_NODES, ast.ClassDef)):
                self.module_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_names.add(target.id)

    # ------------------------------------------------------------------ #
    # Conveniences for rules
    # ------------------------------------------------------------------ #
    @property
    def current_function(self) -> Optional[ast.AST]:
        """Innermost enclosing def/lambda, or ``None`` at module level."""
        return self.function_stack[-1] if self.function_stack else None

    def current_function_name(self) -> str:
        """Name of the innermost enclosing def ("<lambda>" for lambdas)."""
        node = self.current_function
        if node is None:
            return ""
        return getattr(node, "name", "<lambda>")

    def enclosing_function_names(self) -> Tuple[str, ...]:
        """Names of every enclosing def, outermost first."""
        return tuple(getattr(f, "name", "<lambda>")
                     for f in self.function_stack)

    def in_raise(self) -> bool:
        """True when the current node sits inside a ``raise`` statement."""
        return self.raise_depth > 0

    def resolve_module(self, name: str) -> str:
        """Map a local name to the module it was imported from (or itself)."""
        return self.imports.get(name, name)

    def suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.pragmas.get(line)
        return rules is not None and (rule_id in rules or "*" in rules)


def _parse_pragmas(lines: Sequence[str]) -> Dict[int, Set[str]]:
    pragmas: Dict[int, Set[str]] = {}
    for index, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        if not rules:
            rules = {"*"}
        pragmas.setdefault(index, set()).update(rules)
        if text.lstrip().startswith("#"):
            # A standalone pragma comment covers the statement below it.
            pragmas.setdefault(index + 1, set()).update(rules)
    return pragmas


def decorator_name(node: ast.AST) -> str:
    """Dotted name of a decorator expression ("dataclass", "functools.wraps").

    Call decorators resolve to the name of the callable: both
    ``@dataclass`` and ``@dataclass(frozen=True)`` yield ``"dataclass"``.
    """
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class LintRule:
    """Base class for lint rules; register subclasses with ``@register_rule``.

    Subclasses declare:

    * ``id`` — stable kebab-case identifier (used in pragmas and reports),
    * ``description`` / ``hint`` — one-liners for reports and ``--list-rules``,
    * ``paths`` — fnmatch patterns (relative to the repo root, ``src/``
      stripped) selecting the files the rule applies to,
    * ``node_types`` — AST node classes ``visit`` wants to see.

    The walker calls :meth:`visit` for each matching node and
    :meth:`finish` once per file; both yield :class:`Finding` objects.
    """

    id: str = ""
    description: str = ""
    hint: str = ""
    paths: Tuple[str, ...] = ("*",)
    node_types: Tuple[type, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        return any(fnmatch(relpath, pattern) for pattern in self.paths)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finish(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.id,
            file=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )


# ---------------------------------------------------------------------- #
# The shared one-pass walker
# ---------------------------------------------------------------------- #
class _Walker:
    def __init__(self, ctx: FileContext, rules: Sequence[LintRule]) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._by_type: Dict[type, List[LintRule]] = {}
        self._rules = rules
        for lint_rule in rules:
            for node_type in lint_rule.node_types:
                self._by_type.setdefault(node_type, []).append(lint_rule)

    def run(self) -> List[Finding]:
        self._visit(self.ctx.tree)
        for lint_rule in self._rules:
            self._collect(lint_rule.finish(self.ctx))
        return self.findings

    def _collect(self, findings: Iterable[Finding]) -> None:
        ctx = self.ctx
        for found in findings:
            if not ctx.suppressed(found.rule, found.line):
                self.findings.append(found)

    def _visit(self, node: ast.AST) -> None:
        ctx = self.ctx
        is_function = isinstance(node, (*_FUNCTION_NODES, ast.Lambda))
        is_class = isinstance(node, ast.ClassDef)
        is_raise = isinstance(node, ast.Raise)
        if is_function:
            ctx.function_stack.append(node)
        if is_class:
            ctx.class_stack.append(node)
        if is_raise:
            ctx.raise_depth += 1
        interested = self._by_type.get(type(node))
        if interested:
            for lint_rule in interested:
                self._collect(lint_rule.visit(node, ctx))
        for child in ast.iter_child_nodes(node):
            ctx.parents[child] = node
            self._visit(child)
        if is_function:
            ctx.function_stack.pop()
        if is_class:
            ctx.class_stack.pop()
        if is_raise:
            ctx.raise_depth -= 1


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
def normalize_relpath(path: Path, root: Path) -> str:
    """Root-relative posix path with any leading ``src/`` stripped.

    Rule path patterns are written against the *import* layout
    (``repro/sim/engine.py``) so they match whether the tree is linted
    from a src-layout checkout or an installed package directory.
    """
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = Path(path.name)
    text = rel.as_posix()
    if text.startswith("src/"):
        text = text[len("src/"):]
    return text


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterator[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = iter((path,))
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen and candidate.suffix == ".py":
                seen.add(resolved)
                out.append(candidate)
    return out


def lint_files(files: Sequence[Path], root: Path,
               rules: Sequence[LintRule]) -> List[Finding]:
    """Lint ``files`` (paths resolved against ``root``) with ``rules``."""
    findings: List[Finding] = []
    for path in files:
        relpath = normalize_relpath(path, root)
        active = [r for r in rules if r.applies_to(relpath)]
        if not active:
            continue
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(
                f"{relpath}:{exc.lineno or 1}: cannot parse file: {exc.msg}"
            ) from exc
        ctx = FileContext(path, relpath, source, tree)
        findings.extend(_Walker(ctx, active).run())
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings


def lint_paths(paths: Sequence[Path], root: Optional[Path] = None,
               rules: Optional[Sequence[LintRule]] = None) -> List[Finding]:
    """Lint files/directories; the convenience wrapper most callers want."""
    from repro.analysis.registry import all_rules

    root = Path.cwd() if root is None else root
    active = list(all_rules().values()) if rules is None else list(rules)
    return lint_files(iter_python_files(paths), root, active)
