"""Repo-specific static analysis: an AST-based invariant linter.

The reproduction's credibility rests on invariants nothing in the Python
language enforces: bit-identical simulation results, byte-stable cache
keys, entropy-free simulation code, and the hot-path coding rules that
keep the event loop fast.  This package makes those invariants
mechanical.  It is dependency-free (stdlib ``ast`` + ``tokenize`` only)
and lints the whole tree in one pass per file.

Entry points:

* ``repro lint`` — harness CLI subcommand,
* ``python -m repro.analysis`` — standalone module entry,
* :func:`lint_paths` / :func:`lint_files` — programmatic API.

Rules live in :mod:`repro.analysis.rules` and self-register through
:func:`repro.analysis.registry.register_rule`, mirroring the decorator
idiom of :mod:`repro.registry`.  Findings can be suppressed per line with
an explicitly-commented pragma::

    something_flagged()  # repro: lint-ignore[rule-id] -- why it is fine

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from repro.analysis.core import (
    Finding,
    LintRule,
    lint_files,
    lint_paths,
    iter_python_files,
)
from repro.analysis.registry import (
    all_rules,
    register_rule,
    rule,
    rule_ids,
)

__all__ = [
    "Finding",
    "LintRule",
    "all_rules",
    "iter_python_files",
    "lint_files",
    "lint_paths",
    "register_rule",
    "rule",
    "rule_ids",
]
