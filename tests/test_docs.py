"""Documentation health checks: link integrity, references and imports.

These back the CI docs job: every relative link in ``docs/`` and the
README must resolve to a real file, every ``python -m repro SUB`` command
they show must name a real subcommand, every dotted ``repro.a.b``
reference must resolve to a module or attribute, and every ``repro.*``
module must be importable (the same property ``python -m pydoc`` relies
on).
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target); images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: ``python -m repro SUB`` / ``$ repro SUB`` command lines.
_CLI_COMMAND = re.compile(r"(?:python -m repro|\$ repro)\s+([a-z][\w-]*)")

#: Dotted references to a module or attribute, e.g. ``repro.api.Study``
#: (file paths such as ``src/repro/api.py`` do not match).
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _markdown_files():
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    assert docs, "docs/ must contain markdown files"
    return [REPO_ROOT / "README.md"] + docs


def _relative_links(path: Path):
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("markdown", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_markdown_links_resolve(markdown):
    for target in _relative_links(markdown):
        if not target:
            continue  # pure intra-document anchor
        resolved = (markdown.parent / target).resolve()
        assert resolved.exists(), (
            f"{markdown.relative_to(REPO_ROOT)} links to missing {target!r}"
        )


def _cli_subcommands():
    from repro.harness.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("build_parser() defines no subcommands")


@pytest.mark.parametrize("markdown", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_documented_cli_subcommands_exist(markdown):
    known = _cli_subcommands()
    text = markdown.read_text(encoding="utf-8")
    unknown = sorted({name for name in _CLI_COMMAND.findall(text)
                      if name not in known})
    assert not unknown, (
        f"{markdown.relative_to(REPO_ROOT)} shows unknown repro "
        f"subcommand(s) {unknown}; the CLI accepts {sorted(known)}"
    )


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or an attribute of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("markdown", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_documented_dotted_references_resolve(markdown):
    text = markdown.read_text(encoding="utf-8")
    missing = sorted({ref for ref in _DOTTED.findall(text)
                      if not _resolves(ref)})
    assert not missing, (
        f"{markdown.relative_to(REPO_ROOT)} references {missing}, which "
        f"resolve to no module or attribute"
    )


def test_docs_expected_pages_exist():
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "reproducing.md").is_file()


def _all_repro_modules():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _all_repro_modules())
def test_every_module_imports(module_name):
    importlib.import_module(module_name)


def test_public_harness_api_is_documented():
    """Every public name and module of the harness carries a docstring."""
    import inspect

    import repro.harness as harness

    modules = [
        importlib.import_module(f"repro.harness.{name}")
        for name in ("artifacts", "cache", "cli", "engine", "executor",
                     "hashing", "runner", "telemetry")
    ]
    for module in modules:
        assert module.__doc__, f"{module.__name__} lacks a module docstring"
    for name in harness.__all__:
        obj = getattr(harness, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"repro.harness.{name} lacks a docstring"
