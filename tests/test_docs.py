"""Documentation health checks: link integrity and import smoke.

These back the CI docs job: every relative link in ``docs/`` and the
README must resolve to a real file, and every ``repro.*`` module must be
importable (the same property ``python -m pydoc`` relies on).
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target); images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


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
                     "hashing", "runner", "sweep", "telemetry")
    ]
    for module in modules:
        assert module.__doc__, f"{module.__name__} lacks a module docstring"
    for name in harness.__all__:
        obj = getattr(harness, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"repro.harness.{name} lacks a docstring"
