"""Plugin registries for workloads and runtimes.

Both axes of the evaluation are drop-in plugins:

* :func:`register_workload` — decorate a case-builder function (keyword
  arguments → :class:`~repro.runtime.task.TaskProgram`) with a name, tags
  and default parameters.  A workload may also declare ``paper_cases``, a
  callable returning the :class:`CaseInput` list it contributes to the
  Figure 9 sweep.
* :func:`register_runtime` — decorate a :class:`~repro.runtime.base.Runtime`
  subclass with a name, tags and a ``rank`` fixing the paper's plotting
  order.

:data:`WORKLOADS` and :data:`RUNTIMES` are the one lookup and listing API:
``get(name)``, ``names(tags)`` and ``specs(tags)`` (:class:`Registry`).
Workloads list in registration order, runtimes in rank order, so
``RUNTIMES.names(("compared",))`` is the paper's plotting order of the
Figures 8/9/10 platforms.  :func:`workload` and :func:`runtime` are
shorthands for the two ``get`` methods.

``repro.apps.*`` and ``repro.runtime.*`` self-register on import; any
registry lookup triggers those imports lazily (:func:`_ensure_populated`),
so ``import repro.registry`` alone is enough to see every built-in entry.
Third-party code registers the same way — see ``examples/custom_workload.py``
and ``docs/extending.md``.

Name lookups never raise a bare :class:`KeyError`: unknown names raise
:class:`RegistryError` (an :class:`~repro.common.errors.EvaluationError`)
with a did-you-mean suggestion and the full list of registered names
(:func:`suggest`).
"""

from __future__ import annotations

import difflib
import hashlib
import importlib
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.common.errors import EvaluationError

__all__ = [
    "RegistryError",
    "CaseInput",
    "WorkloadSpec",
    "RuntimeSpec",
    "Registry",
    "WORKLOADS",
    "RUNTIMES",
    "register_workload",
    "register_runtime",
    "load_plugin",
    "plugin_file_of",
    "workload",
    "runtime",
    "scaled_size",
    "suggest",
]


class RegistryError(EvaluationError):
    """A registry was asked for an unknown name or given a duplicate one."""


def suggest(name: str, known: Sequence[str]) -> str:
    """A human-readable "did you mean …?" suffix for an unknown ``name``."""
    matches = difflib.get_close_matches(name, list(known), n=1, cutoff=0.5)
    hint = f" — did you mean {matches[0]!r}?" if matches else ""
    return f"{hint} (registered: {', '.join(sorted(known)) or 'none'})"


def scaled_size(value: int, scale: float, minimum: int = 1) -> int:
    """Scale a problem-size parameter, clamped to ``minimum``.

    Shared by every workload's ``paper_cases`` enumeration so reduced-scale
    sweeps shrink all benchmarks the same way.
    """
    return max(int(round(value * scale)), minimum)


@dataclass(frozen=True)
class CaseInput:
    """One benchmark input a workload contributes to the Figure 9 sweep.

    ``benchmark`` is the report/series name (may differ from the workload
    name: the two stream variants share one builder), ``label`` the x-axis
    label and ``params`` the builder keyword arguments.
    """

    benchmark: str
    label: str
    params: Mapping[str, object]


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry describing one workload (task-program builder).

    ``builder`` maps keyword arguments to a
    :class:`~repro.runtime.task.TaskProgram`; ``defaults`` are the keyword
    arguments a bare ``build()`` uses; ``paper_cases`` (optional) enumerates
    the benchmark inputs the workload contributes to sweeps, as
    ``paper_cases(quick=..., scale=...) -> List[CaseInput]``.
    """

    name: str
    builder: Callable
    tags: Tuple[str, ...] = ()
    defaults: Tuple[Tuple[str, object], ...] = ()
    description: str = ""
    paper_cases: Optional[Callable[..., List[CaseInput]]] = None

    def build(self, **params: object):
        """Build the workload's task program (defaults merged under params)."""
        merged = dict(self.defaults)
        merged.update(params)
        return self.builder(**merged)

    def cases(self, quick: bool = False, scale: float = 1.0) -> List[CaseInput]:
        """The benchmark inputs this workload contributes to a sweep.

        Workloads registered without ``paper_cases`` contribute one case
        built from their default parameters.
        """
        if self.paper_cases is not None:
            return list(self.paper_cases(quick=quick, scale=scale))
        return [CaseInput(self.name, "default", dict(self.defaults))]


@dataclass(frozen=True)
class RuntimeSpec:
    """Registry entry describing one runtime model.

    ``rank`` fixes presentation order (the paper plots serial, Nanos-SW,
    Nanos-RV, Phentos); registration order is deliberately irrelevant so
    plugin import order cannot reshuffle reports.  Tags give runtimes their
    roles: ``baseline`` (the serial reference), ``case`` (runs in every
    Figure 9 case), ``compared`` (plotted in Figures 8/9/10).
    """

    name: str
    cls: Type
    tags: Tuple[str, ...] = ()
    rank: int = 100
    description: str = ""

    def create(self, config=None):
        """Instantiate the runtime under ``config``."""
        return self.cls(config)


class Registry:
    """A name-keyed plugin registry with tag filtering.

    ``order`` is the sort key of :meth:`names` / :meth:`specs`; without
    one they list in registration order.
    """

    def __init__(self, kind: str,
                 order: Optional[Callable[[object], object]] = None) -> None:
        self.kind = kind
        self._order = order
        self._entries: Dict[str, object] = {}

    def add(self, spec) -> None:
        """Register ``spec``; duplicate names are rejected."""
        name = spec.name
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        existing = self._entries.get(name)
        if existing is not None and existing != spec:
            raise RegistryError(
                f"duplicate {self.kind} name {name!r}: already registered "
                f"as {existing!r}"
            )
        self._entries[name] = spec

    def remove(self, name: str) -> None:
        """Drop ``name`` (for tests and plugin teardown); unknown is a no-op."""
        self._entries.pop(name, None)

    def get(self, name: str):
        """The spec registered under ``name`` (did-you-mean on unknown)."""
        _ensure_populated()
        spec = self._entries.get(name)
        if spec is None:
            raise RegistryError(
                f"unknown {self.kind} {name!r}"
                f"{suggest(name, list(self._entries))}"
            )
        return spec

    def names(self, tags: Optional[Sequence[str]] = None) -> List[str]:
        """Registered names in listing order, optionally tag-filtered."""
        return [spec.name for spec in self.specs(tags)]

    def specs(self, tags: Optional[Sequence[str]] = None) -> List[object]:
        """Registered specs in listing order, optionally tag-filtered.

        ``tags`` selects specs carrying *every* listed tag.
        """
        _ensure_populated()
        selected = list(self._entries.values())
        if tags:
            wanted = set(tags)
            selected = [spec for spec in selected
                        if wanted.issubset(set(spec.tags))]
        if self._order is not None:
            selected.sort(key=self._order)
        return selected

    def __contains__(self, name: object) -> bool:
        _ensure_populated()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        _ensure_populated()
        return len(self._entries)


#: The global workload registry (``repro.apps.*`` self-register on import).
WORKLOADS = Registry("workload")

#: The global runtime registry (``repro.runtime.*`` self-register on import),
#: listed in rank order: the paper's plotting order.
RUNTIMES = Registry("runtime", order=lambda spec: spec.rank)

_populated = False


def _ensure_populated() -> None:
    """Import the built-in workload/runtime packages exactly once.

    Registration happens as a side effect of importing ``repro.apps`` and
    ``repro.runtime``, so a bare ``import repro.registry`` followed by any
    lookup sees every built-in entry without eager imports at module load.
    """
    global _populated
    if _populated:
        return
    _populated = True  # set first: the imports below re-enter via decorators
    import repro.apps  # noqa: F401  (self-registration side effect)
    import repro.runtime  # noqa: F401  (self-registration side effect)


def register_workload(
    name: str,
    tags: Sequence[str] = (),
    defaults: Optional[Mapping[str, object]] = None,
    description: str = "",
    paper_cases: Optional[Callable[..., List[CaseInput]]] = None,
) -> Callable:
    """Decorator registering a case-builder function as a workload.

    The builder takes keyword arguments and returns a
    :class:`~repro.runtime.task.TaskProgram`.  ``name`` becomes the
    :attr:`BenchmarkCase.builder <repro.eval.experiments.BenchmarkCase>`
    key, so it is part of every case cache fingerprint — rename a workload
    and its cached results are (correctly) never addressed again.
    """
    def decorate(builder: Callable) -> Callable:
        WORKLOADS.add(WorkloadSpec(
            name=name,
            builder=builder,
            tags=tuple(tags),
            defaults=tuple(sorted((defaults or {}).items())),
            description=description or (builder.__doc__ or "").strip()
                .split("\n")[0],
            paper_cases=paper_cases,
        ))
        return builder
    return decorate


def register_runtime(
    name: str,
    tags: Sequence[str] = (),
    rank: int = 100,
    description: str = "",
) -> Callable:
    """Decorator registering a :class:`Runtime` subclass under ``name``."""
    def decorate(cls: Type) -> Type:
        RUNTIMES.add(RuntimeSpec(
            name=name,
            cls=cls,
            tags=tuple(tags),
            rank=rank,
            description=description or (cls.__doc__ or "").strip()
                .split("\n")[0],
        ))
        return cls
    return decorate


#: Module-name prefix of plugins loaded from a ``.py`` file path.  Such
#: synthetic modules are not importable by name in another process, so the
#: parallel runner ships their *file path* to workers instead of a pickled
#: reference (see :func:`plugin_file_of`).
PLUGIN_MODULE_PREFIX = "repro_plugin_"


def load_plugin(spec: str) -> None:
    """Import one plugin: a dotted module name, or a path to a ``.py`` file.

    File plugins load under a stable synthetic module name
    (:data:`PLUGIN_MODULE_PREFIX` + a digest of the absolute path), so
    loading the same file twice — CLI flag and environment both naming
    it, or a pool worker re-loading what its parent loaded — is a no-op
    rather than a duplicate registration.  Failures raise
    :class:`RegistryError` naming the plugin.
    """
    if spec.endswith(".py") or os.sep in spec:
        path = os.path.abspath(spec)
        module_name = (PLUGIN_MODULE_PREFIX
                       + hashlib.sha256(path.encode()).hexdigest()[:12])
        if module_name in sys.modules:
            return
        module_spec = importlib.util.spec_from_file_location(module_name,
                                                             path)
        if module_spec is None or module_spec.loader is None:
            raise RegistryError(f"cannot load plugin file {spec!r}")
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[module_name] = module
        try:
            module_spec.loader.exec_module(module)
        except Exception as exc:
            del sys.modules[module_name]
            raise RegistryError(
                f"plugin file {spec!r} failed to import: {exc}") from exc
    else:
        try:
            importlib.import_module(spec)
        except Exception as exc:
            raise RegistryError(
                f"plugin module {spec!r} failed to import: {exc}") from exc


def plugin_file_of(obj: object) -> Optional[str]:
    """The source file of a file-loaded plugin object, else ``None``.

    Returns the ``.py`` path when ``obj`` was defined in a module loaded
    through :func:`load_plugin`'s file path branch — the form a pool
    worker must re-load by path, because the synthetic module name cannot
    be imported in another process.  ``None`` for objects from normally
    importable modules (which pickle by reference just fine).
    """
    module_name = getattr(obj, "__module__", "") or ""
    if not module_name.startswith(PLUGIN_MODULE_PREFIX):
        return None
    module = sys.modules.get(module_name)
    return getattr(module, "__file__", None)


#: Look up one spec by name (did-you-mean on unknown).
workload = WORKLOADS.get
runtime = RUNTIMES.get
