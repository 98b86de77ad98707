"""JSON round-tripping of result records and an on-disk artifact store.

Every result type of the evaluation layer (:class:`RuntimeResult`,
:class:`BenchmarkRun`, :class:`HeadlineSummary`, the bound/overhead/resource
records) can be encoded to plain JSON-serialisable data and decoded back to
the original dataclasses.  Encoded values carry a ``__type__`` tag so that
nested structures — a :class:`BenchmarkRun` holds a dict of
:class:`RuntimeResult` — reconstruct exactly; tuples are tagged too, so
frozen dataclasses round-trip to equal (and equally hashable) values.

The :class:`ArtifactStore` persists encoded experiment outputs under a
directory, one JSON document per artifact, so sweeps can be archived and
re-loaded without re-simulating, and :func:`decode_cached` reads one
result back out of the result cache.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Type

from repro.api import StudyResult, StudySweep
from repro.common.errors import EvaluationError
from repro.eval.experiments import (
    BenchmarkCase,
    BenchmarkRun,
    BoundComparison,
    GranularityPoint,
    HeadlineSummary,
)
from repro.eval.mtt import MttBound
from repro.eval.overhead import OverheadMeasurement
from repro.eval.resources import ResourceEntry
from repro.eval.scaling import ScalingCurve, ScalingPoint
from repro.harness.cache import CacheStore
from repro.harness.executor import UnitFailure
from repro.runtime.base import RuntimeResult

__all__ = ["ARTIFACT_TYPES", "encode", "decode", "decode_cached",
           "ArtifactStore"]

#: Dataclasses the codec understands, keyed by their ``__type__`` tag.
ARTIFACT_TYPES: Dict[str, Type] = {
    cls.__name__: cls for cls in (
        RuntimeResult,
        BenchmarkCase,
        BenchmarkRun,
        BoundComparison,
        GranularityPoint,
        HeadlineSummary,
        MttBound,
        OverheadMeasurement,
        ResourceEntry,
        ScalingCurve,
        ScalingPoint,
        StudyResult,
        StudySweep,
        UnitFailure,
    )
}

_TYPE_TAG = "__type__"


def encode(value: object) -> object:
    """Encode ``value`` (results, containers, scalars) to JSON-able data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in ARTIFACT_TYPES:
            raise EvaluationError(f"cannot encode dataclass {name!r}")
        return {
            _TYPE_TAG: name,
            "fields": {
                spec.name: encode(getattr(value, spec.name))
                for spec in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TYPE_TAG: "tuple", "items": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise EvaluationError(
        f"cannot encode value of type {type(value).__name__}: {value!r}"
    )


def decode(data: object) -> object:
    """Inverse of :func:`encode`."""
    if isinstance(data, dict):
        tag = data.get(_TYPE_TAG)
        if tag == "tuple":
            return tuple(decode(item) for item in data["items"])
        if tag is not None:
            cls = ARTIFACT_TYPES.get(tag)
            if cls is None:
                raise EvaluationError(f"unknown artifact type {tag!r}")
            fields = {name: decode(item)
                      for name, item in data["fields"].items()}
            return cls(**fields)
        return {key: decode(item) for key, item in data.items()}
    if isinstance(data, list):
        return [decode(item) for item in data]
    return data


def decode_cached(cache: CacheStore, key: str,
                  expected: Type = object) -> Optional[object]:
    """The ``expected`` result cached under ``key``, or ``None`` on a miss.

    An entry that parses as JSON but does not decode into an ``expected``
    instance is corrupt from the caller's point of view: its hit is
    demoted to a miss (dropping the entry), so the caller recomputes it.
    """
    payload = cache.get(key)
    if payload is None:
        return None
    try:
        value = decode(payload)
        if isinstance(value, expected):
            return value
    except (EvaluationError, KeyError, TypeError, ValueError):
        pass
    cache.demote_hit(key)
    return None


class ArtifactStore:
    """Directory of named, JSON-encoded experiment outputs."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise EvaluationError(f"invalid artifact name {name!r}")
        return self.root / f"{name}.json"

    def save(self, name: str, value: object, **metadata: object) -> Path:
        """Persist ``value`` under ``name`` and return the file written."""
        path = self.path_for(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "artifact": name,
            "metadata": metadata,
            "payload": encode(value),
        }
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    def load(self, name: str) -> object:
        """Load and decode the artifact stored under ``name``."""
        path = self.path_for(name)
        if not path.is_file():
            raise EvaluationError(f"no artifact named {name!r} in {self.root}")
        document = json.loads(path.read_text(encoding="utf-8"))
        return decode(document["payload"])

    def metadata(self, name: str) -> dict:
        """The metadata recorded when ``name`` was saved."""
        path = self.path_for(name)
        if not path.is_file():
            raise EvaluationError(f"no artifact named {name!r} in {self.root}")
        document = json.loads(path.read_text(encoding="utf-8"))
        return dict(document.get("metadata", {}))

    def names(self) -> List[str]:
        """Every artifact name currently stored, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))
