"""Stable content fingerprints used as result-cache keys.

A cache key must change whenever anything that can change a result changes:
the experiment identifier, the full :class:`~repro.common.config.SimConfig`
(every cycle cost lives there), the case parameters and the package version.
Keys are SHA-256 digests of a canonical JSON rendering (sorted keys, no
whitespace), so they are stable across processes, Python versions and dict
insertion orders — unlike :func:`hash`, which is salted per process.
The model sources are not part of the key: each cache entry records
their digest instead, and a lookup under another digest is a miss
(:mod:`repro.harness.cache.store`).

Anything that **cannot** change a result stays out of the key.  In
particular no host-side execution knob (``jobs`` / ``REPRO_JOBS`` process
fan-out, progress rendering, artifact archiving) is ever hashed, and the
simulated worker count is *canonicalised into the configuration* rather
than hashed separately: ``Runtime.build_soc`` rebuilds the SoC with
``config.with_cores(num_workers)``, so ``(8-core config, 4 workers)`` and
``(4-core config, 4 workers)`` describe the same simulation and must share
one cache entry.  Earlier releases hashed the raw worker count as an extra
key component, which forced spurious recomputation; :data:`CACHE_SCHEMA`
was bumped when the canonical form was introduced so stale entries are
simply never addressed again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Mapping, Optional, Sequence

import repro
from repro.common.config import SimConfig
from repro.common.errors import EvaluationError
from repro.eval.experiments import BenchmarkCase, canonical_runtime_selection

__all__ = [
    "CACHE_SCHEMA",
    "stable_hash",
    "config_fingerprint",
    "canonical_case_config",
    "case_cache_key",
    "experiment_cache_key",
]

#: Version of the cache-key schema.  Bumped whenever the composition of the
#: keys changes (v2: the simulated worker count is canonicalised into the
#: config fingerprint instead of being hashed as a separate component), so
#: entries written under an older schema are never addressed again.
CACHE_SCHEMA = 2


def _jsonable(value: object) -> object:
    """Canonical JSON form of ``value`` (raises for unsupported types)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonable(item)
                for name, item in sorted(dataclasses.asdict(value).items())}
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item)
                for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise EvaluationError(
        f"cannot fingerprint value of type {type(value).__name__}: {value!r}"
    )


def stable_hash(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``payload``."""
    text = json.dumps(_jsonable(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_fingerprint(config: SimConfig) -> dict:
    """Every result-affecting field of ``config`` as a plain dict."""
    return dataclasses.asdict(config)


def canonical_case_config(config: SimConfig,
                          num_workers: Optional[int] = None) -> SimConfig:
    """The configuration that actually determines a benchmark-case result.

    ``Runtime.build_soc`` replaces the machine's core count with the
    effective worker count, so a case result depends only on
    ``config.with_cores(workers)`` — not on the ``(config, num_workers)``
    pair.  Folding the worker count in here makes equivalent invocations
    address one cache entry.
    """
    workers = (num_workers if num_workers is not None
               else config.machine.num_cores)
    return config.with_cores(workers)


def case_cache_key(case: BenchmarkCase, config: SimConfig,
                   num_workers: Optional[int] = None,
                   version: Optional[str] = None,
                   runtimes: Optional[Sequence[str]] = None) -> str:
    """Cache key of one benchmark case execution.

    Case-level keys make overlapping sweeps share work: the quick sweep is
    a subset of the full one, Figures 8/10 plus the headline summary all
    reuse the Figure 9 case results, and the 8-core column of a scaling
    grid sweep addresses exactly the Figure 9 entries.  The worker count is
    canonicalised into the config (see :func:`canonical_case_config`); host
    execution knobs such as ``jobs`` are deliberately absent.

    ``runtimes`` is canonicalised through
    :func:`~repro.eval.experiments.canonical_runtime_selection` and only
    enters the key when the selection reaches outside the default case
    runtimes — a default-selection key is byte-identical to pre-registry
    releases, so existing caches stay 100%-hit.
    """
    payload = {
        "kind": "benchmark-case",
        "schema": CACHE_SCHEMA,
        "benchmark": case.benchmark,
        "label": case.label,
        "builder": case.builder,
        "params": case.params,
        "config": config_fingerprint(canonical_case_config(config,
                                                           num_workers)),
        "version": version if version is not None else repro.__version__,
    }
    selection = canonical_runtime_selection(runtimes)
    if selection is not None:
        payload["runtimes"] = list(selection)
    return stable_hash(payload)


def experiment_cache_key(experiment_id: str, config: SimConfig,
                         parameters: Optional[Mapping[str, object]] = None,
                         version: Optional[str] = None) -> str:
    """Cache key of a whole experiment invocation."""
    return stable_hash({
        "kind": "experiment",
        "schema": CACHE_SCHEMA,
        "experiment": experiment_id,
        "parameters": dict(parameters) if parameters else {},
        "config": config_fingerprint(config),
        "version": version if version is not None else repro.__version__,
    })

