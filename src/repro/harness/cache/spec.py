"""Cache-spec parsing: one value picks the store.

``open_store`` is the single composition point every consumer goes
through (engine, CLI, Study API); nothing outside this package names a
concrete backend class.

Accepted specs:

=====================  ======================================================
``PATH``               :class:`ShardedDiskStore` rooted at ``PATH`` (a
                       string or :class:`os.PathLike`)
``mem:``               in-process :class:`MemoryStore` (tests, dry runs)
a :class:`CacheStore`  passed through unchanged
=====================  ======================================================

Any other lowercase ``word:`` prefix (a typo, or one of the removed
``dir``, ``sharded`` and ``tiered`` schemes) is an error rather than a
directory literally named ``dir:/x``.

A size budget (``--cache-budget`` / ``$REPRO_CACHE_BUDGET``) attaches an
LRU eviction policy to the opened store.
"""

from __future__ import annotations

import os
import re
from typing import Optional, Union

from repro.common.errors import EvaluationError
from repro.harness.cache.memory import MemoryStore
from repro.harness.cache.policy import LruEviction, NoEviction, parse_budget
from repro.harness.cache.sharded import ShardedDiskStore
from repro.harness.cache.store import CacheStore

__all__ = ["CACHE_BUDGET_ENV", "open_store", "resolve_budget"]

#: Environment fallback for ``--cache-budget``.
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"

#: A URL-style scheme prefix.  Two letters minimum, so a Windows drive
#: letter (``C:``) still reads as a path.
_SCHEME = re.compile(r"[a-z]{2,}:")

_ACCEPTED = "a directory path, 'mem:' or a CacheStore"


def resolve_budget(budget: Union[int, str, None]) -> Optional[int]:
    """The effective byte budget: explicit value, else the environment."""
    if budget is None:
        budget = os.environ.get(CACHE_BUDGET_ENV)
    return parse_budget(budget)


def open_store(spec, tracer=None,
               budget: Union[int, str, None] = None) -> CacheStore:
    """Open the cache store a spec describes.

    ``spec`` is a directory path (string or PathLike), ``"mem:"``, or an
    already-constructed :class:`CacheStore` (passed through, adopting
    ``tracer`` if it has none — the injection seam tests use).
    ``budget`` accepts an int, a ``512M``-style string, or None to
    consult ``$REPRO_CACHE_BUDGET``.
    """
    if isinstance(spec, CacheStore):
        if tracer is not None and spec.tracer is None:
            spec.tracer = tracer
        return spec

    budget_bytes = resolve_budget(budget)
    policy = (LruEviction(budget_bytes) if budget_bytes is not None
              else NoEviction())

    if isinstance(spec, os.PathLike):
        return ShardedDiskStore(spec, tracer=tracer, policy=policy)
    if not isinstance(spec, str):
        raise EvaluationError(
            f"invalid cache spec {spec!r}: expected {_ACCEPTED}")
    if not spec:
        raise EvaluationError("empty cache spec")
    if spec == "mem:":
        return MemoryStore(tracer=tracer, policy=policy)
    if _SCHEME.match(spec):
        raise EvaluationError(
            f"unsupported cache spec {spec!r}: expected {_ACCEPTED}")
    return ShardedDiskStore(spec, tracer=tracer, policy=policy)
