"""Cache-spec parsing: one value picks the store.

``open_store`` is the one place the engine, the CLI and the Study API
turn a ``--cache-dir`` value into a :class:`CacheStore`:

=====================  ======================================================
``PATH``               a :class:`CacheStore` rooted at ``PATH`` (a string or
                       :class:`os.PathLike`)
a :class:`CacheStore`  passed through unchanged
=====================  ======================================================

Any lowercase ``word:`` prefix (a typo, or one of the removed ``mem``,
``dir``, ``sharded`` and ``tiered`` schemes) is an error rather than a
directory literally named ``dir:/x``.
"""

from __future__ import annotations

import os
import re

from repro.common.errors import EvaluationError
from repro.harness.cache.store import CacheStore

__all__ = ["open_store"]

#: A URL-style scheme prefix.  Two letters minimum, so a Windows drive
#: letter (``C:``) still reads as a path.
_SCHEME = re.compile(r"[a-z]{2,}:")

_ACCEPTED = "a directory path or a CacheStore"


def open_store(spec, tracer=None) -> CacheStore:
    """Open the cache store a spec describes.

    ``spec`` is a directory path (string or PathLike) or an
    already-constructed :class:`CacheStore` (passed through, adopting
    ``tracer`` if it has none — the injection seam tests use).
    """
    if isinstance(spec, CacheStore):
        if tracer is not None and spec.tracer is None:
            spec.tracer = tracer
        return spec
    if isinstance(spec, str):
        if not spec:
            raise EvaluationError("empty cache spec")
        if _SCHEME.match(spec):
            raise EvaluationError(
                f"unsupported cache spec {spec!r}: expected {_ACCEPTED}")
    elif not isinstance(spec, os.PathLike):
        raise EvaluationError(
            f"invalid cache spec {spec!r}: expected {_ACCEPTED}")
    return CacheStore(spec, tracer=tracer)
