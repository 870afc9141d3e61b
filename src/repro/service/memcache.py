"""Tiered result caching: a thread-safe in-memory LRU over the disk cache.

The on-disk :class:`~repro.explore.cache.ResultCache` makes repeated
sweeps a file read; under serving traffic even that read (open, read
and decode a column file of up to megabytes per request) dominates the
response time.  :class:`MemoryCache` keeps the hottest payloads decoded
in memory behind a lock, :class:`TieredCache` stacks it in front of the
disk tier (memory hit → done; disk hit → promote; miss → evaluate,
write both), and :func:`as_cache` is the one place the engine and
``Study`` turn a user-supplied cache spec into that stack — so the CLI
and every in-process caller ride the warm tier too, not just the HTTP
service.

Payloads are stored by reference and must be treated as immutable by
consumers.  :meth:`TieredCache.put` keeps its own copy of a payload's
column arrays (string columns as ``Categorical`` codes, so no object
array is copied), and every :class:`~repro.explore.columnar.ResultTable`
rebuilt from a hit copies the numeric ones again and builds its own
object array of a string column when one is read, so writing into a
returned table never changes what later hits serve.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from .. import obs
from ..explore.cache import ResultCache

__all__ = [
    "DEFAULT_MEMORY_ENTRIES",
    "MEMORY_SIZE_ENV",
    "MemoryCache",
    "TieredCache",
    "as_cache",
    "default_memory_cache",
]

#: Default bound on the process-global memory tier.  Entries are whole
#: sweep payloads (potentially thousands of records each), so the bound
#: is deliberately modest; ``repro serve --cache-size`` and the env
#: override raise it for dedicated serving processes.
DEFAULT_MEMORY_ENTRIES = 64

#: Environment override for the global memory tier's entry bound.
MEMORY_SIZE_ENV = "REPRO_MEMCACHE_SIZE"


class MemoryCache:
    """Bounded, thread-safe LRU mapping cache key → payload dict.

    Mirrors the :class:`~repro.explore.cache.ResultCache` ``get``/``put``
    contract (None on miss, treat payloads as immutable) and counts
    hits, misses, puts and evictions so ``/v1/cache/stats`` and
    ``repro cache stats`` can show where requests are being served from.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    def get(self, key: str) -> Any | None:
        with self._lock:
            try:
                payload = self._entries[key]
            except KeyError:
                self._misses += 1
                payload = None
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        # Mirror into the global registry outside the LRU lock.
        if payload is None:
            obs.inc("cache.memory.misses")
        else:
            obs.inc("cache.memory.hits")
        return payload

    def put(self, key: str, payload: Any) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            self._puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        obs.inc("cache.memory.puts")
        if evicted:
            obs.inc("cache.memory.evictions", evicted)

    def drop(self, key: str) -> bool:
        """Forget one entry (used when a payload proves corrupt)."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> int:
        """Drop every entry (counters survive); returns the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "evictions": self._evictions,
            }


_GLOBAL_LOCK = threading.Lock()
_GLOBAL_MEMORY: MemoryCache | None = None


def default_memory_cache() -> MemoryCache:
    """The process-global memory tier (created on first use).

    Sized by ``$REPRO_MEMCACHE_SIZE`` (read once, at creation).  Shared
    by every :func:`as_cache` stack in the process, with keys namespaced
    per disk directory so two caches over different directories cannot
    serve each other's entries.
    """
    global _GLOBAL_MEMORY
    with _GLOBAL_LOCK:
        if _GLOBAL_MEMORY is None:
            try:
                size = int(os.environ.get(MEMORY_SIZE_ENV, ""))
            except ValueError:
                size = 0
            _GLOBAL_MEMORY = MemoryCache(max(size, 1) if size > 0 else DEFAULT_MEMORY_ENTRIES)
        return _GLOBAL_MEMORY


class TieredCache:
    """Memory LRU in front of the on-disk cache, one ``get``/``put``.

    Drop-in for :class:`~repro.explore.cache.ResultCache` where the
    engine and ``Study`` use it: ``get`` consults memory first and
    promotes disk hits, ``put`` writes through to both tiers and returns
    the disk path (so provenance like ``cache_path`` keeps pointing at
    an inspectable file).  ``path_for``/``entries``/``clear``/``prune``
    delegate to the disk tier; ``clear`` also drops this namespace's
    hold on the memory tier by clearing it outright.
    """

    def __init__(
        self,
        disk: ResultCache,
        memory: MemoryCache | None = None,
        namespace: str | None = None,
    ) -> None:
        self.disk = disk
        self.memory = memory if memory is not None else default_memory_cache()
        self.namespace = (
            namespace if namespace is not None else str(self.disk.directory)
        )

    @property
    def directory(self) -> Path:
        return self.disk.directory

    def _memory_key(self, key: str) -> str:
        return f"{self.namespace}\x00{key}"

    def path_for(self, key: str) -> Path:
        return self.disk.path_for(key)

    def get(self, key: str) -> dict | None:
        payload = self.memory.get(self._memory_key(key))
        if payload is not None:
            return payload
        payload = self.disk.get(key)
        if payload is not None:
            self.memory.put(self._memory_key(key), payload)
        return payload

    def put(self, key: str, payload: dict) -> Path:
        path = self.disk.put(key, payload)
        if "columns" in payload:
            # The caller keeps the table these arrays belong to.
            payload = {
                **payload,
                "columns": {
                    name: values.copy()
                    for name, values in payload["columns"].items()
                },
            }
        self.memory.put(self._memory_key(key), payload)
        return path

    def quarantine(self, key: str) -> bool:
        """Drop the key from memory and move the disk entry aside.

        Memory first: a semantically corrupt payload may already have
        been promoted, and quarantining only the file would keep serving
        it from the warm tier.
        """
        self.memory.drop(self._memory_key(key))
        return self.disk.quarantine(key)

    def entries(self) -> list[Path]:
        return self.disk.entries()

    def clear(self) -> int:
        self.memory.clear()
        return self.disk.clear()

    def prune(self, max_entries: int) -> int:
        return self.disk.prune(max_entries)

    def stats(self) -> dict[str, Any]:
        return {"memory": self.memory.stats(), "disk": self.disk.stats()}


def as_cache(
    cache: "TieredCache | ResultCache | str | Path | None",
    memory: MemoryCache | None = None,
) -> TieredCache:
    """Normalise a user-supplied cache spec to the two-tier stack.

    Accepts an existing :class:`TieredCache` (passed through), a bare
    :class:`ResultCache`, a directory, or None for the default disk
    location — the last three gain the (global, namespaced) memory tier.
    """
    if isinstance(cache, TieredCache):
        return cache
    if not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    return TieredCache(cache, memory=memory)
