"""``repro serve`` — the exploration engine as a network service.

The ROADMAP's north star is a system that answers the paper's question
— *which (architecture, technology, Vdd, Vth) point minimises total
power at a target frequency?* — for heavy query traffic, not just for
one in-process :class:`~repro.study.Study`.  This package is that door:
a stdlib-only HTTP/JSON front end over the same Study/Scenario/solver
surface, built from four layers:

``memcache``
    A thread-safe in-memory LRU tier (:class:`MemoryCache`) with
    hit/miss/eviction counters, stacked in front of the on-disk
    :class:`~repro.explore.cache.ResultCache` as a
    :class:`TieredCache`.  The engine and ``Study.run`` route every
    cached sweep through it (see :func:`as_cache`), so the CLI gets the
    warm tier for free.
``coalesce``
    Request coalescing (:class:`Coalescer`): N concurrent identical
    scenarios — same content hash the cache already computes — trigger
    exactly one engine run whose result fans out to all waiters.
``server``
    The threaded HTTP front end (:class:`ExplorationServer`): bounded
    worker concurrency, request/latency logging, structured JSON
    errors, results as JSON, NDJSON or one binary column file, and the
    ``/v1/*`` routes (``explore``, ``optimize``, ``solvers``,
    ``architectures``, ``healthz``, ``cache/stats``).
``client``
    :class:`ServiceClient` — a thin stdlib client whose
    :meth:`~ServiceClient.study` mirrors the :class:`~repro.study.Study`
    fluent API and returns the same :class:`~repro.study.ResultSet`,
    read from the binary column answer.

Quick start::

    repro serve --port 8731            # terminal 1

    from repro.service import ServiceClient          # terminal 2
    client = ServiceClient("http://127.0.0.1:8731")
    answer = (
        client.study("remote")
        .architectures({"name": "w16", "n_cells": 729, "activity": 0.2976,
                        "logical_depth": 17, "capacitance": 70e-15})
        .technologies("ULL", "LL", "HS")
        .frequencies(31.25e6)
        .run()
    )
    print(answer.best().describe())

The heavy layers (``server``/``client`` pull in the full Study stack)
load lazily via PEP 562 so the cache tier stays importable from the
engine without cycles.
"""

from __future__ import annotations

from .coalesce import Coalescer
from .memcache import MemoryCache, TieredCache, as_cache, default_memory_cache

__all__ = [
    "Coalescer",
    "ExplorationServer",
    "MemoryCache",
    "RemoteStudy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TieredCache",
    "as_cache",
    "default_memory_cache",
]

_LAZY = {
    "ExplorationServer": "server",
    "ServiceConfig": "server",
    "RemoteStudy": "client",
    "ServiceClient": "client",
    "ServiceError": "client",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
