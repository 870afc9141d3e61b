"""Which program calls the traced run times, and what it counts there.

Span names are the layer names of the per-layer metrics, without the
unit suffix: the span ``vectorized.kernel`` gives
``vectorized.kernel_ms``.  Each wrapper sits on the name the caller
looks up at call time (the engine imports ``expand_columns`` and
``closed_form_batch`` by name, so those are wrapped in the engine's
namespace).
"""

from __future__ import annotations

import os
import urllib.request

import numpy as np

from tracer import Tracer, wrap


def _file_bytes(path) -> float:
    try:
        return float(os.path.getsize(path))
    except OSError:
        return 0.0


def _kernel_counts(args, batch) -> dict[str, float]:
    trusted = np.count_nonzero(batch.feasible & ~batch.needs_fallback)
    return {"kernel.points": batch.size, "kernel.trusted": int(trusted)}


def _fallback_counts(args, solution) -> dict[str, float]:
    return {
        "fallback.points": solution.size,
        "fallback.infeasible": int(np.count_nonzero(~solution.feasible)),
    }


def install(tracer: Tracer, server: bool = False, client: bool = False) -> None:
    """Wrap the engine, cache and job-store layers (and server or client)."""
    from repro.explore import cache, columnar, engine
    from repro.jobs.store import JobStore
    from repro.service.memcache import MemoryCache, TieredCache
    from repro.solvers import batch_numerical

    wrap(tracer, engine, "expand_columns", "columnar.expand")
    wrap(tracer, engine, "closed_form_batch", "vectorized.kernel", _kernel_counts)
    wrap(
        tracer,
        batch_numerical,
        "solve_batch",
        "batch_numerical.fallback",
        _fallback_counts,
    )
    wrap(tracer, engine.EvaluationStats, "from_table", "engine.analysis")
    wrap(tracer, columnar.ResultTable, "to_payload_columns", "columnar.encode")
    wrap(tracer, columnar.ResultTable, "from_cache_payload", "columnar.decode")
    wrap(
        tracer,
        cache.ResultCache,
        "put",
        "cache.write",
        lambda args, path: {
            "cache.write_calls": 1,
            "cache.write_bytes": _file_bytes(path),
        },
    )
    wrap(tracer, TieredCache, "get", "cache.read", lambda a, r: {"cache.gets": 1})
    wrap(
        tracer,
        MemoryCache,
        "get",
        None,
        lambda args, payload: {"memcache.hits": int(payload is not None)},
    )
    wrap(
        tracer,
        JobStore,
        "write_result",
        "store.persist",
        lambda args, path: {"store.persist_bytes": _file_bytes(path)},
    )
    wrap(tracer, JobStore, "read_result", "store.read")
    for attr in ("transition", "update_progress", "add_event"):
        wrap(
            tracer,
            JobStore,
            attr,
            "store.save",
            lambda a, r: {"store.record_saves": 1},
        )

    if server:
        from repro.service import server as service

        wrap(tracer, service, "parse_explore_request", "server.parse")
        wrap(tracer, service.ServiceState, "run_scenario", "server.handle")
        wrap(
            tracer,
            service,
            "ndjson_lines",
            "server.encode",
            lambda args, chunk: {"server.response_bytes": len(chunk) + 1},
            generator="each",
        )

    if client:
        from repro.service import client as service_client

        # Send -> response headers; server spans inside it are subtracted.
        wrap(tracer, urllib.request, "urlopen", "client.http")
        # NDJSON read + parse, ResultSet build; the server's encode time
        # (the client waits for it while reading) is subtracted.
        wrap(
            tracer, service_client, "_iter_ndjson", "client.decode",
            generator="whole",
        )
        wrap(tracer, service_client, "_split_ndjson", "client.decode")
        wrap(tracer, service_client, "_resultset_from_payload", "client.decode")
