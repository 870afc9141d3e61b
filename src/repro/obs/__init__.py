"""``repro.obs`` — the dependency-free telemetry layer.

One facade over three pieces:

* a process-global **metrics registry** (:mod:`.metrics`) of thread-safe
  counters, gauges and fixed-bucket histograms, feeding
  ``GET /v1/metrics`` (Prometheus text + JSON) and ``repro cache``;
* a **span tracer** (:mod:`.spans`) of nestable context-manager spans
  with wall/CPU time and labels, feeding ``repro explore --profile``;
* the **exporters** (:mod:`.export`) that render both.

The facade is the zero-overhead switch.  Telemetry is *off* by default:
:func:`inc`, :func:`observe` and :func:`set_gauge` check one module
global and return, and :func:`span` hands out a shared no-op span when
no tracer is installed on the current thread.  It turns on via

* the environment: ``REPRO_TELEMETRY=1`` (read once at import),
* :func:`enable` (what ``repro explore --profile`` and the service's
  default config call),
* or any code that installs its own registry/tracer.

Instrumented modules never import the registry directly — they call the
module-level helpers, so the enabled/disabled decision stays in exactly
one place::

    from .. import obs

    obs.inc("cache.memory.hits")
    with obs.span("engine.kernel", technology=tech.name):
        ...

Instrument naming: dotted lowercase names (``engine.points_evaluated``,
``cache.disk.misses``), with dimensions as labels rather than name
fragments (``http.requests`` labelled by ``route`` and ``status``,
``solver.calls`` labelled by ``solver``).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from .context import (
    TRACEPARENT_HEADER,
    TraceContext,
    activate,
    clear_context,
    current_context,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    set_context,
)
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_text,
    render_phases,
    render_span_tree,
    render_trace,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import NULL_SPAN, Span, SpanTracer
from .trace_store import DEFAULT_TRACE_CAPACITY, TraceStore, assemble_tree

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_TRACE_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROMETHEUS_CONTENT_TYPE",
    "PhaseTimer",
    "Span",
    "SpanTracer",
    "TELEMETRY_ENV",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "TraceStore",
    "activate",
    "active_timer",
    "adopt",
    "assemble_tree",
    "clear_context",
    "counter_total",
    "current_context",
    "current_tracer",
    "disable",
    "enable",
    "get_registry",
    "inc",
    "install_tracer",
    "is_enabled",
    "mint_span_id",
    "mint_trace_id",
    "observe",
    "parse_traceparent",
    "prometheus_text",
    "render_phases",
    "render_span_tree",
    "render_trace",
    "set_context",
    "set_gauge",
    "snapshot",
    "span",
    "uninstall_tracer",
]

#: Environment switch: any of 1/true/yes/on (case-insensitive) enables
#: the metrics registry for the whole process at import time.
TELEMETRY_ENV = "REPRO_TELEMETRY"

_TRUTHY = ("1", "true", "yes", "on")


def _env_enabled(environ: "os._Environ[str] | dict[str, str]" = os.environ) -> bool:
    return environ.get(TELEMETRY_ENV, "").strip().lower() in _TRUTHY


# The enabled/disabled switch IS this global: None means every metric
# helper returns immediately.  Guarded by a lock only on state changes;
# hot-path reads are a single global load.
_registry: MetricsRegistry | None = None
_state_lock = threading.Lock()

# Tracers install per-thread (a server request must not interleave its
# spans with another thread's), with an optional process-wide default
# (the CLI's --profile covers engine work on worker threads too).
_active_tracer = threading.local()
_default_tracer: SpanTracer | None = None


# ---------------------------------------------------------------------------
# Metrics facade.
# ---------------------------------------------------------------------------


def is_enabled() -> bool:
    """True when the process-global metrics registry is live."""
    return _registry is not None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn the metrics registry on (idempotent); returns the live one.

    Passing ``registry`` installs that instance (tests, embedders);
    otherwise the existing registry is kept, or a fresh one created.
    Counters survive repeated ``enable()`` calls on purpose — the
    service and a ``--profile`` run in one process share one registry.
    """
    global _registry
    with _state_lock:
        if registry is not None:
            _registry = registry
        elif _registry is None:
            _registry = MetricsRegistry()
        return _registry


def disable() -> None:
    """Turn metrics off; helpers become no-ops again."""
    global _registry
    with _state_lock:
        _registry = None


def get_registry() -> MetricsRegistry | None:
    """The live registry, or None when telemetry is disabled."""
    return _registry


def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment counter ``name`` (no-op while telemetry is disabled)."""
    registry = _registry
    if registry is not None:
        registry.inc(name, amount, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    registry = _registry
    if registry is not None:
        registry.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set gauge ``name`` (no-op while telemetry is disabled)."""
    registry = _registry
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def snapshot() -> dict[str, Any]:
    """JSON-ready registry view, with the enabled flag included."""
    registry = _registry
    payload: dict[str, Any] = {"enabled": registry is not None}
    if registry is not None:
        payload.update(registry.snapshot())
    else:
        payload.update({"counters": {}, "gauges": {}, "histograms": {}})
    return payload


def counter_total(name: str) -> float:
    """Sum of counter ``name`` across every label set (0.0 when off).

    Snapshot keys are ``name`` for the unlabelled series and
    ``name{label=value,...}`` for labelled ones; both count.  The chaos
    suite uses this to assert "some fault fired" without caring which
    site label it landed under.
    """
    counters = snapshot()["counters"]
    prefix = name + "{"
    return float(
        sum(
            value
            for key, value in counters.items()
            if key == name or key.startswith(prefix)
        )
    )


# ---------------------------------------------------------------------------
# Span facade.
# ---------------------------------------------------------------------------


def install_tracer(tracer: SpanTracer, default: bool = False) -> SpanTracer:
    """Make ``tracer`` receive this thread's spans (and return it).

    ``default=True`` additionally makes it the process-wide fallback for
    threads that never installed their own — the CLI profile uses this
    so spans from engine worker threads land in the same tree.
    """
    global _default_tracer
    _active_tracer.tracer = tracer
    if default:
        with _state_lock:
            _default_tracer = tracer
    return tracer


def uninstall_tracer() -> None:
    """Detach this thread's tracer (and the process default, if it is it)."""
    global _default_tracer
    tracer = getattr(_active_tracer, "tracer", None)
    _active_tracer.tracer = None
    with _state_lock:
        if _default_tracer is tracer:
            _default_tracer = None


def current_tracer() -> SpanTracer | None:
    """This thread's tracer, falling back to the process default."""
    tracer = getattr(_active_tracer, "tracer", None)
    return tracer if tracer is not None else _default_tracer


def span(name: str, **labels: Any) -> "Span | Any":
    """A context-manager span on the active tracer (no-op without one)."""
    tracer = current_tracer()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **labels)


@contextmanager
def adopt(
    tracer: SpanTracer | None,
    context: TraceContext | None = None,
) -> Iterator[None]:
    """Run a block with another thread's tracer + trace context adopted.

    The cross-thread propagation primitive: a worker thread (a job's
    shard worker, the job dispatcher) adopts the tracer and the
    :class:`TraceContext` captured where the work was *submitted*, so
    its spans mint into the same tree and parent under the submitting
    span instead of orphaning per-thread.  ``None`` for either argument
    means "inherit whatever this thread already has"; both are restored
    on exit, so pooled threads never leak one job's identity into the
    next.
    """
    previous_tracer = getattr(_active_tracer, "tracer", None)
    previous_context = current_context()
    if tracer is not None:
        _active_tracer.tracer = tracer
    if context is not None:
        set_context(context)
    try:
        yield
    finally:
        _active_tracer.tracer = previous_tracer
        set_context(previous_context)


# ---------------------------------------------------------------------------
# Phase timing (the engine's span + stats carrier).
# ---------------------------------------------------------------------------


_active_timer = threading.local()


class PhaseTimer:
    """Accumulate named phase durations and mirror each one as a span.

    The engine's instrumentation primitive: ``with timer.phase("kernel")``
    always records wall seconds into :attr:`phases` (a handful of
    ``perf_counter`` calls per *sweep*, so the disabled-telemetry cost
    is nanoseconds), and additionally opens ``<prefix>.<name>`` on the
    active span tracer when one is installed.  Re-entering a phase name
    accumulates, so chunked or retried work sums naturally.

    Phases nest: code running inside a phase reaches its timer through
    :func:`active_timer`, and a phase opened there keeps its own time
    while the enclosing phase keeps only the rest, so the phases of one
    timer still sum to the wall time they cover.
    """

    __slots__ = ("prefix", "phases", "_inner")

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.phases: dict[str, float] = {}
        self._inner = 0.0

    @contextmanager
    def phase(self, name: str, **labels: Any) -> Iterator[None]:
        span_name = f"{self.prefix}.{name}" if self.prefix else name
        outer_inner, self._inner = self._inner, 0.0
        outer_timer = getattr(_active_timer, "timer", None)
        _active_timer.timer = self
        started = time.perf_counter()
        try:
            with span(span_name, **labels):
                yield
        finally:
            elapsed = time.perf_counter() - started
            _active_timer.timer = outer_timer
            self.phases[name] = (
                self.phases.get(name, 0.0) + elapsed - self._inner
            )
            self._inner = outer_inner + elapsed

    def total(self) -> float:
        return sum(self.phases.values())


def active_timer(prefix: str = "") -> PhaseTimer:
    """The timer with a phase open on this thread, else a fresh one."""
    timer = getattr(_active_timer, "timer", None)
    return timer if timer is not None else PhaseTimer(prefix)


# Honour the environment switch once, at import.
if _env_enabled():  # pragma: no cover - exercised via subprocess tests
    enable()
