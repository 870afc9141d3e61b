"""The threaded HTTP/JSON front end over the Study/solver surface.

Pure standard library: :class:`ExplorationServer` is a
``ThreadingHTTPServer`` whose handler parses ``/v1/*`` routes, maps
user mistakes to structured 4xx JSON bodies and everything unexpected
to a 5xx, and logs one line per request with latency and provenance
(cache hit / coalesced).  Heavy work is bounded by a worker semaphore
(``--workers``) and deduplicated by the :class:`~.coalesce.Coalescer`,
then served through the tiered cache — so k identical concurrent
sweeps cost one engine run, and warm repeats cost a memory lookup.

Routes
------
``GET  /v1/healthz``       liveness + version + counters
``GET  /v1/solvers``       registered solvers / architectures / transforms
``GET  /v1/architectures`` generatable Table 1 architecture names
``GET  /v1/catalog``       the full model catalog (all five namespaces,
                           provenance included — pack entries show here)
``GET  /v1/cache/stats``   both cache tiers + coalescer counters
``GET  /v1/metrics``       telemetry registry: Prometheus text (default)
                           or JSON (``?format=json``)
``GET  /v1/traces``        recent request traces, newest first (filter by
                           ``route=``, ``min_ms=``, ``error=1``, ``limit=``)
``GET  /v1/traces/{id}``   one trace in full: the assembled span tree,
                           async job spans stitched under the request
``POST /v1/explore``       Scenario JSON in → records out (JSON, NDJSON or
                           binary columns, see below)
``POST /v1/optimize``      one (architecture, technology, frequency) solve
``POST /v1/jobs``          submit a sweep as an async sharded job (202)
``GET  /v1/jobs``          list all jobs, newest first
``GET  /v1/jobs/{id}``     one job's state + progress counters
``GET  /v1/jobs/{id}/result``  the merged result, in the same three formats
``GET  /v1/jobs/{id}/events``  NDJSON progress stream, follows to terminal
``DELETE /v1/jobs/{id}``   cancel (immediate when queued, at the next
                           shard boundary when running)

The two result routes answer JSON by default.  ``?stream=1`` or
``Accept: application/x-ndjson`` streams NDJSON: one header line, one
line per record.  ``Accept: application/x-repro-columns`` answers the
result payload (:meth:`~repro.study.ResultSet.to_payload`) as one
:mod:`~repro.explore.colfile` column file, which is what
:class:`~.client.ServiceClient` asks for.

Every response carries an ``X-Request-Id`` header (the client's, when
it sent a well-formed one; minted otherwise); the same id appears in
the structured JSON access log line and in error bodies, so one grep
connects a client-side failure to the server-side record.

Distributed tracing rides the same path: a ``traceparent`` request
header (W3C shape, as :class:`~repro.obs.context.TraceContext` formats
it) is adopted, otherwise a trace is minted; with no ``X-Request-Id``
the request id defaults to the trace id's first 16 hex digits, so the
two correlate by prefix.  Each traced request's span tree — and, for
``POST /v1/jobs``, the async job's spans arriving later from the worker
threads — lands in the in-memory :class:`~repro.obs.trace_store.
TraceStore` served by ``/v1/traces``; the trace id is echoed on every
response as ``X-Trace-Id``.  Requests slower than
``slow_request_seconds`` additionally emit one structured
``slow_request`` warning line with the trace id.

``/v1/explore`` and ``/v1/optimize`` accept bare catalog names (builtin
or plugin-pack) anywhere a scenario accepts an architecture/technology
object; an unknown name comes back as a structured 400 with the
catalog's did-you-mean message.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import parse_qs, urlsplit

from .. import __version__, obs
from ..resilience import (
    DEADLINE_HEADER,
    AdmissionController,
    AdmissionRejected,
    Deadline,
    DeadlineExceeded,
    FAULTS_ENV,
    FaultPlan,
    active_deadline,
    faults,
    install_faults,
    uninstall_faults,
)
from ..explore import colfile
from ..explore.engine import flight_key
from ..explore.scenario import FrequencyGrid, Scenario
from ..jobs import (
    JobCancelled,
    JobManager,
    JobNotFound,
    JobStateError,
    JobStore,
    default_jobs_dir,
)
from ..listing import architecture_names, catalog_payload, listing_payload
from ..solvers import SolverError, get_solver
from ..study import ResultSet, Study
from .coalesce import Coalescer
from .memcache import (
    DEFAULT_MEMORY_ENTRIES,
    MemoryCache,
    TieredCache,
    as_cache,
)

__all__ = [
    "COLUMNS_CONTENT_TYPE",
    "DEFAULT_MAX_BODY",
    "ExplorationServer",
    "NDJSON_CONTENT_TYPE",
    "ServiceConfig",
    "ServiceError",
    "ServiceState",
]

logger = logging.getLogger("repro.service")

#: Largest accepted request body (a scenario JSON), in bytes.
DEFAULT_MAX_BODY = 1 << 20

NDJSON_CONTENT_TYPE = "application/x-ndjson"
JSON_CONTENT_TYPE = "application/json"
#: A result payload as one :mod:`~repro.explore.colfile` column file.
COLUMNS_CONTENT_TYPE = "application/x-repro-columns"


class ServiceError(Exception):
    """A request failure with an HTTP status and a machine-readable type.

    ``retry_after`` (seconds) becomes a ``Retry-After`` response header
    — shed/overload errors carry it so clients back off intelligently.
    ``details`` is an optional structured payload (partial progress on a
    504, shed reason on a 429/503).
    """

    def __init__(
        self,
        status: int,
        kind: str,
        message: str,
        retry_after: float | None = None,
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after = retry_after
        self.details = details

    def to_payload(self) -> dict[str, Any]:
        error: dict[str, Any] = {
            "status": self.status,
            "type": self.kind,
            "message": str(self),
        }
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        if self.details:
            error["details"] = self.details
        return {"error": error}


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one server instance (mirrors the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8731
    workers: int = 4
    max_body: int = DEFAULT_MAX_BODY
    cache_dir: str | None = None
    cache_size: int = DEFAULT_MEMORY_ENTRIES
    use_cache: bool = True
    #: Where job state + results persist.  None derives a ``jobs``
    #: directory next to the cache entries (when ``cache_dir`` is set)
    #: or falls back to the user-level default, so jobs survive a
    #: server restart either way.
    jobs_dir: str | None = None
    #: Enable the process-global metrics registry (``/v1/metrics``).
    #: On by default for servers — a serving process is exactly where
    #: counters earn their keep; ``repro serve --no-telemetry`` opts out.
    #: Also gates request tracing (``/v1/traces``): with telemetry off
    #: no tracer is ever installed and the request path pays nothing.
    telemetry: bool = True
    #: Ring-buffer size of the in-memory trace store (whole traces).
    trace_capacity: int = obs.DEFAULT_TRACE_CAPACITY
    #: Requests at least this slow emit a structured ``slow_request``
    #: log line (seconds; None disables the slow log).
    slow_request_seconds: float | None = 1.0
    #: Admission queue depth beyond the worker pool: up to ``workers +
    #: admission_queue`` heavy requests are admitted concurrently; the
    #: next is shed with 429 + Retry-After instead of queueing blind.
    admission_queue: int = 16
    #: Optional cost budget: total points across admitted heavy requests
    #: (a lone request of any size always passes; None disables).
    admission_points: int | None = None
    #: The Retry-After hint (seconds) on shed responses.
    retry_after_seconds: float = 1.0
    #: Extra attempts a failed job shard gets before being poisoned.
    shard_retries: int = 1
    #: Job watchdog: with no shard finishing for this long, in-flight
    #: shards are presumed hung and re-queued (None disables).
    shard_timeout: float | None = None
    #: Fault-injection spec (``repro serve --faults``); empty/None falls
    #: back to ``$REPRO_FAULTS``; both empty leaves injection off.
    faults: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_body < 1:
            raise ValueError(f"max_body must be >= 1, got {self.max_body}")
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.admission_queue < 0:
            raise ValueError(
                f"admission_queue must be >= 0, got {self.admission_queue}"
            )
        if self.admission_points is not None and self.admission_points < 1:
            raise ValueError(
                "admission_points must be >= 1 or None, "
                f"got {self.admission_points}"
            )
        if self.retry_after_seconds <= 0:
            raise ValueError(
                "retry_after_seconds must be positive, "
                f"got {self.retry_after_seconds}"
            )
        if self.shard_retries < 0:
            raise ValueError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                "shard_timeout must be positive or None, "
                f"got {self.shard_timeout}"
            )
        if self.faults:
            # Fail at configure time, not on the first injected call.
            FaultPlan.parse(self.faults)


#: Signature of the pluggable evaluation hook: scenario + solve policy
#: in, ResultSet out.  Benchmarks and tests wrap the default to inject
#: latency or count invocations without monkey-patching the engine.
Evaluate = Callable[[Scenario, str, "int | None", dict[str, Any]], ResultSet]


@dataclass
class ServiceState:
    """Everything the handler threads share: caches, counters, policy."""

    config: ServiceConfig = field(default_factory=ServiceConfig)
    evaluate: Evaluate | None = None

    def __post_init__(self) -> None:
        # The service owns a private memory tier (sized by --cache-size)
        # so one process can host several servers with isolated budgets.
        self.cache: TieredCache = as_cache(
            self.config.cache_dir,
            memory=MemoryCache(self.config.cache_size),
        )
        self.coalescer = Coalescer()
        # The job manager shares this coalescer and cache, so a sweep
        # submitted as a job and posted inline concurrently is one
        # engine run, and a finished job warms the inline cache path.
        if self.config.jobs_dir:
            jobs_dir = Path(self.config.jobs_dir)
        elif self.config.cache_dir:
            jobs_dir = Path(self.config.cache_dir) / "jobs"
        else:
            jobs_dir = default_jobs_dir()
        # Tracing shares the telemetry switch: a TraceStore exists (and
        # request tracers are installed) only when telemetry is on.
        self.traces: obs.TraceStore | None = (
            obs.TraceStore(capacity=self.config.trace_capacity)
            if self.config.telemetry
            else None
        )
        self.jobs = JobManager(
            store=JobStore(jobs_dir),
            cache=self.cache,
            use_cache=self.config.use_cache,
            coalescer=self.coalescer,
            trace_store=self.traces,
            max_shard_retries=self.config.shard_retries,
            shard_timeout=self.config.shard_timeout,
        )
        self.work_semaphore = threading.BoundedSemaphore(self.config.workers)
        # Heavy requests (explore/optimize) pass this gate before the
        # worker semaphore: up to workers + admission_queue admitted,
        # the rest shed fast with Retry-After.
        self.admission = AdmissionController(
            limit=self.config.workers + self.config.admission_queue,
            max_points=self.config.admission_points,
            retry_after=self.config.retry_after_seconds,
        )
        # Arm fault injection from config or environment (tests and
        # chaos CI); production leaves both empty and pays nothing.
        self._faults_installed = False
        spec = self.config.faults or os.environ.get(FAULTS_ENV, "")
        if spec:
            install_faults(FaultPlan.parse(spec))
            self._faults_installed = True
            logger.warning("fault injection armed: %s", spec)
        # Two clocks on purpose: the wall clock says *when* the service
        # started (for humans and log correlation); the monotonic clock
        # measures uptime, immune to NTP steps and DST.
        self.started_at = time.time()
        self.started_monotonic = time.monotonic()
        if self.config.telemetry:
            obs.enable()
        self._counters_lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.engine_runs = 0
        self.deadline_breaches = 0
        if self.evaluate is None:
            self.evaluate = self._evaluate_study

    def close(self) -> None:
        """Release owned resources (the job manager, armed faults)."""
        self.jobs.close()
        if self._faults_installed:
            uninstall_faults()
            self._faults_installed = False

    # -- counters ------------------------------------------------------------
    def count_request(self) -> None:
        with self._counters_lock:
            self.requests += 1

    def count_error(self) -> None:
        with self._counters_lock:
            self.errors += 1

    def count_engine_run(self) -> None:
        with self._counters_lock:
            self.engine_runs += 1

    def count_deadline_breach(self) -> None:
        with self._counters_lock:
            self.deadline_breaches += 1

    # -- evaluation ----------------------------------------------------------
    def _evaluate_study(
        self,
        scenario: Scenario,
        solver: str,
        jobs: int | None,
        options: dict[str, Any],
    ) -> ResultSet:
        return (
            Study.from_scenario(scenario)
            .solver(solver, **options)
            .jobs(jobs)
            .cached(self.cache, enabled=self.config.use_cache)
            .run()
        )

    def run_scenario(
        self,
        scenario: Scenario,
        solver: str,
        jobs: int | None,
        options: dict[str, Any],
    ) -> tuple[ResultSet, bool]:
        """One bounded, coalesced, cached evaluation → (result, coalesced)."""
        # Keyed on the registry's name, as a job is: every spelling of a
        # solver joins one flight.
        key = flight_key(scenario, get_solver(solver).name, options)

        def produce() -> ResultSet:
            with self.admission.admit(cost=scenario.size):
                with self.work_semaphore:
                    result = self.evaluate(scenario, solver, jobs, options)
            if not result.cache_hit:
                self.count_engine_run()
            return result

        try:
            return self.coalescer.run(key, produce)
        except JobCancelled:
            # This request joined a job's flight and the job was then
            # cancelled.  Cancellation binds the job, not this caller —
            # retry once on a fresh flight (usually a cache hit by now).
            return self.coalescer.run(key, produce)

    # -- introspection payloads ---------------------------------------------
    def healthz_payload(self) -> dict[str, Any]:
        with self._counters_lock:
            requests, errors, engine_runs, deadline_breaches = (
                self.requests,
                self.errors,
                self.engine_runs,
                self.deadline_breaches,
            )
        return {
            "status": "ok",
            "service": "repro",
            "version": __version__,
            "admission": self.admission.snapshot(),
            "deadline_breaches": deadline_breaches,
            "faults_armed": self._faults_installed,
            "started_at": round(self.started_at, 3),
            "uptime_seconds": round(
                time.monotonic() - self.started_monotonic, 3
            ),
            "workers": self.config.workers,
            "requests": requests,
            "errors": errors,
            "engine_runs": engine_runs,
            "coalescer": self.coalescer.stats(),
            "cache_enabled": self.config.use_cache,
            "telemetry": self.config.telemetry,
            "jobs": self.jobs.store.stats(),
            "traces": self.traces.stats() if self.traces is not None else None,
        }

    def cache_stats_payload(self) -> dict[str, Any]:
        with self._counters_lock:
            engine_runs = self.engine_runs
        return {
            "enabled": self.config.use_cache,
            "engine_runs": engine_runs,
            "coalescer": self.coalescer.stats(),
            **self.cache.stats(),
        }

    def refresh_gauges(self) -> None:
        """Point-in-time gauges, refreshed at scrape time (not per event)."""
        if not obs.is_enabled():
            return
        obs.set_gauge(
            "service.uptime_seconds",
            time.monotonic() - self.started_monotonic,
        )
        obs.set_gauge("cache.memory.entries", len(self.cache.memory))
        obs.set_gauge("coalescer.in_flight", self.coalescer.in_flight)
        obs.set_gauge("jobs.queue_depth", self.jobs.queue_depth)
        obs.set_gauge("admission.depth", self.admission.depth)
        with self._counters_lock:
            breaches = self.deadline_breaches
        obs.set_gauge("deadline.breached", breaches)


# ---------------------------------------------------------------------------
# Request parsing (kept free of the HTTP handler so tests can hit it raw).
# ---------------------------------------------------------------------------


def _require(payload: dict[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise ServiceError(
            400, "missing-field", f"request body is missing {key!r}"
        ) from None


def _parse_solver(payload: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    solver = payload.get("solver", "auto")
    options = payload.get("options", {})
    if not isinstance(solver, str):
        raise ServiceError(400, "bad-solver", "'solver' must be a string name")
    if not isinstance(options, dict):
        raise ServiceError(400, "bad-options", "'options' must be an object")
    try:
        get_solver(solver)
    except SolverError as error:
        raise ServiceError(400, "unknown-solver", str(error)) from None
    return solver, options


def _parse_jobs(payload: dict[str, Any]) -> int | None:
    jobs = payload.get("jobs")
    if jobs is None:
        return None
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ServiceError(
            400, "bad-jobs", f"'jobs' must be a positive integer, got {jobs!r}"
        )
    return jobs


def parse_explore_request(
    payload: dict[str, Any],
) -> tuple[Scenario, str, int | None, dict[str, Any]]:
    """``POST /v1/explore`` body → (scenario, solver, jobs, options)."""
    scenario_spec = _require(payload, "scenario")
    if not isinstance(scenario_spec, dict):
        raise ServiceError(
            400, "bad-scenario", "'scenario' must be a Scenario JSON object"
        )
    try:
        scenario = Scenario.from_dict(scenario_spec)
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(
            400, "bad-scenario", f"invalid scenario: {error!r}"
        ) from None
    solver, options = _parse_solver(payload)
    return scenario, solver, _parse_jobs(payload), options


def parse_optimize_request(
    payload: dict[str, Any],
) -> tuple[Scenario, str, dict[str, Any]]:
    """``POST /v1/optimize`` body → (single-point scenario, solver, options)."""
    architecture = _require(payload, "architecture")
    technology = _require(payload, "technology")
    frequency = _require(payload, "frequency")
    if not isinstance(frequency, (int, float)) or frequency <= 0:
        raise ServiceError(
            400,
            "bad-frequency",
            f"'frequency' must be a positive number [Hz], got {frequency!r}",
        )
    try:
        scenario = Scenario.from_dict(
            {
                "name": payload.get("name", "optimize"),
                "architectures": [architecture],
                "technologies": [technology],
                "frequencies": FrequencyGrid.single(float(frequency)).to_dict(),
            }
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(
            400, "bad-point", f"invalid optimize request: {error!r}"
        ) from None
    solver = payload.copy()
    solver.setdefault("solver", "numerical")
    name, options = _parse_solver(solver)
    return scenario, name, options


def resultset_payload(result: ResultSet, coalesced: bool) -> dict[str, Any]:
    """The JSON answer: the result payload with records for its columns."""
    payload = result.to_payload(coalesced)
    del payload["columns"]
    payload["records"] = result.to_dicts()
    return payload


#: Records serialised per chunk of the NDJSON stream (one socket write
#: per chunk instead of one per record).
NDJSON_CHUNK_ROWS = 2048


def ndjson_lines(result: ResultSet, coalesced: bool) -> "Iterator[str]":
    """The same answer as NDJSON: one header line, one line per record.

    A generator of newline-joined chunks, so large sweeps stream for
    real — the response is never materialised as a whole.  Records
    serialise straight from the table's column arrays,
    :data:`NDJSON_CHUNK_ROWS` per chunk, one JSON document per line
    with sorted keys.
    """
    header = result.to_payload(coalesced)
    del header["columns"]
    yield json.dumps({"kind": "header", **header}, sort_keys=True)
    yield from result._table.iter_ndjson_chunks(chunk_rows=NDJSON_CHUNK_ROWS)


# ---------------------------------------------------------------------------
# HTTP plumbing.
# ---------------------------------------------------------------------------

#: Characters allowed through from a client-supplied X-Request-Id; the
#: id lands in headers and log lines, so anything else is dropped.
_REQUEST_ID_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)
_REQUEST_ID_MAX = 64


def _request_id_from(header: str | None) -> str:
    """Propagate a sane client-supplied request id, else mint one."""
    if header:
        candidate = "".join(
            c for c in header[:_REQUEST_ID_MAX] if c in _REQUEST_ID_SAFE
        )
        if candidate:
            return candidate
    return uuid.uuid4().hex[:16]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "ExplorationServer"

    # -- dispatch ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(
            {
                "/v1/healthz": self._route_healthz,
                "/v1/solvers": self._route_solvers,
                "/v1/architectures": self._route_architectures,
                "/v1/catalog": self._route_catalog,
                "/v1/cache/stats": self._route_cache_stats,
                "/v1/metrics": self._route_metrics,
                "/v1/traces": self._route_traces_list,
                "/v1/jobs": self._route_jobs_list,
            }
        )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(
            {
                "/v1/explore": self._route_explore,
                "/v1/optimize": self._route_optimize,
                "/v1/jobs": self._route_jobs_submit,
            }
        )

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch({})

    def _dispatch(self, routes: dict[str, Callable[[], None]]) -> None:
        state = self.server.state
        state.count_request()
        self._started = time.perf_counter()
        self._note = ""
        self._status = 0
        self._slow_exempt = False
        self._request_id = _request_id_from(self.headers.get("X-Request-Id"))
        split = urlsplit(self.path)
        self._query = parse_qs(split.query)
        self._route_label = split.path.rstrip("/") or "/"
        route = routes.get(self._route_label)
        if route is None:
            route = self._match_jobs_route() or self._match_traces_route()
        self._begin_trace()
        try:
            deadline = self._parse_deadline()
            if route is None:
                known = "/v1/healthz, /v1/solvers, /v1/architectures, " \
                    "/v1/catalog, /v1/cache/stats, /v1/metrics, " \
                    "/v1/traces, /v1/traces/{id}, " \
                    "/v1/explore (POST), /v1/optimize (POST), " \
                    "/v1/jobs (GET/POST), /v1/jobs/{id} (GET/DELETE), " \
                    "/v1/jobs/{id}/result, /v1/jobs/{id}/events"
                raise ServiceError(
                    404 if self._path_known(split.path) is None else 405,
                    "not-found",
                    f"no route {self.command} {split.path}; known: {known}",
                )
            # The client's budget becomes this thread's cooperative
            # deadline for the whole route: the engine's chunk checks,
            # the coalescer's waiter path and anything else below reads
            # it thread-locally.
            with active_deadline(deadline):
                route()
        except DeadlineExceeded as error:
            state.count_error()
            state.count_deadline_breach()
            obs.inc("deadline.breaches", route=self._route_label)
            self._send_error(
                ServiceError(
                    504,
                    "deadline-exceeded",
                    f"request deadline exceeded at {error.site or '?'}: "
                    f"{error}",
                    details={
                        "site": error.site,
                        "budget_ms": error.budget_ms,
                        "progress": error.progress,
                    },
                )
            )
        except AdmissionRejected as error:
            state.count_error()
            self._send_error(
                ServiceError(
                    error.status,
                    "admission-shed",
                    str(error),
                    retry_after=error.retry_after,
                    details={
                        "reason": error.reason,
                        "depth": error.depth,
                    },
                )
            )
        except JobNotFound as error:
            state.count_error()
            self._send_error(ServiceError(404, "job-not-found", str(error)))
        except JobStateError as error:
            state.count_error()
            self._send_error(ServiceError(409, "job-state", str(error)))
        except ServiceError as error:
            state.count_error()
            self._send_error(error)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        except Exception as error:  # noqa: BLE001 — the 5xx boundary
            state.count_error()
            logger.exception("internal error on %s %s", self.command, self.path)
            self._send_error(
                ServiceError(
                    500, "internal", f"{type(error).__name__}: {error}"
                )
            )
        finally:
            self._finish_trace()

    def _error_payload(self, error: ServiceError) -> dict[str, Any]:
        payload = error.to_payload()
        payload["error"]["request_id"] = self._request_id
        return payload

    def _send_error(self, error: ServiceError) -> None:
        headers: dict[str, str] = {}
        if error.retry_after is not None:
            headers["Retry-After"] = f"{error.retry_after:g}"
        self._send_json(
            error.status, self._error_payload(error), headers=headers
        )

    def _parse_deadline(self) -> Deadline | None:
        """The request's ``X-Deadline-Ms`` budget, or None when absent."""
        header = self.headers.get(DEADLINE_HEADER)
        if not header:
            return None
        try:
            return Deadline.from_header(header)
        except ValueError as error:
            raise ServiceError(400, "bad-deadline", str(error)) from None

    # -- tracing --------------------------------------------------------------
    def _begin_trace(self) -> None:
        """Open this request's trace: adopt/mint a context, root a span.

        With tracing off (no store), this sets the two attributes the
        rest of the handler reads and returns — the request path pays
        two ``None`` assignments.  Otherwise a per-request tracer is
        installed on the handler thread, an ``http.request`` root span
        opens, and the thread's :class:`~repro.obs.TraceContext` is
        positioned *under* that root, so anything the route submits to
        other threads (a job) parents beneath the request span.
        """
        self._trace_tracer = None
        self._trace_span = None
        self._trace_context = None
        if self.server.state.traces is None:
            return
        incoming = obs.parse_traceparent(
            self.headers.get(obs.TRACEPARENT_HEADER)
        )
        context = incoming if incoming is not None else obs.TraceContext.mint()
        if not self.headers.get("X-Request-Id"):
            # No explicit request id: correlate by trace-id prefix.
            self._request_id = context.request_id
        tracer = obs.install_tracer(obs.SpanTracer())
        obs.set_context(context)
        span = tracer.span(
            "http.request", method=self.command, route=self._route_label
        )
        span.__enter__()
        self._trace_tracer = tracer
        self._trace_span = span
        self._trace_context = obs.TraceContext(
            context.trace_id, span.span_id, context.sampled
        )
        obs.set_context(self._trace_context)

    def _finish_trace(self) -> None:
        """Close the request span, record the trace, emit the slow log."""
        elapsed = time.perf_counter() - self._started
        status = self._status
        state = self.server.state
        tracer, span = self._trace_tracer, self._trace_span
        trace_id = ""
        if tracer is not None and span is not None:
            trace_id = self._trace_context.trace_id
            span.labels["route"] = self._route_label
            span.labels["status"] = str(status)
            if status >= 500 and span.status == "ok":
                span.status = "error"
                span.error = f"http {status}"
            span.__exit__(None, None, None)
            obs.uninstall_tracer()
            obs.clear_context()
            self._trace_tracer = None
            self._trace_span = None
            if state.traces is not None:
                state.traces.record(
                    trace_id,
                    request_id=self._request_id,
                    route=self._route_label,
                    method=self.command,
                    status=status,
                    duration_seconds=elapsed,
                    error=status >= 500,
                    spans=tracer.to_dict()["roots"],
                )
        threshold = state.config.slow_request_seconds
        if (
            threshold is not None
            and elapsed >= threshold
            and not self._slow_exempt
        ):
            logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "slow_request",
                        "trace_id": trace_id,
                        "request_id": self._request_id,
                        "method": self.command,
                        "route": self._route_label,
                        "status": status,
                        "ms": round(elapsed * 1e3, 2),
                        "threshold_ms": round(threshold * 1e3, 2),
                    },
                    sort_keys=True,
                ),
            )

    _ALL_ROUTES = {
        "/v1/healthz": ("GET",),
        "/v1/solvers": ("GET",),
        "/v1/architectures": ("GET",),
        "/v1/catalog": ("GET",),
        "/v1/cache/stats": ("GET",),
        "/v1/metrics": ("GET",),
        "/v1/traces": ("GET",),
        "/v1/explore": ("POST",),
        "/v1/optimize": ("POST",),
        "/v1/jobs": ("GET", "POST"),
    }

    def _path_known(self, path: str):
        label = path.rstrip("/") or "/"
        methods = self._ALL_ROUTES.get(label)
        if methods is not None:
            return methods
        parts = label.split("/")
        if len(parts) >= 4 and parts[1:3] == ["v1", "jobs"] and parts[3]:
            if len(parts) == 4:
                return ("GET", "DELETE")
            if len(parts) == 5 and parts[4] in ("result", "events"):
                return ("GET",)
        if len(parts) == 4 and parts[1:3] == ["v1", "traces"] and parts[3]:
            return ("GET",)
        return None

    def _match_jobs_route(self) -> Callable[[], None] | None:
        """Resolve the dynamic ``/v1/jobs/{id}[...]`` routes.

        Rewrites ``_route_label`` to the route *template* on a match, so
        metrics and logs aggregate per route instead of per job id.
        """
        parts = self._route_label.split("/")
        if (
            len(parts) not in (4, 5)
            or parts[1:3] != ["v1", "jobs"]
            or not parts[3]
        ):
            return None
        job_id = parts[3]
        tail = parts[4] if len(parts) == 5 else ""
        if self.command == "GET" and not tail:
            self._route_label = "/v1/jobs/{id}"
            return lambda: self._route_job_status(job_id)
        if self.command == "DELETE" and not tail:
            self._route_label = "/v1/jobs/{id}"
            return lambda: self._route_job_cancel(job_id)
        if self.command == "GET" and tail == "result":
            self._route_label = "/v1/jobs/{id}/result"
            return lambda: self._route_job_result(job_id)
        if self.command == "GET" and tail == "events":
            self._route_label = "/v1/jobs/{id}/events"
            return lambda: self._route_job_events(job_id)
        return None

    def _match_traces_route(self) -> Callable[[], None] | None:
        """Resolve ``GET /v1/traces/{trace_id}`` (same label rewrite)."""
        parts = self._route_label.split("/")
        if (
            self.command == "GET"
            and len(parts) == 4
            and parts[1:3] == ["v1", "traces"]
            and parts[3]
        ):
            trace_id = parts[3]
            self._route_label = "/v1/traces/{id}"
            return lambda: self._route_trace(trace_id)
        return None

    # -- routes --------------------------------------------------------------
    def _route_healthz(self) -> None:
        self._send_json(200, self.server.state.healthz_payload())

    def _route_solvers(self) -> None:
        self._send_json(200, listing_payload())

    def _route_architectures(self) -> None:
        self._send_json(200, {"architectures": architecture_names()})

    def _route_catalog(self) -> None:
        self._send_json(200, catalog_payload())

    def _route_cache_stats(self) -> None:
        self._send_json(200, self.server.state.cache_stats_payload())

    def _route_metrics(self) -> None:
        """Prometheus text by default; ``?format=json`` (or an Accept
        header preferring JSON) returns the registry snapshot instead."""
        self.server.state.refresh_gauges()
        wants_json = self._query.get("format", [""])[0].lower() == "json" or (
            JSON_CONTENT_TYPE in self.headers.get("Accept", "")
        )
        if wants_json:
            self._send_json(200, obs.snapshot())
            return
        registry = obs.get_registry()
        text = obs.prometheus_text(registry) if registry is not None else ""
        self._send_body(200, text.encode("utf-8"), obs.PROMETHEUS_CONTENT_TYPE)

    def _trace_store(self) -> obs.TraceStore:
        store = self.server.state.traces
        if store is None:
            raise ServiceError(
                503,
                "tracing-disabled",
                "request tracing is off (the server runs with telemetry "
                "disabled); start without --no-telemetry to record traces",
            )
        return store

    def _route_traces_list(self) -> None:
        store = self._trace_store()
        route = self._query.get("route", [""])[0] or None
        min_ms_text = self._query.get("min_ms", [""])[0]
        try:
            min_ms = float(min_ms_text) if min_ms_text else None
        except ValueError:
            raise ServiceError(
                400, "bad-min-ms", "'min_ms' must be a number of milliseconds"
            ) from None
        errors_only = self._query.get("error", [""])[0].lower() in (
            "1", "true", "yes",
        )
        limit_text = self._query.get("limit", [""])[0]
        try:
            limit = int(limit_text) if limit_text else 50
        except ValueError:
            raise ServiceError(
                400, "bad-limit", "'limit' must be a positive integer"
            ) from None
        if limit < 1:
            raise ServiceError(
                400, "bad-limit", f"'limit' must be >= 1, got {limit}"
            )
        self._send_json(
            200,
            {
                "traces": store.summaries(
                    route=route,
                    min_duration_ms=min_ms,
                    errors_only=errors_only,
                    limit=limit,
                ),
                "stats": store.stats(),
            },
        )

    def _route_trace(self, trace_id: str) -> None:
        trace = self._trace_store().get(trace_id)
        if trace is None:
            raise ServiceError(
                404,
                "trace-not-found",
                f"no trace {trace_id!r} in the store (it may have been "
                "evicted; the store keeps the most recent "
                f"{self.server.state.config.trace_capacity} traces)",
            )
        self._send_json(200, {"trace": trace})

    def _route_explore(self) -> None:
        scenario, solver, jobs, options = parse_explore_request(
            self._read_json_body()
        )
        result, coalesced = self.server.state.run_scenario(
            scenario, solver, jobs, options
        )
        self._note = (
            f"{scenario.size} candidates"
            f"{' cache-hit' if result.cache_hit else ''}"
            f"{' coalesced' if coalesced else ''}"
        )
        self._send_result(result, coalesced)

    def _route_optimize(self) -> None:
        scenario, solver, options = parse_optimize_request(
            self._read_json_body()
        )
        result, coalesced = self.server.state.run_scenario(
            scenario, solver, None, options
        )
        record = result[0]
        self._note = "cache-hit" if result.cache_hit else "evaluated"
        self._send_json(
            200,
            {
                "solver": result.solver,
                "coalesced": coalesced,
                "cache": {"hit": result.cache_hit, "key": result.cache_key},
                "record": record.to_dict(),
            },
        )

    # -- job routes ----------------------------------------------------------
    def _route_jobs_list(self) -> None:
        self._send_json(200, {"jobs": self.server.state.jobs.jobs()})

    def _route_jobs_submit(self) -> None:
        payload = self._read_json_body()
        scenario, solver, _, options = parse_explore_request(payload)
        shards = payload.get("shards")
        if shards is not None and (
            not isinstance(shards, int)
            or isinstance(shards, bool)
            or shards < 1
        ):
            raise ServiceError(
                400,
                "bad-shards",
                f"'shards' must be a positive integer, got {shards!r}",
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, int)
            or isinstance(deadline_ms, bool)
            or deadline_ms < 1
        ):
            raise ServiceError(
                400,
                "bad-deadline",
                "'deadline_ms' must be a positive integer number of "
                f"milliseconds, got {deadline_ms!r}",
            )
        idempotency_key = (self.headers.get("Idempotency-Key") or "").strip()
        if len(idempotency_key) > 128:
            raise ServiceError(
                400,
                "bad-idempotency-key",
                "Idempotency-Key must be at most 128 characters",
            )
        jobs = self.server.state.jobs
        reused = bool(
            idempotency_key
            and jobs.store.find_by_idempotency_key(idempotency_key)
            is not None
        )
        record = jobs.submit(
            scenario,
            solver=solver,
            options=options,
            shards=shards,
            idempotency_key=idempotency_key,
            deadline_ms=deadline_ms,
        )
        self._note = (
            f"job {record.id} "
            + ("deduplicated" if reused else "queued")
            + f" ({scenario.size} candidates)"
        )
        self._send_json(
            202, {"job": record.to_payload(), "deduplicated": reused}
        )

    def _route_job_status(self, job_id: str) -> None:
        self._send_json(200, {"job": self.server.state.jobs.job(job_id)})

    def _route_job_cancel(self, job_id: str) -> None:
        payload = self.server.state.jobs.cancel(job_id)
        self._note = f"job {job_id} cancel requested"
        self._send_json(200, {"job": payload})

    def _route_job_result(self, job_id: str) -> None:
        result, coalesced = self.server.state.jobs.job_result_response(job_id)
        self._note = f"job {job_id} result ({len(result)} records)"
        self._send_result(result, coalesced)

    def _route_job_events(self, job_id: str) -> None:
        state = self.server.state
        # A follow stream is slow by design (it blocks until the job
        # ends or the timeout lapses) — not a slow-log candidate.
        self._slow_exempt = True
        state.jobs.job(job_id)  # a 404 must fire before headers go out
        try:
            timeout = float(self._query.get("timeout", ["30"])[0])
        except ValueError:
            raise ServiceError(
                400, "bad-timeout", "'timeout' must be a number of seconds"
            ) from None
        self._send_ndjson(
            json.dumps(event, sort_keys=True)
            for event in state.jobs.stream_events(job_id, timeout=timeout)
        )

    # -- request / response helpers ------------------------------------------
    def _read_json_body(self) -> dict[str, Any]:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise ServiceError(
                411, "length-required", "Content-Length header is required"
            ) from None
        if length < 0:
            # -1 would make rfile.read block until the client closes,
            # pinning a handler thread per malformed connection.
            raise ServiceError(
                400,
                "bad-length",
                f"Content-Length must be non-negative, got {length}",
            )
        max_body = self.server.state.config.max_body
        if length > max_body:
            raise ServiceError(
                413,
                "body-too-large",
                f"request body of {length} bytes exceeds the "
                f"{max_body}-byte limit",
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                400, "bad-json", f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ServiceError(
                400, "bad-json", "request body must be a JSON object"
            )
        return payload

    def _send_result(self, result: ResultSet, coalesced: bool) -> None:
        """A result in the format the request negotiated."""
        accept = self.headers.get("Accept", "")
        stream = self._query.get("stream", [""])[0].lower()
        if COLUMNS_CONTENT_TYPE in accept:
            faults.check("http.response")
            body = colfile.encode(result.to_payload(coalesced))
            self._send_body(200, body, COLUMNS_CONTENT_TYPE)
        elif NDJSON_CONTENT_TYPE in accept or stream in (
            "1", "true", "ndjson", "yes"
        ):
            self._send_ndjson(ndjson_lines(result, coalesced))
        else:
            self._send_json(200, resultset_payload(result, coalesced))

    def _send_trace_headers(self) -> None:
        self.send_header("X-Request-Id", self._request_id)
        context = getattr(self, "_trace_context", None)
        if context is not None:
            self.send_header("X-Trace-Id", context.trace_id)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        if status < 400:
            # Injectable response failure — success paths only, so the
            # error handler sending the resulting 500 cannot re-fire it.
            faults.check("http.response")
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_body(status, body, JSON_CONTENT_TYPE, headers)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._send_trace_headers()
        self.end_headers()
        self.wfile.write(body)
        self._log_request(status, len(body))

    def _send_ndjson(self, lines: "Iterator[str]") -> None:
        # Injected before the status line goes out, so a response fault
        # still surfaces as a structured 500 rather than a torn stream.
        faults.check("http.response")
        self.send_response(200)
        self.send_header("Content-Type", NDJSON_CONTENT_TYPE)
        self._send_trace_headers()
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        sent = 0
        for line in lines:
            data = (line + "\n").encode("utf-8")
            self.wfile.write(data)
            sent += len(data)
        self.wfile.flush()
        self._log_request(200, sent)

    # -- logging -------------------------------------------------------------
    def _log_request(self, status: int, body_bytes: int) -> None:
        self._status = status
        elapsed = time.perf_counter() - self._started
        obs.inc("http.requests", route=self._route_label, status=status)
        obs.observe(
            "http.latency_seconds", elapsed, route=self._route_label
        )
        entry: dict[str, Any] = {
            "ts": round(time.time(), 3),
            "request_id": self._request_id,
            "method": self.command,
            "path": self.path,
            "status": status,
            "ms": round(elapsed * 1e3, 2),
            "bytes": body_bytes,
        }
        context = getattr(self, "_trace_context", None)
        if context is not None:
            entry["trace_id"] = context.trace_id
        if self._note:
            entry["note"] = self._note
        logger.info("%s", json.dumps(entry, sort_keys=True))

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # BaseHTTPRequestHandler's stderr chatter → the service logger
        # (DEBUG: _log_request already emits the structured line).
        logger.debug("%s - %s", self.address_string(), format % args)


class ExplorationServer(ThreadingHTTPServer):
    """The ``repro serve`` server: bind, then :meth:`serve_forever`.

    ``port=0`` binds an OS-assigned ephemeral port; read it back from
    :attr:`server_port`.  Usable as a context manager (``with`` closes
    the socket), and :meth:`start_background` runs it on a daemon
    thread for tests, examples and benchmarks.
    """

    daemon_threads = True

    def __init__(
        self,
        config: ServiceConfig | None = None,
        evaluate: Evaluate | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.state = ServiceState(self.config, evaluate=evaluate)
        super().__init__((self.config.host, self.config.port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        # Stop the job dispatcher + shard pool with the listener; queued
        # jobs stay persisted and re-queue on the next start.  Also
        # disarms any fault plan this server installed.
        self.state.close()
        super().server_close()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread
