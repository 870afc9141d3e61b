"""``ServiceClient`` — the Study API, over the wire, stdlib only.

The client mirrors the in-process surface: :meth:`ServiceClient.study`
returns a :class:`RemoteStudy` with the exact fluent builder of
:class:`~repro.study.Study` (it *is* a ``Study`` subclass — the builder
compiles the scenario client-side), whose ``run()`` posts to
``/v1/explore`` and reconstructs the very same typed
:class:`~repro.study.ResultSet` from the response.  Results travel as
the server's binary column file (``application/x-repro-columns``): the
result payload's fields plus the table's raw little-endian column
buffers, so remote and local runs of one scenario compare equal
record-for-record, bit for bit.  A body that does not decode raises
``ServiceError(502, "bad-response")``; no table is ever built from a
damaged body.

Transport is ``urllib.request`` with JSON request bodies; server-side
failures surface as :class:`ServiceError` carrying the structured error
payload (status / type / message) the server emits.  An optional bounded retry
(``retries=``, off by default) with exponential backoff + jitter covers
connection errors and 503s, so a poll loop survives a server restart.

The async side mirrors the server's job routes: :meth:`ServiceClient.
submit` returns the same :class:`~repro.jobs.AsyncResult` handle as a
local ``Study.submit()``, and ``wait``/``cancel``/``job_result``/
``job_events`` complete the lifecycle.
"""

from __future__ import annotations

import json
import random
import time
import uuid
from http.client import IncompleteRead
from typing import Any, Iterator
from urllib import error as urllib_error
from urllib import request as urllib_request
from urllib.parse import urlencode

from .. import obs
from ..explore import colfile
from ..explore.scenario import Scenario
from ..jobs.handle import AsyncResult
from ..jobs.manager import JobTimeout
from ..resilience import DEADLINE_HEADER
from ..study import Record, ResultSet, Study
from .server import (
    COLUMNS_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    NDJSON_CONTENT_TYPE,
    ServiceError,
)

__all__ = ["RemoteStudy", "ServiceClient", "ServiceError"]

#: Backoff schedule defaults: first retry after ``DEFAULT_BACKOFF``
#: seconds (plus up to 100% jitter), doubling to ``DEFAULT_BACKOFF_MAX``.
DEFAULT_BACKOFF = 0.25
DEFAULT_BACKOFF_MAX = 8.0


def _parse_retry_after(headers: Any) -> float | None:
    """The ``Retry-After`` header as seconds, or ``None``.

    Only the delta-seconds form is parsed (the server emits that); the
    HTTP-date form — or garbage — degrades to ``None`` and the normal
    backoff schedule applies.
    """
    if headers is None:
        return None
    raw = headers.get("Retry-After")
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return value if value >= 0 else None


def _error_from_response(
    status: int, body: bytes, headers: Any = None
) -> ServiceError:
    retry_after = _parse_retry_after(headers)
    try:
        payload = json.loads(body.decode("utf-8"))["error"]
        return ServiceError(
            int(payload.get("status", status)),
            str(payload.get("type", "unknown")),
            str(payload.get("message", "")),
            retry_after=retry_after,
            details=payload.get("details"),
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return ServiceError(
            status,
            "unknown",
            body.decode("utf-8", "replace")[:500],
            retry_after=retry_after,
        )


class ServiceClient:
    """Thin HTTP client for one running ``repro serve`` endpoint.

    ``retries`` (default 0 = off, so tests and fail-fast callers see
    errors immediately) bounds how many times a request is re-sent
    after a connection error, a 503, or an admission-shed 429,
    sleeping an exponentially growing backoff with full jitter between
    attempts — unless the server named a ``Retry-After``, which is
    honoured instead.  Enable it for poll-style workloads
    (``retries=5`` rides out a worker restart).

    ``timeout`` doubles as the end-to-end deadline: every request
    carries it as ``X-Deadline-Ms`` so the server stops working (and
    answers a structured 504) once the client would have hung up.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 300.0,
        retries: int = 0,
        backoff: float = DEFAULT_BACKOFF,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        # Injectable for tests (no real sleeping, deterministic jitter).
        self._sleep = time.sleep
        self._random = random.random

    # -- transport -----------------------------------------------------------
    def _trace_headers(self) -> dict[str, str]:
        """Propagation headers minted once per logical request.

        A thread already inside a trace (a traced CLI run, a test)
        propagates that context; otherwise a fresh one is minted.  The
        request id is the trace id's 16-hex prefix — the contract the
        server applies too — and because the same ``Request`` object is
        re-sent by the retry loop, every retry of one logical request
        carries the *same* id: server logs show one id, N attempts.
        """
        context = obs.current_context()
        if context is None:
            context = obs.TraceContext.mint()
        return {
            obs.TRACEPARENT_HEADER: context.to_traceparent(),
            "X-Request-Id": context.request_id,
        }

    def _deadline_header(self) -> dict[str, str]:
        """The request's deadline budget, as the server-side header.

        The client-side socket timeout and the server-side cooperative
        deadline carry the same number, so the server gives up (with a
        structured 504) at the same moment the client would.
        """
        return {DEADLINE_HEADER: str(max(1, int(self.timeout * 1000)))}

    def _open_once(self, request: urllib_request.Request):
        try:
            return urllib_request.urlopen(request, timeout=self.timeout)
        except urllib_error.HTTPError as error:
            raise _error_from_response(
                error.code, error.read(), error.headers
            ) from None
        except urllib_error.URLError as error:
            raise ServiceError(
                503, "unreachable", f"cannot reach {self.base_url}: {error.reason}"
            ) from None

    def _open(self, request: urllib_request.Request):
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                return self._open_once(request)
            except ServiceError as error:
                # Connection failures surface as status 503 ("unreachable"),
                # an overloaded/restarting server answers 503 itself, and a
                # full admission queue sheds with 429 — all the transient
                # class retries exist for.
                if error.status not in (429, 503) or attempt >= self.retries:
                    raise
                retry_after = error.retry_after
            if retry_after is not None:
                # The server said exactly when to come back; honour it
                # (jitter on top avoids a shed herd returning in lockstep).
                self._sleep(retry_after * (1.0 + 0.1 * self._random()))
            else:
                self._sleep(delay * (1.0 + self._random()))
            delay = min(delay * 2.0, self.backoff_max)
        raise AssertionError("unreachable")  # pragma: no cover

    def _send(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        accept: str = JSON_CONTENT_TYPE,
        extra_headers: dict[str, str] | None = None,
    ):
        """Open one request (retried as configured); returns the response."""
        headers = {
            "Accept": accept,
            **self._trace_headers(),
            **self._deadline_header(),
            **(extra_headers or {}),
        }
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = JSON_CONTENT_TYPE
        request = urllib_request.Request(
            self.base_url + path, data=body, method=method, headers=headers
        )
        return self._open(request)

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> Any:
        with self._send(
            method, path, payload, extra_headers=extra_headers
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    def _get(self, path: str) -> dict[str, Any]:
        return self._request("GET", path)

    def _post(self, path: str, payload: dict[str, Any]) -> Any:
        return self._request("POST", path, payload)

    def _result(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> ResultSet:
        """A result route's answer as a column file, as a ResultSet."""
        with self._send(
            method, path, payload, accept=COLUMNS_CONTENT_TYPE
        ) as response:
            try:
                content_type = response.headers.get_content_type()
                if content_type != COLUMNS_CONTENT_TYPE:
                    raise ValueError(f"the body is {content_type}")
                return ResultSet.from_payload(colfile.decode(response.read()))
            except (ValueError, KeyError, TypeError, IncompleteRead) as error:
                raise ServiceError(
                    502,
                    "bad-response",
                    f"{method} {path} did not answer a valid "
                    f"{COLUMNS_CONTENT_TYPE} body: {error}",
                ) from None

    # -- introspection -------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._get("/v1/healthz")

    def version(self) -> str:
        return str(self.healthz().get("version", ""))

    def solvers(self) -> dict[str, Any]:
        """The shared listing: solvers, architectures and transform ops."""
        return self._get("/v1/solvers")

    def architectures(self) -> list[str]:
        return list(self._get("/v1/architectures")["architectures"])

    def catalog(self) -> dict[str, Any]:
        """The full model catalog: all five namespaces with provenance."""
        return self._get("/v1/catalog")

    def cache_stats(self) -> dict[str, Any]:
        return self._get("/v1/cache/stats")

    def metrics(self) -> dict[str, Any]:
        """The telemetry registry snapshot (the JSON form of ``/v1/metrics``)."""
        return self._get("/v1/metrics?format=json")

    def metrics_text(self) -> str:
        """``/v1/metrics`` in the Prometheus text exposition format."""
        with self._send(
            "GET", "/v1/metrics", accept=obs.PROMETHEUS_CONTENT_TYPE
        ) as response:
            return response.read().decode("utf-8")

    def traces(
        self,
        route: str | None = None,
        min_ms: float | None = None,
        errors_only: bool = False,
        limit: int = 50,
    ) -> list[dict[str, Any]]:
        """``GET /v1/traces`` — recent trace summaries, newest first."""
        params: dict[str, Any] = {"limit": limit}
        if route:
            params["route"] = route
        if min_ms is not None:
            params["min_ms"] = min_ms
        if errors_only:
            params["error"] = 1
        return list(
            self._get(f"/v1/traces?{urlencode(params)}")["traces"]
        )

    def trace(self, trace_id: str) -> dict[str, Any]:
        """``GET /v1/traces/{id}`` — one trace with its assembled tree."""
        return self._get(f"/v1/traces/{trace_id}")["trace"]

    # -- the Study surface ---------------------------------------------------
    def study(self, name: str = "remote-study") -> "RemoteStudy":
        """A fluent Study builder whose ``run()`` executes server-side."""
        return RemoteStudy(self, name)

    def explore(
        self,
        scenario: Scenario,
        solver: str = "auto",
        jobs: int | None = None,
        options: dict[str, Any] | None = None,
    ) -> ResultSet:
        """Run a scenario remotely; returns the same ``ResultSet`` shape."""
        payload: dict[str, Any] = {
            "scenario": scenario.to_dict(),
            "solver": solver,
        }
        if jobs is not None:
            payload["jobs"] = jobs
        if options:
            payload["options"] = options
        return self._result("POST", "/v1/explore", payload)

    def optimize(
        self,
        architecture: Any,
        technology: Any,
        frequency: float,
        solver: str = "numerical",
        **options: Any,
    ) -> Record:
        """Single-point solve; returns one :class:`~repro.study.Record`."""
        payload: dict[str, Any] = {
            "architecture": _as_jsonable(architecture),
            "technology": _as_jsonable(technology),
            "frequency": frequency,
            "solver": solver,
        }
        if options:
            payload["options"] = options
        response = self._post("/v1/optimize", payload)
        return Record.from_dict(response["record"])

    # -- the async job surface -----------------------------------------------
    def submit(
        self,
        scenario: Scenario,
        solver: str = "auto",
        options: dict[str, Any] | None = None,
        shards: int | None = None,
    ) -> AsyncResult:
        """``POST /v1/jobs`` — submit a sweep; returns an AsyncResult.

        The handle's ``wait()``/``result()``/``cancel()`` poll this
        client, so it behaves exactly like the one ``Study.submit()``
        returns for a local manager.

        Every submit mints a fresh ``Idempotency-Key``, so a retried
        POST (the response was lost, the retry loop re-sent it) maps to
        the job the first attempt created instead of enqueuing a twin.
        """
        payload: dict[str, Any] = {
            "scenario": scenario.to_dict(),
            "solver": solver,
        }
        if options:
            payload["options"] = options
        if shards is not None:
            payload["shards"] = shards
        response = self._request(
            "POST",
            "/v1/jobs",
            payload,
            extra_headers={"Idempotency-Key": uuid.uuid4().hex},
        )
        return AsyncResult(self, str(response["job"]["id"]))

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}`` — one job's status payload."""
        return self._get(f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> list[dict[str, Any]]:
        """``GET /v1/jobs`` — every job's status, newest first."""
        return list(self._get("/v1/jobs")["jobs"])

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 0.2,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns its final status.

        Raises :class:`~repro.jobs.JobTimeout` when ``timeout`` elapses
        first (the job keeps running server-side).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload.get("state") in ("done", "failed", "cancelled"):
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                raise JobTimeout(
                    f"job {job_id} still {payload.get('state')!r} after "
                    f"{timeout:g} s"
                )
            self._sleep(poll)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``DELETE /v1/jobs/{id}`` — request cancellation."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")["job"]

    def job_result(self, job_id: str) -> ResultSet:
        """``GET /v1/jobs/{id}/result`` — the merged ResultSet."""
        return self._result("GET", f"/v1/jobs/{job_id}/result")

    def job_events(
        self, job_id: str, timeout: float = 30.0
    ) -> Iterator[dict[str, Any]]:
        """``GET /v1/jobs/{id}/events`` — the NDJSON progress stream.

        Yields event dicts as the server emits them; the stream ends at
        a terminal state or after ``timeout`` seconds without news.
        """
        with self._send(
            "GET",
            f"/v1/jobs/{job_id}/events?timeout={timeout:g}",
            accept=NDJSON_CONTENT_TYPE,
        ) as response:
            yield from _iter_ndjson(response)


class RemoteStudy(Study):
    """A :class:`~repro.study.Study` that runs on the service.

    Inherits the whole fluent builder; only execution changes —
    :meth:`run` ships the compiled scenario plus solve policy to
    ``POST /v1/explore`` and rebuilds the ``ResultSet`` from the
    response.  ``.cached()`` is accepted but a no-op client-side: the
    service owns the cache tiers.
    """

    def __init__(self, client: ServiceClient, name: str = "remote-study") -> None:
        super().__init__(name)
        self._client = client

    def run(self) -> ResultSet:
        return self._client.explore(
            self.scenario(),
            solver=self.solver_name,
            jobs=self._jobs,
            options=self._solver_options,
        )

    def submit(self, shards: int | None = None) -> AsyncResult:
        """Submit this study as an async job on the service."""
        return self._client.submit(
            self.scenario(),
            solver=self.solver_name,
            options=self._solver_options,
            shards=shards,
        )


# ---------------------------------------------------------------------------
# Payload plumbing.
# ---------------------------------------------------------------------------


def _as_jsonable(spec: Any) -> Any:
    if hasattr(spec, "to_dict"):
        return spec.to_dict()
    if hasattr(spec, "__dataclass_fields__"):
        from dataclasses import asdict

        return asdict(spec)
    return spec


def _iter_ndjson(response) -> Iterator[dict[str, Any]]:
    for raw in response:
        line = raw.strip()
        if line:
            yield json.loads(line.decode("utf-8"))
