"""/v1/traces end-to-end: propagation, stitching, filters, retry ids."""

import time
import urllib.request

import pytest

from repro import obs
from repro.explore.scenario import demo_scenario
from repro.service.client import ServiceClient
from repro.service.server import (
    ExplorationServer,
    ServiceConfig,
    ServiceError,
)

WAIT = 60.0


def _get_raw(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=30.0)


def _poll_trace(client, trace_id, want_jobs=0, timeout=10.0):
    """Fetch a trace, waiting for async job spans to flush into it.

    Job spans land in the store after the job's terminal transition —
    strictly later than the 202 response — so readers poll briefly.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            trace = client.trace(trace_id)
        except ServiceError as error:
            if error.status != 404:
                raise
            trace = None
        if trace is not None and trace.get("n_jobs", 0) >= want_jobs:
            return trace
        if time.monotonic() >= deadline:  # pragma: no cover — test hang
            raise AssertionError(f"trace {trace_id} never flushed: {trace}")
        time.sleep(0.1)


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node.get("children", []))


def _find(nodes, name):
    return [node for node in _walk(nodes) if node["name"] == name]


class TestStitchedJobTrace:
    def test_job_submit_yields_one_tree_under_one_trace_id(self, service):
        server, client = service
        scenario = demo_scenario(frequency_points=2)
        handle = client.submit(scenario, solver="auto", shards=3)
        status = client.wait(handle.id, timeout=WAIT)
        assert status["state"] == "done"
        trace_id = status["trace_id"]
        assert len(trace_id) == 32

        trace = _poll_trace(client, trace_id, want_jobs=1)
        assert trace["trace_id"] == trace_id
        assert trace["n_jobs"] == 1
        assert trace["request_id"] == trace_id[:16]

        # Exactly one trace: the job spans merged into the submitting
        # request's trace rather than starting a second one.
        matches = [
            t
            for t in client.traces(route="/v1/jobs", limit=200)
            if t["trace_id"] == trace_id
        ]
        assert len(matches) == 1

        tree = trace["tree"]
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "http.request"
        assert root["labels"]["method"] == "POST"
        assert root["labels"]["route"] == "/v1/jobs"
        assert root["labels"]["status"] == "202"

        [run] = _find(root["children"], "jobs.run")
        shards = _find([run], "jobs.shard")
        assert len(shards) == status["progress"]["shards_total"] == 3
        assert len(_find([run], "jobs.merge")) == 1
        # Every span in the tree belongs to this one trace: the engine
        # phases executed on worker threads landed under their shards.
        assert _find([run], "engine.explore")

    def test_trace_records_per_shard_engine_work(self, service):
        _, client = service
        handle = client.submit(
            demo_scenario(frequency_points=2), solver="auto", shards=2
        )
        status = client.wait(handle.id, timeout=WAIT)
        trace = _poll_trace(client, status["trace_id"], want_jobs=1)
        shards = _find(trace["tree"], "jobs.shard")
        assert {s["labels"]["shard"] for s in shards} == {"1", "2"}
        for shard in shards:
            assert shard["labels"]["of"] == "2"
            assert shard["status"] == "ok"


class TestPropagation:
    def test_client_supplied_traceparent_is_adopted(self, service):
        _, client = service
        context = obs.TraceContext.mint()
        with obs.activate(context):
            client.healthz()
        trace = _poll_trace(client, context.trace_id)
        assert trace["trace_id"] == context.trace_id
        assert trace["route"] == "/v1/healthz"
        # The root HTTP span parents under the caller's span.
        assert trace["tree"][0]["parent_id"] == context.span_id

    def test_response_headers_echo_trace_and_request_id(self, service):
        server, _ = service
        context = obs.TraceContext.mint()
        with _get_raw(
            server.url + "/v1/healthz",
            headers={obs.TRACEPARENT_HEADER: context.to_traceparent()},
        ) as response:
            assert response.headers["X-Trace-Id"] == context.trace_id
            assert response.headers["X-Request-Id"] == context.request_id

    def test_minted_request_id_is_the_trace_prefix(self, service):
        server, _ = service
        with _get_raw(server.url + "/v1/healthz") as response:
            trace_id = response.headers["X-Trace-Id"]
            assert len(trace_id) == 32
            assert response.headers["X-Request-Id"] == trace_id[:16]

    def test_explicit_request_id_wins_over_the_minted_one(self, service):
        server, _ = service
        with _get_raw(
            server.url + "/v1/healthz",
            headers={"X-Request-Id": "caller-chosen-id"},
        ) as response:
            assert response.headers["X-Request-Id"] == "caller-chosen-id"
            assert len(response.headers["X-Trace-Id"]) == 32


class TestTracesEndpoint:
    def test_summaries_filters(self, service):
        _, client = service
        client.healthz()
        client.solvers()
        # Traces are recorded after the response is written: poll until
        # both requests are listed.
        deadline = time.monotonic() + 10.0
        while True:
            routes = {t["route"] for t in client.traces(limit=200)}
            if {"/v1/healthz", "/v1/solvers"} <= routes:
                break
            if time.monotonic() >= deadline:  # pragma: no cover
                break
            time.sleep(0.05)
        assert "/v1/healthz" in routes
        only = client.traces(route="/v1/solvers", limit=200)
        assert only and all(t["route"] == "/v1/solvers" for t in only)
        assert client.traces(min_ms=10 * 60 * 1000) == []
        assert all(t["error"] for t in client.traces(errors_only=True))

    def test_trace_lookup_of_unknown_id_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.trace("f" * 32)
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "trace-not-found"

    def test_bad_query_params_are_400(self, service):
        server, _ = service
        for query in ("min_ms=soon", "limit=0"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_raw(server.url + f"/v1/traces?{query}")
            assert excinfo.value.code == 400

    def test_healthz_exposes_trace_store_stats(self, service):
        _, client = service
        # A request's trace is recorded after its response is sent, so
        # make one request and poll healthz until the store reflects it.
        client.solvers()
        deadline = time.monotonic() + 10.0
        while True:
            stats = client.healthz()["traces"]
            assert stats["capacity"] == obs.DEFAULT_TRACE_CAPACITY
            if stats["traces"] >= 1:
                break
            if time.monotonic() >= deadline:  # pragma: no cover
                raise AssertionError(f"trace store never filled: {stats}")
            time.sleep(0.05)


class TestTracingDisabled:
    def test_traces_endpoint_is_503_without_telemetry(self, tmp_path):
        was_enabled = obs.is_enabled()
        registry = obs.get_registry()
        server = ExplorationServer(
            ServiceConfig(
                port=0,
                workers=2,
                cache_dir=str(tmp_path / "cache"),
                telemetry=False,
            )
        )
        server.start_background()
        client = ServiceClient(server.url, timeout=30.0)
        try:
            assert client.healthz()["traces"] is None
            with pytest.raises(ServiceError) as excinfo:
                client.traces()
            assert excinfo.value.status == 503
            assert excinfo.value.kind == "tracing-disabled"
            with pytest.raises(ServiceError) as excinfo:
                client.trace("f" * 32)
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            if was_enabled and registry is not None:
                obs.enable(registry)
            else:
                obs.disable()


class TestClientRetryIds:
    def _failing_client(self, recorded):
        client = ServiceClient("http://127.0.0.1:1", retries=2)
        client._sleep = lambda seconds: None

        def record_and_fail(request):
            recorded.append(
                (
                    request.get_header("X-request-id"),
                    request.get_header("Traceparent"),
                )
            )
            raise ServiceError(503, "unreachable", "synthetic outage")

        client._open_once = record_and_fail
        return client

    def test_one_logical_request_reuses_one_id_across_retries(self):
        recorded = []
        client = self._failing_client(recorded)
        with pytest.raises(ServiceError):
            client.healthz()
        assert len(recorded) == 3  # first try + 2 retries
        request_ids = {request_id for request_id, _ in recorded}
        assert len(request_ids) == 1
        (request_id,) = request_ids
        assert len(request_id) == 16
        traceparents = {header for _, header in recorded}
        assert len(traceparents) == 1
        context = obs.parse_traceparent(traceparents.pop())
        assert context.request_id == request_id

    def test_each_logical_request_gets_a_fresh_id(self):
        recorded = []
        client = self._failing_client(recorded)
        for _ in range(2):
            with pytest.raises(ServiceError):
                client.healthz()
        first, second = recorded[0][0], recorded[3][0]
        assert first != second
