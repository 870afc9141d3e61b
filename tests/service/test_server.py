"""The HTTP front end: routes, errors, streaming, concurrency limits."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.explore.scenario import demo_scenario
from repro.service.client import ServiceClient
from repro.service.server import (
    ExplorationServer,
    ServiceConfig,
    ServiceError,
    parse_explore_request,
    parse_optimize_request,
)
from repro.study import Study

from .wire import explore_body, json_result, ndjson_result

ARCH = {
    "name": "w16",
    "n_cells": 729,
    "activity": 0.2976,
    "logical_depth": 17,
    "capacitance": 70e-15,
}


def _post_raw(url: str, body: bytes, headers: dict | None = None):
    request = urllib.request.Request(
        url,
        data=body,
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    return urllib.request.urlopen(request, timeout=30)


class TestIntrospectionRoutes:
    def test_healthz(self, service):
        _, client = service
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == repro.__version__
        assert payload["workers"] == 4
        assert payload["requests"] >= 1

    def test_solvers_shares_the_cli_listing(self, service):
        from repro.listing import listing_payload

        _, client = service
        assert client.solvers() == json.loads(json.dumps(listing_payload()))

    def test_architectures(self, service):
        _, client = service
        names = client.architectures()
        assert "Wallace" in names and len(names) == 13

    def test_catalog_shares_the_cli_listing(self, service):
        from repro.catalog import NAMESPACES
        from repro.listing import catalog_payload

        _, client = service
        payload = client.catalog()
        assert set(payload) == set(NAMESPACES)
        assert payload == json.loads(json.dumps(catalog_payload()))

    def test_cache_stats_shape(self, service):
        _, client = service
        stats = client.cache_stats()
        assert stats["enabled"] is True
        assert {"memory", "disk", "coalescer", "engine_runs"} <= set(stats)


class TestExploreRoute:
    def test_small_sweep(self, service):
        _, client = service
        scenario = demo_scenario(frequency_points=2)
        result = client.explore(scenario, solver="auto", jobs=1)
        assert len(result) == scenario.size
        assert result.best() is not None

    def test_repeat_is_a_cache_hit(self, service):
        _, client = service
        scenario = demo_scenario(frequency_points=2)
        first = client.explore(scenario, solver="auto", jobs=1)
        second = client.explore(scenario, solver="auto", jobs=1)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.records == first.records

    def test_ndjson_stream_matches_plain_response(self, service):
        server, _ = service
        scenario = demo_scenario(frequency_points=2)
        body = explore_body(scenario, solver="auto", jobs=1)
        plain = json_result(server.url + "/v1/explore", body)
        streamed = ndjson_result(server.url + "/v1/explore", body)
        assert streamed.records == plain.records
        assert streamed.solver == plain.solver
        # Phase timings are per-run (the first request computed, the
        # second replayed the cache); compare everything else.
        import dataclasses

        assert dataclasses.replace(
            streamed.stats, phases={}
        ) == dataclasses.replace(plain.stats, phases={})

    def test_ndjson_wire_format(self, service):
        server, client = service
        scenario = demo_scenario(frequency_points=2)
        body = json.dumps(
            {"scenario": scenario.to_dict(), "solver": "auto", "jobs": 1}
        ).encode()
        with _post_raw(server.url + "/v1/explore?stream=ndjson", body) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(l) for l in response.read().splitlines() if l]
        assert lines[0]["kind"] == "header"
        assert lines[0]["n_records"] == scenario.size
        assert all(line["kind"] == "record" for line in lines[1:])
        assert len(lines) == 1 + scenario.size


class TestOptimizeRoute:
    def test_matches_in_process_study(self, service):
        _, client = service
        record = client.optimize(ARCH, "LL", 31.25e6, solver="numerical")
        local = (
            Study("local")
            .architectures(ARCH)
            .technologies("LL")
            .frequencies(31.25e6)
            .solver("numerical")
            .run()[0]
        )
        assert record == local

    def test_solver_options_forwarded(self, service):
        _, client = service
        unconstrained = client.optimize(ARCH, "LL", 31.25e6, solver="bounded")
        capped = client.optimize(
            ARCH, "LL", 31.25e6, solver="bounded", vth_max=0.1
        )
        assert unconstrained.vth > 0.1  # the cap actually binds
        assert capped.feasible and capped.vth <= 0.1 + 1e-12


class TestErrorMapping:
    def test_unknown_route_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._get("/v1/frobnicate")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, service):
        server, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url + "/v1/healthz", b"{}")
        assert excinfo.value.code == 405

    def test_malformed_json_is_400(self, service):
        server, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url + "/v1/explore", b"{not json")
        error = json.loads(excinfo.value.read())["error"]
        assert excinfo.value.code == 400
        assert error["type"] == "bad-json"

    def test_missing_scenario_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._post("/v1/explore", {"solver": "auto"})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "missing-field"

    def test_invalid_scenario_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._post("/v1/explore", {"scenario": {"name": "broken"}})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "bad-scenario"

    def test_unknown_solver_is_400(self, service):
        _, client = service
        for solver in ("nope", "surrogate"):
            with pytest.raises(ServiceError) as excinfo:
                client.explore(demo_scenario(frequency_points=2), solver=solver)
            assert excinfo.value.status == 400
            assert excinfo.value.kind == "unknown-solver"
            assert "auto" in str(excinfo.value)

    def test_unknown_solver_suggests_bounded_on_optimize(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.optimize(ARCH, "LL", 31.25e6, solver="bouned")
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "unknown-solver"
        assert "did you mean" in str(excinfo.value)
        assert "bounded" in str(excinfo.value)

    def test_bad_jobs_is_400(self, service):
        _, client = service
        scenario = demo_scenario(frequency_points=2)
        with pytest.raises(ServiceError) as excinfo:
            client._post(
                "/v1/explore", {"scenario": scenario.to_dict(), "jobs": 0}
            )
        assert excinfo.value.kind == "bad-jobs"

    def test_oversized_body_is_413(self, tmp_path):
        server = ExplorationServer(
            ServiceConfig(port=0, max_body=64, cache_dir=str(tmp_path))
        )
        server.start_background()
        try:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.explore(demo_scenario(frequency_points=2))
            assert excinfo.value.status == 413
        finally:
            server.shutdown()
            server.server_close()

    def test_negative_content_length_is_400(self, service):
        """-1 must not block the handler on a read-to-EOF (thread pinning)."""
        import http.client

        server, _ = service
        host, port = server.server_address[:2]
        for length in ("-1", "-5"):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.putrequest("POST", "/v1/explore")
                connection.putheader("Content-Length", length)
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == 400
                assert json.loads(response.read())["error"]["type"] == "bad-length"
            finally:
                connection.close()

    def test_bad_frequency_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._post(
                "/v1/optimize",
                {"architecture": ARCH, "technology": "LL", "frequency": -1},
            )
        assert excinfo.value.kind == "bad-frequency"

    def test_errors_are_counted(self, service):
        _, client = service
        before = client.healthz()["errors"]
        with pytest.raises(ServiceError):
            client._get("/v1/frobnicate")
        assert client.healthz()["errors"] == before + 1


class TestCoalescingOverHTTP:
    def test_concurrent_identical_sweeps_run_once(self, tmp_path):
        release = threading.Event()

        def gated_evaluate(scenario, solver, jobs, options):
            release.wait(10.0)
            return (
                Study.from_scenario(scenario)
                .solver(solver, **options)
                .jobs(jobs)
                .run()
            )

        server = ExplorationServer(
            ServiceConfig(port=0, workers=8, use_cache=False),
            evaluate=gated_evaluate,
        )
        server.start_background()
        try:
            scenario = demo_scenario(frequency_points=2)
            results = []

            def post():
                client = ServiceClient(server.url)
                results.append(client.explore(scenario, solver="auto", jobs=1))

            threads = [threading.Thread(target=post) for _ in range(6)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            while server.state.coalescer.stats()["coalesced"] < 5:
                assert time.monotonic() < deadline, "requests never coalesced"
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join(30.0)

            assert len(results) == 6
            assert server.state.engine_runs == 1
            assert all(r.records == results[0].records for r in results)
        finally:
            release.set()
            server.shutdown()
            server.server_close()


class TestRequestParsers:
    def test_explore_parser_round_trip(self):
        scenario = demo_scenario(frequency_points=2)
        parsed, solver, jobs, options = parse_explore_request(
            {"scenario": scenario.to_dict(), "solver": "vectorized", "jobs": 2}
        )
        assert parsed == scenario
        assert (solver, jobs, options) == ("vectorized", 2, {})

    def test_optimize_parser_builds_single_point_scenario(self):
        scenario, solver, options = parse_optimize_request(
            {
                "architecture": ARCH,
                "technology": "LL",
                "frequency": 31.25e6,
                "solver": "bounded",
                "options": {"vth_max": 0.45},
            }
        )
        assert scenario.size == 1
        assert solver == "bounded"
        assert options == {"vth_max": 0.45}

    def test_port_zero_binds_ephemeral_port(self, tmp_path):
        server = ExplorationServer(
            ServiceConfig(port=0, cache_dir=str(tmp_path))
        )
        try:
            assert server.server_port > 0
            assert str(server.server_port) in server.url
        finally:
            server.server_close()

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_body=0)
