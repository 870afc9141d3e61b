"""ServiceClient: the Study surface over HTTP, with exact parity."""

import pytest

from repro.explore.scenario import demo_scenario
from repro.service.client import RemoteStudy, ServiceClient, ServiceError
from repro.study import ResultSet, Study

from .wire import explore_body, ndjson_result

ARCH = {
    "name": "w16",
    "n_cells": 729,
    "activity": 0.2976,
    "logical_depth": 17,
    "capacitance": 70e-15,
}


class TestRoundTripParity:
    """Acceptance: HTTP records == in-process records, values and order."""

    def test_explore_matches_study_run(self, service):
        _, client = service
        scenario = demo_scenario(frequency_points=3)
        remote = client.explore(scenario, solver="auto", jobs=1)
        local = Study.from_scenario(scenario).solver("auto").jobs(1).run()
        assert isinstance(remote, ResultSet)
        assert remote.records == local.records  # same values, same ordering
        assert remote.solver == local.solver
        assert remote.scenario == local.scenario

    def test_streamed_explore_matches_study_run(self, service):
        server, _ = service
        scenario = demo_scenario(frequency_points=3)
        remote = ndjson_result(
            server.url + "/v1/explore",
            explore_body(scenario, solver="auto", jobs=1),
        )
        local = Study.from_scenario(scenario).solver("auto").jobs(1).run()
        assert remote.records == local.records

    def test_resultset_analysis_works_on_remote_records(self, service):
        _, client = service
        remote = client.explore(demo_scenario(frequency_points=3), jobs=1)
        assert remote.best() is not None
        assert len(remote.pareto()) >= 1
        assert "Pareto" in remote.table(top=3)


class TestRemoteStudy:
    def test_fluent_builder_runs_server_side(self, service):
        server, client = service
        study = (
            client.study("remote")
            .architectures(ARCH)
            .technologies("ULL", "LL", "HS")
            .frequencies(31.25e6)
            .solver("auto")
        )
        assert isinstance(study, RemoteStudy)
        remote = study.run()
        local = (
            Study("local")
            .architectures(ARCH)
            .technologies("ULL", "LL", "HS")
            .frequencies(31.25e6)
            .solver("auto")
            .run()
        )
        assert remote.records == local.records
        assert server.state.engine_runs >= 1

    def test_solver_options_travel(self, service):
        _, client = service
        remote = (
            client.study("capped")
            .architectures(ARCH)
            .technologies("LL")
            .frequencies(31.25e6)
            .solver("bounded", vth_max=0.1)
            .run()
        )
        record = remote[0]
        assert record.feasible and record.vth <= 0.1 + 1e-12
        local = (
            Study("capped-local")
            .architectures(ARCH)
            .technologies("LL")
            .frequencies(31.25e6)
            .solver("bounded", vth_max=0.1)
            .run()
        )
        assert remote.records == local.records

    def test_rerun_hits_the_service_cache(self, service):
        _, client = service
        study = (
            client.study("cached-remote")
            .architectures(ARCH)
            .technologies("LL")
            .frequencies(31.25e6)
        )
        first = study.run()
        second = study.run()
        assert not first.cache_hit
        assert second.cache_hit
        assert second.records == first.records


class TestClientErrors:
    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert excinfo.value.kind == "unreachable"

    def test_server_error_payload_surfaces(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.explore(demo_scenario(frequency_points=2), solver="nope")
        assert "unknown solver" in str(excinfo.value)
