"""The /v1/jobs surface: HTTP lifecycle, coalescing, retries, CLI."""

import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.explore.engine import explore
from repro.explore.scenario import demo_scenario
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    COLUMNS_CONTENT_TYPE,
    ExplorationServer,
    ServiceConfig,
)

from .wire import fetch, json_result, ndjson_result

WAIT = 30.0


def _counter(metrics, name, **labels):
    """A counter's value from the /v1/metrics JSON snapshot (0 if absent)."""
    key = name
    if labels:
        rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        key = f"{name}{{{rendered}}}"
    return metrics.get("counters", {}).get(key, 0)


@pytest.fixture
def gated_service(tmp_path):
    """A live server whose job shards block until the test releases them."""
    release = threading.Event()
    started = threading.Event()

    server = ExplorationServer(
        ServiceConfig(port=0, workers=4, cache_dir=str(tmp_path / "cache"))
    )

    def evaluate(scenario, method):
        started.set()
        if not release.wait(timeout=WAIT):  # pragma: no cover — test hang
            raise TimeoutError("gate never released")
        return explore(scenario, method=method, use_cache=False)

    server.state.jobs._evaluate_shard = evaluate
    server.start_background()
    try:
        yield server, ServiceClient(server.url, timeout=60.0), started, release
    finally:
        release.set()
        server.shutdown()
        server.server_close()


@pytest.fixture
def gated_registry_service(tmp_path):
    """A live server whose registry-solver jobs block until released."""
    release = threading.Event()
    started = threading.Event()

    server = ExplorationServer(
        ServiceConfig(port=0, workers=4, cache_dir=str(tmp_path / "cache"))
    )
    produce = server.state.jobs._produce_registry

    def gated(record, scenario):
        started.set()
        if not release.wait(timeout=WAIT):  # pragma: no cover — test hang
            raise TimeoutError("gate never released")
        return produce(record, scenario)

    server.state.jobs._produce_registry = gated
    server.start_background()
    try:
        yield server, ServiceClient(server.url, timeout=60.0), started, release
    finally:
        release.set()
        server.shutdown()
        server.server_close()


class TestJobLifecycle:
    def test_submit_poll_result_round_trip(self, service):
        server, client = service
        scenario = demo_scenario(frequency_points=3)
        handle = client.submit(scenario, shards=4)

        status = client.wait(handle.id, timeout=WAIT, poll=0.05)
        assert status["state"] == "done"
        assert status["progress"]["shards_done"] == 4
        assert status["progress"]["points_done"] == scenario.size
        assert status["scenario_name"] == scenario.name

        # The NDJSON stream and plain JSON agree with inline.
        path = f"{server.url}/v1/jobs/{handle.id}/result"
        streamed = ndjson_result(path)
        plain = json_result(path)
        inline = explore(scenario, use_cache=False)
        assert len(streamed) == len(inline.table) == len(plain)
        for remote in (streamed, plain):
            for index in (0, len(remote) // 2, len(remote) - 1):
                record = remote[index]
                row = inline.table.rows()[index]
                assert record.architecture == row.architecture
                assert record.technology == row.technology
                assert record.frequency == row.frequency
                assert record.ptot == row.ptot

        listed = {payload["id"] for payload in client.jobs()}
        assert handle.id in listed

    @pytest.mark.parametrize(
        "accept",
        ["application/json", "application/x-ndjson", COLUMNS_CONTENT_TYPE],
    )
    def test_result_file_is_read_once_per_request(
        self, service, monkeypatch, accept
    ):
        server, client = service
        handle = client.submit(demo_scenario(frequency_points=2), shards=2)
        assert client.wait(handle.id, timeout=WAIT, poll=0.05)["state"] == "done"
        store = server.state.jobs.store
        read_result = store.read_result
        reads = []

        def counted(job_id):
            reads.append(job_id)
            return read_result(job_id)

        monkeypatch.setattr(store, "read_result", counted)
        content_type, _ = fetch(
            f"{server.url}/v1/jobs/{handle.id}/result", accept=accept
        )
        assert content_type == accept
        assert reads == [handle.id]

    def test_submit_returns_202_with_a_job_payload(self, service):
        server, client = service
        body = json.dumps(
            {"scenario": demo_scenario(frequency_points=2).to_dict()}
        ).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 202
            payload = json.loads(response.read())
        assert payload["job"]["state"] == "queued"
        assert payload["job"]["progress"]["points_total"] == 48

    def test_events_stream_follows_to_done(self, service):
        server, client = service
        handle = client.submit(demo_scenario(frequency_points=2), shards=3)
        events = list(client.job_events(handle.id, timeout=WAIT))
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states[0] == "queued" and states[-1] == "done"
        assert sum(1 for e in events if e["event"] == "shard") == 3

    def test_error_paths_are_typed(self, service):
        server, client = service
        with pytest.raises(ServiceError) as not_found:
            client.job("deadbeef00000000")
        assert not_found.value.status == 404
        assert not_found.value.kind == "job-not-found"

        handle = client.submit(demo_scenario(frequency_points=2))
        client.wait(handle.id, timeout=WAIT, poll=0.05)
        with pytest.raises(ServiceError) as conflict:
            client.cancel(handle.id)  # already done
        assert conflict.value.status == 409
        assert conflict.value.kind == "job-state"

        with pytest.raises(ServiceError) as bad_shards:
            client._post(
                "/v1/jobs",
                {
                    "scenario": demo_scenario(frequency_points=2).to_dict(),
                    "shards": 0,
                },
            )
        assert bad_shards.value.status == 400
        assert bad_shards.value.kind == "bad-shards"

    def test_job_metrics_flow_through_the_registry(self, service):
        server, client = service
        before = _counter(
            client.metrics(), "jobs.completed", solver="auto"
        )
        handle = client.submit(demo_scenario(frequency_points=2), shards=2)
        client.wait(handle.id, timeout=WAIT, poll=0.05)
        metrics = client.metrics()
        assert (
            _counter(metrics, "jobs.completed", solver="auto") == before + 1
        )
        assert _counter(metrics, "jobs.submitted", solver="auto") >= 1
        assert "jobs.queue_depth" in metrics.get("gauges", {})


class TestCancelOverHTTP:
    def test_delete_aborts_remaining_shards(self, gated_service):
        server, client, started, release = gated_service
        handle = client.submit(demo_scenario(frequency_points=2), shards=4)
        assert started.wait(timeout=WAIT)
        payload = client.cancel(handle.id)
        assert payload["state"] in ("running", "cancelled")
        release.set()
        status = client.wait(handle.id, timeout=WAIT, poll=0.05)
        assert status["state"] == "cancelled"
        assert status["progress"]["shards_done"] < 4
        with pytest.raises(ServiceError) as no_result:
            client.job_result(handle.id)
        assert no_result.value.status == 409


class TestSingleFlight:
    @staticmethod
    def assert_one_flight(service, job_solver, inline_solver):
        """A gated job and an inline request of one sweep: one run."""
        server, client, started, release = service
        scenario = demo_scenario(frequency_points=2)
        handle = client.submit(scenario, solver=job_solver)
        assert started.wait(timeout=WAIT)

        inline: dict = {}

        def explore_inline():
            inline["header"] = client._post(
                "/v1/explore",
                {"scenario": scenario.to_dict(), "solver": inline_solver},
            )

        thread = threading.Thread(target=explore_inline)
        thread.start()
        # The inline request must be waiting on the job's flight before
        # the gate opens, otherwise it would start its own engine run.
        deadline = threading.Event()
        for _ in range(200):
            if server.state.coalescer.stats()["coalesced"] >= 1:
                break
            deadline.wait(0.05)
        assert server.state.coalescer.stats()["coalesced"] >= 1
        release.set()

        thread.join(timeout=WAIT)
        assert not thread.is_alive()
        assert inline["header"]["coalesced"] is True
        assert inline["header"]["solver"] == job_solver
        assert inline["header"]["n_records"] == scenario.size
        # The inline path never entered its own evaluate.
        assert server.state.engine_runs == 0
        client.wait(handle.id, timeout=WAIT, poll=0.05)
        assert len(client.job_result(handle.id)) == scenario.size

    def test_job_and_inline_explore_share_one_engine_run(self, gated_service):
        """The coalescer regression: one sweep, two entry points, one run."""
        self.assert_one_flight(gated_service, "auto", "auto")

    def test_spellings_of_one_solver_share_one_flight(
        self, gated_registry_service
    ):
        """A ``closed-form`` request joins a ``closed_form`` job's flight."""
        self.assert_one_flight(gated_registry_service, "closed_form", "closed-form")


class TestClientRetry:
    def make_client(self, fail_times, status=503, kind="unreachable"):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=3, backoff=0.25, backoff_max=1.0
        )
        calls = {"n": 0}
        sleeps: list[float] = []

        def fake_open_once(request):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise ServiceError(status, kind, "boom")
            return _FakeResponse({"jobs": []})

        client._open_once = fake_open_once
        client._sleep = sleeps.append
        client._random = lambda: 0.0  # deterministic jitter
        return client, calls, sleeps

    def test_retries_ride_out_transient_503s(self):
        client, calls, sleeps = self.make_client(fail_times=2)
        assert client.jobs() == []
        assert calls["n"] == 3
        assert sleeps == [0.25, 0.5]  # exponential backoff, jitter = 0

    def test_backoff_is_capped_and_jittered(self):
        client, calls, sleeps = self.make_client(fail_times=3)
        client._random = lambda: 1.0  # full jitter doubles each delay
        assert client.jobs() == []
        assert sleeps == [0.5, 1.0, 2.0]  # (0.25, 0.5, capped 1.0) * 2

    def test_exhausted_retries_surface_the_error(self):
        client, calls, sleeps = self.make_client(fail_times=10)
        with pytest.raises(ServiceError) as error:
            client.jobs()
        assert error.value.status == 503
        assert calls["n"] == 4  # 1 try + 3 retries
        assert len(sleeps) == 3

    def test_client_errors_never_retry(self):
        client, calls, sleeps = self.make_client(
            fail_times=10, status=400, kind="bad-json"
        )
        with pytest.raises(ServiceError):
            client.jobs()
        assert calls["n"] == 1
        assert sleeps == []

    def test_retries_default_off_and_reject_negatives(self):
        client = ServiceClient("http://127.0.0.1:1")
        assert client.retries == 0
        calls = {"n": 0}

        def fail(request):
            calls["n"] += 1
            raise ServiceError(503, "unreachable", "down")

        client._open_once = fail
        with pytest.raises(ServiceError):
            client.jobs()
        assert calls["n"] == 1
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", retries=-1)


class _FakeResponse:
    def __init__(self, payload):
        self._body = json.dumps(payload).encode()

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestJobsCLI:
    def test_submit_wait_status_result_list(self, service, capsys, tmp_path):
        server, client = service
        url = ["--url", server.url]
        code = main(
            [
                "jobs", "submit", "--frequency-points", "2", "--shards", "2",
                "--wait", "--poll", "0.05", *url,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out
        job_id = out.split()[1]

        assert main(["jobs", "status", job_id, *url]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done"

        export = tmp_path / "result.json"
        code = main(["jobs", "result", job_id, "--export", str(export), *url])
        assert code == 0
        assert "exported 48 records" in capsys.readouterr().out
        assert len(json.loads(export.read_text())["records"]) == 48

        assert main(["jobs", "list", *url]) == 0
        assert job_id in capsys.readouterr().out

    def test_submit_wait_profile_prints_the_server_trace(
        self, service, capsys
    ):
        server, client = service
        code = main(
            [
                "jobs", "submit", "--frequency-points", "2", "--shards", "2",
                "--wait", "--poll", "0.05", "--profile",
                "--url", server.url,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: server trace" in out
        assert "trace " in out
        assert "http.request" in out
        assert "jobs.run" in out
        assert out.count("jobs.shard") == 2
        assert "jobs.merge" in out

    def test_cancel_and_error_exit_codes(self, gated_service, capsys):
        server, client, started, release = gated_service
        url = ["--url", server.url]
        assert main(
            ["jobs", "submit", "--frequency-points", "2", *url]
        ) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert started.wait(timeout=WAIT)

        assert main(["jobs", "cancel", job_id, *url]) == 0
        release.set()
        client.wait(job_id, timeout=WAIT, poll=0.05)

        # A service error (cancelling a terminal job) exits 1, not a trace.
        assert main(["jobs", "cancel", job_id, *url]) == 1
        assert "service error" in capsys.readouterr().err

    def test_unreachable_service_exits_one(self, capsys):
        code = main(
            ["jobs", "list", "--url", "http://127.0.0.1:1", "--retries", "0"]
        )
        assert code == 1
        assert "service error" in capsys.readouterr().err
