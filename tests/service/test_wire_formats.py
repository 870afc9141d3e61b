"""One result, three wire formats: binary columns, JSON and NDJSON.

``ServiceClient`` reads the binary column file; curl users read JSON or
NDJSON.  All three must describe the same ``ResultSet``, and a binary
body that does not decode must never come back as a table.
"""

import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.explore import colfile
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import COLUMNS_CONTENT_TYPE
from repro.study import ResultSet, Study

from .wire import explore_body, fetch, json_answer, ndjson_answer, resultset_from

WAIT = 30.0


@pytest.fixture
def mixed_scenario(wallace_arch, tech_ll):
    """Feasible rows plus NaN rows of both infeasible kinds.

    Under ``auto`` the exact fallback pins 5 rows at the search
    boundary; the ``closed_form`` registry solver rejects 4 rows with
    chi*A >= 1.
    """
    return Scenario(
        name="mixed",
        architectures=(wallace_arch,),
        technologies=(tech_ll,),
        frequencies=FrequencyGrid.logspace(4e6, 4e9, 24),
    )


def assert_formats_agree(binary: ResultSet, url: str, body: bytes | None = None):
    """The route's three answers carry one payload and one ResultSet."""
    content_type, raw = fetch(url, body, accept=COLUMNS_CONTENT_TYPE)
    assert content_type == COLUMNS_CONTENT_TYPE
    payload = colfile.decode(raw)
    fields = {name: value for name, value in payload.items() if name != "columns"}
    json_header, json_records = json_answer(url, body)
    ndjson_header, ndjson_records = ndjson_answer(url, body)
    assert json_header == fields == ndjson_header
    assert fields["n_records"] == len(binary)
    assert ResultSet.from_payload(payload) == binary
    assert resultset_from(json_header, json_records) == binary
    assert resultset_from(ndjson_header, ndjson_records) == binary


def assert_mixed(result: ResultSet, reason: str) -> None:
    table = result._table
    assert 0 < table.n_feasible < len(table)
    assert np.isnan(table.columns["ptot"][~table.feasible]).all()
    assert any(reason in text for text in table.columns["reason"])


class TestExploreFormats:
    @pytest.mark.parametrize(
        "solver, reason", [("auto", "pinned"), ("closed_form", "chi*A")]
    )
    def test_formats_decode_to_equal_resultsets(
        self, service, mixed_scenario, solver, reason
    ):
        server, client = service
        # The first request fills the cache, so every answer compared
        # below is the same memory-tier hit.
        client.explore(mixed_scenario, solver=solver)
        binary = client.explore(mixed_scenario, solver=solver)
        assert binary.cache_hit
        assert_mixed(binary, reason)
        local = Study.from_scenario(mixed_scenario).solver(solver).run()
        assert binary.records == local.records
        assert_formats_agree(
            binary,
            server.url + "/v1/explore",
            explore_body(mixed_scenario, solver=solver),
        )


class TestJobResultFormats:
    def test_sharded_job_formats_decode_to_equal_resultsets(
        self, service, mixed_scenario
    ):
        server, client = service
        handle = client.submit(mixed_scenario, shards=4)
        status = client.wait(handle.id, timeout=WAIT, poll=0.05)
        assert status["state"] == "done"
        assert status["progress"]["shards_done"] == 4
        binary = client.job_result(handle.id)
        assert_mixed(binary, "pinned")
        local = Study.from_scenario(mixed_scenario).run()
        assert binary.records == local.records
        assert_formats_agree(binary, f"{server.url}/v1/jobs/{handle.id}/result")


# ---------------------------------------------------------------------------
# Bodies that must not decode: served by a stub that answers canned bytes.
# ---------------------------------------------------------------------------


class _Canned(BaseHTTPRequestHandler):
    """Answers every request 200 with ``server.canned``.

    ``canned`` is (content type, body, declared Content-Length); a
    declared length above ``len(body)`` closes the connection early.
    """

    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        content_type, body, length = self.server.canned
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        self.do_GET()

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


@pytest.fixture
def canned():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Canned)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield server, ServiceClient(f"http://{host}:{port}", timeout=WAIT)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(WAIT)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def good_body():
    result = Study.from_scenario(demo_scenario(frequency_points=2)).run()
    return colfile.encode(result.to_payload())


RESULT_CALLS = {
    "explore": lambda client: client.explore(demo_scenario(frequency_points=2)),
    "job_result": lambda client: client.job_result("0123456789abcdef"),
}


def assert_bad_response(client, call) -> None:
    with pytest.raises(ServiceError) as excinfo:
        RESULT_CALLS[call](client)
    assert excinfo.value.status == 502
    assert excinfo.value.kind == "bad-response"


@pytest.mark.parametrize("call", sorted(RESULT_CALLS))
class TestBadResponses:
    def test_the_stub_serves_a_whole_body(self, canned, good_body, call):
        server, client = canned
        server.canned = (COLUMNS_CONTENT_TYPE, good_body, len(good_body))
        assert len(RESULT_CALLS[call](client)) == 48

    def test_truncated_bodies(self, canned, good_body, call):
        server, client = canned
        (header_length,) = struct.unpack_from("<Q", good_body, len(colfile.MAGIC))
        header_end = len(colfile.MAGIC) + 8 + header_length
        cuts = sorted(
            {
                0,
                len(colfile.MAGIC) - 1,
                len(colfile.MAGIC) + 4,
                header_end - 1,
                header_end,
                (header_end + len(good_body)) // 2,
                len(good_body) - 1,
            }
        )
        for cut in cuts:
            # A short body that says so, and one cut off mid-read.
            for declared in (cut, len(good_body)):
                server.canned = (COLUMNS_CONTENT_TYPE, good_body[:cut], declared)
                assert_bad_response(client, call)

    def test_bad_magic(self, canned, good_body, call):
        server, client = canned
        body = b"NOTACOLF" + good_body[len(colfile.MAGIC):]
        server.canned = (COLUMNS_CONTENT_TYPE, body, len(body))
        assert_bad_response(client, call)

    def test_column_file_without_columns(self, canned, call):
        server, client = canned
        body = colfile.encode({"solver": "auto", "n_records": 48})
        server.canned = (COLUMNS_CONTENT_TYPE, body, len(body))
        assert_bad_response(client, call)

    @pytest.mark.parametrize(
        "content_type", ["application/json", "application/x-ndjson"]
    )
    def test_non_binary_body(self, canned, good_body, call, content_type):
        server, client = canned
        body = json.dumps({"n_records": 48, "records": []}).encode()
        server.canned = (content_type, body, len(body))
        assert_bad_response(client, call)
        # A valid column file under the wrong type is refused too.
        server.canned = (content_type, good_body, len(good_body))
        assert_bad_response(client, call)
