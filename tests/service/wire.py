"""Raw-HTTP readers of the service's JSON and NDJSON result formats.

``ServiceClient`` asks only for the binary column format.  These
helpers fetch the two human formats as curl would and rebuild a
``ResultSet`` from them, so tests can check that every format carries
the same result.
"""

import json
import urllib.request

from repro.explore.engine import EvaluationStats
from repro.explore.scenario import Scenario
from repro.study import Record, ResultSet


def explore_body(scenario, **fields) -> bytes:
    """A ``POST /v1/explore`` request body for ``scenario``."""
    return json.dumps({"scenario": scenario.to_dict(), **fields}).encode()


def fetch(url: str, body: bytes | None = None, accept: str | None = None):
    """(content type, body bytes) of one request; POST when ``body`` is set."""
    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    request = urllib.request.Request(url, data=body, headers=headers)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.headers.get_content_type(), response.read()


def resultset_from(header: dict, records: list[dict]) -> ResultSet:
    """The ResultSet a JSON or NDJSON answer describes."""
    return ResultSet(
        records=[Record.from_dict(record) for record in records],
        solver=header["solver"],
        scenario=Scenario.from_dict(header["scenario"]),
        stats=EvaluationStats.from_dict(header["stats"]),
        cache_hit=header["cache"]["hit"],
        cache_key=header["cache"]["key"],
        partial=header.get("partial", False),
    )


def json_answer(url: str, body: bytes | None = None) -> tuple[dict, list]:
    """The default JSON answer as (header fields, records)."""
    content_type, raw = fetch(url, body)
    assert content_type == "application/json"
    header = json.loads(raw)
    return header, header.pop("records")


def ndjson_answer(url: str, body: bytes | None = None) -> tuple[dict, list]:
    """The ``?stream=1`` NDJSON answer as (header fields, records)."""
    separator = "&" if "?" in url else "?"
    content_type, raw = fetch(f"{url}{separator}stream=1", body)
    assert content_type == "application/x-ndjson"
    lines = [json.loads(line) for line in raw.splitlines() if line]
    assert lines[0].pop("kind") == "header"
    assert all(line.pop("kind") == "record" for line in lines[1:])
    return lines[0], lines[1:]


def json_result(url: str, body: bytes | None = None) -> ResultSet:
    return resultset_from(*json_answer(url, body))


def ndjson_result(url: str, body: bytes | None = None) -> ResultSet:
    return resultset_from(*ndjson_answer(url, body))
