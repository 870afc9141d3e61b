"""ResultSet edge cases the service will hit in production.

Empty sweeps (every candidate filtered out), single-record frontiers,
the JSON round-trip curl users rely on and the result-payload round-trip
behind job result files and the :class:`~repro.service.client.
ServiceClient`: a ``ResultSet`` rebuilt from either must equal the
original, record for record.
"""

import csv
import dataclasses
import io
import json

import pytest

from repro.explore import colfile
from repro.explore.engine import EvaluationStats
from repro.study import Record, ResultSet, Study

WALLACE = {
    "name": "w16",
    "n_cells": 729,
    "activity": 0.2976,
    "logical_depth": 17,
    "capacitance": 70e-15,
}


@pytest.fixture(scope="module")
def reference() -> ResultSet:
    return (
        Study("edge-reference")
        .architectures(WALLACE)
        .technologies("ULL", "LL", "HS")
        .frequencies(2e6, 31.25e6, 2e9)
        .solver("auto")
        .jobs(1)
        .run()
    )


@pytest.fixture
def empty(reference) -> ResultSet:
    return reference.filter(lambda record: False)


class TestEmptyResultSet:
    def test_len_and_iteration(self, empty):
        assert len(empty) == 0
        assert list(empty) == []
        assert empty.best() is None
        assert empty.n_feasible == 0

    def test_to_csv_has_header_only(self, empty):
        rows = list(csv.reader(io.StringIO(empty.to_csv())))
        assert len(rows) == 1
        assert "architecture" in rows[0] and "ptot" in rows[0]

    def test_to_json_is_valid_and_empty(self, empty):
        payload = json.loads(empty.to_json())
        assert payload["records"] == []
        assert payload["solver"] == empty.solver

    def test_table_renders_without_rows(self, empty):
        text = empty.table()
        assert isinstance(text, str) and text  # renders, doesn't raise

    def test_derived_views_stay_empty(self, empty):
        assert len(empty.feasible()) == 0
        assert len(empty.rank()) == 0
        assert len(empty.pareto()) == 0


class TestSingleRecord:
    def test_pareto_of_one_feasible_record_is_itself(self, reference):
        single = reference.feasible()._subset(reference.feasible().records[:1])
        frontier = single.pareto()
        assert len(frontier) == 1
        assert frontier[0] == single[0]

    def test_pareto_of_one_infeasible_record_is_empty(self, reference):
        infeasible = reference.infeasible()
        if not infeasible.records:  # pragma: no cover - depends on sweep
            pytest.skip("reference sweep has no infeasible point")
        single = infeasible._subset(infeasible.records[:1])
        assert len(single.pareto()) == 0

    def test_best_of_single(self, reference):
        single = reference.feasible()._subset(reference.feasible().records[:1])
        assert single.best() == single[0]


class TestJsonRoundTrip:
    """The client contract: serialized records rebuild an equal ResultSet."""

    def test_records_round_trip_exactly(self, reference):
        wire = json.loads(json.dumps(reference.to_dicts()))
        rebuilt = [Record.from_dict(record) for record in wire]
        assert rebuilt == reference.records

    def test_full_resultset_payload_round_trip(self, reference):
        payload = json.loads(reference.to_json())
        rebuilt = ResultSet(
            records=[Record.from_dict(r) for r in payload["records"]],
            solver=payload["solver"],
            stats=EvaluationStats.from_dict(payload["stats"]),
        )
        assert rebuilt.records == reference.records
        assert rebuilt.solver == reference.solver
        assert rebuilt.stats == reference.stats
        assert rebuilt.best() == reference.best()

    def test_round_trip_preserves_infeasible_reasons(self, reference):
        infeasible = reference.infeasible()
        if not infeasible.records:  # pragma: no cover - depends on sweep
            pytest.skip("reference sweep has no infeasible point")
        wire = json.loads(json.dumps(infeasible.to_dicts()))
        rebuilt = [Record.from_dict(record) for record in wire]
        assert rebuilt == infeasible.records
        assert all(record.reason for record in rebuilt)

    def test_empty_round_trip(self, empty):
        wire = json.loads(json.dumps(empty.to_dicts()))
        assert [Record.from_dict(r) for r in wire] == []


class TestPayloadRoundTrip:
    def test_payload_round_trips_through_a_column_file(self, reference):
        payload = reference.to_payload(coalesced=True)
        decoded = colfile.decode(colfile.encode(payload))
        assert decoded["coalesced"] is True
        assert decoded["n_records"] == len(reference)
        rebuilt = ResultSet.from_payload(decoded)
        assert rebuilt == dataclasses.replace(reference, cache_path=None)

    def test_only_table_backed_sets_have_a_payload(self, reference):
        with pytest.raises(ValueError, match="table-backed"):
            reference.feasible().to_payload()
