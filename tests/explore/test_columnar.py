"""The columnar pipeline: tables, lazy rows, expansion, payloads."""

import json

import numpy as np
import pytest

from repro.explore import colfile
from repro.explore.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.explore.columnar import (
    STRING_COLUMNS,
    Categorical,
    ResultTable,
    expand_columns,
)
from repro.explore.engine import (
    EvaluationStats,
    evaluate_table,
    explore,
)
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.study import ResultSet


@pytest.fixture
def mixed_scenario(wallace_arch, tech_ll):
    """Feasible interior + flagged boundary + infeasible tail."""
    return Scenario(
        name="mixed",
        architectures=(wallace_arch,),
        technologies=(tech_ll,),
        frequencies=FrequencyGrid.logspace(4e6, 4e9, 24),
    )


@pytest.fixture
def mixed_table(mixed_scenario):
    return evaluate_table(mixed_scenario, method="auto")


class TestExpandColumns:
    def test_matches_object_expansion(self):
        scenario = demo_scenario(frequency_points=5)
        columns = expand_columns(scenario)
        points = scenario.expand()
        assert columns.n == len(points) == scenario.size
        for index, point in enumerate(points):
            assert columns.arch_name[index] == point.architecture.name
            assert columns.tech_name[index] == point.technology.name
            assert columns.frequency[index] == point.frequency
            assert columns.n_cells[index] == point.architecture.n_cells
            assert columns.activity[index] == point.architecture.activity
            assert (
                columns.logical_depth[index]
                == point.architecture.logical_depth
            )
            assert columns.io_factor[index] == point.architecture.io_factor
            assert columns.zeta_factor[index] == point.architecture.zeta_factor

    def test_design_point_reconstruction(self):
        scenario = demo_scenario(frequency_points=3)
        columns = expand_columns(scenario)
        points = scenario.expand()
        for index in (0, len(points) // 2, len(points) - 1):
            assert columns.design_point(index) == points[index]

    def test_scenario_method_delegates(self):
        scenario = demo_scenario(frequency_points=3)
        assert scenario.expand_columns().n == scenario.size


class TestResultTable:
    def test_to_dicts_matches_per_record_dicts(self, mixed_table):
        assert mixed_table.to_dicts() == [
            row.to_dict() for row in mixed_table.rows()
        ]

    def test_payload_columns_round_trip(self, mixed_table):
        payload = mixed_table.to_payload_columns()
        rebuilt = ResultTable.from_payload_columns(
            json.loads(json.dumps(payload))
        )
        assert rebuilt.rows() == mixed_table.rows()

    def test_from_records_round_trip(self, mixed_table):
        records = list(mixed_table.rows())
        assert ResultTable.from_records(records).rows() == records

    def test_npz_round_trip_is_bit_exact(self, mixed_table, tmp_path):
        path = mixed_table.save_npz(tmp_path / "table.npz")
        rebuilt = ResultTable.load_npz(path)
        assert rebuilt.rows() == mixed_table.rows()
        for name, column in mixed_table.columns.items():
            if column.dtype == object:
                assert list(rebuilt.columns[name]) == list(column)
            else:
                # Bit-exact floats, NaN infeasibility markers included.
                assert rebuilt.columns[name].tobytes() == column.tobytes()

    def test_npz_round_trip_of_an_empty_table(self, tmp_path):
        empty = ResultTable.from_records([])
        path = empty.save_npz(tmp_path / "empty.npz")
        assert len(ResultTable.load_npz(path)) == 0

    def test_load_npz_rejects_foreign_archives(self, tmp_path):
        import numpy as np

        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="missing __schema__"):
            ResultTable.load_npz(path)

    def test_load_npz_rejects_unknown_schema(self, mixed_table, tmp_path):
        import numpy as np

        from repro.explore.columnar import NPZ_SCHEMA_VERSION

        path = mixed_table.save_npz(tmp_path / "table.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["__schema__"] = np.int64(NPZ_SCHEMA_VERSION + 1)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unsupported"):
            ResultTable.load_npz(path)

    def test_missing_column_rejected(self, mixed_table):
        columns = dict(mixed_table.columns)
        del columns["ptot"]
        with pytest.raises(ValueError, match="missing columns"):
            ResultTable(columns)

    def test_ragged_columns_rejected(self, mixed_table):
        columns = dict(mixed_table.columns)
        columns["ptot"] = columns["ptot"][:-1]
        with pytest.raises(ValueError, match="ragged"):
            ResultTable(columns)

    def test_derived_columns(self, mixed_table):
        ptot_or_inf = mixed_table.column("ptot_or_inf")
        for index, row in enumerate(mixed_table.rows()):
            assert ptot_or_inf[index] == row.ptot_or_inf
            assert mixed_table.column("area_proxy")[index] == row.area_proxy
        with pytest.raises(KeyError, match="unknown result column"):
            mixed_table.column("nope")

    def test_best_index(self, mixed_table):
        best = mixed_table.row(mixed_table.best_index())
        feasible = [r for r in mixed_table.rows() if r.feasible]
        assert best == min(feasible, key=lambda r: r.ptot_or_inf)

    def test_ndjson_chunks_match_per_record_dumps(self, mixed_table):
        chunks = list(mixed_table.iter_ndjson_chunks(chunk_rows=7))
        lines = "\n".join(chunks).split("\n")
        expected = [
            json.dumps({"kind": "record", **row.to_dict()}, sort_keys=True)
            for row in mixed_table.rows()
        ]
        assert lines == expected


class TestResultRows:
    def test_identity_is_stable(self, mixed_table):
        rows = mixed_table.rows()
        assert rows[0] is rows[0]
        assert rows[-1] is rows[len(rows) - 1]

    def test_separate_views_materialise_equal_rows(self, mixed_table):
        assert mixed_table.rows()[0] == mixed_table.rows()[0]

    def test_slicing_and_sequence_protocol(self, mixed_table):
        rows = mixed_table.rows()
        assert rows[2:5] == list(rows)[2:5]
        assert rows.index(rows[3]) == 3
        assert rows[3] in rows

    def test_equality_against_lists_both_ways(self, mixed_table):
        rows = mixed_table.rows()
        as_list = list(rows)
        assert rows == as_list
        assert as_list == rows
        assert not (rows == as_list[:-1])

    def test_out_of_range(self, mixed_table):
        rows = mixed_table.rows()
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(IndexError):
            rows[-len(rows) - 1]  # must not wrap around to the tail
        with pytest.raises(IndexError):
            mixed_table.row(-len(rows) - 1)
        assert rows[-len(rows)] == rows[0]


class TestStringColumns:
    """String columns stay codes until a caller reads one."""

    @staticmethod
    def all_codes(table):
        return all(
            isinstance(table.columns.stored[name], Categorical)
            for name in STRING_COLUMNS
        )

    def test_row_best_and_take_build_no_object_column(self, mixed_table):
        reference = ResultTable.from_records(list(mixed_table.rows()))
        assert self.all_codes(mixed_table)
        best = ResultSet(records=mixed_table.rows(), solver="auto").best()
        taken = mixed_table.take([0, len(mixed_table) - 1])
        assert self.all_codes(mixed_table) and self.all_codes(taken)
        assert best == reference.row(reference.best_index())
        assert list(taken.rows()) == [reference.row(0), reference.row(-1)]
        assert self.all_codes(taken)

    def test_a_read_column_is_the_tables_truth(self, mixed_table):
        reason = mixed_table.columns["reason"]
        assert reason.dtype == object
        assert mixed_table.columns["reason"] is reason
        assert mixed_table.columns.stored["reason"] is reason
        reason[0] = "edited"
        assert mixed_table.row(0).reason == "edited"
        assert mixed_table.take([0]).row(0).reason == "edited"
        payload = {"columns": mixed_table.columns.stored}
        decoded = colfile.decode(colfile.encode(payload))["columns"]["reason"]
        assert decoded[0] == "edited"
        methods = mixed_table.columns["method"]
        stats = EvaluationStats.from_table(mixed_table, 0.0)
        assert stats.n_fallback == np.count_nonzero(methods == "numerical-fallback")
        assert 0 < stats.n_vectorized == np.count_nonzero(
            methods == "vectorized-closed-form"
        )


class TestColumnarEdgeCases:
    def test_empty_table(self):
        table = ResultTable.from_records([])
        assert len(table) == 0
        assert table.rows() == []
        assert table.to_dicts() == []
        assert table.best_index() is None
        assert list(table.iter_ndjson_chunks()) == []
        stats = EvaluationStats.from_table(table, 0.0)
        assert stats.n_candidates == stats.n_feasible == 0

    def test_single_point_scenario(self, wallace_arch, tech_ll):
        scenario = Scenario(
            name="single",
            architectures=(wallace_arch,),
            technologies=(tech_ll,),
            frequencies=FrequencyGrid.single(31.25e6),
        )
        table = evaluate_table(scenario, method="auto")
        assert len(table) == 1
        (row,) = table.rows()
        assert row.feasible
        assert row.method == "vectorized-closed-form"

    def test_all_infeasible_scenario(self, wallace_arch, tech_ll):
        scenario = Scenario(
            name="impossible",
            architectures=(wallace_arch,),
            technologies=(tech_ll,),
            frequencies=FrequencyGrid.logspace(5e9, 50e9, 4),
        )
        table = evaluate_table(scenario, method="auto")
        assert len(table) == 4
        assert table.n_feasible == 0
        assert table.best_index() is None
        for row in table.rows():
            assert not row.feasible
            assert row.reason != ""
            assert row.method == "numerical-fallback"
            assert row.vdd is None and row.ptot is None

    def test_closed_form_all_infeasible(self, wallace_arch, tech_ll):
        scenario = Scenario(
            name="impossible-cf",
            architectures=(wallace_arch,),
            technologies=(tech_ll,),
            frequencies=FrequencyGrid.logspace(5e9, 50e9, 4),
        )
        table = evaluate_table(scenario, method="closed-form")
        for row in table.rows():
            assert not row.feasible
            assert row.method == "vectorized-closed-form"
            assert "timing" in row.reason or "threshold" in row.reason


class TestColumnlessCacheEntries:
    def test_entry_without_columns_is_quarantined_and_recomputed(
        self, mixed_scenario, tmp_path
    ):
        """A column-less entry under the current key is not a 0-row hit."""
        from repro.explore.engine import _cache_key
        from repro.service.memcache import default_memory_cache

        fresh = explore(mixed_scenario, cache=tmp_path, use_cache=False)
        key = _cache_key(mixed_scenario, "auto")
        ResultCache(tmp_path).put(
            key,
            {
                "schema": CACHE_SCHEMA_VERSION,
                "method": "auto",
                "scenario": mixed_scenario.to_dict(),
                "stats": fresh.stats.to_dict(),
                "parity_checked": True,
            },
        )
        default_memory_cache().clear()

        served = explore(mixed_scenario, cache=tmp_path)
        assert not served.cache_hit
        assert served.points == fresh.points
        assert [path.name for path in tmp_path.glob("*.quarantined")] == [
            f"{key}.quarantined"
        ]
        assert explore(mixed_scenario, cache=tmp_path).cache_hit
