"""The binary column file behind the result cache and job results."""

import numpy as np
import pytest

from repro.explore import colfile
from repro.explore.cache import ResultCache
from repro.explore.columnar import ResultTable
from repro.explore.engine import evaluate_table, explore
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.service.memcache import MemoryCache, TieredCache


@pytest.fixture
def mixed_table(wallace_arch, tech_ll):
    """Feasible, fallback and infeasible (NaN operating point) rows."""
    scenario = Scenario(
        name="mixed",
        architectures=(wallace_arch,),
        technologies=(tech_ll,),
        frequencies=FrequencyGrid.logspace(4e6, 4e9, 24),
    )
    return evaluate_table(scenario, method="auto")


def round_trip(payload):
    return colfile.decode(colfile.encode(payload))


class TestRoundTrip:
    def test_mixed_table_is_bit_exact(self, mixed_table):
        assert 0 < mixed_table.n_feasible < len(mixed_table)
        decoded = round_trip({"stats": {"n": 24}, "columns": mixed_table.columns})
        assert decoded["stats"] == {"n": 24}
        assert list(decoded["columns"]) == list(mixed_table.columns)
        for name, column in mixed_table.columns.items():
            got = decoded["columns"][name]
            assert got.dtype == column.dtype
            if column.dtype == object:
                assert got.tolist() == column.tolist()
            else:
                # Bit-exact, NaN infeasibility markers included.
                assert got.tobytes() == column.tobytes()
        rebuilt = ResultTable.from_cache_payload(decoded)
        assert rebuilt.rows() == mixed_table.rows()

    def test_empty_table(self):
        empty = ResultTable.from_records([])
        decoded = round_trip({"columns": empty.columns})
        assert len(ResultTable.from_cache_payload(decoded)) == 0

    def test_payload_without_columns(self):
        payload = {"schema": 3, "stats": {"a": [1, 2.5, None]}, "ok": True}
        assert round_trip(payload) == payload

    def test_strings_with_nul_and_non_ascii_characters(self):
        strings = np.array(["a\x00b", "µW — Vdd", "", "a\x00b", "日本"], dtype=object)
        decoded = round_trip({"columns": {"s": strings}})
        assert decoded["columns"]["s"].tolist() == strings.tolist()


class TestMalformedInput:
    @pytest.fixture
    def entry(self):
        return colfile.encode(
            {
                "schema": 3,
                "columns": {
                    "x": np.arange(3.0),
                    "s": np.array(["p", "q", "p"], dtype=object),
                },
            }
        )

    def test_every_truncation_and_a_trailing_byte_raise(self, entry):
        for length in range(len(entry)):
            with pytest.raises(ValueError):
                colfile.decode(entry[:length])
        with pytest.raises(ValueError):
            colfile.decode(entry + b"\x00")

    def test_bad_magic_raises(self, entry):
        with pytest.raises(ValueError, match="magic"):
            colfile.decode(b"X" + entry[1:])

    def test_out_of_range_string_code_raises(self, entry):
        # "s" is the last buffer: its final code is the last four bytes.
        corrupt = entry[:-4] + np.array([7], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="out of range"):
            colfile.decode(corrupt)


class TestSharedColumns:
    """The memory tier serves one payload to every hit: no caller may change it."""

    @staticmethod
    def scribble(table):
        table.columns["ptot"][0] = 0.0
        table.columns["architecture"][0] = "x"
        table.columns["vdd"] = table.columns["vdd"] * 1e3

    def test_writes_into_results_never_reach_later_hits(self, tmp_path):
        scenario = demo_scenario(frequency_points=2)
        cache = TieredCache(ResultCache(tmp_path), MemoryCache(4))
        cold = explore(scenario, cache=cache)
        expected = {name: col.copy() for name, col in cold.table.columns.items()}
        self.scribble(cold.table)
        fresh = TieredCache(ResultCache(tmp_path), MemoryCache(4))
        # Two memory hits, then a disk hit on a fresh memory tier and the
        # memory hit it promoted; each result is scribbled on in turn.
        for tier in (cache, cache, fresh, fresh):
            hit = explore(scenario, cache=tier)
            assert hit.cache_hit
            for name, column in expected.items():
                got = hit.table.columns[name]
                if column.dtype == object:
                    assert got.tolist() == column.tolist()
                else:
                    assert got.tobytes() == column.tobytes()
            self.scribble(hit.table)
        assert cache.memory.stats()["hits"] == 2
        assert fresh.memory.stats()["hits"] == 1
