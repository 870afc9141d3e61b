"""The binary column file behind the result cache and job results."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Study
from repro.explore import colfile
from repro.explore.cache import ResultCache
from repro.explore.columnar import STRING_COLUMNS, Categorical, ResultTable
from repro.explore.engine import evaluate_table, explore
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.jobs.manager import JobManager
from repro.jobs.store import JobStore
from repro.service.memcache import MemoryCache, TieredCache
from repro.service.server import (
    COLUMNS_CONTENT_TYPE,
    ExplorationServer,
    ServiceConfig,
)

from ..service.wire import explore_body, fetch


def reference_encode(payload):
    """The column file as the per-value encoder wrote it: each string
    column's vocabulary rebuilt with ``dict.fromkeys`` and every value
    mapped to its code one at a time.  The oracle for :func:`colfile.encode`."""
    header = {"fields": {k: v for k, v in payload.items() if k != "columns"}}
    buffers, specs, offset = [], {}, 0
    for name, values in payload.get("columns", {}).items():
        array = np.asarray(values)
        spec = {}
        if array.dtype.kind in "OU":
            strings = array.tolist()
            vocab = list(dict.fromkeys(strings))
            code = {value: index for index, value in enumerate(vocab)}
            array = np.fromiter(map(code.__getitem__, strings), "<u4", len(strings))
            spec["vocab"] = vocab
        else:
            array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        spec.update(dtype=array.dtype.str, rows=len(array), nbytes=array.nbytes)
        start = offset + -offset % 8
        buffers += [bytes(start - offset), array.tobytes()]
        spec["offset"] = start
        specs[name] = spec
        offset = start + array.nbytes
    if "columns" in payload:
        header["columns"] = specs
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    end = len(colfile.MAGIC) + 8 + len(head)
    return b"".join(
        [colfile.MAGIC, len(head).to_bytes(8, "little"), head, bytes(-end % 8)]
        + buffers
    )


def mixed_scenario():
    """The 100,800-point mixed sweep: vectorized, fallback and infeasible rows."""
    base = demo_scenario()
    return Scenario(
        name="bench-columnar",
        architectures=base.architectures,
        technologies=base.technologies,
        frequencies=FrequencyGrid.logspace(2e6, 1.5e9, 4200),
        transform_chains=base.transform_chains,
    )


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
            if column.dtype == object:
                # String columns decode as codes into their vocabulary.
                assert isinstance(got, Categorical)
                assert got.objects().tolist() == column.tolist()
            else:
                # Bit-exact, NaN infeasibility markers included.
                assert got.dtype == column.dtype
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


#: Strings a column can hold: reasons carry "—", and NUL and wide
#: characters must survive too.
TEXTS = st.sampled_from(
    ["", "a", "b", "RCA16", "a\x00b", "\x00", "µW — Vdd", "日本", "Wallace16"]
) | st.text(max_size=6)


@st.composite
def categoricals(draw):
    """Vocabularies with unused, out-of-appearance-order and repeated
    entries; zero, one or many rows."""
    vocab = draw(st.lists(TEXTS, min_size=1, max_size=8))
    rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 60))]))
    codes = draw(
        st.lists(st.integers(0, len(vocab) - 1), min_size=rows, max_size=rows)
    )
    return Categorical(np.array(codes, dtype=np.uint32), vocab)


class TestEncoderParity:
    """Codes go through an O(rows) canonicalisation instead of a per-value
    pass; the bytes must be exactly the per-value encoder's."""

    @settings(max_examples=300, deadline=None)
    @given(categoricals())
    def test_categorical_columns_encode_as_their_strings(self, column):
        objects = column.objects()
        assert objects.tolist() == [column.vocab[c] for c in column.codes.tolist()]
        payload = {"n": len(column), "columns": {"x": np.arange(len(column)) * 0.5}}
        expected = reference_encode({**payload, "columns": {"s": objects}})
        assert colfile.encode({**payload, "columns": {"s": column}}) == expected
        assert colfile.encode({**payload, "columns": {"s": objects}}) == expected
        decoded = colfile.decode(expected)["columns"]["s"]
        assert decoded.tolist() == objects.tolist()
        assert colfile.encode({**payload, "columns": {"s": decoded}}) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TEXTS, max_size=20))
    def test_factorize_matches_dict_fromkeys(self, strings):
        column = Categorical.from_values(strings)
        assert list(column.vocab) == list(dict.fromkeys(strings))
        assert column.tolist() == strings
        assert Categorical.from_values(column) is column
        canonical = column.canonical()
        assert canonical.vocab == column.vocab
        assert canonical.codes.tolist() == column.codes.tolist()

    def test_empty_and_one_row_tables(self, mixed_table):
        for table in (ResultTable.from_records([]), mixed_table.take([5])):
            payload = {"columns": table.columns.stored}
            expected = reference_encode({"columns": dict(table.columns)})
            assert colfile.encode(payload) == expected

    @pytest.mark.parametrize("scenario", [demo_scenario, mixed_scenario])
    def test_cache_job_and_wire_payloads(self, scenario, tmp_path):
        """Each result file, as written, equals the per-value encoder's
        bytes of its own header and the in-process run's columns."""
        scenario = scenario()
        strings = {
            name: column
            for name, column in evaluate_table(scenario).columns.items()
        }

        def assert_reference_bytes(data):
            payload = colfile.decode(data)
            columns = payload["columns"]
            assert all(
                isinstance(columns[name], Categorical) for name in STRING_COLUMNS
            )
            columns.update(strings)
            assert data == reference_encode(payload)

        cache = TieredCache(ResultCache(tmp_path / "cache"), MemoryCache(2))
        assert_reference_bytes(explore(scenario, cache=cache).cache_path.read_bytes())
        manager = JobManager(store=JobStore(tmp_path / "jobs"), use_cache=False)
        try:
            handle = Study.from_scenario(scenario).submit(shards=1, manager=manager)
            assert handle.wait(timeout=120)["state"] == "done"
            assert_reference_bytes(
                manager.store.result_path_for(handle.id).read_bytes()
            )
        finally:
            manager.close()
        server = ExplorationServer(
            ServiceConfig(port=0, workers=2, cache_dir=str(tmp_path / "served"))
        )
        server.start_background()
        try:
            for _ in range(2):  # cold, then a memory-tier hit
                content_type, raw = fetch(
                    f"{server.url}/v1/explore",
                    explore_body(scenario, solver="auto"),
                    accept=COLUMNS_CONTENT_TYPE,
                )
                assert content_type == COLUMNS_CONTENT_TYPE
                assert_reference_bytes(raw)
        finally:
            server.shutdown()
            server.server_close()
