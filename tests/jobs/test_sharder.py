"""Sharding + merge must be invisible: bit-identical to unsharded runs."""

import dataclasses

import numpy as np
import pytest

from repro import Study
from repro.explore import colfile
from repro.explore.engine import EvaluationStats, explore
from repro.explore.scenario import FrequencyGrid, demo_scenario
from repro.jobs import merge_stats, merge_tables, shard_scenario
from repro.jobs.manager import JobManager
from repro.jobs.store import JobStore


def assert_tables_identical(got, expected):
    """Every column equal — exact for floats too (no tolerance)."""
    assert set(got.columns) == set(expected.columns)
    for name, column in expected.columns.items():
        other = got.columns[name]
        assert other.dtype == column.dtype, name
        if column.dtype == object:
            assert (other == column).all(), name
        else:
            assert np.array_equal(other, column, equal_nan=True), name


class TestShardScenario:
    def test_shards_partition_the_parent_rows(self):
        scenario = demo_scenario(frequency_points=5)  # 8a x 3t x 5f = 120
        for count in (1, 3, 7):
            shards = shard_scenario(scenario, count)
            assert len(shards) == count
            seen = np.concatenate([s.row_indices for s in shards])
            assert sorted(seen.tolist()) == list(range(scenario.size))
            assert sum(s.n for s in shards) == scenario.size
            for shard in shards:
                assert shard.scenario.size == shard.n

    def test_arch_axis_shards_are_contiguous_blocks(self):
        scenario = demo_scenario(frequency_points=4)
        shards = shard_scenario(scenario, 3)  # 8 archs >= 3 -> arch axis
        for shard in shards:
            rows = shard.row_indices
            assert (np.diff(rows) == 1).all()

    def test_frequency_axis_when_architectures_run_out(self):
        scenario = demo_scenario(frequency_points=10)
        shards = shard_scenario(scenario, 9)  # 8 archs < 9 -> freq axis
        assert len(shards) == 9
        seen = np.concatenate([s.row_indices for s in shards])
        assert sorted(seen.tolist()) == list(range(scenario.size))
        # Uneven remainder: 10 frequencies over 9 shards -> one 2-wide.
        assert sorted(s.n for s in shards)[-1] == 2 * 8 * 3

    def test_count_is_clamped_to_the_axes(self):
        scenario = demo_scenario(frequency_points=2)
        shards = shard_scenario(scenario, 100)
        assert len(shards) == max(8, 2)
        assert shard_scenario(scenario, 1)[0].scenario.size == scenario.size

    def test_deterministic_content_hashes(self):
        scenario = demo_scenario(frequency_points=5)
        first = [s.key for s in shard_scenario(scenario, 3)]
        again = [s.key for s in shard_scenario(scenario, 3)]
        assert first == again
        assert len(set(first)) == 3

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            shard_scenario(demo_scenario(frequency_points=2), 0)


class TestMergeTables:
    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_merge_is_bit_identical_to_unsharded_explore(self, count):
        scenario = demo_scenario(frequency_points=5)
        reference = explore(scenario, use_cache=False)
        shards = shard_scenario(scenario, count)
        tables = [
            (shard, explore(shard.scenario, use_cache=False).table)
            for shard in shards
        ]
        merged = merge_tables(tables)
        assert_tables_identical(merged, reference.table)

    def test_frequency_axis_merge_is_bit_identical(self):
        scenario = demo_scenario(frequency_points=10)
        reference = explore(scenario, use_cache=False)
        shards = shard_scenario(scenario, 9)
        merged = merge_tables(
            [(s, explore(s.scenario, use_cache=False).table) for s in shards]
        )
        assert_tables_identical(merged, reference.table)

    def test_plain_concatenation_without_indices(self):
        scenario = demo_scenario(frequency_points=3)
        shards = shard_scenario(scenario, 3)  # arch axis: in-order blocks
        merged = merge_tables(
            [explore(s.scenario, use_cache=False).table for s in shards]
        )
        reference = explore(scenario, use_cache=False)
        assert_tables_identical(merged, reference.table)

    def test_four_shard_job_writes_the_unsharded_column_bytes(self, tmp_path):
        """Shards carry different reason vocabularies; the merged job
        result holds exactly the unsharded run's column bytes."""
        scenario = dataclasses.replace(
            demo_scenario(), frequencies=FrequencyGrid.logspace(2e6, 1.5e9, 40)
        )
        reasons = [
            frozenset(explore(shard.scenario, use_cache=False).table.columns["reason"])
            for shard in shard_scenario(scenario, 4)
        ]
        assert len(set(reasons)) == 4 and all(len(r) > 2 for r in reasons)
        manager = JobManager(store=JobStore(tmp_path), use_cache=False)
        try:
            handle = Study.from_scenario(scenario).submit(shards=4, manager=manager)
            assert handle.wait(timeout=120)["state"] == "done"
            data = manager.store.result_path_for(handle.id).read_bytes()
        finally:
            manager.close()
        unsharded = explore(scenario, use_cache=False).table
        fields = colfile.decode(data)
        assert data == colfile.encode({**fields, "columns": dict(unsharded.columns)})

    def test_rejects_empty_and_partial_coverage(self):
        scenario = demo_scenario(frequency_points=3)
        shards = shard_scenario(scenario, 3)
        tables = [
            (s, explore(s.scenario, use_cache=False).table) for s in shards
        ]
        with pytest.raises(ValueError):
            merge_tables([])
        with pytest.raises(ValueError):
            merge_tables([tables[0], tables[2]])  # middle shard missing

    def test_rejects_mismatched_index_lengths(self):
        scenario = demo_scenario(frequency_points=3)
        shard = shard_scenario(scenario, 1)[0]
        table = explore(shard.scenario, use_cache=False).table
        with pytest.raises(ValueError):
            merge_tables([table], indices=[np.arange(3)])


class TestMergeStats:
    def test_counters_and_phases_sum(self):
        scenario = demo_scenario(frequency_points=5)
        reference = explore(scenario, use_cache=False)
        shards = shard_scenario(scenario, 3)
        parts = [explore(s.scenario, use_cache=False).stats for s in shards]
        merged = merge_stats(parts)
        assert merged.n_candidates == reference.stats.n_candidates
        assert merged.n_feasible == reference.stats.n_feasible
        assert merged.n_vectorized == reference.stats.n_vectorized
        assert merged.n_fallback == reference.stats.n_fallback
        assert merged.elapsed_seconds == pytest.approx(
            sum(p.elapsed_seconds for p in parts)
        )
        for phase in ("expand", "kernel"):
            assert merged.phases[phase] == pytest.approx(
                sum(p.phases.get(phase, 0.0) for p in parts)
            )

    def test_explicit_wall_time_overrides_the_sum(self):
        stats = [
            EvaluationStats(10, 8, 9, 1, 2.0, {"kernel": 1.5}),
            EvaluationStats(5, 5, 5, 0, 1.0, {"kernel": 0.5, "expand": 0.1}),
        ]
        merged = merge_stats(stats, elapsed_seconds=0.75)
        assert merged.elapsed_seconds == 0.75
        assert merged.n_candidates == 15
        assert merged.phases == {"kernel": 2.0, "expand": 0.1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_stats([])
