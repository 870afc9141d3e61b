"""Engine orchestration: methods, fallback, caching, delegation."""

import pytest

from repro.core.closed_form import closed_form_optimum
from repro.core.numerical import numerical_optimum
from repro.core.selection import evaluate_candidates
from repro.explore import engine as engine_module
from repro.explore.cache import ResultCache
from repro.explore.engine import (
    EvaluationStats,
    PointResult,
    evaluate_points,
    explore,
)
from repro.explore.scenario import (
    DesignPoint,
    FrequencyGrid,
    Scenario,
    demo_scenario,
)


@pytest.fixture
def small_scenario(wallace_arch, tech_ll):
    return Scenario(
        name="small",
        architectures=(wallace_arch,),
        technologies=(tech_ll,),
        frequencies=FrequencyGrid.logspace(4e6, 2e9, 14),
    )


class TestEvaluatePoints:
    def test_outcomes_align_with_points(self, small_scenario):
        points = small_scenario.expand()
        outcomes = evaluate_points(points, jobs=1)
        assert len(outcomes) == len(points)
        for point, outcome in zip(points, outcomes):
            assert outcome.point is point

    def test_auto_matches_closed_form_on_interior(self, wallace_arch, tech_ll):
        point = DesignPoint(wallace_arch, tech_ll, 31.25e6)
        (outcome,) = evaluate_points([point], jobs=1)
        assert outcome.method == "vectorized-closed-form"
        scalar = closed_form_optimum(wallace_arch, tech_ll, 31.25e6)
        assert outcome.result.ptot == pytest.approx(scalar.ptot, rel=1e-9)

    def test_fallback_points_use_reference_solver(self, wallace_arch, tech_ll):
        # 2 GHz is infeasible for this circuit: auto must report the
        # numerical solver's verdict, not the closed form's.
        infeasible = DesignPoint(wallace_arch, tech_ll, 2e9)
        (outcome,) = evaluate_points([infeasible], jobs=1)
        assert not outcome.feasible
        assert outcome.method == "numerical-fallback"
        assert outcome.reason != ""

    def test_numerical_method_matches_direct_calls(self, small_scenario):
        points = small_scenario.expand()
        outcomes = evaluate_points(points, method="numerical", jobs=1)
        for point, outcome in zip(points, outcomes):
            try:
                expected = numerical_optimum(
                    point.architecture, point.technology, point.frequency
                )
            except ValueError as error:
                assert not outcome.feasible
                assert outcome.reason == str(error)
            else:
                assert outcome.result.ptot == pytest.approx(
                    expected.ptot, rel=1e-12
                )

    def test_closed_form_method_never_calls_scipy(
        self, small_scenario, monkeypatch
    ):
        def _banned(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("closed-form method must not call scipy")

        monkeypatch.setattr(
            engine_module.executor_module, "run_numerical", _banned
        )
        outcomes = evaluate_points(
            small_scenario.expand(), method="closed-form"
        )
        assert any(o.feasible for o in outcomes)
        assert any(not o.feasible for o in outcomes)
        for outcome in outcomes:
            assert outcome.method == "vectorized-closed-form"

    def test_auto_agrees_with_numerical_within_paper_error(
        self, small_scenario
    ):
        """Eq. 13's headline <3 % claim holds across the auto sweep."""
        auto = evaluate_points(small_scenario.expand(), jobs=1)
        exact = evaluate_points(
            small_scenario.expand(), method="numerical", jobs=1
        )
        compared = 0
        for fast, reference in zip(auto, exact):
            if fast.feasible and reference.feasible:
                error = abs(fast.result.ptot - reference.result.ptot)
                assert error / reference.result.ptot < 0.03
                compared += 1
        assert compared >= 5

    def test_unknown_method_rejected(self, wallace_arch, tech_ll):
        point = DesignPoint(wallace_arch, tech_ll, 31.25e6)
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_points([point], method="magic")


class TestExploreCache:
    def test_miss_then_hit(self, small_scenario, tmp_path):
        first = explore(small_scenario, cache=tmp_path, jobs=1)
        assert not first.cache_hit
        assert first.cache_path is not None and first.cache_path.is_file()

        second = explore(small_scenario, cache=tmp_path, jobs=1)
        assert second.cache_hit
        assert second.points == first.points
        # Phase timings are per-run wall clocks: the computed run's map
        # includes cache_write, the replayed one only what was stored.
        import dataclasses

        assert dataclasses.replace(
            second.stats, phases={}
        ) == dataclasses.replace(first.stats, phases={})
        assert "kernel" in second.stats.phases

    def test_hit_does_no_reevaluation(
        self, small_scenario, tmp_path, monkeypatch
    ):
        explore(small_scenario, cache=tmp_path, jobs=1)

        def _banned(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("cache hit must not re-evaluate")

        monkeypatch.setattr(engine_module, "evaluate_points", _banned)
        result = explore(small_scenario, cache=tmp_path, jobs=1)
        assert result.cache_hit

    def test_method_changes_cache_key(self, small_scenario, tmp_path):
        explore(small_scenario, cache=tmp_path, jobs=1)
        numerical = explore(
            small_scenario, method="numerical", cache=tmp_path, jobs=1
        )
        assert not numerical.cache_hit
        assert len(ResultCache(tmp_path).entries()) == 2

    def test_scenario_edit_changes_cache_key(
        self, small_scenario, tmp_path, wallace_arch, tech_ll
    ):
        import dataclasses

        explore(small_scenario, cache=tmp_path, jobs=1)
        edited = dataclasses.replace(
            small_scenario, frequencies=FrequencyGrid.single(31.25e6)
        )
        assert not explore(edited, cache=tmp_path, jobs=1).cache_hit

    def test_use_cache_false_bypasses(self, small_scenario, tmp_path):
        result = explore(
            small_scenario, cache=tmp_path, use_cache=False, jobs=1
        )
        assert result.cache_path is None
        assert ResultCache(tmp_path).entries() == []

    def test_corrupt_entry_is_a_miss(self, small_scenario, tmp_path):
        from repro.service.memcache import default_memory_cache

        first = explore(small_scenario, cache=tmp_path, jobs=1)
        first.cache_path.write_text("{not json", encoding="utf-8")
        # Drop the in-memory tier too: with it warm, the corrupt disk
        # entry is shadowed rather than re-read (covered below).
        default_memory_cache().clear()
        again = explore(small_scenario, cache=tmp_path, jobs=1)
        assert not again.cache_hit
        assert again.points == first.points

    def test_memory_tier_shadows_a_corrupted_disk_entry(
        self, small_scenario, tmp_path
    ):
        first = explore(small_scenario, cache=tmp_path, jobs=1)
        first.cache_path.write_text("{not json", encoding="utf-8")
        again = explore(small_scenario, cache=tmp_path, jobs=1)
        assert again.cache_hit
        assert again.points == first.points

    def test_memory_tier_serves_without_disk_reads(
        self, small_scenario, tmp_path, monkeypatch
    ):
        explore(small_scenario, cache=tmp_path, jobs=1)

        def _banned(self, key):  # pragma: no cover - guard
            raise AssertionError("memory hit must not read the disk tier")

        monkeypatch.setattr(ResultCache, "get", _banned)
        assert explore(small_scenario, cache=tmp_path, jobs=1).cache_hit


class TestReleaseFreeHeap:
    def test_large_evaluations_trim_once_and_hits_never(
        self, small_scenario, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(engine_module, "_malloc_trim", lambda: calls.append)
        monkeypatch.setattr(
            engine_module, "RELEASE_HEAP_MIN_ROWS", small_scenario.size
        )
        explore(small_scenario, cache=tmp_path, jobs=1)
        assert calls == [0]
        assert explore(small_scenario, cache=tmp_path, jobs=1).cache_hit
        explore(small_scenario, use_cache=False, jobs=1)
        assert calls == [0, 0]

    def test_smaller_evaluations_keep_their_heap(
        self, small_scenario, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(engine_module, "_malloc_trim", lambda: calls.append)
        monkeypatch.setattr(
            engine_module, "RELEASE_HEAP_MIN_ROWS", small_scenario.size + 1
        )
        explore(small_scenario, use_cache=False, jobs=1)
        assert calls == []

    def test_without_malloc_trim_results_are_unchanged(
        self, small_scenario, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "RELEASE_HEAP_MIN_ROWS", 1)
        trimmed = explore(small_scenario, use_cache=False, jobs=1)
        monkeypatch.setattr(engine_module, "_malloc_trim", lambda: None)
        untrimmed = explore(small_scenario, use_cache=False, jobs=1)
        assert untrimmed.points == trimmed.points

    def test_lookup_gives_a_callable_or_none(self):
        trim = engine_module._malloc_trim()
        assert trim is None or trim(0) in (0, 1)


class TestPointResult:
    def test_round_trip(self, small_scenario, tmp_path):
        result = explore(small_scenario, cache=tmp_path, jobs=1)
        for point in result.points:
            assert PointResult.from_dict(point.to_dict()) == point

    def test_area_proxy_falls_back_to_cell_count(self):
        record = PointResult(
            architecture="a", technology="t", frequency=1e6,
            n_cells=100.0, activity=0.1, logical_depth=10.0,
            capacitance=1e-15, area=0.0, feasible=False, method="m",
        )
        assert record.area_proxy == 100.0
        assert record.ptot_or_inf == float("inf")

    def test_stats_round_trip(self):
        stats = EvaluationStats(10, 8, 7, 3, 0.5)
        assert EvaluationStats.from_dict(stats.to_dict()) == stats


class TestSelectionDelegation:
    def test_evaluate_candidates_matches_reference(
        self, wallace_arch, tech_ll, paper_frequency
    ):
        candidates = evaluate_candidates(
            [wallace_arch], [tech_ll], paper_frequency
        )
        assert len(candidates) == 1
        expected = numerical_optimum(wallace_arch, tech_ll, paper_frequency)
        assert candidates[0].ptot == pytest.approx(expected.ptot, rel=1e-12)

    def test_infeasible_reporting_preserved(self, tech_ll, paper_frequency):
        from repro import ArchitectureParameters

        impossible = ArchitectureParameters(
            name="impossible", n_cells=100, activity=0.1,
            logical_depth=100000, capacitance=10e-15,
        )
        (candidate,) = evaluate_candidates(
            [impossible], [tech_ll], paper_frequency
        )
        assert not candidate.feasible
        assert candidate.result is None
        assert candidate.reason != ""
        assert candidate.ptot == float("inf")


class TestDemoScenarioEndToEnd:
    def test_thousand_candidate_sweep(self, tmp_path):
        """Acceptance: a ≥1,000-candidate scenario evaluates, and the
        second run is a pure cache hit."""
        scenario = demo_scenario()
        assert scenario.size >= 1000
        result = explore(scenario, cache=tmp_path, jobs=1)
        assert len(result.points) == scenario.size
        assert result.stats.n_vectorized > 0.8 * scenario.size
        assert result.best is not None
        assert explore(scenario, cache=tmp_path, jobs=1).cache_hit
