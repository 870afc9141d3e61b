"""Tests for the Study facade: builder, parity, ResultSet, caching.

The acceptance criteria of ISSUE 2 live here:

* one-call parity — ``Study`` with solver ``"numerical"`` reproduces
  ``numerical_optimum`` scalar results to 1e-12 relative;
* ``"auto"`` reproduces the PR 1 explore demo sweep candidate-for-
  candidate, including the Pareto front.
"""

import json

import pytest

from repro import (
    ArchitectureParameters,
    ST_CMOS09_HS,
    ST_CMOS09_LL,
    Scenario,
    Study,
    numerical_optimum,
)
from repro import obs
from repro.explore import colfile
from repro.explore.analysis import pareto_frontier
from repro.explore.cache import ResultCache
from repro.explore.engine import explore
from repro.explore.scenario import demo_scenario, pipeline_step
from repro.resilience import injected_faults
from repro.service.memcache import MemoryCache, TieredCache


@pytest.fixture
def small_study(wallace_arch, paper_frequency):
    return (
        Study("unit")
        .architectures(wallace_arch)
        .technologies("ULL", "LL", "HS")
        .frequencies(paper_frequency)
    )


class TestBuilder:
    def test_compiles_to_scenario(self, wallace_arch, paper_frequency):
        scenario = (
            Study("compile-check")
            .architectures(wallace_arch)
            .technologies(ST_CMOS09_LL, "HS")
            .frequencies(paper_frequency)
            .transforms((), pipeline_step(2))
            .scenario()
        )
        assert isinstance(scenario, Scenario)
        assert scenario.name == "compile-check"
        assert scenario.size == 1 * 2 * 2 * 1
        assert scenario.technologies[1] is ST_CMOS09_HS

    def test_architectures_accept_mappings(self, paper_frequency):
        resultset = (
            Study("mapping")
            .architectures(
                dict(
                    name="dict-arch", n_cells=729, activity=0.3,
                    logical_depth=17, capacitance=70e-15,
                )
            )
            .technologies("LL")
            .frequencies(paper_frequency)
            .run()
        )
        assert resultset[0].architecture == "dict-arch"
        assert isinstance(
            resultset.scenario.architectures[0], ArchitectureParameters
        )

    def test_frequency_range_spacings(self, wallace_arch):
        study = Study("grid").architectures(wallace_arch).technologies("LL")
        log_grid = study.frequency_range(1e6, 64e6, 7).scenario().frequencies
        assert len(log_grid) == 7
        linear_grid = (
            study.frequency_range(1e6, 64e6, 7, spacing="linear")
            .scenario()
            .frequencies
        )
        assert linear_grid.values[1] == pytest.approx(11.5e6)
        with pytest.raises(ValueError, match="spacing"):
            study.frequency_range(1e6, 2e6, 3, spacing="cubic")

    def test_incomplete_builder_raises(self, wallace_arch):
        with pytest.raises(ValueError, match="no architectures"):
            Study("empty").run()
        with pytest.raises(ValueError, match="no technologies"):
            Study("empty").architectures(wallace_arch).run()
        with pytest.raises(ValueError, match="no frequencies"):
            Study("empty").architectures(wallace_arch).technologies("LL").run()

    def test_wrapped_scenario_rejects_problem_mutation(self):
        """from_scenario studies must not silently drop/ignore builder calls."""
        study = Study.from_scenario(demo_scenario(frequency_points=2))
        with pytest.raises(ValueError, match="wraps an existing Scenario"):
            study.technologies("LL")
        with pytest.raises(ValueError, match="wraps an existing Scenario"):
            study.described_as("ignored")
        # Execution policy stays configurable on a wrapped scenario.
        resultset = study.solver("vectorized").jobs(1).run()
        assert len(resultset) == 48

    def test_unknown_solver_fails_at_build_time(self, small_study):
        with pytest.raises(ValueError, match="unknown solver"):
            small_study.solver("frobnicate")

    def test_bad_jobs_rejected(self, small_study):
        with pytest.raises(ValueError, match="jobs"):
            small_study.jobs(0)


class TestNumericalParity:
    def test_matches_numerical_optimum_to_1e12(
        self, wallace_arch, paper_frequency
    ):
        """ISSUE 2 acceptance: scalar parity at 1e-12 relative."""
        resultset = (
            Study("parity")
            .architectures(wallace_arch)
            .technologies("ULL", "LL", "HS")
            .frequencies(paper_frequency)
            .solver("numerical")
            .jobs(1)
            .run()
        )
        for record, tech_label in zip(resultset, ("ULL", "LL", "HS")):
            reference = numerical_optimum(
                wallace_arch,
                resultset.scenario.technologies[
                    ("ULL", "LL", "HS").index(tech_label)
                ],
                paper_frequency,
            )
            assert record.ptot == pytest.approx(reference.ptot, rel=1e-12)
            assert record.vdd == pytest.approx(reference.point.vdd, rel=1e-12)
            assert record.vth == pytest.approx(reference.point.vth, rel=1e-12)


class TestAutoParityWithExplore:
    def test_reproduces_demo_sweep_and_pareto_front(self):
        """ISSUE 2 acceptance: same candidates, same Pareto front as PR 1."""
        scenario = demo_scenario(frequency_points=5)
        engine = explore(scenario, method="auto", jobs=1, use_cache=False)
        facade = (
            Study.from_scenario(scenario).solver("auto").jobs(1).run()
        )
        assert facade.records == engine.points
        engine_front = pareto_frontier(engine.points)
        facade_front = facade.pareto().records
        assert facade_front == engine_front


class TestResultSet:
    def test_container_protocol(self, small_study):
        resultset = small_study.run()
        assert len(resultset) == 3
        assert list(iter(resultset)) == resultset.records
        assert resultset[0] is resultset.records[0]

    def test_best_rank_and_filters(self, wallace_arch, paper_frequency):
        impossible = wallace_arch.with_updates(
            name="impossible", logical_depth=100000.0
        )
        resultset = (
            Study("mixed")
            .architectures(wallace_arch, impossible)
            .technologies("LL")
            .frequencies(paper_frequency)
            .solver("auto")
            .jobs(1)
            .run()
        )
        assert resultset.n_feasible == 1
        assert len(resultset.feasible()) == 1
        assert len(resultset.infeasible()) == 1
        assert resultset.best().architecture == wallace_arch.name
        ranked = resultset.rank()
        assert ranked[0].feasible and not ranked[-1].feasible
        only_wallace = resultset.filter(
            lambda r: r.architecture == wallace_arch.name
        )
        assert len(only_wallace) == 1

    def test_best_is_none_when_nothing_feasible(self, paper_frequency):
        impossible = ArchitectureParameters(
            name="impossible", n_cells=100, activity=0.1,
            logical_depth=100000, capacitance=10e-15,
        )
        resultset = (
            Study("hopeless")
            .architectures(impossible)
            .technologies("LL")
            .frequencies(paper_frequency)
            .run()
        )
        assert resultset.best() is None

    def test_json_round_trip(self, small_study):
        resultset = small_study.run()
        payload = json.loads(resultset.to_json())
        assert payload["solver"] == "auto"
        assert len(payload["records"]) == 3
        assert payload["scenario"]["name"] == "unit"
        assert {"vdd", "vth", "pdyn", "pstat", "ptot"} <= set(
            payload["records"][0]
        )

    def test_csv_has_header_and_rows(self, small_study):
        lines = small_study.run().to_csv().strip().splitlines()
        assert lines[0].startswith("architecture,technology,frequency")
        assert len(lines) == 4

    def test_table_and_describe_render(self, small_study):
        resultset = small_study.run()
        table = resultset.table(top=2)
        assert "Pareto frontier" in table
        assert "Ptot [uW]" in table
        described = resultset.describe()
        assert "scenario 'unit'" in described
        assert "best:" in described

    def test_subsets_keep_provenance(self, small_study):
        resultset = small_study.run()
        subset = resultset.rank()
        assert subset.solver == resultset.solver
        assert subset.scenario is resultset.scenario
        assert subset.stats is resultset.stats


class TestTopLevelNamespace:
    def test_explore_is_both_module_and_callable(self):
        """`from repro import explore` must be callable without shadowing
        the repro.explore subpackage's attribute access."""
        import repro
        import repro.explore as explore_module

        from repro import explore as exported

        assert exported is explore_module
        assert repro.explore is explore_module
        assert repro.explore.Scenario is Scenario  # module semantics intact
        result = exported(
            demo_scenario(frequency_points=2), jobs=1, use_cache=False
        )
        assert result.stats.n_candidates == 48


class TestCaching:
    def test_shares_engine_cache_with_explore(self, tmp_path):
        """A sweep cached through PR 1's explore() is a Study cache hit."""
        scenario = demo_scenario(frequency_points=2)
        engine = explore(scenario, method="auto", jobs=1, cache=tmp_path)
        assert not engine.cache_hit
        facade = (
            Study.from_scenario(scenario)
            .solver("auto")
            .jobs(1)
            .cached(tmp_path)
            .run()
        )
        assert facade.cache_hit
        assert facade.records == engine.points

    def test_cache_round_trip(self, tmp_path, small_study):
        first = small_study.cached(tmp_path).run()
        assert not first.cache_hit
        assert first.cache_path is not None and first.cache_path.exists()
        second = small_study.run()
        assert second.cache_hit
        assert second.records == first.records

    def test_solver_is_part_of_the_key(self, tmp_path, small_study):
        small_study.cached(tmp_path)
        auto = small_study.solver("auto").run()
        numerical = small_study.solver("numerical").run()
        assert not numerical.cache_hit
        assert auto.cache_key != numerical.cache_key

    def test_disabled_cache_never_touches_disk(self, tmp_path, small_study):
        resultset = small_study.cached(tmp_path, enabled=False).run()
        assert resultset.cache_path is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("solver", ["closed_form", "bounded", "linearized"])
    def test_registry_solvers_survive_bad_entries_and_failed_writes(
        self, tmp_path, small_study, solver
    ):
        """Registry solvers share the engine's cache failure handling."""

        def tier(directory):
            # A private memory tier, so every run reads the disk entry.
            return TieredCache(ResultCache(directory), MemoryCache(8))

        study = small_study.solver(solver)
        fresh = study.cached(tier(tmp_path)).run()
        # A well-formed entry without its stats: quarantined and recomputed.
        entry = fresh.cache_path
        payload = colfile.decode(entry.read_bytes())
        del payload["stats"]
        entry.write_bytes(colfile.encode(payload))
        recovered = study.cached(tier(tmp_path)).run()
        assert not recovered.cache_hit
        assert recovered.records == fresh.records
        assert list(tmp_path.glob("*.quarantined")) == [
            entry.with_suffix(".quarantined")
        ]
        assert study.cached(tier(tmp_path)).run().cache_hit

        # A failed cache write is counted, not raised.
        previous = obs.get_registry()
        obs.enable(obs.MetricsRegistry())
        try:
            with injected_faults("seed=1; cache.write:always"):
                survived = study.cached(tier(tmp_path / "faulty")).run()
            write_errors = obs.counter_total("cache.disk.write_errors")
        finally:
            if previous is not None:
                obs.enable(previous)
            else:
                obs.disable()
        assert survived.records == fresh.records
        assert survived.cache_path is None
        assert write_errors == 1
