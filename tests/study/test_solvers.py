"""Unit tests for the repro.solvers registry and the uniform contract."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro import ST_CMOS09_HS, ST_CMOS09_LL, Study
from repro.core.bounded import bounded_optimum
from repro.core.closed_form import InfeasibleConstraintError, closed_form_optimum
from repro.core.numerical import numerical_optimum, numerical_optimum_linearized
from repro.explore.columnar import ResultTable, expand_columns
from repro.explore.engine import flight_key
from repro.explore.scenario import FrequencyGrid, Scenario
from repro.solvers import (
    ScalarSolver,
    SolverError,
    available_solvers,
    get_solver,
    register_solver,
    solver_summaries,
    unregister_solver,
)

README = Path(__file__).resolve().parents[2] / "README.md"


@pytest.fixture
def impossible(wallace_arch):
    return wallace_arch.with_updates(name="impossible", logical_depth=100000.0)


def _columns(architectures, frequencies, technologies=(ST_CMOS09_LL,)):
    return expand_columns(
        Scenario(
            name="grid",
            architectures=tuple(architectures),
            technologies=tuple(technologies),
            frequencies=FrequencyGrid(tuple(frequencies)),
        )
    )


@pytest.fixture
def point_columns(wallace_arch, paper_frequency):
    """One feasible candidate: Wallace on LL at the paper's frequency."""
    return _columns([wallace_arch], [paper_frequency])


class TestRegistry:
    def test_the_five_paths_plus_auto_are_registered(self):
        names = available_solvers()
        for required in (
            "auto", "bounded", "closed_form", "linearized", "numerical",
            "vectorized",
        ):
            assert required in names

    def test_lookup_accepts_dash_and_underscore(self):
        assert get_solver("closed-form") is get_solver("closed_form")

    def test_unknown_name_lists_known_solvers(self):
        for name in ("frobnicate", "surrogate"):
            with pytest.raises(SolverError, match="known:.*auto.*numerical"):
                get_solver(name)

    def test_solver_instances_pass_through(self):
        solver = get_solver("auto")
        assert get_solver(solver) is solver

    def test_summaries_cover_every_name(self):
        summaries = solver_summaries()
        assert set(summaries) == set(available_solvers())
        assert all(summaries.values())

    def test_register_rejects_taken_names(self):
        with pytest.raises(SolverError, match="already registered"):
            register_solver(get_solver("auto"))

    def test_custom_names_normalise_on_registration(self):
        """A hyphenated/uppercase custom name must resolve in any spelling."""
        custom = ScalarSolver(
            name="My-Custom-Solver",
            summary="spelled with hyphens and capitals",
            fn=numerical_optimum,
        )
        try:
            register_solver(custom)
            assert get_solver("My-Custom-Solver") is custom
            assert get_solver("my_custom_solver") is custom
            with pytest.raises(SolverError, match="already registered"):
                register_solver(
                    ScalarSolver(
                        name="my_custom_solver",
                        summary="same name, other spelling",
                        fn=numerical_optimum,
                    )
                )
        finally:
            unregister_solver("my-custom-solver")
        with pytest.raises(SolverError):
            get_solver("My-Custom-Solver")

    def test_custom_solver_registration_round_trip(self, point_columns):
        custom = ScalarSolver(
            name="custom_test_solver",
            summary="numerical under a different name",
            fn=numerical_optimum,
        )
        try:
            register_solver(custom)
            row = get_solver("custom_test_solver").solve(point_columns).row(0)
            assert row.feasible
            assert row.method == "custom_test_solver"
        finally:
            unregister_solver("custom_test_solver")
        with pytest.raises(SolverError):
            get_solver("custom_test_solver")


class TestUniformContract:
    @pytest.mark.parametrize(
        "name", ["auto", "bounded", "closed_form", "linearized", "numerical",
                 "vectorized"]
    )
    def test_outcomes_align_with_points(
        self, name, wallace_arch, paper_frequency
    ):
        columns = _columns([wallace_arch], [paper_frequency] * 2)
        table = get_solver(name).solve(columns, jobs=1)
        assert isinstance(table, ResultTable)
        assert len(table) == columns.n == 2
        for row in table.rows():
            assert row.architecture == wallace_arch.name
            assert row.technology == ST_CMOS09_LL.name
            assert row.frequency == paper_frequency
            assert row.feasible
        assert table.row(0).ptot == table.row(1).ptot

    @pytest.mark.parametrize(
        "name", ["auto", "closed_form", "numerical", "vectorized"]
    )
    def test_infeasibility_is_data_not_an_exception(
        self, name, wallace_arch, impossible, paper_frequency
    ):
        """The timing-constrained paths report χA >= 1 as a reasoned record.

        (``bounded`` legitimately answers with a capped boundary point and
        ``linearized`` is only defined inside the feasible region — their
        historical semantics, unchanged by the registry.)
        """
        columns = _columns([wallace_arch, impossible], [paper_frequency])
        feasible, infeasible = get_solver(name).solve(columns, jobs=1).rows()
        assert feasible.feasible
        assert not infeasible.feasible
        assert infeasible.ptot is None
        assert infeasible.reason != ""

    @pytest.mark.parametrize(
        "name,reference",
        [
            ("closed_form", closed_form_optimum),
            ("linearized", numerical_optimum_linearized),
            ("numerical", numerical_optimum),
            ("bounded", bounded_optimum),
        ],
    )
    def test_scalar_paths_match_their_reference(
        self, name, reference, point_columns
    ):
        row = get_solver(name).solve(point_columns, jobs=1).row(0)
        point = point_columns.design_point(0)
        expected = reference(
            point.architecture, point.technology, point.frequency
        )
        assert row.ptot == pytest.approx(expected.ptot, rel=1e-12)
        assert row.vdd == pytest.approx(expected.point.vdd, rel=1e-12)

    def test_bounded_solver_forwards_options(self, point_columns):
        capped = get_solver("bounded").solve(point_columns, vth_max=0.10).row(0)
        free = get_solver("bounded").solve(point_columns).row(0)
        assert capped.vth <= 0.10 + 1e-12
        assert capped.ptot > free.ptot

    def test_unknown_option_is_rejected(self, point_columns):
        with pytest.raises(SolverError, match="unknown option"):
            get_solver("bounded").solve(point_columns, vth_maximum=0.4)
        with pytest.raises(SolverError, match="unknown option"):
            get_solver("auto").solve(point_columns, method="numerical")

    def test_engine_solvers_reject_options_before_the_cache(
        self, wallace_arch, paper_frequency, tmp_path
    ):
        """The engine key ignores options, so a hit must not hide one."""
        study = (
            Study("options")
            .architectures(wallace_arch)
            .technologies(ST_CMOS09_LL)
            .frequencies(paper_frequency)
            .cached(tmp_path)
        )
        study.run()
        with pytest.raises(SolverError, match="parity_check"):
            study.solver("auto", parity_check=False).run()

    def test_vectorized_agrees_with_scalar_closed_form(self, point_columns):
        vectorized = get_solver("vectorized").solve(point_columns).row(0)
        point = point_columns.design_point(0)
        scalar = closed_form_optimum(
            point.architecture, point.technology, point.frequency
        )
        assert vectorized.ptot == pytest.approx(scalar.ptot, rel=1e-9)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestScalarAdapter:
    # The scipy search warns on the impossible rows' overflowing power.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "name,fn,options",
        [
            ("closed_form", closed_form_optimum, {}),
            ("linearized", numerical_optimum_linearized, {}),
            ("bounded", bounded_optimum, {"vth_max": 0.3}),
            ("numerical_scalar", numerical_optimum, {}),
        ],
    )
    def test_table_equals_a_per_row_call(
        self, name, fn, options, wallace_arch, impossible
    ):
        """Values, NaN rows, reason text and method tag, bit for bit."""
        columns = _columns(
            [wallace_arch, impossible], [31.25e6, 2e9],
            technologies=(ST_CMOS09_LL, ST_CMOS09_HS),
        )
        table = get_solver(name).solve(columns, **options)
        c = table.columns
        infeasible = 0
        for index in range(columns.n):
            point = columns.design_point(index)
            assert c["method"][index] == name
            try:
                result = fn(
                    point.architecture, point.technology, point.frequency,
                    **options,
                )
            except (InfeasibleConstraintError, ValueError) as error:
                infeasible += 1
                assert not c["feasible"][index]
                assert c["reason"][index] == str(error)
                for field in ("vdd", "vth", "pdyn", "pstat", "ptot"):
                    assert _bits(c[field][index]) == _bits(np.nan), field
                continue
            assert c["feasible"][index]
            assert c["reason"][index] == ""
            op = result.point
            for field in ("vdd", "vth", "pdyn", "pstat", "ptot"):
                assert _bits(c[field][index]) == _bits(getattr(op, field)), field
        if name in ("closed_form", "numerical_scalar"):
            assert infeasible >= 2


@pytest.fixture
def readme_solver():
    """The README's custom-solver block, executed (it registers itself)."""
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"<!-- custom-solver:[^>]*-->\n```python\n(.*?)```", text, re.S
    )
    assert match, "README lost its custom-solver block"
    namespace: dict = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    solver = get_solver("power-budget")
    try:
        yield solver
    finally:
        unregister_solver("power-budget")


class TestColumnarSolverEndToEnd:
    """A solver written straight to the contract, not via ScalarSolver."""

    OPTIONS = {"budget_w": 2e-5}

    @pytest.fixture
    def scenario(self, wallace_arch, paper_frequency):
        return Scenario(
            name="budget",
            architectures=(wallace_arch,),
            technologies=(ST_CMOS09_LL, ST_CMOS09_HS),
            frequencies=FrequencyGrid((2e6, paper_frequency, 2e9)),
        )

    def test_runs_through_study_with_a_cached_hit(
        self, readme_solver, scenario, tmp_path
    ):
        assert not isinstance(readme_solver, ScalarSolver)
        study = (
            Study.from_scenario(scenario)
            .solver("power-budget", **self.OPTIONS)
            .cached(tmp_path)
        )
        first = study.run()
        assert not first.cache_hit
        assert {r.method for r in first} == {"power-budget"}
        assert any(r.reason.startswith("above the") for r in first)
        assert any(r.feasible for r in first)
        second = study.run()
        assert second.cache_hit
        assert second.cache_key == first.cache_key == flight_key(
            scenario, "power-budget", self.OPTIONS
        )
        assert second.records == first.records

    def test_runs_as_a_job_and_over_http(self, readme_solver, scenario, tmp_path):
        from repro.jobs.manager import JobManager
        from repro.jobs.store import JobStore
        from repro.service.client import ServiceClient
        from repro.service.server import ExplorationServer, ServiceConfig

        inline = (
            Study.from_scenario(scenario)
            .solver("power-budget", **self.OPTIONS)
            .run()
        )
        manager = JobManager(
            store=JobStore(tmp_path / "jobs"), cache=tmp_path / "cache"
        )
        try:
            record = manager.submit(
                scenario, solver="power-budget", options=self.OPTIONS
            )
            assert manager.wait(record.id, timeout=60)["state"] == "done"
            assert manager.job_result(record.id).records == inline.records
        finally:
            manager.close()

        server = ExplorationServer(
            ServiceConfig(port=0, workers=2, cache_dir=str(tmp_path / "http"))
        )
        server.start_background()
        try:
            remote = ServiceClient(server.url, timeout=60.0).explore(
                scenario, solver="power-budget", options=self.OPTIONS
            )
        finally:
            server.shutdown()
            server.server_close()
        assert remote.solver == "power-budget"
        assert remote.records == inline.records
