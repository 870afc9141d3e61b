"""Unit tests for the repro.solvers registry and the uniform contract."""

import pytest

from repro import ST_CMOS09_LL
from repro.core.bounded import bounded_optimum
from repro.core.closed_form import closed_form_optimum
from repro.core.numerical import numerical_optimum, numerical_optimum_linearized
from repro.explore.scenario import DesignPoint
from repro.solvers import (
    ScalarSolver,
    SolverError,
    available_solvers,
    get_solver,
    register_solver,
    solver_summaries,
    unregister_solver,
)


@pytest.fixture
def point(wallace_arch, paper_frequency):
    return DesignPoint(
        architecture=wallace_arch,
        technology=ST_CMOS09_LL,
        frequency=paper_frequency,
    )


@pytest.fixture
def infeasible_point(wallace_arch, paper_frequency):
    impossible = wallace_arch.with_updates(
        name="impossible", logical_depth=100000.0
    )
    return DesignPoint(
        architecture=impossible,
        technology=ST_CMOS09_LL,
        frequency=paper_frequency,
    )


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

    def test_custom_names_normalise_on_registration(self, point):
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

    def test_custom_solver_registration_round_trip(self, point):
        custom = ScalarSolver(
            name="custom_test_solver",
            summary="numerical under a different name",
            fn=numerical_optimum,
        )
        try:
            register_solver(custom)
            outcome = get_solver("custom_test_solver").solve([point])[0]
            assert outcome.feasible
            assert outcome.method == "custom_test_solver"
        finally:
            unregister_solver("custom_test_solver")
        with pytest.raises(SolverError):
            get_solver("custom_test_solver")


class TestUniformContract:
    @pytest.mark.parametrize(
        "name", ["auto", "bounded", "closed_form", "linearized", "numerical",
                 "vectorized"]
    )
    def test_outcomes_align_with_points(self, name, point):
        outcomes = get_solver(name).solve([point, point], jobs=1)
        assert len(outcomes) == 2
        assert all(o.point == point for o in outcomes)
        assert all(o.feasible for o in outcomes)
        assert outcomes[0].result.ptot == outcomes[1].result.ptot

    @pytest.mark.parametrize(
        "name", ["auto", "closed_form", "numerical", "vectorized"]
    )
    def test_infeasibility_is_data_not_an_exception(
        self, name, point, infeasible_point
    ):
        """The timing-constrained paths report χA >= 1 as a reasoned record.

        (``bounded`` legitimately answers with a capped boundary point and
        ``linearized`` is only defined inside the feasible region — their
        historical semantics, unchanged by the registry.)
        """
        outcomes = get_solver(name).solve([point, infeasible_point], jobs=1)
        assert outcomes[0].feasible
        assert not outcomes[1].feasible
        assert outcomes[1].result is None
        assert outcomes[1].reason != ""

    @pytest.mark.parametrize(
        "name,reference",
        [
            ("closed_form", closed_form_optimum),
            ("linearized", numerical_optimum_linearized),
            ("numerical", numerical_optimum),
            ("bounded", bounded_optimum),
        ],
    )
    def test_scalar_paths_match_their_reference(self, name, reference, point):
        outcome = get_solver(name).solve([point], jobs=1)[0]
        expected = reference(
            point.architecture, point.technology, point.frequency
        )
        assert outcome.result.ptot == pytest.approx(expected.ptot, rel=1e-12)
        assert outcome.result.point.vdd == pytest.approx(
            expected.point.vdd, rel=1e-12
        )

    def test_bounded_solver_forwards_options(self, point):
        capped = get_solver("bounded").solve([point], vth_max=0.10)[0]
        free = get_solver("bounded").solve([point])[0]
        assert capped.result.point.vth <= 0.10 + 1e-12
        assert capped.result.ptot > free.result.ptot

    def test_unknown_option_is_rejected(self, point):
        with pytest.raises(SolverError, match="unknown option"):
            get_solver("bounded").solve([point], vth_maximum=0.4)
        with pytest.raises(SolverError, match="unknown option"):
            get_solver("auto").solve([point], method="numerical")

    def test_vectorized_agrees_with_scalar_closed_form(self, point):
        vectorized = get_solver("vectorized").solve([point])[0]
        scalar = closed_form_optimum(
            point.architecture, point.technology, point.frequency
        )
        assert vectorized.result.ptot == pytest.approx(scalar.ptot, rel=1e-9)
