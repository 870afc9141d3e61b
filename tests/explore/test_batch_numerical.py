"""The vectorized exact-numerical solver vs the scipy scalar reference."""

import numpy as np
import pytest

from repro.core.technology import flavour
from repro.explore.engine import evaluate_points
from repro.explore.executor import solve_point
from repro.explore.scenario import DesignPoint, FrequencyGrid, Scenario
from repro.solvers.batch_numerical import solve_points, task_for_points


def _reference(point):
    return solve_point((point.architecture, point.technology, point.frequency))


@pytest.fixture
def boundary_grid(wallace_arch):
    """Points straddling every regime: deep interior, flagged, infeasible."""
    arch = wallace_arch
    points = []
    for tech in (flavour("LL"), flavour("HS"), flavour("ULL")):
        for frequency in np.geomspace(1e6, 1e10, 40):
            points.append(DesignPoint(arch, tech, float(frequency)))
    return points


class TestScalarParity:
    def test_feasibility_reasons_and_power_match_reference(
        self, boundary_grid
    ):
        solution = solve_points(boundary_grid)
        compared_feasible = compared_infeasible = 0
        for index, point in enumerate(boundary_grid):
            reference, reason = _reference(point)
            assert solution.feasible[index] == (reference is not None), (
                point.describe()
            )
            if reference is None:
                # Byte-identical infeasibility verdicts: the lockstep
                # port lands on the same boundary scipy does.
                assert solution.reason[index] == reason
                compared_infeasible += 1
            else:
                op = reference.point
                # Acceptance bar: 1e-9 relative on every flagged point.
                assert solution.ptot[index] == pytest.approx(
                    op.ptot, rel=1e-9
                )
                assert solution.vdd[index] == pytest.approx(op.vdd, rel=1e-9)
                assert solution.vth[index] == pytest.approx(op.vth, rel=1e-9)
                assert solution.pdyn[index] == pytest.approx(
                    op.pdyn, rel=1e-9
                )
                assert solution.pstat[index] == pytest.approx(
                    op.pstat, rel=1e-9
                )
                compared_feasible += 1
        assert compared_feasible >= 20 and compared_infeasible >= 5

    def test_trajectories_are_bit_identical(self, boundary_grid):
        """Stronger than the 1e-9 bar: the lockstep port replays scipy's
        search exactly, so results match to the last bit."""
        solution = solve_points(boundary_grid)
        for index, point in enumerate(boundary_grid):
            reference, _ = _reference(point)
            if reference is not None:
                assert solution.vdd[index] == reference.point.vdd
                assert solution.ptot[index] == reference.point.ptot

    def test_exact_chi_is_bit_identical_to_scalar_helper(self, boundary_grid):
        """The vectorized χ recipe matches the scalar one to the last bit.

        (numpy's SIMD array ``pow`` can drift 1 ULP from libm, which is
        why :func:`exact_chi` exponentiates with python floats.)
        """
        from repro.core.constraint import chi_for_architecture
        from repro.solvers.batch_numerical import chi_denominator, exact_chi

        vectorized = exact_chi(
            np.array(
                [p.architecture.logical_depth for p in boundary_grid]
            ),
            np.array([p.frequency for p in boundary_grid]),
            np.array(
                [
                    p.technology.zeta * p.architecture.zeta_factor
                    for p in boundary_grid
                ]
            ),
            np.array(
                [chi_denominator(p.technology) for p in boundary_grid]
            ),
            np.array([1.0 / p.technology.alpha for p in boundary_grid]),
        )
        scalar = np.array(
            [
                chi_for_architecture(
                    p.architecture, p.technology, p.frequency
                )
                for p in boundary_grid
            ]
        )
        assert np.array_equal(vectorized, scalar)

    def test_precomputed_chi_matches_self_computed(self, boundary_grid):
        from repro.core.constraint import chi_for_architecture

        chi = np.array(
            [
                chi_for_architecture(p.architecture, p.technology, p.frequency)
                for p in boundary_grid
            ]
        )
        with_chi = solve_points(boundary_grid, chi=chi)
        without = solve_points(boundary_grid)
        assert np.array_equal(with_chi.vdd, without.vdd, equal_nan=True)
        assert list(with_chi.reason) == list(without.reason)


class TestWorkCount:
    def test_objective_runs_as_often_as_scipy(self, boundary_grid, monkeypatch):
        """Converged points leave the batch search, so it evaluates the
        objective on exactly the slots the scalar searches evaluate (the
        sum of scipy's ``nfev``), not the slowest point's count times
        the number of points."""
        from scipy import optimize

        from repro.solvers import batch_numerical

        scipy_evaluations = 0
        minimize_scalar = optimize.minimize_scalar

        def recording_minimize_scalar(*args, **kwargs):
            nonlocal scipy_evaluations
            solution = minimize_scalar(*args, **kwargs)
            scipy_evaluations += solution.nfev
            return solution

        monkeypatch.setattr(optimize, "minimize_scalar", recording_minimize_scalar)
        for point in boundary_grid:
            _reference(point)

        batch_evaluations = 0
        objective = batch_numerical._objective

        def counting_objective(task, vdd):
            nonlocal batch_evaluations
            batch_evaluations += vdd.size
            return objective(task, vdd)

        monkeypatch.setattr(batch_numerical, "_objective", counting_objective)
        solve_points(boundary_grid)
        assert batch_evaluations == scipy_evaluations


class TestTaskPlumbing:
    def test_empty_task(self):
        solution = solve_points([])
        assert solution.size == 0
        assert solution.feasible.dtype == bool

    def test_task_arrays_align(self, boundary_grid):
        task = task_for_points(boundary_grid)
        assert task.size == len(boundary_grid)
        point = boundary_grid[7]
        assert task.name[7] == point.architecture.name
        assert task.io_power[7] == (
            point.technology.io * point.architecture.io_factor
        )
        assert task.vdd_lo[7] == 0.05 * point.technology.vdd_nominal
        assert task.vdd_hi[7] == 2.0 * point.technology.vdd_nominal

    def test_single_point_task(self, wallace_arch, tech_ll):
        point = DesignPoint(wallace_arch, tech_ll, 31.25e6)
        solution = solve_points([point])
        reference, _ = _reference(point)
        assert solution.size == 1
        assert bool(solution.feasible[0])
        assert solution.ptot[0] == reference.point.ptot


class TestEngineFallbackIntegration:
    def test_auto_fallback_outcomes_match_scalar_reference(
        self, wallace_arch, tech_ll
    ):
        """Every auto point that fell back matches a direct scipy solve."""
        scenario = Scenario(
            name="fallback-parity",
            architectures=(wallace_arch,),
            technologies=(tech_ll,),
            frequencies=FrequencyGrid.logspace(4e6, 4e9, 30),
        )
        outcomes = evaluate_points(scenario.expand(), method="auto")
        compared = 0
        for outcome in outcomes:
            if outcome.method != "numerical-fallback":
                continue
            compared += 1
            reference, reason = _reference(outcome.point)
            if reference is None:
                assert outcome.result is None
                assert outcome.reason == reason
            else:
                assert outcome.result is not None
                assert outcome.result.point.ptot == reference.point.ptot
                assert outcome.result.point.vdd == reference.point.vdd
                assert outcome.result.point.method == "numerical-1d"
        assert compared >= 3

    def test_auto_never_touches_the_pool(self, wallace_arch, tech_ll, monkeypatch):
        """The multiprocessing executor is reserved for method="numerical"."""
        from repro.explore import engine as engine_module

        def _banned(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("auto must not dispatch to the pool")

        monkeypatch.setattr(
            engine_module.executor_module, "run_numerical", _banned
        )
        scenario = Scenario(
            name="no-pool",
            architectures=(wallace_arch,),
            technologies=(tech_ll,),
            frequencies=FrequencyGrid.logspace(4e6, 4e9, 12),
        )
        outcomes = evaluate_points(scenario.expand(), method="auto")
        assert any(o.method == "numerical-fallback" for o in outcomes)
