"""The vectorized exact-numerical solver vs the scipy scalar reference."""

import dataclasses

import numpy as np
import pytest

from repro.core.constants import EULER, thermal_voltage
from repro.core.numerical import DEFAULT_VDD_SPAN
from repro.core.technology import flavour
from repro.explore.engine import evaluate_points
from repro.explore.executor import solve_point
from repro.explore.scenario import (
    DesignPoint,
    FrequencyGrid,
    Scenario,
    demo_scenario,
)
from repro.solvers import batch_numerical
from repro.solvers.batch_numerical import (
    BOUNDARY_MARGIN,
    BatchNumericalTask,
    exact_chi,
    solve_batch,
    solve_points,
    task_for_points,
)


def _reference(point):
    return solve_point((point.architecture, point.technology, point.frequency))


def _search_every_row(task):
    """``solve_batch`` without the certificate: the bounded search on
    every row, a per-row reason and the power split at the result."""
    vdd = batch_numerical._fminbound_batch(task)
    interval = task.vdd_hi - task.vdd_lo
    pinned = (vdd - task.vdd_lo < BOUNDARY_MARGIN * interval) | (
        task.vdd_hi - vdd < BOUNDARY_MARGIN * interval
    )
    reason = [
        f"numerical_optimum[{name}]: optimum pinned at search boundary "
        f"Vdd={value:.4f} V — problem infeasible or span too narrow"
        if edge
        else ""
        for name, value, edge in zip(
            task.name.tolist(), vdd.tolist(), pinned.tolist()
        )
    ]
    vth, pdyn, pstat, ptot = batch_numerical._power_split(task, vdd)
    columns = {"vdd": vdd, "vth": vth, "pdyn": pdyn, "pstat": pstat, "ptot": ptot}
    return (
        {name: np.where(pinned, np.nan, value) for name, value in columns.items()},
        ~pinned,
        reason,
    )


def _assert_same_as_search(solution, task):
    columns, feasible, reason = _search_every_row(task)
    for name, expected in columns.items():
        # Bit for bit: both sides write the same NaN into infeasible rows.
        assert np.array_equal(
            getattr(solution, name).view(np.int64), expected.view(np.int64)
        ), name
    assert np.array_equal(solution.feasible, feasible)
    assert solution.reason.tolist() == reason


@pytest.fixture
def searched_sizes(monkeypatch):
    """The size of every task :func:`_fminbound_batch` is handed."""
    sizes = []
    search = batch_numerical._fminbound_batch

    def recording_search(task, *args, **kwargs):
        sizes.append(task.size)
        return search(task, *args, **kwargs)

    monkeypatch.setattr(batch_numerical, "_fminbound_batch", recording_search)
    return sizes


def _demo_wallace():
    (arch,) = (a for a in demo_scenario().architectures if a.name == "Wallace16")
    return arch


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
    def test_objective_runs_as_often_as_scipy(
        self, boundary_grid, monkeypatch, searched_sizes
    ):
        """Certified rows are not searched.  The rest leave the batch
        search as they converge, so beyond one overflow-guard evaluation
        per row the objective runs on exactly the slots the scalar
        searches of the searched rows evaluate (the sum of their scipy
        ``nfev``), not the slowest point's count times the number of
        points."""
        from scipy import optimize

        nfev = []
        minimize_scalar = optimize.minimize_scalar

        def recording_minimize_scalar(*args, **kwargs):
            solution = minimize_scalar(*args, **kwargs)
            nfev.append(solution.nfev)
            return solution

        monkeypatch.setattr(optimize, "minimize_scalar", recording_minimize_scalar)
        for point in boundary_grid:
            _reference(point)
        certified = batch_numerical._power_rises(task_for_points(boundary_grid))
        assert certified.any()
        searched_nfev = sum(
            count for count, skipped in zip(nfev, certified) if not skipped
        )

        batch_evaluations = 0
        objective = batch_numerical._objective

        def counting_objective(task, vdd):
            nonlocal batch_evaluations
            batch_evaluations += vdd.size
            return objective(task, vdd)

        monkeypatch.setattr(batch_numerical, "_objective", counting_objective)
        solve_points(boundary_grid)
        assert searched_sizes == [len(boundary_grid) - int(certified.sum())]
        assert batch_evaluations == len(boundary_grid) + searched_nfev


def _random_task(rows: int, seed: int) -> BatchNumericalTask:
    """Rows drawn over ``Technology``'s valid ranges (α's ends included)
    × architecture parameters × frequency, named so equal names come
    both in runs and interleaved."""
    rng = np.random.default_rng(seed)

    def log_uniform(low, high):
        return np.exp(rng.uniform(np.log(low), np.log(high), rows))

    alpha = rng.uniform(1.0, 2.0, rows)
    alpha[rng.random(rows) < 0.05] = 1.0
    alpha[rng.random(rows) < 0.05] = 2.0
    n_ut = rng.uniform(1.0, 2.0, rows) * thermal_voltage(300.0)
    io = log_uniform(1e-9, 1e-4)
    nominal = log_uniform(0.3, 5.0)
    logical_depth = log_uniform(1.0, 1e3)
    frequency = log_uniform(1e5, 1e10)
    inv_alpha = 1.0 / alpha
    names = np.array(["RCA16", "Wallace16", "Mult32"], dtype=object)
    name = names[np.repeat(rng.integers(0, 3, rows // 4 + 1), 4)[:rows]]
    name[rng.random(rows) < 0.3] = "Seq8"
    return BatchNumericalTask(
        name=name,
        n_cells=log_uniform(10.0, 1e5),
        activity=log_uniform(0.01, 2.0),
        capacitance=log_uniform(1e-15, 1e-12),
        frequency=frequency,
        chi=exact_chi(
            logical_depth,
            frequency,
            log_uniform(1e-13, 1e-10) * log_uniform(0.05, 5.0),
            io * (EULER / n_ut) ** alpha,
            inv_alpha,
        ),
        io_power=io * log_uniform(1e-3, 1e3),
        inv_alpha=inv_alpha,
        n_ut=n_ut,
        vdd_lo=DEFAULT_VDD_SPAN[0] * nominal,
        vdd_hi=DEFAULT_VDD_SPAN[1] * nominal,
    )


class TestRisingPowerCertificate:
    """Rows whose power provably rises across the span skip the search;
    the output must stay exactly what searching every row gives."""

    def test_random_rows_match_searching_every_row(self, searched_sizes):
        task = _random_task(24_000, seed=20261018)
        rises = batch_numerical._power_rises(task)
        solution = solve_batch(task)
        _assert_same_as_search(solution, task)
        assert not (rises & solution.feasible).any()
        # The certificate needs α ≥ 1: a hand-built task outside it is not certified.
        outside = dataclasses.replace(task, inv_alpha=task.inv_alpha * 2.5)
        assert not batch_numerical._power_rises(outside).any()
        # Not vacuous: thousands of rows are certified, at both ends of
        # α's range too, and thousands more are searched and feasible.
        assert searched_sizes[0] <= task.size - 2_000
        for alpha_end in (1.0, 0.5):
            assert (rises & (task.inv_alpha == alpha_end)).sum() >= 100
        assert solution.feasible.sum() >= 2_000

    def test_negative_vth_interior_optimum_is_searched(self):
        """Vth < 0 across the whole span, yet an interior optimum."""
        arch = dataclasses.replace(_demo_wallace(), io_factor=1e-3)
        point = DesignPoint(arch, flavour("LL"), 1.4e9)
        assert not batch_numerical._power_rises(task_for_points([point]))[0]
        solution = solve_points([point])
        assert bool(solution.feasible[0])
        assert f"{solution.vdd[0]:.4f}" == "2.0632"
        assert solution.vdd[0] == _reference(point)[0].point.vdd

    def test_overflowing_row_is_searched(self, searched_sizes):
        """h(hi) ≤ n·Ut, but Ptot(hi) overflows to inf."""
        task = task_for_points([DesignPoint(_demo_wallace(), flavour("LL"), 1e12)])
        beta, hi = task.inv_alpha, task.vdd_hi
        assert (hi - task.chi * beta * hi**beta <= task.n_ut)[0]
        assert np.isinf(batch_numerical._objective(task, task.vdd_hi))[0]
        assert not batch_numerical._power_rises(task)[0]
        _assert_same_as_search(solve_batch(task), task)
        assert searched_sizes[0] == 1

    def test_lower_end_on_a_rounding_boundary_is_searched(self, searched_sizes):
        """lo = 0.05005 prints 0.0500, but the search stops just above it."""
        tech = dataclasses.replace(flavour("LL"), vdd_nominal=1.001)
        task = task_for_points([DesignPoint(_demo_wallace(), tech, 1e10)])
        assert batch_numerical._power_rises(task)[0]
        assert f"{task.vdd_lo[0]:.4f}" != f"{task.vdd_lo[0] + 1e-6:.4f}"
        solution = solve_batch(task)
        _assert_same_as_search(solution, task)
        assert searched_sizes[0] == 1
        assert "Vdd=0.0501 V" in solution.reason[0]


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
