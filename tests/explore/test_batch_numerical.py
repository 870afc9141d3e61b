"""The vectorized exact-numerical solver vs the scipy scalar reference."""

import collections
import dataclasses
import sys

import numpy as np
import pytest

from repro.core.constants import EULER, thermal_voltage
from repro.core.numerical import DEFAULT_VDD_SPAN
from repro.core.technology import flavour
from repro.explore import engine
from repro.explore.columnar import expand_columns
from repro.explore.engine import evaluate_table
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
)


def _reference(point):
    return solve_point((point.architecture, point.technology, point.frequency))


def _task(arch, technologies, frequencies):
    """The engine's fallback task for every row of a one-architecture
    grid, in expansion order (technology-major, then frequency)."""
    columns = expand_columns(
        Scenario(
            name="task",
            architectures=(arch,),
            technologies=tuple(technologies),
            frequencies=FrequencyGrid(tuple(float(f) for f in frequencies)),
        )
    )
    return engine._fallback_task(columns, np.arange(columns.n))


def _search_every_row(task):
    """``solve_batch`` without the certificates: the bounded search on
    every row, a per-row reason and the power split at the result."""
    neither_end = np.zeros(task.size, dtype=bool)
    vdd = batch_numerical._fminbound_batch(task, neither_end, neither_end)
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
def search_results(monkeypatch):
    """``(task, result)`` of every :func:`_fminbound_batch` call, in order."""
    calls = []
    search = batch_numerical._fminbound_batch

    def recording_search(task, *args):
        calls.append((task, search(task, *args)))
        return calls[-1][1]

    monkeypatch.setattr(batch_numerical, "_fminbound_batch", recording_search)
    return calls


def _certified(task, result):
    """Rows certified at (lo, hi): the search writes them out as exactly
    that end, a value it never stops at itself."""
    return result == task.vdd_lo, result == task.vdd_hi


def _slope_at(task, vdd):
    """h(V) = V − χβV^β, whose excess over n·Ut sets d ln Pstat/dV."""
    return vdd - task.chi * task.inv_alpha * vdd**task.inv_alpha


def _demo_wallace():
    (arch,) = (a for a in demo_scenario().architectures if a.name == "Wallace16")
    return arch


BOUNDARY_TECHNOLOGIES = ("LL", "HS", "ULL")
BOUNDARY_FREQUENCIES = np.geomspace(1e6, 1e10, 40)


@pytest.fixture
def boundary_grid(wallace_arch):
    """Points straddling every regime: deep interior, flagged, infeasible."""
    arch = wallace_arch
    points = []
    for tech in map(flavour, BOUNDARY_TECHNOLOGIES):
        for frequency in BOUNDARY_FREQUENCIES:
            points.append(DesignPoint(arch, tech, float(frequency)))
    return points


@pytest.fixture
def boundary_task(wallace_arch):
    """The engine's fallback task for ``boundary_grid``, row for row."""
    return _task(
        wallace_arch, map(flavour, BOUNDARY_TECHNOLOGIES), BOUNDARY_FREQUENCIES
    )


class TestScalarParity:
    def test_feasibility_reasons_and_power_match_reference(
        self, boundary_grid, boundary_task
    ):
        solution = solve_batch(boundary_task)
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

    def test_trajectories_are_bit_identical(self, boundary_grid, boundary_task):
        """Stronger than the 1e-9 bar: the lockstep port replays scipy's
        search exactly, so results match to the last bit."""
        solution = solve_batch(boundary_task)
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

    def test_precomputed_chi_matches_self_computed(
        self, boundary_grid, boundary_task
    ):
        """The engine's task (χ from :func:`exact_chi`) solves exactly as
        one carrying the scalar helper's χ."""
        from repro.core.constraint import chi_for_architecture

        chi = np.array(
            [
                chi_for_architecture(p.architecture, p.technology, p.frequency)
                for p in boundary_grid
            ]
        )
        with_chi = solve_batch(dataclasses.replace(boundary_task, chi=chi))
        without = solve_batch(boundary_task)
        assert np.array_equal(with_chi.vdd, without.vdd, equal_nan=True)
        assert list(with_chi.reason) == list(without.reason)


class TestWorkCount:
    def test_objective_runs_as_often_as_scipy(
        self, boundary_grid, boundary_task, monkeypatch, search_results
    ):
        """Rows leave the batch search as they converge, so the objective
        runs on each row exactly as often as the scalar search of that
        row (its scipy ``nfev``), not the slowest row's count.  A row
        certified at an end of the span leaves earlier, never later."""
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

        evaluations = collections.Counter()
        objective = batch_numerical._objective

        def counting_objective(task, vdd):
            evaluations.update(task.chi.tolist())  # χ tells the rows apart
            return objective(task, vdd)

        monkeypatch.setattr(batch_numerical, "_objective", counting_objective)
        solve_batch(boundary_task)
        ((task, result),) = search_results
        assert len(set(task.chi.tolist())) == task.size
        cost = np.array([evaluations[chi] for chi in task.chi.tolist()])
        at_lo, at_hi = _certified(task, result)
        assert at_lo.any() and at_hi.any()
        certified = at_lo | at_hi
        assert np.array_equal(cost[~certified], np.array(nfev)[~certified])
        assert (cost[certified] <= np.array(nfev)[certified]).all()


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


class TestPinnedEndCertificates:
    """Rows whose power provably rises from lo, or falls to hi, across the
    search's live bracket stop searching; the output must stay exactly
    what searching every row gives."""

    @pytest.mark.parametrize("seed", [20261018, 20261019, 20261020])
    def test_random_rows_match_searching_every_row(self, seed, search_results):
        task = _random_task(24_000, seed=seed)
        solution = solve_batch(task)
        _assert_same_as_search(solution, task)
        at_lo, at_hi = _certified(*search_results[0])
        # Not vacuous: thousands of rows are certified at lo, thousands of
        # them only on a live bracket (power does not rise on the whole
        # span), hundreds at hi, at both ends of α's range each; and
        # thousands more are searched and feasible.
        whole_span = (_slope_at(task, task.vdd_hi) <= task.n_ut) & np.isfinite(
            batch_numerical._objective(task, task.vdd_hi)
        )
        assert at_lo.sum() >= 5_000 and (at_lo & ~whole_span).sum() >= 2_000
        assert at_hi.sum() >= 500
        for alpha_end in (1.0, 0.5):
            assert (at_lo & (task.inv_alpha == alpha_end)).sum() >= 100
            assert (at_hi & (task.inv_alpha == alpha_end)).sum() >= 5
        assert solution.feasible.sum() >= 2_000
        # The certificates need α ≥ 1: outside it nothing is certified.
        outside = _random_task(2_000, seed=seed)
        outside = dataclasses.replace(outside, inv_alpha=outside.inv_alpha * 2.5)
        both_ends = np.ones(outside.size, dtype=bool)
        result = batch_numerical._fminbound_batch(outside, both_ends, both_ends)
        assert not np.logical_or(*_certified(outside, result)).any()

    def test_negative_vth_interior_optimum_is_searched(self, search_results):
        """Vth < 0 across the whole span, yet an interior optimum."""
        arch = dataclasses.replace(_demo_wallace(), io_factor=1e-3)
        point = DesignPoint(arch, flavour("LL"), 1.4e9)
        solution = solve_batch(_task(arch, [point.technology], [point.frequency]))
        assert not np.logical_or(*_certified(*search_results[0]))[0]
        assert bool(solution.feasible[0])
        assert f"{solution.vdd[0]:.4f}" == "2.0632"
        assert solution.vdd[0] == _reference(point)[0].point.vdd

    def test_overflowing_row_is_searched(self, search_results):
        """h(hi) ≤ n·Ut, but Ptot(hi) overflows to inf."""
        task = _task(_demo_wallace(), [flavour("LL")], [1e12])
        assert (_slope_at(task, task.vdd_hi) <= task.n_ut)[0]
        assert np.isinf(batch_numerical._objective(task, task.vdd_hi))[0]
        _assert_same_as_search(solve_batch(task), task)
        assert not np.logical_or(*_certified(*search_results[0]))[0]

    def test_lower_end_on_a_rounding_boundary_is_searched(self, search_results):
        """lo = 0.05005 prints 0.0500, but the search stops just above it."""
        tech = dataclasses.replace(flavour("LL"), vdd_nominal=1.001)
        task = _task(_demo_wallace(), [tech], [1e10])
        assert (_slope_at(task, task.vdd_hi) <= task.n_ut)[0]
        assert f"{task.vdd_lo[0]:.4f}" != f"{task.vdd_lo[0] + 1e-6:.4f}"
        solution = solve_batch(task)
        _assert_same_as_search(solution, task)
        assert not np.logical_or(*_certified(*search_results[0]))[0]
        assert "Vdd=0.0501 V" in solution.reason[0]

    def test_falling_row_overflowing_inside_the_span_is_searched(
        self, search_results
    ):
        """Ptot falls toward hi and is finite there, but overflows at every
        point the search tries, so "falls" never holds on a finite Ptot(a)."""
        task = _task(_demo_wallace(), [flavour("LL")], [1.4e9])
        hi = task.vdd_hi
        pstat = batch_numerical._power_split(task, hi)[2]
        task = dataclasses.replace(
            task, io_power=task.io_power * (sys.float_info.max * (1 - 1e-7) / pstat)
        )
        assert np.isfinite(batch_numerical._objective(task, hi))[0]
        assert np.isinf(batch_numerical._objective(task, hi - 1e-7))[0]
        # h(a) − n·Ut far above 2·n·Ut·Pdyn/Pstat(hi), which is ~1e-300.
        assert (_slope_at(task, hi - 0.5) > 2.0 * task.n_ut)[0]
        solution = solve_batch(task)
        _assert_same_as_search(solution, task)
        assert not np.logical_or(*_certified(*search_results[0]))[0]
        assert "Vdd=2.4000 V" in solution.reason[0]

    def test_upper_end_on_a_rounding_boundary_is_searched(self, search_results):
        """hi = 2.40005004 prints 2.4001, but the search stops just below
        2.40005.  The row is certified once hi is made eligible."""
        (rca,) = (a for a in demo_scenario().architectures if a.name == "RCA16")
        tech = dataclasses.replace(flavour("ULL"), vdd_nominal=1.20002502)
        task = _task(rca, [tech], [2.409e8])
        assert f"{task.vdd_hi[0]:.4f}" != f"{task.vdd_hi[0] - 1e-6:.4f}"
        solution = solve_batch(task)
        _assert_same_as_search(solution, task)
        assert not np.logical_or(*_certified(*search_results[0]))[0]
        assert "Vdd=2.4000 V" in solution.reason[0]
        both_ends = np.ones(1, dtype=bool)
        result = batch_numerical._fminbound_batch(task, both_ends, both_ends)
        assert _certified(task, result)[1][0]


class TestCanonicalSweep:
    def test_mixed_sweep_matches_searching_every_row(self, monkeypatch):
        """Every fallback row of the benchmarks' 100,800-point mixed sweep
        (``mixed_scenario()`` of ``benchmarks/bench_columnar.py``) is bit-
        and byte-equal to searching it; both sides run on this machine."""
        base = demo_scenario()
        scenario = Scenario(
            name="bench-columnar",
            architectures=base.architectures,
            technologies=base.technologies,
            frequencies=FrequencyGrid.logspace(2e6, 1.5e9, 4200),
            transform_chains=base.transform_chains,
        )
        calls = []
        solve = batch_numerical.solve_batch

        def recording_solve(task):
            calls.append((task, solve(task)))
            return calls[-1][1]

        monkeypatch.setattr(batch_numerical, "solve_batch", recording_solve)
        engine._evaluate_columns(expand_columns(scenario), "auto")
        ((task, solution),) = calls
        assert task.size == 36_231
        _assert_same_as_search(solution, task)


class TestTaskPlumbing:
    def test_empty_task(self, wallace_arch):
        columns = expand_columns(
            Scenario(
                name="empty",
                architectures=(wallace_arch,),
                technologies=(flavour("LL"),),
                frequencies=FrequencyGrid.single(31.25e6),
            )
        )
        solution = solve_batch(
            engine._fallback_task(columns, np.arange(0, dtype=int))
        )
        assert solution.size == 0
        assert solution.feasible.dtype == bool

    def test_task_arrays_align(self, boundary_grid, boundary_task):
        task = boundary_task
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
        solution = solve_batch(_task(wallace_arch, [tech_ll], [31.25e6]))
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
        table = evaluate_table(scenario, method="auto")
        compared = 0
        for point, row in zip(scenario.expand(), table.rows()):
            if row.method != "numerical-fallback":
                continue
            compared += 1
            reference, reason = _reference(point)
            if reference is None:
                assert not row.feasible
                assert row.reason == reason
            else:
                assert row.feasible
                assert row.ptot == reference.point.ptot
                assert row.vdd == reference.point.vdd
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
        table = evaluate_table(scenario, method="auto")
        assert "numerical-fallback" in set(table.column("method"))
