"""Benchmark E1 — batch exploration vs. the scalar selection loop.

Measures candidates/second on a ≥1,000-point sweep through three paths:

* the ``vectorized`` solver (the Eq. 13 kernel, ``method="closed-form"``),
* the ``auto`` solver (vectorized + exact-numerical fallback),
* the seed's one-scipy-call-per-point loop (what the removed
  ``evaluate_candidates`` ran), timed on a subsample and reported
  as a rate because running all 1,000+ points serially is exactly the
  bottleneck this engine removes.

Acceptance (ISSUE 1): the vectorized batch must beat the scalar loop by
at least 10× in throughput.
"""

from __future__ import annotations

import time

from conftest import smoke_mode

from repro.core.numerical import numerical_optimum
from repro.explore.columnar import expand_columns
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.solvers import get_solver

#: How many points of the sweep the scalar reference loop times.
SCALAR_SAMPLE = 120

#: Scalar sample in CI smoke mode (the scalar loop is the slow side).
SCALAR_SAMPLE_SMOKE = 40


def interior_scenario() -> Scenario:
    """A ≥1,000-candidate sweep kept inside the feasible interior, so
    every path evaluates every point (no infeasible short-circuits
    flattering either side)."""
    base = demo_scenario()
    return Scenario(
        name="bench-explore",
        architectures=base.architectures,
        technologies=base.technologies,
        frequencies=FrequencyGrid.logspace(5e6, 40e6, 84),
        transform_chains=base.transform_chains[:2],  # identity + pipe2
    )


def _rate(n_points: int, seconds: float) -> float:
    return n_points / seconds if seconds > 0 else float("inf")


def test_vectorized_vs_scalar_throughput(save_artifact, record_benchmark):
    scenario = interior_scenario()
    points = scenario.expand()
    assert len(points) >= 1000
    scalar_sample = SCALAR_SAMPLE_SMOKE if smoke_mode() else SCALAR_SAMPLE
    sample = points[:: max(1, len(points) // scalar_sample)][:scalar_sample]

    # Untimed warm-up of every side, so no timed run pays one-off costs
    # (imports, allocator growth, solver caches): the scalar side's
    # first call alone imports scipy, ~0.6 s.
    get_solver("vectorized").solve(expand_columns(scenario))
    get_solver("auto").solve(expand_columns(scenario), jobs=1)
    first = sample[0]
    numerical_optimum(first.architecture, first.technology, first.frequency)

    # The batch side times the grid expansion too, as the per-point
    # side times its whole loop.
    started = time.perf_counter()
    vectorized = get_solver("vectorized").solve(expand_columns(scenario))
    vectorized_seconds = time.perf_counter() - started
    vectorized_rate = _rate(len(points), vectorized_seconds)

    started = time.perf_counter()
    auto = get_solver("auto").solve(expand_columns(scenario), jobs=1)
    auto_seconds = time.perf_counter() - started
    auto_rate = _rate(len(points), auto_seconds)

    # The scalar reference loop: one scipy solve per point, exactly the
    # pre-engine evaluate_candidates inner loop.
    started = time.perf_counter()
    scalar_results = [
        numerical_optimum(p.architecture, p.technology, p.frequency)
        for p in sample
    ]
    scalar_seconds = time.perf_counter() - started
    scalar_rate = _rate(len(sample), scalar_seconds)

    speedup = vectorized_rate / scalar_rate
    lines = [
        "Benchmark E1 — design-space exploration throughput",
        f"sweep: {scenario.describe()}",
        "",
        f"{'path':<28} {'points':>7} {'seconds':>9} {'cand/s':>12}",
        "-" * 60,
        f"{'vectorized closed-form':<28} {len(points):>7} "
        f"{vectorized_seconds:>9.4f} {vectorized_rate:>12,.0f}",
        f"{'auto (vector + fallback)':<28} {len(points):>7} "
        f"{auto_seconds:>9.4f} {auto_rate:>12,.0f}",
        f"{'scalar numerical loop':<28} {len(sample):>7} "
        f"{scalar_seconds:>9.4f} {scalar_rate:>12,.0f}",
        "-" * 60,
        f"vectorized / scalar speedup: {speedup:,.0f}x",
    ]
    save_artifact("bench_explore", "\n".join(lines))
    record_benchmark(
        "explore",
        n_points=len(points),
        vectorized_rate=round(vectorized_rate),
        auto_rate=round(auto_rate),
        scalar_rate=round(scalar_rate),
        speedup=round(speedup, 1),
    )

    # Sanity: both sides actually evaluated the same problem.
    assert vectorized.feasible.all()
    assert auto.feasible.all()
    assert len(scalar_results) == len(sample)
    # Acceptance: >= 10x throughput for the batched path.
    assert speedup >= 10.0, f"speedup {speedup:.1f}x below the 10x floor"
