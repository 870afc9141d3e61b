"""Benchmark C1 — the columnar end-to-end pipeline vs the object engine.

ISSUE 5's acceptance bar: on a ~100k-candidate *mixed* sweep (feasible
interior + flagged boundary + infeasible tail), the columnar pipeline —
array expansion, vectorized kernel, vectorized exact-numerical fallback,
mask assembly into a ``ResultTable`` — must beat the pre-columnar engine
path by ≥10x end to end.

The baseline reproduces the old hot loop faithfully: expand to
``DesignPoint`` objects, group by technology, run the kernel, build a
``PointOutcome`` per trusted point, fan every flagged point through
``executor.run_numerical`` (one scipy ``minimize_scalar`` per point,
multiprocessing pool), and convert everything to ``PointResult``
objects.  Running that on all ~100k points would take the better part
of a minute, so it is timed on a stride-sampled subset (which preserves
the feasible/flagged mix) and extrapolated by rate — exactly how
``bench_explore`` treats the scalar loop.

A second section times serialisation: column-wise NDJSON chunking vs
per-record object ``json.dumps`` — the serving path's hot loop.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep ~8x for CI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from conftest import smoke_mode

from repro.core.optimum import OperatingPoint, OptimizationResult
from repro.core.technology import Technology
from repro.explore.engine import (
    EvaluationStats,
    FALLBACK_METHOD,
    VECTORIZED_METHOD,
    PointResult,
    evaluate_table,
)
from repro.explore.executor import run_numerical
from repro.explore.scenario import (
    DesignPoint,
    FrequencyGrid,
    Scenario,
    demo_scenario,
)
from repro.explore.vectorized import closed_form_batch

#: Acceptance floor for the end-to-end columnar speedup.
SPEEDUP_FLOOR = 10.0

#: Target size of the legacy-path timing sample.
LEGACY_SAMPLE = 2500


def mixed_scenario() -> Scenario:
    """A ~100k-candidate sweep spanning every evaluation regime.

    The frequency grid runs deep into infeasible territory for the slow
    transform chains while staying comfortable for the fast ones, so
    the sweep mixes trusted-vectorized, flagged-fallback and infeasible
    points (roughly 64/36 vectorized/fallback with the full grid).
    """
    base = demo_scenario()
    frequency_points = 500 if smoke_mode() else 4200
    return Scenario(
        name="bench-columnar",
        architectures=base.architectures,
        technologies=base.technologies,
        frequencies=FrequencyGrid.logspace(2e6, 1.5e9, frequency_points),
        transform_chains=base.transform_chains,
    )


# -- the pre-columnar object path, kept here as the baseline ------------------
# Copied verbatim from the 1.10.0 engine (repro.explore.engine and
# repro.explore.vectorized), which no longer has a per-point object path.


@dataclass(frozen=True)
class PointOutcome:
    """Evaluation outcome for one design point."""

    point: DesignPoint
    result: OptimizationResult | None
    reason: str = ""
    method: str = ""

    @property
    def feasible(self) -> bool:
        return self.result is not None


def point_result_from_outcome(outcome: PointOutcome) -> PointResult:
    point = outcome.point
    arch = point.architecture
    common = dict(
        architecture=arch.name,
        technology=point.technology.name,
        frequency=point.frequency,
        n_cells=arch.n_cells,
        activity=arch.activity,
        logical_depth=arch.logical_depth,
        capacitance=arch.capacitance,
        area=arch.area,
        method=outcome.method,
        reason=outcome.reason,
    )
    if outcome.result is None:
        return PointResult(feasible=False, **common)
    op = outcome.result.point
    return PointResult(
        feasible=True,
        vdd=op.vdd,
        vth=op.vth,
        pdyn=op.pdyn,
        pstat=op.pstat,
        ptot=op.ptot,
        **common,
    )


def _group_indices_by_technology(
    points: list[DesignPoint],
) -> dict[Technology, list[int]]:
    groups: dict[Technology, list[int]] = {}
    for index, point in enumerate(points):
        groups.setdefault(point.technology, []).append(index)
    return groups


def _vectorized_outcome(point: DesignPoint, batch, position: int) -> PointOutcome:
    operating_point = OperatingPoint(
        vdd=float(batch.vdd[position]),
        vth=float(batch.vth[position]),
        pdyn=float(batch.pdyn[position]),
        pstat=float(batch.pstat[position]),
        method=VECTORIZED_METHOD,
    )
    result = OptimizationResult(
        architecture=point.architecture,
        technology=point.technology,
        frequency=point.frequency,
        point=operating_point,
    )
    return PointOutcome(
        point=point, result=result, method=VECTORIZED_METHOD
    )


def batch_arrays_for_points(points) -> dict[str, np.ndarray]:
    """Column arrays for a list of :class:`~.scenario.DesignPoint`."""
    return {
        "n_cells": np.array([p.architecture.n_cells for p in points]),
        "activity": np.array([p.architecture.activity for p in points]),
        "logical_depth": np.array(
            [p.architecture.logical_depth for p in points]
        ),
        "capacitance": np.array([p.architecture.capacitance for p in points]),
        "frequency": np.array([p.frequency for p in points]),
        "io_factor": np.array([p.architecture.io_factor for p in points]),
        "zeta_factor": np.array([p.architecture.zeta_factor for p in points]),
    }


def legacy_evaluate(points) -> list[PointResult]:
    """The pre-columnar engine hot loop, verbatim."""
    outcomes: list[PointOutcome | None] = [None] * len(points)
    fallback_indices: list[int] = []
    for tech, indices in _group_indices_by_technology(points).items():
        group = [points[i] for i in indices]
        batch = closed_form_batch(tech, **batch_arrays_for_points(group))
        for position, index in enumerate(indices):
            trusted = bool(batch.feasible[position]) and not bool(
                batch.needs_fallback[position]
            )
            if trusted:
                outcomes[index] = _vectorized_outcome(
                    points[index], batch, position
                )
            else:
                fallback_indices.append(index)
    for index, (result, reason) in zip(
        fallback_indices,
        run_numerical([points[i] for i in fallback_indices]),
    ):
        outcomes[index] = PointOutcome(
            point=points[index],
            result=result,
            reason=reason,
            method=FALLBACK_METHOD,
        )
    return [point_result_from_outcome(outcome) for outcome in outcomes]


def test_columnar_end_to_end_speedup(save_artifact, record_benchmark):
    scenario = mixed_scenario()
    n_points = scenario.size
    assert n_points >= (10_000 if smoke_mode() else 100_000)

    # -- columnar pipeline, full sweep ------------------------------------
    from repro import obs

    timer = obs.PhaseTimer("engine")
    started = time.perf_counter()
    table = evaluate_table(scenario, method="auto", timer=timer)
    columnar_seconds = time.perf_counter() - started
    stats = EvaluationStats.from_table(
        table, columnar_seconds, phases=timer.phases
    )
    columnar_rate = n_points / columnar_seconds

    # -- legacy object path, sampled + extrapolated ------------------------
    points = scenario.expand()
    stride = max(1, n_points // LEGACY_SAMPLE)
    sample = points[::stride]
    started = time.perf_counter()
    legacy_records = legacy_evaluate(sample)
    legacy_sample_seconds = time.perf_counter() - started
    legacy_rate = len(sample) / legacy_sample_seconds
    legacy_seconds = n_points / legacy_rate
    speedup = legacy_seconds / columnar_seconds

    # -- serialisation: columns vs per-record objects ----------------------
    # The object side is what the pre-columnar NDJSON stream did per
    # request: materialise every record, introspect it to a dict, dump.
    started = time.perf_counter()
    chunk_bytes = sum(
        len(chunk) for chunk in table.iter_ndjson_chunks(chunk_rows=2048)
    )
    columnar_serialise_seconds = time.perf_counter() - started
    started = time.perf_counter()
    object_bytes = sum(
        len(json.dumps({"kind": "record", **record.to_dict()}, sort_keys=True))
        for record in table.rows()  # fresh lazy view: materialises each row
    )
    object_serialise_seconds = time.perf_counter() - started
    serialise_speedup = object_serialise_seconds / columnar_serialise_seconds

    lines = [
        "Benchmark C1 — columnar end-to-end pipeline",
        f"sweep: {scenario.describe()}",
        f"mix:   {stats.n_vectorized} vectorized, {stats.n_fallback} "
        f"exact-numerical fallback, {n_points - stats.n_feasible} infeasible",
        "",
        f"{'path':<36} {'points':>8} {'seconds':>9} {'cand/s':>12}",
        "-" * 70,
        f"{'columnar (arrays end to end)':<36} {n_points:>8} "
        f"{columnar_seconds:>9.3f} {columnar_rate:>12,.0f}",
        f"{'legacy objects + scipy pool (sample)':<36} {len(sample):>8} "
        f"{legacy_sample_seconds:>9.3f} {legacy_rate:>12,.0f}",
        f"{'legacy extrapolated to full sweep':<36} {n_points:>8} "
        f"{legacy_seconds:>9.3f} {legacy_rate:>12,.0f}",
        "-" * 70,
        f"end-to-end speedup:      {speedup:,.1f}x (floor {SPEEDUP_FLOOR:g}x)",
        f"NDJSON serialisation:    {serialise_speedup:,.1f}x "
        f"({chunk_bytes} bytes streamed)",
    ]
    save_artifact("bench_columnar", "\n".join(lines))
    record_benchmark(
        "columnar",
        n_points=n_points,
        n_fallback=stats.n_fallback,
        n_feasible=stats.n_feasible,
        columnar_seconds=round(columnar_seconds, 4),
        columnar_rate=round(columnar_rate),
        legacy_sample_points=len(sample),
        legacy_seconds_extrapolated=round(legacy_seconds, 2),
        speedup=round(speedup, 1),
        serialise_speedup=round(serialise_speedup, 1),
        smoke=smoke_mode(),
        phases=stats.phases,
    )

    # Sanity: both sides evaluated the same problem the same way.
    rows = table.rows()
    for offset, record in zip(range(0, n_points, stride), legacy_records):
        columnar_record = rows[offset]
        assert columnar_record.feasible == record.feasible
        if record.feasible:
            assert abs(columnar_record.ptot - record.ptot) <= 1e-9 * record.ptot
    assert object_bytes > 0
    # Acceptance: >= 10x end to end on the mixed sweep.
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:g}x floor"
    )
