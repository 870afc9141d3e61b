"""Benchmark R1 — deadline checkpoints must be free when idle.

ISSUE 10's acceptance bar: the cooperative deadline machinery (the
thread-local read in :func:`repro.resilience.checkpoint` and the
chunked kernel loop it enables) may cost **at most 2%** end to end on
the 100,800-point mixed sweep — measured here as the median, over
adjacent pairs of ``evaluate_table`` runs, of the wall-time ratio with
a generous active deadline versus none — and the two runs must produce
byte-identical columns.  Each pair runs back to back and flips its
order every round, so a host slowdown that outlasts one pair cancels
out of that pair's ratio.

The faults-off half of the contract rides along: with no plan
installed, ``faults.check``/``faults.mangle`` are one global load, and
this benchmark times a million of them to record the per-call cost.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep ~8x for CI.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from bench_columnar import mixed_scenario
from conftest import smoke_mode

from repro.explore.engine import evaluate_table
from repro.resilience import Deadline, active_deadline
from repro.resilience.faults import check as fault_check

#: Acceptance ceiling for the deadline-checkpoint overhead.
OVERHEAD_CEILING_PCT = 2.0

#: A deadline generous enough to never fire during the sweep: the
#: overhead measured is pure checkpoint cost, not early termination.
GENEROUS_SECONDS = 3600.0


#: Adjacent (baseline, deadline) pairs; the gate reads their median
#: ratio.  Single pairs of the ~50 ms smoke sweep spread by ±10 % and
#: more on a shared 2-vCPU host, so the median needs many of them.
ROUNDS = 30


def _timed(evaluate) -> tuple[float, object]:
    # Each run starts from a collected heap and runs without the cyclic
    # collector, so a collection pause cannot land on one side of a pair.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        table = evaluate()
        return time.perf_counter() - started, table
    finally:
        gc.enable()


def _assert_identical(baseline, guarded) -> None:
    left = baseline.to_payload_columns()
    right = guarded.to_payload_columns()
    assert left.keys() == right.keys()
    for name in left:
        assert np.array_equal(
            np.asarray(left[name]), np.asarray(right[name])
        ), f"column {name!r} differs under an active deadline"


def test_deadline_checkpoint_overhead(record_benchmark):
    scenario = mixed_scenario()
    n_points = scenario.size

    # Untimed warm-up so the first timed run does not pay one-off costs
    # (imports, allocator growth, solver caches) that would skew the
    # baseline-vs-deadline comparison.
    evaluate_table(scenario, method="auto")

    def baseline():
        return evaluate_table(scenario, method="auto")

    def guarded():
        with active_deadline(Deadline.after(GENEROUS_SECONDS)):
            return evaluate_table(scenario, method="auto")

    baseline_times, deadline_times, ratios = [], [], []
    for round_index in range(ROUNDS):
        if round_index % 2:
            deadline_seconds, deadline_table = _timed(guarded)
            baseline_seconds, baseline_table = _timed(baseline)
        else:
            baseline_seconds, baseline_table = _timed(baseline)
            deadline_seconds, deadline_table = _timed(guarded)
        baseline_times.append(baseline_seconds)
        deadline_times.append(deadline_seconds)
        ratios.append(deadline_seconds / baseline_seconds)

    _assert_identical(baseline_table, deadline_table)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0

    # -- faults-off checkpoint cost (no plan installed) --------------------
    calls = 1_000_000
    started = time.perf_counter()
    for _ in range(calls):
        fault_check("cache.read")
    fault_check_ns = (time.perf_counter() - started) / calls * 1e9

    record_benchmark(
        "resilience",
        points=n_points,
        rounds=ROUNDS,
        baseline_seconds=round(statistics.median(baseline_times), 4),
        deadline_seconds=round(statistics.median(deadline_times), 4),
        pair_overhead_pct_min=round((min(ratios) - 1.0) * 100.0, 3),
        pair_overhead_pct_max=round((max(ratios) - 1.0) * 100.0, 3),
        overhead_pct=round(overhead_pct, 3),
        gate_pct=OVERHEAD_CEILING_PCT,
        fault_check_off_ns=round(fault_check_ns, 1),
        smoke=smoke_mode(),
    )
    assert overhead_pct <= OVERHEAD_CEILING_PCT, (
        f"deadline checkpoints cost {overhead_pct:.2f}% on the "
        f"{n_points}-point sweep (ceiling {OVERHEAD_CEILING_PCT:g}%)"
    )
