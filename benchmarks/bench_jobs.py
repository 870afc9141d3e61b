"""Benchmark J1 — shard-count scaling of the async job subsystem.

ISSUE 7's acceptance bar: on a ≥100k-point sweep submitted through
:class:`~repro.jobs.JobManager`, 4-shard execution must beat 1-shard
execution by ≥2x end to end — *on hardware with at least 4 cores*.  The
shard workers are threads.  numpy releases the GIL inside the kernel,
but the exact fallback search is a Python loop that holds it, so
threads do not scale a job with the core count: on a 2-vCPU VM this
benchmark measures 4 shards at 0.4–0.6× the speed of one, below the
floor (ROADMAP item 4).  It records ``cpu_count`` and a core-scaled
``gate_floor`` next to the measured speedup, and the CI gate enforces
that floor (2.0 with ≥4 cores, lower overhead-bound floors below that —
a 1-core container can only prove that sharding overhead stays small,
not that it scales).

Caching is disabled throughout: every timed run is a real engine run,
so the 4-shard time is not a disguised cache replay of the 1-shard one.

``REPRO_BENCH_SMOKE=1`` keeps the sweep at the 100,800-point floor
(the full run doubles it).
"""

from __future__ import annotations

import os
import time

from conftest import smoke_mode

from repro.explore.scenario import demo_scenario
from repro.jobs import JobManager, JobStore, WorkerPool

#: Shard counts to sweep; the gate compares SHARDS_GATE against 1.
SHARD_COUNTS = (1, 2, 4, 8)
SHARDS_GATE = 4

#: Timed repetitions per shard count (best-of, to shed scheduler noise).
REPEATS = 3


def gate_floor(cpu_count: int) -> float:
    """The speedup floor this machine is expected to clear.

    ≥4 cores must show real scaling; 2-3 cores at least parallel gain;
    a single core can only be held to bounded sharding overhead.
    """
    if cpu_count >= 4:
        return 2.0
    if cpu_count >= 2:
        return 1.2
    return 0.4


def timed_job(manager: JobManager, scenario, shards: int) -> float:
    started = time.perf_counter()
    record = manager.submit(scenario, solver="auto", shards=shards)
    status = manager.wait(record.id, timeout=600.0)
    elapsed = time.perf_counter() - started
    assert status["state"] == "done", status
    assert status["progress"]["points_done"] == scenario.size, status
    return elapsed


def test_shard_scaling(tmp_path, record_benchmark):
    frequency_points = 4200 if smoke_mode() else 8400
    scenario = demo_scenario(frequency_points=frequency_points)
    assert scenario.size >= 100_000  # the acceptance-bar sweep floor

    manager = JobManager(
        store=JobStore(tmp_path / "jobs"),
        cache=tmp_path / "cache",
        use_cache=False,  # every timed run is a real engine run
        pool=WorkerPool(max_workers=max(SHARD_COUNTS)),
    )
    timings: dict[int, float] = {}
    try:
        timed_job(manager, scenario, 1)  # warm-up: imports, pool spin-up
        for count in SHARD_COUNTS:
            timings[count] = min(
                timed_job(manager, scenario, count) for _ in range(REPEATS)
            )
    finally:
        manager.close()

    speedup = timings[1] / timings[SHARDS_GATE]
    cpu_count = os.cpu_count() or 1
    floor = gate_floor(cpu_count)

    lines = [
        f"jobs shard scaling — {scenario.size} points, "
        f"{cpu_count} cores (gate floor {floor}x)",
    ]
    for count in SHARD_COUNTS:
        lines.append(
            f"  {count} shard{'s' if count > 1 else ' '}: "
            f"{timings[count] * 1e3:8.1f} ms  "
            f"({timings[1] / timings[count]:.2f}x vs 1 shard)"
        )
    print("\n" + "\n".join(lines))

    record_benchmark(
        "jobs",
        points=scenario.size,
        cpu_count=cpu_count,
        gate_floor=floor,
        speedup=round(speedup, 3),
        **{
            f"seconds_{count}_shard": round(timings[count], 4)
            for count in SHARD_COUNTS
        },
    )
    assert speedup >= floor, (
        f"4-shard speedup {speedup:.2f}x below the {floor}x floor for "
        f"{cpu_count} cores: {timings}"
    )
