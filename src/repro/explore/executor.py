"""Parallel execution of exact-numerical evaluations.

The ``method="numerical"`` reference runs one scipy ``minimize_scalar``
call per point on purpose (the ``auto`` fallback is vectorized and never
comes here).  This module fans those scalar calls out over a
``multiprocessing`` pool with chunking, falling back to an in-process
loop for small batches (or single-CPU hosts) where pool start-up would
dominate.

Every evaluation returns ``(OptimizationResult | None, reason)``, the
pair :meth:`~repro.explore.columnar.ResultTable.from_solutions` turns
into table rows: infeasible candidates are kept, with their reason.
"""

from __future__ import annotations

import multiprocessing
import os

from ..core.closed_form import InfeasibleConstraintError
from ..core.numerical import numerical_optimum
from ..core.optimum import OptimizationResult

#: Below this many points a pool is never worth starting.
PARALLEL_THRESHOLD = 16

#: Default chunk size handed to ``Pool.map`` (each task is ~ms-scale, so
#: chunking amortises the IPC round-trips).
DEFAULT_CHUNK_SIZE = 8


def resolve_jobs(jobs: int | None, n_tasks: int) -> int:
    """Effective worker count: explicit > CPU count, capped by the load."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, n_tasks))


def solve_point(task) -> tuple[OptimizationResult | None, str]:
    """Exact numerical optimum for one (arch, tech, frequency) task.

    Module-level (picklable) so it can cross the process boundary.
    Infeasibility is data, not an exception: the reason string travels
    back instead.
    """
    arch, tech, frequency = task
    try:
        result = numerical_optimum(arch, tech, frequency)
    except (InfeasibleConstraintError, ValueError) as error:
        return None, str(error)
    return result, ""


def run_numerical(
    points,
    jobs: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[tuple[OptimizationResult | None, str]]:
    """Evaluate ``numerical_optimum`` for every design point, in order.

    Parameters
    ----------
    points:
        Iterable of :class:`~.scenario.DesignPoint`.
    jobs:
        Worker processes; ``None`` uses the CPU count, 1 forces the
        serial in-process path.
    chunk_size:
        Tasks per pool dispatch.
    """
    tasks = [(p.architecture, p.technology, p.frequency) for p in points]
    # Grids with repeated candidates (duplicate architectures, repeated
    # frequencies, merged scenarios) solve each unique task once and fan
    # the result back out — the dataclasses are frozen/hashable, so the
    # (architecture, technology, frequency) tuple is its own key.
    position_of: dict[tuple, int] = {}
    unique_tasks: list[tuple] = []
    positions: list[int] = []
    for task in tasks:
        position = position_of.get(task)
        if position is None:
            position = len(unique_tasks)
            position_of[task] = position
            unique_tasks.append(task)
        positions.append(position)

    jobs = resolve_jobs(jobs, len(unique_tasks))
    if jobs <= 1 or len(unique_tasks) < PARALLEL_THRESHOLD:
        unique_results = [solve_point(task) for task in unique_tasks]
    else:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with context.Pool(processes=jobs) as pool:
            unique_results = pool.map(
                solve_point, unique_tasks, chunksize=chunk_size
            )
    return [unique_results[position] for position in positions]
