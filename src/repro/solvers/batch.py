"""Batch solve paths: the explore engine behind the :class:`Solver` contract.

Every ``Study`` run — and anything else that dispatches through the
solver registry — gets the vectorized Eq. 9–13 kernel, the exact-
numerical fallback and the built-in vectorized-vs-scalar parity check
from these three entries.  They take no options.

``vectorized``
    The numpy closed-form kernel everywhere it is defined (the engine's
    ``method="closed-form"``); no scipy calls at all.
``numerical``
    The exact reference solver for every point, chunked over a
    ``multiprocessing`` pool (the engine's ``method="numerical"``).
``auto``
    The production policy: trust the vectorized kernel on the closed
    form's home turf and re-solve every flagged point — near the
    feasibility boundary ``1 − χA → 0``, near the Vth floor, outside the
    Eq. 7 fit range — with the vectorized exact-numerical solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..explore import engine
from ..explore.columnar import ExpandedColumns, ResultTable
from .base import check_options

__all__ = [
    "AUTO_SOLVER",
    "ENGINE_SOLVERS",
    "EngineSolver",
    "NUMERICAL_SOLVER",
    "VECTORIZED_SOLVER",
]


@dataclass(frozen=True)
class EngineSolver:
    """One explore-engine method exposed as a registry solver."""

    name: str
    summary: str
    engine_method: str

    def solve(
        self,
        columns: ExpandedColumns,
        jobs: int | None = None,
        **options,
    ) -> ResultTable:
        check_options(self.name, options, ())
        if self.engine_method == "numerical":
            return engine._evaluate_numerical(columns, jobs)
        return engine._evaluate_columns(columns, self.engine_method)


VECTORIZED_SOLVER = EngineSolver(
    name="vectorized",
    summary="numpy Eq. 9-13 batch kernel wherever the closed form is defined",
    engine_method="closed-form",
)

NUMERICAL_SOLVER = EngineSolver(
    name="numerical",
    summary="exact numerical reference for every point (multiprocessing)",
    engine_method="numerical",
)

AUTO_SOLVER = EngineSolver(
    name="auto",
    summary="vectorized kernel + exact-numerical fallback near the boundary",
    engine_method="auto",
)

#: The engine solver of each ``explore(method=...)`` value.
ENGINE_SOLVERS = {
    solver.engine_method: solver
    for solver in (AUTO_SOLVER, VECTORIZED_SOLVER, NUMERICAL_SOLVER)
}
