"""Scalar solve paths wrapped into the uniform :class:`Solver` contract.

Each of these wraps one of the repository's one-point-at-a-time entry
points.  The wrapped function keeps its exact numerics — the solver
only normalises the *shape*: a candidate grid in, a row-aligned
:class:`~repro.explore.columnar.ResultTable` out, infeasibility carried
as a reason string instead of an exception.

``closed_form``
    Eqs. 9/10/8 via :func:`repro.core.closed_form.closed_form_optimum`
    (the paper's Section 3 chain, scalar).
``linearized``
    Numerical optimum on the *linearised* constraint
    (:func:`repro.core.numerical.numerical_optimum_linearized`), the
    ablation-A4 path.
``bounded``
    Practical voltage caps (:func:`repro.core.bounded.bounded_optimum`);
    options ``vth_max`` and ``vdd_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.bounded import bounded_optimum
from ..core.closed_form import InfeasibleConstraintError, closed_form_optimum
from ..core.numerical import numerical_optimum, numerical_optimum_linearized
from ..core.optimum import OptimizationResult
from ..explore.columnar import ExpandedColumns, ResultTable
from .base import check_options

__all__ = [
    "ScalarSolver",
    "BOUNDED_SOLVER",
    "CLOSED_FORM_SOLVER",
    "LINEARIZED_SOLVER",
    "NUMERICAL_SCALAR_SOLVER",
]


@dataclass(frozen=True)
class ScalarSolver:
    """A per-point solve function lifted to the batch solver contract.

    ``fn(arch, tech, frequency, **options)`` must return an
    :class:`OptimizationResult` or raise ``InfeasibleConstraintError`` /
    ``ValueError`` for infeasible problems (the contract every
    ``repro.core`` optimiser already honours); the error text becomes
    the row's ``reason`` and every row is tagged with the solver name.
    ``jobs`` is accepted for signature uniformity and ignored — these
    paths are scalar by nature; use the ``numerical`` or ``auto``
    registry entries for parallel and vectorized evaluation.
    """

    name: str
    summary: str
    fn: Callable[..., OptimizationResult]
    allowed_options: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)

    def solve(
        self,
        columns: ExpandedColumns,
        jobs: int | None = None,
        **options,
    ) -> ResultTable:
        check_options(self.name, options, self.allowed_options)
        merged = {**self.defaults, **options}

        def solve_row(index: int) -> tuple[OptimizationResult | None, str]:
            point = columns.design_point(index)
            try:
                return self.fn(
                    point.architecture, point.technology, point.frequency,
                    **merged,
                ), ""
            except (InfeasibleConstraintError, ValueError) as error:
                return None, str(error)

        return ResultTable.from_solutions(
            columns, map(solve_row, range(columns.n)), self.name
        )


CLOSED_FORM_SOLVER = ScalarSolver(
    name="closed_form",
    summary="paper Eqs. 9/10/8 closed-form chain, one point at a time",
    fn=closed_form_optimum,
    allowed_options=("chi_value", "fit"),
)

LINEARIZED_SOLVER = ScalarSolver(
    name="linearized",
    summary="numerical optimum on the linearised Eq. 8 constraint (ablation A4)",
    fn=numerical_optimum_linearized,
    allowed_options=("chi_value", "fit", "vdd_span"),
)

BOUNDED_SOLVER = ScalarSolver(
    name="bounded",
    summary="exact optimum under practical Vth/Vdd caps (vth_max, vdd_bounds)",
    fn=bounded_optimum,
    allowed_options=("vth_max", "vdd_bounds", "chi_value"),
)

#: The reference solver in scalar form.  The registry's ``numerical``
#: entry routes through the parallel executor instead; this instance
#: exists for callers that want the guaranteed-serial, in-process path.
NUMERICAL_SCALAR_SOLVER = ScalarSolver(
    name="numerical_scalar",
    summary="exact numerical reference, guaranteed in-process serial loop",
    fn=numerical_optimum,
    allowed_options=("chi_value", "vdd_span"),
)
