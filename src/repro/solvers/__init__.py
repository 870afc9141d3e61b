"""Unified solver registry (the dispatch layer under :class:`repro.study.Study`).

One protocol, one registry, seven built-in entries:

==================== ========================================================
``closed_form``      scalar Section 3 chain (Eqs. 9/10/8), one point at a time
``linearized``       numerical optimum on the linearised constraint (A4)
``numerical``        exact numerical reference, parallel over a process pool
``numerical_scalar`` exact numerical reference, serial in-process loop
``vectorized``       numpy Eq. 9–13 batch kernel, no scipy calls
``bounded``          exact optimum under practical Vth/Vdd caps
``auto``             vectorized kernel with exact-numerical fallback
==================== ========================================================

All of them honour the same contract (see :mod:`repro.solvers.base`):
``solve(columns, jobs=None, **options)`` takes a scenario's candidate
grid as :class:`~repro.explore.columnar.ExpandedColumns` and returns a
row-aligned :class:`~repro.explore.columnar.ResultTable`, with
infeasibility reported as data rather than raised.  Register your own
with :func:`register_solver` and it becomes addressable from
``Study(...).solver("your-name")``, jobs, the service and the CLI
immediately; :func:`repro.explore.engine.run` is the one run path that
calls every solver.

:mod:`repro.solvers.batch_numerical` is not a registry entry but the
vectorized kernel underneath ``auto``'s exact-numerical fallback: a
lockstep numpy port of the bounded scipy search that solves the whole
flagged set at once, bit-identical to ``numerical_optimum`` — the
per-point scipy pool now serves only the ``numerical`` reference
method.
"""

from .base import Solver, SolverError, check_options
from .batch import AUTO_SOLVER, EngineSolver, NUMERICAL_SOLVER, VECTORIZED_SOLVER
from .batch_numerical import (
    BatchNumericalSolution,
    BatchNumericalTask,
    solve_batch,
)
from .registry import (
    available_solvers,
    get_solver,
    register_solver,
    solver_summaries,
    unregister_solver,
)
from .scalar import (
    BOUNDED_SOLVER,
    CLOSED_FORM_SOLVER,
    LINEARIZED_SOLVER,
    NUMERICAL_SCALAR_SOLVER,
    ScalarSolver,
)

__all__ = [
    "AUTO_SOLVER",
    "BOUNDED_SOLVER",
    "BatchNumericalSolution",
    "BatchNumericalTask",
    "CLOSED_FORM_SOLVER",
    "EngineSolver",
    "LINEARIZED_SOLVER",
    "NUMERICAL_SCALAR_SOLVER",
    "NUMERICAL_SOLVER",
    "ScalarSolver",
    "Solver",
    "SolverError",
    "VECTORIZED_SOLVER",
    "available_solvers",
    "check_options",
    "get_solver",
    "register_solver",
    "solve_batch",
    "solver_summaries",
    "unregister_solver",
]

# The built-in solvers are registered by the catalog's builtin loader
# (repro.catalog.builtin.register_builtins) the first time any lookup
# touches the catalog — importing this package stays registration-free,
# which keeps the repro.solvers ⇄ repro.catalog import graph acyclic.
