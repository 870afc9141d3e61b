"""The :class:`Solver` protocol — one signature for every solve path.

Every answer to "which (Vdd, Vth) minimises total power at frequency
f?" — the Eq. 13 closed form, the exact numerical baseline, the
Section 4–5 selection — leaves through one contract:

    ``solve(columns, jobs=None, **options) -> ResultTable``

* ``columns`` is a scenario's candidate grid as column arrays
  (:class:`repro.explore.columnar.ExpandedColumns`); the returned
  :class:`repro.explore.columnar.ResultTable` is row-aligned with it.
* Infeasibility is **data, not an exception**: an infeasible row has
  ``feasible`` False, NaN operating-point columns and a human-readable
  ``reason``.
* ``jobs`` is a parallelism *hint*; purely scalar solvers may ignore it.
* ``options`` are solver-specific keywords (e.g. ``vth_max`` for the
  bounded solver); solvers must reject unknown options loudly.

:func:`repro.explore.engine.run` is the one run path that calls it, for
``Study``, ``explore()``, jobs and the service alike.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..explore.columnar import ExpandedColumns, ResultTable

__all__ = ["Solver", "SolverError", "check_options"]


class SolverError(ValueError):
    """Raised for solver-level misuse (unknown name, bad options)."""


@runtime_checkable
class Solver(Protocol):
    """Anything that evaluates a candidate grid under the uniform contract.

    Implementations carry a ``name`` (the registry key) and a one-line
    ``summary`` used by CLI/API listings.
    """

    name: str
    summary: str

    def solve(
        self,
        columns: ExpandedColumns,
        jobs: int | None = None,
        **options,
    ) -> ResultTable:
        """Evaluate every row of ``columns``; the table aligns with it."""
        ...


def check_options(solver_name: str, options, allowed: tuple[str, ...]) -> None:
    """Reject option typos instead of silently ignoring them."""
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        allowed_text = ", ".join(allowed) if allowed else "none"
        raise SolverError(
            f"solver {solver_name!r} got unknown option(s) "
            f"{', '.join(unknown)}; allowed: {allowed_text}"
        )
