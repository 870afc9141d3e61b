"""Vectorised Eq. 9–13 closed-form evaluation over candidate grids.

:func:`closed_form_batch` replays the Section 3 approximation chain
(:mod:`repro.core.closed_form`) with numpy broadcasting so an entire
(architecture × frequency) grid on one technology is evaluated in a
handful of array operations — no per-point scipy calls.  The arithmetic
mirrors the scalar path operation-for-operation, so on feasible interior
points the batch values agree with :func:`repro.core.closed_form.
closed_form_optimum` to machine precision (asserted by the engine's
parity check and by the test-suite at 1e-9 relative).

The closed form is only trusted where its assumptions hold.  Each point
is classified:

* ``feasible`` — ``1 − χA > 0`` and the Eq. 10 ln-argument exceeds 1
  (equivalently ``Vth* > 0``);
* ``needs_fallback`` — feasible, but close enough to the infeasibility
  boundary, the Vth floor, or outside the Eq. 7 fit range that the
  engine re-evaluates the point with the exact numerical solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.constants import EULER
from ..core.linearization import LinearFit, paper_fit
from ..core.power_model import dynamic_power, static_power
from ..core.technology import Technology

#: Points with ``1 − χA`` below this margin are re-solved numerically:
#: the Eq. 13 prefactor ``1/(1−χA)²`` amplifies the linearisation error
#: as the feasibility boundary is approached.
FALLBACK_MARGIN = 0.05

#: Tolerated overshoot of the Eq. 7 fit range before falling back (the
#: same 2 % slack :func:`repro.core.closed_form.ptot_eq13_adaptive`
#: uses before refitting).
FIT_RANGE_TOLERANCE = 1.02

#: Points whose optimal threshold drops below this many multiples of
#: ``n·Ut`` sit near the Vth floor where the weak-inversion model is
#: doubtful; they are re-solved numerically.
VTH_FLOOR_NUT = 0.25


@dataclass(frozen=True)
class BatchResult:
    """Vectorised closed-form evaluation of one candidate grid.

    All arrays share one broadcast shape.  Non-finite entries mark
    infeasible points (``feasible`` is False there).
    """

    vdd: np.ndarray
    vth: np.ndarray
    pdyn: np.ndarray
    pstat: np.ndarray
    ptot: np.ndarray
    ptot_eq13: np.ndarray
    chi: np.ndarray
    margin: np.ndarray
    log_argument: np.ndarray
    feasible: np.ndarray
    needs_fallback: np.ndarray
    fit: LinearFit

    @property
    def size(self) -> int:
        return int(self.ptot.size)

    @property
    def n_feasible(self) -> int:
        return int(np.count_nonzero(self.feasible))

    @property
    def n_fallback(self) -> int:
        return int(np.count_nonzero(self.needs_fallback))


def chi_batch(
    tech: Technology,
    logical_depth,
    frequency,
    zeta_factor=1.0,
) -> np.ndarray:
    """Constraint coefficient χ of Eq. 6, broadcasting over all inputs.

    Mirrors :func:`repro.core.constraint.chi` (same operation order) for
    one technology with array-valued depth/frequency/zeta-factor.
    """
    logical_depth = np.asarray(logical_depth, dtype=float)
    frequency = np.asarray(frequency, dtype=float)
    zeta = tech.zeta * np.asarray(zeta_factor, dtype=float)
    denominator = tech.io * (EULER / tech.n_ut) ** tech.alpha
    return (frequency * logical_depth * zeta / denominator) ** (1.0 / tech.alpha)


def closed_form_batch(
    tech: Technology,
    n_cells,
    activity,
    logical_depth,
    capacitance,
    frequency,
    io_factor=1.0,
    zeta_factor=1.0,
    fit: LinearFit | None = None,
) -> BatchResult:
    """Evaluate the Eq. 9–13 chain over a grid of candidates at once.

    Every architecture/frequency argument may be a scalar or an array;
    all are broadcast together.  The technology (and therefore the
    Eq. 7 fit, which depends only on ``α``) is fixed per call — the
    engine groups candidate grids by technology before dispatching here.
    """
    if fit is None:
        fit = paper_fit(tech.alpha)

    (n_cells, activity, logical_depth, capacitance, frequency, io_factor,
     zeta_factor) = np.broadcast_arrays(
        *(np.asarray(value, dtype=float) for value in (
            n_cells, activity, logical_depth, capacitance, frequency,
            io_factor, zeta_factor,
        ))
    )

    n_ut = tech.n_ut
    chi = chi_batch(tech, logical_depth, frequency, zeta_factor)
    margin = 1.0 - chi * fit.a
    io = tech.io * io_factor
    acf = activity * capacitance * frequency

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_argument = np.where(
            margin > 0.0, io * margin / (2.0 * acf * n_ut), np.nan
        )
        feasible = (margin > 0.0) & (log_argument > 1.0)

        log_term = np.log(np.where(feasible, log_argument, np.nan))
        # Eq. 10 / Eq. 8 exactly as the scalar closed_form_breakdown
        # computes them.
        vdd = (n_ut * log_term + chi * fit.b) / margin
        vth = vdd * margin - chi * fit.b
        # Eq. 13, same grouping as repro.core.closed_form.ptot_eq13.
        bracket = n_ut * (log_term + 1.0) + chi * fit.b
        ptot_eq13 = n_cells * acf / margin**2 * bracket**2
        # Exact Eq. 1 split at (Vdd*, Vth*) — the quantity
        # closed_form_optimum reports as the operating point's power.
        pdyn = dynamic_power(n_cells, activity, capacitance, vdd, frequency)
        pstat = static_power(n_cells, io, vdd, vth, tech.n, tech.ut)
        ptot = pdyn + pstat

    nan = np.nan
    vdd = np.where(feasible, vdd, nan)
    vth = np.where(feasible, vth, nan)
    pdyn = np.where(feasible, pdyn, nan)
    pstat = np.where(feasible, pstat, nan)
    ptot = np.where(feasible, ptot, nan)
    ptot_eq13 = np.where(feasible, ptot_eq13, nan)

    with np.errstate(invalid="ignore"):
        needs_fallback = feasible & (
            (margin < FALLBACK_MARGIN)
            | (vdd > fit.vdd_max * FIT_RANGE_TOLERANCE)
            | (vdd < fit.vdd_min)
            | (log_argument < float(np.exp(VTH_FLOOR_NUT)))
        )

    return BatchResult(
        vdd=vdd,
        vth=vth,
        pdyn=pdyn,
        pstat=pstat,
        ptot=ptot,
        ptot_eq13=ptot_eq13,
        chi=chi,
        margin=margin,
        log_argument=log_argument,
        feasible=feasible,
        needs_fallback=needs_fallback,
        fit=fit,
    )


#: The ``closed_form_batch`` keyword for each per-point input column.
BATCH_INPUTS = (
    "n_cells",
    "activity",
    "logical_depth",
    "capacitance",
    "frequency",
    "io_factor",
    "zeta_factor",
)


def batch_arrays_for_columns(columns, indices) -> dict[str, np.ndarray]:
    """The kernel's input slice for a subset of an expanded columnar grid.

    ``columns`` is an :class:`~repro.explore.columnar.ExpandedColumns`;
    ``indices`` selects the rows of one technology group.  Pure fancy
    indexing — no per-point Python work.
    """
    return {
        name: getattr(columns, name)[indices] for name in BATCH_INPUTS
    }
