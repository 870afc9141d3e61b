"""Vectorized exact-numerical optimisation of the 1-D Vdd problem.

:func:`repro.core.numerical.numerical_optimum` reduces the constrained
power minimisation to one dimension — ``Vth(Vdd)`` from the exact Eq. 5
(no linearisation), then a bounded scalar minimisation of Eq. 1 over
``Vdd`` — and solves it with one scipy ``minimize_scalar`` call per
point.  That per-point call is exactly what dominates a large
``method="auto"`` sweep once the vectorized closed form has handled the
interior: every flagged point (near the feasibility boundary, near the
Vth floor, outside the Eq. 7 fit range) pays a millisecond of scipy
machinery for microseconds of arithmetic, and the engine fans the calls
over a multiprocessing pool just to claw some of that back.

This module solves the *same* 1-D problem for the whole flagged set at
once.  :func:`_fminbound_batch` is a faithful vectorized port of scipy's
``_minimize_scalar_bounded`` (bounded Brent: golden-section with
parabolic acceleration): every point still searching carries the full
solver state ``(a, b, xf, fulc, nfc, …)`` as one slot of a numpy array,
and each loop iteration performs the identical accept/reject logic with
``np.where`` masks.  Points that converge are written out and dropped
from the arrays, so each iteration evaluates the objective once for
exactly the points scipy would still be stepping — a handful of array
operations instead of thousands of Python calls, and the same total
number of objective evaluations as the scalar searches.

Because the port replays scipy's arithmetic operation-for-operation on
the same IEEE doubles, the returned ``Vdd`` is *bit-identical* to what
``numerical_optimum`` computes, point for point — including the
boundary-pinned infeasible cases, whose "optimum pinned at search
boundary" reason strings therefore match the scalar solver's verbatim.
The final power split evaluates the exact Eq. 5 + Eq. 1 chain with the
scalar path's operation order, so feasible results are bit-identical
too (the test-suite asserts 1e-9 relative, and byte-equality holds in
practice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..core.constants import EULER
from ..core.constraint import chi_for_architecture
from ..core.numerical import DEFAULT_VDD_SPAN

__all__ = [
    "BOUNDARY_MARGIN",
    "MAX_ITERATIONS",
    "XATOL",
    "BatchNumericalSolution",
    "BatchNumericalTask",
    "solve_batch",
    "solve_points",
    "task_for_points",
]

#: Absolute ``Vdd`` tolerance of the bounded search — the exact value
#: :func:`repro.core.numerical.numerical_optimum` passes to scipy.
XATOL = 1e-7

#: Iteration cap, matching scipy's ``maxiter`` default for the bounded
#: method (which counts objective evaluations, ``nfev``).  Each point
#: stops at its own convergence well before it: on the 100,800-point
#: mixed benchmark sweep, feasible points stop after a median of 15
#: evaluations, boundary-pinned ones after 54 and the slowest after 89.
MAX_ITERATIONS = 500

#: Fraction of the search interval treated as "pinned at the boundary" —
#: the same margin :func:`repro.core.numerical.numerical_optimum` uses
#: to reject degenerate optima as infeasible.
BOUNDARY_MARGIN = 1e-4

#: Method tag for operating points this solver produces — the same 1-D
#: reduction the scalar solver tags, found by the same (vectorized)
#: search, so downstream consumers cannot tell the dispatcher changed.
METHOD = "numerical-1d"

@dataclass(frozen=True)
class BatchNumericalTask:
    """The flagged set as column arrays (one entry per point, aligned).

    ``chi`` is the Eq. 6 constraint coefficient (the architecture's
    ``zeta_factor`` already applied), ``io_power`` the per-cell leakage
    current of Eq. 1 (``tech.io · io_factor``), ``n_ut`` the
    sub-threshold slope voltage and ``inv_alpha`` is ``1/α`` — the only
    form the exact constraint needs.
    """

    name: np.ndarray
    n_cells: np.ndarray
    activity: np.ndarray
    capacitance: np.ndarray
    frequency: np.ndarray
    chi: np.ndarray
    io_power: np.ndarray
    inv_alpha: np.ndarray
    n_ut: np.ndarray
    vdd_lo: np.ndarray
    vdd_hi: np.ndarray

    @property
    def size(self) -> int:
        return len(self.frequency)


@dataclass(frozen=True)
class BatchNumericalSolution:
    """Per-point outcome arrays, aligned with the task.

    ``feasible`` rows carry the exact operating point (NaN elsewhere);
    infeasible rows carry the scalar solver's verbatim ``reason``.
    """

    vdd: np.ndarray
    vth: np.ndarray
    pdyn: np.ndarray
    pstat: np.ndarray
    ptot: np.ndarray
    feasible: np.ndarray
    reason: np.ndarray

    @property
    def size(self) -> int:
        return len(self.vdd)


def chi_denominator(tech) -> float:
    """The Eq. 6 denominator ``Io·(e/(n·Ut))^α`` as the scalar path computes it."""
    return tech.io * (EULER / tech.n_ut) ** tech.alpha


def exact_chi(
    logical_depth: np.ndarray,
    frequency: np.ndarray,
    zeta_effective: np.ndarray,
    denominator: np.ndarray,
    inv_alpha: np.ndarray,
) -> np.ndarray:
    """Per-point χ, bit-identical to :func:`repro.core.constraint.chi`.

    The base ``f·LD·ζ/denominator`` is pure elementwise multiply/divide
    — correctly rounded, so the vectorized value equals the scalar one
    to the last bit.  The final power, however, goes through numpy's
    SIMD ``pow`` on arrays, which may differ from scalar libm ``pow``
    by 1 ULP; since the fallback solver's claim is bit-parity with the
    scalar reference, the exponentiation runs on python floats.
    """
    base = frequency * logical_depth * zeta_effective / denominator
    return np.array(
        [b**e for b, e in zip(base.tolist(), inv_alpha.tolist())],
        dtype=float,
    )


def task_for_points(
    points: Sequence,
    chi: np.ndarray | None = None,
    vdd_span: tuple[float, float] = DEFAULT_VDD_SPAN,
) -> BatchNumericalTask:
    """Column arrays for a list of :class:`~repro.explore.scenario.DesignPoint`.

    ``chi`` may be passed pre-computed (the batch kernel already has it
    for every flagged point); otherwise it is derived per point with the
    scalar helper.
    """
    if chi is None:
        chi = np.array(
            [
                chi_for_architecture(p.architecture, p.technology, p.frequency)
                for p in points
            ],
            dtype=float,
        )
    else:
        chi = np.asarray(chi, dtype=float)
    nominal = np.array([p.technology.vdd_nominal for p in points], dtype=float)
    return BatchNumericalTask(
        name=np.array([p.architecture.name for p in points], dtype=object),
        n_cells=np.array(
            [p.architecture.n_cells for p in points], dtype=float
        ),
        activity=np.array(
            [p.architecture.activity for p in points], dtype=float
        ),
        capacitance=np.array(
            [p.architecture.capacitance for p in points], dtype=float
        ),
        frequency=np.array([p.frequency for p in points], dtype=float),
        chi=chi,
        io_power=np.array(
            [p.technology.io * p.architecture.io_factor for p in points],
            dtype=float,
        ),
        inv_alpha=np.array(
            [1.0 / p.technology.alpha for p in points], dtype=float
        ),
        n_ut=np.array([p.technology.n_ut for p in points], dtype=float),
        vdd_lo=vdd_span[0] * nominal,
        vdd_hi=vdd_span[1] * nominal,
    )


def _power_split(
    task: BatchNumericalTask, vdd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(vth, pdyn, pstat, ptot) at ``vdd``, along the exact constraint.

    Operation order replicates the scalar chain exactly —
    ``vth_exact`` then ``power_breakdown`` with the leakage-corrected
    technology — so values are bit-identical at equal ``vdd``.

    The ``vdd**inv_alpha`` here intentionally goes through numpy's
    ufunc ``pow`` (unlike :func:`exact_chi`): the scalar reference
    computes ``Vth`` via ``np.power`` too, and numpy's ufunc rounds
    identically for 0-d and n-d operands while *differing* from
    python/libm ``pow`` by 1 ULP on some inputs.  χ, by contrast, is
    computed with python floats on the scalar path — each side of the
    chain must match the rounding of its scalar counterpart.
    """
    vth = vdd - task.chi * vdd**task.inv_alpha
    with np.errstate(over="ignore", invalid="ignore"):
        pdyn = (
            task.n_cells
            * task.activity
            * task.capacitance
            * vdd**2
            * task.frequency
        )
        pstat = task.n_cells * vdd * task.io_power * np.exp(-vth / task.n_ut)
    return vth, pdyn, pstat, pdyn + pstat


def _objective(task: BatchNumericalTask, vdd: np.ndarray) -> np.ndarray:
    return _power_split(task, vdd)[3]


#: The task columns :func:`_power_split` reads, gathered with the search
#: state whenever :func:`_fminbound_batch` drops converged slots.  The
#: search's working task leaves the other columns full-length, so only
#: the objective may read it.
_OBJECTIVE_COLUMNS = (
    "n_cells",
    "activity",
    "capacitance",
    "frequency",
    "chi",
    "io_power",
    "inv_alpha",
    "n_ut",
)


def _fminbound_batch(
    task: BatchNumericalTask, xatol: float = XATOL, maxiter: int = MAX_ITERATIONS
) -> np.ndarray:
    """Vectorized port of scipy's ``_minimize_scalar_bounded``.

    One numpy slot per point still searching carries the scalar
    algorithm's full state; each loop iteration applies the identical
    golden/parabolic logic through boolean masks and evaluates the
    objective once for those slots.  When points converge, their ``xf``
    is written out by original index and the state arrays (plus the
    task columns the objective reads) are gathered down to the rest, so
    the objective runs exactly as often as scipy's would, and every
    point's trajectory — and therefore the returned ``xf`` — is
    bit-identical to the scalar search.
    """
    n = task.size
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))

    a = task.vdd_lo.astype(float, copy=True)
    b = task.vdd_hi.astype(float, copy=True)
    fulc = a + golden_mean * (b - a)
    nfc = fulc.copy()
    xf = fulc.copy()
    rat = np.zeros(n)
    e = np.zeros(n)
    fx = _objective(task, xf)
    num = 1
    ffulc = fx.copy()
    fnfc = fx.copy()
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    result = np.empty(n)
    slot = np.arange(n)  # original index of each array position
    with np.errstate(invalid="ignore"):
        searching = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    while searching.any():
        if not searching.all():
            result[slot[~searching]] = xf[~searching]
            keep = np.flatnonzero(searching)
            slot = slot[keep]
            a, b, fulc, nfc, xf, rat, e, fx, ffulc, fnfc, xm, tol1, tol2 = (
                state[keep]
                for state in (
                    a, b, fulc, nfc, xf, rat, e, fx, ffulc, fnfc, xm, tol1, tol2
                )
            )
            task = replace(
                task,
                **{name: getattr(task, name)[keep] for name in _OBJECTIVE_COLUMNS},
            )
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            use_parabola = np.abs(e) > tol1
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            r = e  # the *previous* step length gates acceptability
            e = np.where(use_parabola, rat, e)
            accept = (
                use_parabola
                & (np.abs(p) < np.abs(0.5 * q * r))
                & (p > q * (a - xf))
                & (p < q * (b - xf))
            )
            rat = np.where(accept, p / q, rat)
            x_parabola = xf + rat
            near_edge = accept & (
                ((x_parabola - a) < tol2) | ((b - x_parabola) < tol2)
            )
            si = np.sign(xm - xf) + ((xm - xf) == 0)
            rat = np.where(near_edge, tol1 * si, rat)

            golden = ~accept
            e_golden = np.where(xf >= xm, a - xf, b - xf)
            e = np.where(golden, e_golden, e)
            rat = np.where(golden, golden_mean * e_golden, rat)

            si = np.sign(rat) + (rat == 0)
            x = xf + si * np.maximum(np.abs(rat), tol1)
            fu = _objective(task, x)
            num += 1

            improved = fu <= fx
            a = np.where(improved & (x >= xf), xf, a)
            b = np.where(improved & (x < xf), xf, b)
            fulc = np.where(improved, nfc, fulc)
            ffulc = np.where(improved, fnfc, ffulc)
            nfc = np.where(improved, xf, nfc)
            fnfc = np.where(improved, fx, fnfc)

            worse = ~improved
            a = np.where(worse & (x < xf), x, a)
            b = np.where(worse & (x >= xf), x, b)
            shift_both = worse & ((fu <= fnfc) | (nfc == xf))
            shift_fulc = (
                worse
                & ~shift_both
                & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            )
            fulc = np.where(shift_both, nfc, np.where(shift_fulc, x, fulc))
            ffulc = np.where(
                shift_both, fnfc, np.where(shift_fulc, fu, ffulc)
            )
            nfc = np.where(shift_both, x, nfc)
            fnfc = np.where(shift_both, fu, fnfc)

            xf = np.where(improved, x, xf)
            fx = np.where(improved, fu, fx)

            xm = 0.5 * (a + b)
            tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
            tol2 = 2.0 * tol1
            searching = (np.abs(xf - xm) > (tol2 - 0.5 * (b - a))) & (
                num < maxiter
            )
    result[slot] = xf
    return result


def solve_batch(task: BatchNumericalTask) -> BatchNumericalSolution:
    """Solve every task point at once; see the module docstring."""
    n = task.size
    if n == 0:
        empty = np.array([], dtype=float)
        return BatchNumericalSolution(
            vdd=empty,
            vth=empty.copy(),
            pdyn=empty.copy(),
            pstat=empty.copy(),
            ptot=empty.copy(),
            feasible=np.array([], dtype=bool),
            reason=np.array([], dtype=object),
        )

    vdd = _fminbound_batch(task)
    interval = task.vdd_hi - task.vdd_lo
    # The scalar solver treats a boundary-pinned minimiser as
    # infeasibility (the bounded search cannot certify an optimum there).
    with np.errstate(invalid="ignore"):
        feasible = ~(
            (vdd - task.vdd_lo < BOUNDARY_MARGIN * interval)
            | (task.vdd_hi - vdd < BOUNDARY_MARGIN * interval)
        )

    reason = np.empty(n, dtype=object)
    reason.fill("")
    pinned = np.flatnonzero(~feasible)
    # The scalar solver's exception message, reproduced verbatim so
    # ``method="auto"`` reports byte-identical infeasibility reasons
    # whether a point was solved here or by the scipy reference.
    reason[pinned] = [
        f"numerical_optimum[{name}]: optimum pinned at search boundary "
        f"Vdd={value:.4f} V — problem infeasible or span too narrow"
        for name, value in zip(task.name[pinned].tolist(), vdd[pinned].tolist())
    ]

    vth, pdyn, pstat, ptot = _power_split(task, vdd)
    nan = np.nan
    return BatchNumericalSolution(
        vdd=np.where(feasible, vdd, nan),
        vth=np.where(feasible, vth, nan),
        pdyn=np.where(feasible, pdyn, nan),
        pstat=np.where(feasible, pstat, nan),
        ptot=np.where(feasible, ptot, nan),
        feasible=feasible,
        reason=reason,
    )


def solve_points(
    points: Sequence, chi: np.ndarray | None = None
) -> BatchNumericalSolution:
    """Convenience: :func:`task_for_points` + :func:`solve_batch`."""
    return solve_batch(task_for_points(points, chi=chi))
