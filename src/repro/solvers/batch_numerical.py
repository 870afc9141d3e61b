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
operations instead of thousands of Python calls.

Before every step, a point whose search bracket [a, b] still touches
an end of the span stops if its total power provably rises on [lo, b]
or falls on [a, hi]: the search could only end pinned at that end, so
the point is written out there (:func:`_fminbound_batch` has the proof).

Because the port replays scipy's arithmetic operation-for-operation on
the same IEEE doubles, every searched ``Vdd`` is *bit-identical* to what
``numerical_optimum`` computes, point for point — including the
boundary-pinned infeasible cases, whose "optimum pinned at search
boundary" reason strings therefore match the scalar solver's verbatim
(a certified point's too: an end is certified only where every point
the search could stop at prints the same).
The final power split evaluates the exact Eq. 5 + Eq. 1 chain with the
scalar path's operation order, so feasible results are bit-identical
too (the test-suite asserts 1e-9 relative, and byte-equality holds in
practice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..core.constants import EULER
from ..explore.columnar import Categorical

__all__ = [
    "BOUNDARY_MARGIN",
    "MAX_ITERATIONS",
    "XATOL",
    "BatchNumericalSolution",
    "BatchNumericalTask",
    "solve_batch",
]

#: Absolute ``Vdd`` tolerance of the bounded search — the exact value
#: :func:`repro.core.numerical.numerical_optimum` passes to scipy.
XATOL = 1e-7

#: Iteration cap, matching scipy's ``maxiter`` default for the bounded
#: method (which counts objective evaluations, ``nfev``).  Each point
#: stops at its own convergence well before it: on the 100,800-point
#: mixed benchmark sweep, feasible points stop after a median of 15
#: evaluations and at most 25, certified pinned ones after at most 20,
#: and the slowest point after 25 (89 with no point certified).
MAX_ITERATIONS = 500

#: Fraction of the search interval treated as "pinned at the boundary" —
#: the same margin :func:`repro.core.numerical.numerical_optimum` uses
#: to reject degenerate optima as infeasible.
BOUNDARY_MARGIN = 1e-4

#: Relative margin on the "falls" certificate of :func:`_fminbound_batch`,
#: for the rounding of its terms: h is off by a few ULP of χV^β (< 1e-13 V,
#: as a finite Pstat keeps −Vth < 710·n·Ut), against _FALL_MARGIN·n·Ut
#: ≥ 2.6e-11 V; Pdyn/Pstat by that error over n·Ut, ~1e-12 relative.
_FALL_MARGIN = 1e-9

#: Method tag for operating points this solver produces — the same 1-D
#: reduction the scalar solver tags, found by the same (vectorized)
#: search, so downstream consumers cannot tell the dispatcher changed.
METHOD = "numerical-1d"

@dataclass(frozen=True)
class BatchNumericalTask:
    """The flagged set as column arrays (one entry per point, aligned).

    ``name`` is a string array or a
    :class:`~repro.explore.columnar.Categorical`; ``chi`` is the Eq. 6
    constraint coefficient (the architecture's
    ``zeta_factor`` already applied), ``io_power`` the per-cell leakage
    current of Eq. 1 (``tech.io · io_factor``), ``n_ut`` the
    sub-threshold slope voltage and ``inv_alpha`` is ``1/α`` — the only
    form the exact constraint needs.
    """

    name: "np.ndarray | Categorical"
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
    infeasible rows carry the scalar solver's verbatim ``reason``, as
    codes into the distinct texts (``""`` on feasible rows).
    """

    vdd: np.ndarray
    vth: np.ndarray
    pdyn: np.ndarray
    pstat: np.ndarray
    ptot: np.ndarray
    feasible: np.ndarray
    reason: Categorical

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
    return np.fromiter(
        map(pow, base.tolist(), inv_alpha.tolist()), float, count=base.size
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


def _gather(task: BatchNumericalTask, keep: np.ndarray) -> BatchNumericalTask:
    """``task`` with the objective's columns gathered down to ``keep``."""
    columns = {name: getattr(task, name)[keep] for name in _OBJECTIVE_COLUMNS}
    return replace(task, **columns)


def _fminbound_batch(
    task: BatchNumericalTask, lo_eligible: np.ndarray, hi_eligible: np.ndarray
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

    Before every step, a slot whose bracket [a, b] still touches an end
    of the span that ``lo_eligible``/``hi_eligible`` allow is tested for
    total power that provably rises on [lo, b] or falls on [a, hi].  A
    certified slot is written out as exactly ``lo`` or ``hi``, a value
    the search itself never returns, and dropped with the converged ones.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    lo, hi = task.vdd_lo, task.vdd_hi
    result = np.empty(task.size)
    slot = np.arange(task.size)  # original index of each array position

    # The certificates.  With h(V) = V − χβV^β, along the constraint
    # dPdyn/dV = 2·Pdyn/V and dPstat/dV = Pstat·(n·Ut − h)/(V·n·Ut); for
    # β ≤ 1, h(V)/V never falls.  "Rises" (a == lo): h(b) ≤ n·Ut bounds
    # h ≤ max(0, h(b)) ≤ n·Ut on (0, b], so Ptot rises there.  "Falls"
    # (b == hi): h ≥ h(a) on [a, hi], so R = Pstat/Pdyn, with d ln R/dV =
    # −(n·Ut + h)/(V·n·Ut), falls, and h(a) > h_fall = n·Ut·(1 + 2/R(hi))
    # gives R·(h − n·Ut) > 2·n·Ut: Ptot falls on [a, hi].  Either needs
    # Ptot finite at the far end, which then bounds the bracket.  Why the
    # search must then stop pinned at lo (hi): while its stop test fails,
    # each trial point lies strictly inside (a, b) (a golden step moves
    # 0.382 of the larger side, which exceeds 2·tol1; a parabolic one is
    # kept inside, and moved tol1 toward the middle when within tol2 of
    # an edge).  So on a monotone bracket that end never moves, and the
    # search stops within 2·tol1 of it, far before MAX_ITERATIONS.  The
    # caller makes an end eligible only where every value that close
    # prints as the end, inside the pinned margin.  As a only rises and b
    # only falls, a slot off both ends stays off.
    pinnable = task.inv_alpha <= 1.0
    lo_end = np.where(lo_eligible & pinnable, lo, np.nan)
    hi_end = np.where(hi_eligible & pinnable, hi, np.nan)
    certifying = bool(np.isfinite(lo_end).any() or np.isfinite(hi_end).any())
    if certifying:
        vth, pdyn, pstat, ptot = _power_split(task, hi)
        h, finite = hi - task.inv_alpha * (hi - vth), np.isfinite(ptot)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h_fall = (1.0 + _FALL_MARGIN) * task.n_ut * (1.0 + 2.0 * pdyn / pstat)
        h_fall[~finite] = np.inf
        hi_end[~(h > h_fall)] = np.nan  # then h(a) ≤ max(0, h(hi)) ≤ h_fall
        # Iteration 0 (a == lo, b == hi), before the first evaluation: an
        # eligible span is far wider than 4·tol1, so its row would search.
        # "Falls" waits for the first step.
        rises = np.isfinite(lo_end) & finite & (h <= task.n_ut)
        result[rises] = lo[rises]
        slot = np.flatnonzero(~rises)
        task = _gather(task, slot)

    a, b = lo[slot], hi[slot]
    fulc = a + golden_mean * (b - a)
    nfc = fulc.copy()
    xf = fulc.copy()
    rat = np.zeros(slot.size)
    e = np.zeros(slot.size)
    fx = _objective(task, xf)
    num = 1
    ffulc = fx.copy()
    fnfc = fx.copy()
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + XATOL / 3.0
    tol2 = 2.0 * tol1
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
            task = _gather(task, keep)
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
            tol1 = sqrt_eps * np.abs(xf) + XATOL / 3.0
            tol2 = 2.0 * tol1
            searching = (np.abs(xf - xm) > (tol2 - 0.5 * (b - a))) & (
                num < MAX_ITERATIONS
            )
        if certifying:
            at_lo = a == lo_end[slot]
            ends = np.flatnonzero(searching & (at_lo | (b == hi_end[slot])))
            certifying = ends.size > 0
        if certifying:  # each slot is tested at the far end of its bracket
            at_lo, rows = at_lo[ends], slot[ends]
            near = _gather(task, ends)
            far = np.where(at_lo, b[ends], a[ends])
            vth, _, _, ptot = _power_split(near, far)
            h = far - near.inv_alpha * (far - vth)
            proven = np.isfinite(ptot) & np.where(
                at_lo, h <= near.n_ut, h > h_fall[rows]
            )
            xf[ends[proven]] = np.where(at_lo, lo[rows], hi[rows])[proven]
            searching[ends[proven]] = False
    result[slot] = xf
    return result


def _prints_alike(ends: np.ndarray, width: float) -> np.ndarray:
    """Rows whose every value from ``ends`` to ``ends + width`` prints the
    same to 4 decimals; rounding is monotone, so the two ends decide."""
    distinct, inverse = np.unique(ends, return_inverse=True)
    alike = [f"{v:.4f}" == f"{v + width:.4f}" for v in distinct.tolist()]
    return np.array(alike, dtype=bool)[inverse]


def _pinned_reason(name: str, vdd: float) -> str:
    """The scalar solver's exception message, verbatim."""
    return (
        f"numerical_optimum[{name}]: optimum pinned at search boundary "
        f"Vdd={vdd:.4f} V — problem infeasible or span too narrow"
    )


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
            reason=Categorical.from_values([]),
        )

    lo, hi = task.vdd_lo, task.vdd_hi
    interval = hi - lo
    # The search stops once its bracket [a, b] is at most 4·tol1 wide, with
    # tol1 = √ε·|Vdd| + XATOL/3.  Where it ends pinned at lo (hi), it
    # stops within ``width`` of that end: inside the pinned margin, and
    # printed as the end where ``_prints_alike`` holds.
    width = 4.0 * (math.sqrt(2.2e-16) * float(np.max(hi)) + XATOL / 3.0)
    lo_alike, hi_alike = _prints_alike(lo, width), _prints_alike(hi, -width)
    pinned_inside = width < BOUNDARY_MARGIN * interval
    vdd = _fminbound_batch(task, lo_alike & pinned_inside, hi_alike & pinned_inside)
    # The scalar solver treats a boundary-pinned minimiser as
    # infeasibility (the bounded search cannot certify an optimum there).
    with np.errstate(invalid="ignore"):
        feasible = ~(
            (vdd - lo < BOUNDARY_MARGIN * interval)
            | (hi - vdd < BOUNDARY_MARGIN * interval)
        )

    pinned = np.flatnonzero(~feasible)
    # A value within ``width`` of an end that prints alike prints as that
    # end.  Rows come architecture by architecture, so equal texts come
    # in runs; each run's text is looked up once.
    shown = np.where(lo_alike & (vdd - lo <= width), lo, vdd)
    shown = np.where(hi_alike & (hi - vdd <= width), hi, shown)[pinned]
    name = Categorical.from_values(task.name)
    names = name.codes[pinned]
    starts = np.ones(pinned.size, dtype=bool)
    starts[1:] = (names[1:] != names[:-1]) | (shown[1:] != shown[:-1])
    texts: dict[tuple[int, float], str] = {}
    run_texts = Categorical.from_values(
        [""]
        + [
            texts.get(key)
            or texts.setdefault(key, _pinned_reason(name.vocab[key[0]], key[1]))
            for key in zip(names[starts].tolist(), shown[starts].tolist())
        ]
    )
    codes = np.zeros(n, dtype=run_texts.codes.dtype)
    codes[pinned] = run_texts.codes[1:][np.cumsum(starts) - 1]

    vth, pdyn, pstat, ptot = _power_split(task, vdd)
    nan = np.nan
    return BatchNumericalSolution(
        vdd=np.where(feasible, vdd, nan),
        vth=np.where(feasible, vth, nan),
        pdyn=np.where(feasible, pdyn, nan),
        pstat=np.where(feasible, pstat, nan),
        ptot=np.where(feasible, ptot, nan),
        feasible=feasible,
        reason=Categorical(codes, run_texts.vocab),
    )

