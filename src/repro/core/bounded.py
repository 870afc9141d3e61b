"""Optimal working point under practical voltage bounds (extension).

The paper assumes "Vdd and Vth can be freely (and precisely) modified".
Real processes cap the threshold voltage (no flavour offers arbitrarily
high Vth) and practical designs bound the supply.  Those caps change the
selection story qualitatively: with *free* Vth the optimum always
re-balances leakage against switching (Eq. 9) and a small-but-busy
circuit (the sequential multiplier) never beats a large-but-idle one —
but once Vth saturates at ``vth_max``, leakage becomes proportional to
cell count and the small circuit wins at low frequency, which is exactly
the regime the paper's Section 4 prose ("unless the circuits have to
work at a very low data frequency") appeals to.

:func:`bounded_optimum` minimises Eq. 1 over ``Vdd`` with

    ``Vth(Vdd) = min(Vdd − χ·Vdd^(1/α), vth_max)``

(the timing constraint still holds — a capped threshold only means
*positive slack*, never negative) and optional ``vdd_bounds`` clamps.
"""

from __future__ import annotations

import numpy as np

from .architecture import ArchitectureParameters
from .constraint import chi_for_architecture, vth_exact
from .numerical import _power_tech
from .optimum import OperatingPoint, OptimizationResult
from .power_model import power_breakdown
from .technology import Technology


def bounded_constrained_power(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    vdd,
    vth_max: float | None = None,
    chi_value: float | None = None,
):
    """Power along the timing constraint with a threshold ceiling.

    Vectorised over ``vdd``; returns ``(vth, pdyn, pstat, ptot)`` where
    ``vth`` is the *applied* threshold (ceiling included).
    """
    if chi_value is None:
        chi_value = chi_for_architecture(arch, tech, frequency)
    vth = vth_exact(vdd, chi_value, tech.alpha)
    if vth_max is not None:
        vth = np.minimum(vth, vth_max)
    pdyn, pstat, ptot = power_breakdown(
        arch.n_cells,
        arch.activity,
        arch.capacitance,
        vdd,
        vth,
        frequency,
        _power_tech(arch, tech),
    )
    return vth, pdyn, pstat, ptot


def bounded_optimum(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    vth_max: float | None = None,
    vdd_bounds: tuple[float, float] | None = None,
    chi_value: float | None = None,
) -> OptimizationResult:
    """Optimal working point with practical voltage caps.

    Parameters
    ----------
    vth_max:
        Highest threshold the process can realise (e.g. the flavour's
        nominal Vth0 plus the available back-bias range).  None = the
        paper's unbounded assumption.
    vdd_bounds:
        Allowed supply window in volts; defaults to
        ``(0.05, 2.0) × vdd_nominal`` like the unbounded solver.

    With no caps this reduces exactly to
    :func:`repro.core.numerical.numerical_optimum` (tested).
    """
    if chi_value is None:
        chi_value = chi_for_architecture(arch, tech, frequency)
    if vdd_bounds is None:
        vdd_bounds = (0.05 * tech.vdd_nominal, 2.0 * tech.vdd_nominal)
    lo, hi = vdd_bounds
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi for vdd_bounds, got {vdd_bounds}")

    def objective(vdd: float) -> float:
        _, _, _, ptot = bounded_constrained_power(
            arch, tech, frequency, vdd, vth_max, chi_value
        )
        return float(ptot)

    # Imported on use: scipy.optimize is most of ``import repro``'s cost
    # and only the scalar searches need it.
    from scipy import optimize

    solution = optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-7}
    )
    vdd_opt = float(solution.x)
    # Unlike the unbounded solver, landing on a *bound* is a legitimate
    # answer here (the cap is active); only NaN/inf results are errors.
    if not np.isfinite(objective(vdd_opt)):
        raise ValueError(
            f"bounded_optimum[{arch.name}]: no finite power in the supply window"
        )
    # A boundary optimum at the supply cap means the window binds.
    if hi - vdd_opt < 1e-6 * (hi - lo):
        vdd_opt = hi
    if vdd_opt - lo < 1e-6 * (hi - lo):
        vdd_opt = lo

    vth, pdyn, pstat, _ = bounded_constrained_power(
        arch, tech, frequency, vdd_opt, vth_max, chi_value
    )
    point = OperatingPoint(
        vdd=vdd_opt,
        vth=float(vth),
        pdyn=float(pdyn),
        pstat=float(pstat),
        method="numerical-1d-bounded",
    )
    return OptimizationResult(
        architecture=arch, technology=tech, frequency=frequency, point=point
    )


def vth_ceiling_is_active(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    vth_max: float,
) -> bool:
    """True when the cap binds at the bounded optimum.

    At high frequency the timing constraint keeps Vth below the cap and
    the bounded and unbounded optima coincide; at low frequency the cap
    becomes the binding constraint and leakage stops shrinking.
    """
    result = bounded_optimum(arch, tech, frequency, vth_max=vth_max)
    chi_value = chi_for_architecture(arch, tech, frequency)
    unconstrained_vth = float(vth_exact(result.point.vdd, chi_value, tech.alpha))
    return unconstrained_vth > vth_max - 1e-9
