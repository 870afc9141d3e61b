"""Full numerical optimisation of the total power (the paper's baseline).

The paper validates Eq. 13 against a "numerical calculation from
Eqs. (1)–(6) by calculating the total power for all reasonable Vdd/Vth
couples".  This module provides that reference in three strengths:

* :func:`numerical_optimum` — the exact constrained problem reduced to one
  dimension: ``Vth(Vdd)`` from the exact Eq. 5 (no linearisation), then a
  bounded scalar minimisation of Eq. 1 over ``Vdd``.  This is the default
  reference everywhere.
* :func:`grid_optimum` — the literal 2-D sweep over ``(Vdd, Vth)`` couples
  keeping only timing-feasible points.  Slower; used to cross-check the
  1-D reduction (the 2-D optimum must sit on the zero-slack boundary).
* :func:`numerical_optimum_linearized` — same 1-D scan but on the
  *linearised* constraint (Eq. 8), isolating the linearisation's
  contribution to the closed-form error (ablation A4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .architecture import ArchitectureParameters
from .constraint import chi_for_architecture, vth_exact, vth_linearized
from .linearization import LinearFit, paper_fit
from .optimum import OperatingPoint, OptimizationResult
from .power_model import critical_path_delay, power_breakdown
from .technology import Technology

#: Search range for the supply voltage, as a multiple of the nominal supply.
DEFAULT_VDD_SPAN = (0.05, 2.0)


@dataclass(frozen=True)
class GridResult:
    """Outcome of the 2-D grid sweep (used by Figure 1 and cross-checks)."""

    result: OptimizationResult
    vdd_grid: np.ndarray
    vth_grid: np.ndarray
    ptot: np.ndarray
    feasible: np.ndarray


def _power_tech(arch: ArchitectureParameters, tech: Technology) -> Technology:
    """Technology with the circuit's *leakage* correction applied.

    ``io_factor`` models the per-cell average off-current of the circuit
    and must only affect Eq. 1's static term — never the delay model,
    whose ``Io`` is the characterised reference current inside χ (Eq. 6).
    """
    return tech.scaled(io_factor=arch.io_factor, name=tech.name)


def _delay_tech(arch: ArchitectureParameters, tech: Technology) -> Technology:
    """Technology with the circuit's *delay* correction applied.

    ``zeta_factor`` models the average critical-path stage relative to the
    characterised gate and must only affect Eq. 4/6 — not leakage.
    """
    return tech.scaled(zeta_factor=arch.zeta_factor, name=tech.name)


def constrained_total_power(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    vdd,
    chi_value: float | None = None,
):
    """Total power along the exact zero-slack constraint, as a function of Vdd.

    Vectorised over ``vdd``; this is the curve plotted in Figure 1 (one
    curve per activity value).  Returns ``(vth, pdyn, pstat, ptot)``.
    """
    if chi_value is None:
        chi_value = chi_for_architecture(arch, tech, frequency)
    circuit_tech = _power_tech(arch, tech)
    vth = vth_exact(vdd, chi_value, tech.alpha)
    pdyn, pstat, ptot = power_breakdown(
        arch.n_cells, arch.activity, arch.capacitance, vdd, vth, frequency, circuit_tech
    )
    return vth, pdyn, pstat, ptot


def numerical_optimum(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    chi_value: float | None = None,
    vdd_span: tuple[float, float] = DEFAULT_VDD_SPAN,
) -> OptimizationResult:
    """Exact numerical optimal working point (1-D reduction).

    Parameters
    ----------
    arch, tech, frequency:
        The problem instance.
    chi_value:
        Optional pre-computed constraint coefficient; calibrated-mode
        callers pass the value recovered from a published operating point.
    vdd_span:
        Search interval as multiples of ``tech.vdd_nominal``.

    Raises
    ------
    ValueError
        If the minimiser lands on a boundary of the search interval, which
        signals an infeasible or degenerate problem rather than a real
        optimum.
    """
    if chi_value is None:
        chi_value = chi_for_architecture(arch, tech, frequency)

    lo = vdd_span[0] * tech.vdd_nominal
    hi = vdd_span[1] * tech.vdd_nominal

    def objective(vdd: float) -> float:
        _, _, _, ptot = constrained_total_power(arch, tech, frequency, vdd, chi_value)
        return float(ptot)

    # Imported on use: scipy.optimize is most of ``import repro``'s cost
    # and only the scalar searches need it.
    from scipy import optimize

    solution = optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-7}
    )
    vdd_opt = float(solution.x)
    interval = hi - lo
    if vdd_opt - lo < 1e-4 * interval or hi - vdd_opt < 1e-4 * interval:
        raise ValueError(
            f"numerical_optimum[{arch.name}]: optimum pinned at search "
            f"boundary Vdd={vdd_opt:.4f} V — problem infeasible or span too narrow"
        )

    vth, pdyn, pstat, _ = constrained_total_power(
        arch, tech, frequency, vdd_opt, chi_value
    )
    point = OperatingPoint(
        vdd=vdd_opt,
        vth=float(vth),
        pdyn=float(pdyn),
        pstat=float(pstat),
        method="numerical-1d",
    )
    return OptimizationResult(
        architecture=arch, technology=tech, frequency=frequency, point=point
    )


def numerical_optimum_linearized(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    chi_value: float | None = None,
    fit: LinearFit | None = None,
    vdd_span: tuple[float, float] = DEFAULT_VDD_SPAN,
) -> OptimizationResult:
    """Numerical optimum on the *linearised* constraint (Eq. 8).

    Differs from :func:`numerical_optimum` only in how ``Vth(Vdd)`` is
    computed; comparing the two isolates the Eq. 7 linearisation error from
    the stationarity approximations of Eqs. 9–13 (ablation A4).
    """
    if chi_value is None:
        chi_value = chi_for_architecture(arch, tech, frequency)
    if fit is None:
        fit = paper_fit(tech.alpha)
    circuit_tech = _power_tech(arch, tech)

    lo = vdd_span[0] * tech.vdd_nominal
    hi = vdd_span[1] * tech.vdd_nominal

    def objective(vdd: float) -> float:
        vth = vth_linearized(vdd, chi_value, fit)
        _, _, ptot = power_breakdown(
            arch.n_cells,
            arch.activity,
            arch.capacitance,
            vdd,
            vth,
            frequency,
            circuit_tech,
        )
        return float(ptot)

    from scipy import optimize

    solution = optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-7}
    )
    vdd_opt = float(solution.x)
    vth_opt = float(vth_linearized(vdd_opt, chi_value, fit))
    pdyn, pstat, _ = power_breakdown(
        arch.n_cells,
        arch.activity,
        arch.capacitance,
        vdd_opt,
        vth_opt,
        frequency,
        circuit_tech,
    )
    point = OperatingPoint(
        vdd=vdd_opt,
        vth=vth_opt,
        pdyn=float(pdyn),
        pstat=float(pstat),
        method="numerical-1d-linearized",
    )
    return OptimizationResult(
        architecture=arch, technology=tech, frequency=frequency, point=point
    )


def grid_optimum(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    vdd_points: int = 241,
    vth_points: int = 241,
    vdd_range: tuple[float, float] | None = None,
    vth_range: tuple[float, float] | None = None,
) -> GridResult:
    """Literal 2-D sweep over (Vdd, Vth) couples — the paper's wording.

    Every couple whose critical-path delay exceeds the clock period is
    marked infeasible (NaN power); the optimum is the cheapest feasible
    couple.  Because total power decreases towards the zero-slack boundary,
    the grid optimum converges to :func:`numerical_optimum` as the grid is
    refined — asserted in the integration tests.
    """
    if vdd_range is None:
        vdd_range = (0.1 * tech.vdd_nominal, 1.25 * tech.vdd_nominal)
    if vth_range is None:
        vth_range = (0.0, 0.6 * tech.vdd_nominal)
    power_tech = _power_tech(arch, tech)
    delay_tech = _delay_tech(arch, tech)

    vdd_axis = np.linspace(vdd_range[0], vdd_range[1], vdd_points)
    vth_axis = np.linspace(vth_range[0], vth_range[1], vth_points)
    vdd_grid, vth_grid = np.meshgrid(vdd_axis, vth_axis, indexing="ij")

    overdrive_ok = vdd_grid > vth_grid
    delay = np.full_like(vdd_grid, np.inf)
    delay[overdrive_ok] = critical_path_delay(
        delay_tech,
        arch.logical_depth,
        vdd_grid[overdrive_ok],
        vth_grid[overdrive_ok],
    )
    feasible = delay <= 1.0 / frequency

    pdyn, pstat, ptot = power_breakdown(
        arch.n_cells,
        arch.activity,
        arch.capacitance,
        vdd_grid,
        vth_grid,
        frequency,
        power_tech,
    )
    ptot = np.where(feasible, ptot, np.nan)
    if not feasible.any():
        raise ValueError(
            f"grid_optimum[{arch.name}]: no feasible (Vdd, Vth) couple in the "
            f"sweep window — widen vdd_range or lower the frequency"
        )

    flat_index = np.nanargmin(ptot)
    i, j = np.unravel_index(flat_index, ptot.shape)
    point = OperatingPoint(
        vdd=float(vdd_grid[i, j]),
        vth=float(vth_grid[i, j]),
        pdyn=float(pdyn[i, j]),
        pstat=float(pstat[i, j]),
        method="grid-2d",
    )
    result = OptimizationResult(
        architecture=arch, technology=tech, frequency=frequency, point=point
    )
    return GridResult(
        result=result, vdd_grid=vdd_grid, vth_grid=vth_grid, ptot=ptot, feasible=feasible
    )
