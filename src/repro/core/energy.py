"""Energy-per-operation analysis and the minimum-energy point (extension).

The paper minimises *power at fixed frequency*.  A battery-powered system
asks the dual question: how much **energy per operation** does the
optimal working point cost, and does slowing down always help?

It does not — in either regime, and for two different reasons:

* **free Vth** (the paper's assumption): Eq. 10 makes the optimal supply
  grow like ``n·Ut·ln(1/f)`` as the clock slows (the balanced leakage of
  Eq. 9 shrinks with ``f``, so the threshold — and with it the supply —
  must climb).  Dynamic energy per op therefore *rises* logarithmically
  at low frequency, and an interior minimum-energy point (MEP) exists
  even with ideal threshold control;
* **capped Vth** (:mod:`repro.core.bounded`): once the ceiling binds,
  leakage stops shrinking and integrates over the ever-longer cycle —
  the low-frequency upturn becomes catastrophic (hundreds of pJ/op
  instead of a gentle logarithm) and the MEP sharpens into the classic
  sub-threshold-design picture.

These helpers expose both regimes; the benchmark ``bench_energy.py``
contrasts them quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .architecture import ArchitectureParameters
from .bounded import bounded_optimum
from .optimum import OptimizationResult
from .technology import Technology


@dataclass(frozen=True)
class EnergyPoint:
    """Energy bookkeeping of one optimal working point."""

    frequency: float
    result: OptimizationResult

    @property
    def energy_per_op(self) -> float:
        """Total energy per operation ``Ptot*/f`` [J]."""
        return self.result.ptot / self.frequency

    @property
    def dynamic_energy_per_op(self) -> float:
        """Switching energy per operation [J]."""
        return self.result.point.pdyn / self.frequency

    @property
    def leakage_energy_per_op(self) -> float:
        """Leakage energy integrated over one operation [J]."""
        return self.result.point.pstat / self.frequency

    def describe(self) -> str:
        return (
            f"f={self.frequency / 1e6:g} MHz: {self.energy_per_op * 1e12:.2f} pJ/op "
            f"(dyn {self.dynamic_energy_per_op * 1e12:.2f}, "
            f"leak {self.leakage_energy_per_op * 1e12:.2f})"
        )


def energy_point(
    arch: ArchitectureParameters,
    tech: Technology,
    frequency: float,
    vth_max: float | None = None,
) -> EnergyPoint:
    """Energy per operation at the (optionally bounded) optimal point."""
    result = bounded_optimum(arch, tech, frequency, vth_max=vth_max)
    return EnergyPoint(frequency=frequency, result=result)


def energy_sweep(
    arch: ArchitectureParameters,
    tech: Technology,
    frequencies,
    vth_max: float | None = None,
) -> list[EnergyPoint]:
    """Energy per operation across a frequency range."""
    return [
        energy_point(arch, tech, float(frequency), vth_max=vth_max)
        for frequency in np.asarray(list(frequencies), dtype=float)
    ]


def minimum_energy_point(
    arch: ArchitectureParameters,
    tech: Technology,
    f_low: float,
    f_high: float,
    vth_max: float,
) -> EnergyPoint:
    """The frequency minimising energy per operation under a Vth ceiling.

    Scalar minimisation over ``log f`` (the MEP spans decades).  Raises
    ValueError when the minimum sits at the search boundary — either the
    window is too narrow or the ceiling never becomes active (in which
    case no interior MEP exists, as in the paper's unbounded model).
    """
    if not 0.0 < f_low < f_high:
        raise ValueError(f"need 0 < f_low < f_high, got {(f_low, f_high)}")

    def objective(log_frequency: float) -> float:
        frequency = math.exp(log_frequency)
        return energy_point(arch, tech, frequency, vth_max=vth_max).energy_per_op

    # Imported on use: scipy.optimize is most of ``import repro``'s cost
    # and only the scalar searches need it.
    from scipy import optimize

    solution = optimize.minimize_scalar(
        objective,
        bounds=(math.log(f_low), math.log(f_high)),
        method="bounded",
        options={"xatol": 1e-4},
    )
    log_f = float(solution.x)
    span = math.log(f_high) - math.log(f_low)
    if log_f - math.log(f_low) < 1e-3 * span or math.log(f_high) - log_f < 1e-3 * span:
        raise ValueError(
            f"minimum_energy_point[{arch.name}]: minimum pinned at the "
            f"search boundary (f = {math.exp(log_f):.3g} Hz) — widen the "
            f"window or check that the Vth ceiling is reachable"
        )
    return energy_point(arch, tech, math.exp(log_f), vth_max=vth_max)
