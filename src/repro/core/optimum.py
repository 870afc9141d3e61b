"""Result containers for optimal-working-point computations.

Both the numerical optimiser (:mod:`repro.core.numerical`) and the
closed-form solver (:mod:`repro.core.closed_form`) return
:class:`OperatingPoint` instances so downstream code (tables, benches,
solvers) can treat them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

from .architecture import ArchitectureParameters
from .technology import Technology


@dataclass(frozen=True)
class OperatingPoint:
    """A fully evaluated ``(Vdd, Vth)`` working point.

    Attributes
    ----------
    vdd, vth:
        Supply and *effective* threshold voltage [V].
    pdyn, pstat:
        Dynamic and static power at the point [W].
    method:
        Provenance tag, e.g. ``"numerical-1d"`` or ``"eq13"``.
    """

    vdd: float
    vth: float
    pdyn: float
    pstat: float
    method: str = ""

    @property
    def ptot(self) -> float:
        """Total power ``Pdyn + Pstat`` [W]."""
        return self.pdyn + self.pstat

    @property
    def dynamic_static_ratio(self) -> float:
        """``Pdyn/Pstat`` — the ratio annotated on the paper's Figure 1."""
        return self.pdyn / self.pstat

    @property
    def static_fraction(self) -> float:
        """Share of leakage in the total power, in [0, 1]."""
        return self.pstat / self.ptot

    def describe(self) -> str:
        """One-line summary in the units Table 1 uses (volts / microwatts)."""
        return (
            f"Vdd={self.vdd:.3f} V, Vth={self.vth:.3f} V, "
            f"Pdyn={self.pdyn * 1e6:.2f} uW, Pstat={self.pstat * 1e6:.2f} uW, "
            f"Ptot={self.ptot * 1e6:.2f} uW"
        )


@dataclass(frozen=True)
class OptimizationResult:
    """An :class:`OperatingPoint` bound to the problem it solves."""

    architecture: ArchitectureParameters
    technology: Technology
    frequency: float
    point: OperatingPoint

    @property
    def ptot(self) -> float:
        """Total power at the optimum [W] (shortcut to ``point.ptot``)."""
        return self.point.ptot

    def describe(self) -> str:
        """Human-readable one-liner used by examples and reports."""
        return (
            f"{self.architecture.name} @ {self.frequency / 1e6:g} MHz "
            f"on {self.technology.name}: {self.point.describe()}"
        )


def approximation_error_percent(reference_watts: float, approx_watts: float) -> float:
    """Approximation error in percent, with the paper's sign convention.

    Table 1 reports ``Err = (Ptot_numerical − Ptot_eq13)/Ptot_numerical``
    in percent, so an over-estimating Eq. 13 yields a *negative* error.
    """
    if reference_watts <= 0.0:
        raise ValueError(f"reference power must be positive, got {reference_watts}")
    return 100.0 * (reference_watts - approx_watts) / reference_watts
