"""Linearisation of ``Vdd**(1/alpha)`` (paper Eq. 7 and Figure 2).

The zero-slack constraint (Eq. 5) ties ``Vth`` to ``Vdd`` through the term
``Vdd**(1/alpha)``, which makes the power stationarity condition analytically
intractable.  The paper observes (Figure 2) that over a practical supply
range the curve is almost straight and replaces it by

    ``Vdd**(1/alpha) ≈ A·Vdd + B``                              (Eq. 7)

where ``A`` and ``B`` are fitted over the expected operating range
(0.3–1.0 V in the paper).  This module provides the fit, its error metrics,
and the sampled curves needed to regenerate Figure 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: The fitting range used for every number in the paper (Section 4).
PAPER_FIT_RANGE = (0.3, 1.0)

#: The display range of Figure 2.
FIGURE2_RANGE = (0.3, 0.9)


@dataclass(frozen=True)
class LinearFit:
    """Result of fitting ``Vdd**(1/alpha) ≈ A·Vdd + B`` over a voltage range.

    Attributes
    ----------
    a, b:
        The fitted slope ``A`` and intercept ``B`` of Eq. 7.
    alpha:
        Alpha-power exponent the fit was computed for.
    vdd_min, vdd_max:
        Fitting range bounds [V].
    max_abs_error, rms_error:
        Absolute-error metrics of the fit inside the range [V].
    """

    a: float
    b: float
    alpha: float
    vdd_min: float
    vdd_max: float
    max_abs_error: float
    rms_error: float

    def __call__(self, vdd):
        """Evaluate the linear approximation ``A·Vdd + B``."""
        return self.a * np.asarray(vdd, dtype=float) + self.b

    def exact(self, vdd):
        """Evaluate the exact ``Vdd**(1/alpha)`` the fit approximates."""
        return np.power(np.asarray(vdd, dtype=float), 1.0 / self.alpha)

    def error(self, vdd):
        """Signed approximation error ``(A·Vdd + B) − Vdd**(1/alpha)``."""
        return self(vdd) - self.exact(vdd)


def fit_vdd_root(
    alpha: float,
    vdd_range: tuple[float, float] = PAPER_FIT_RANGE,
    samples: int = 512,
) -> LinearFit:
    """Fit Eq. 7's ``A`` and ``B`` by least squares over ``vdd_range``.

    Parameters
    ----------
    alpha:
        Alpha-power-law exponent (``1 <= alpha <= 2`` for real devices,
        although any positive value is accepted for sweeps).
    vdd_range:
        Inclusive ``(low, high)`` fitting range in volts.  The paper uses
        0.3–1.0 V for the Table 1/3/4 numbers and 0.3–0.9 V in Figure 2.
    samples:
        Number of uniformly spaced sample points used for the fit.

    Returns
    -------
    LinearFit
        Fit coefficients and error metrics.

    >>> fit = fit_vdd_root(1.86)
    >>> 0.6 < fit.a < 0.75 and 0.3 < fit.b < 0.4
    True
    """
    low, high = vdd_range
    if not 0.0 < low < high:
        raise ValueError(f"need 0 < low < high, got {vdd_range}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")

    vdd = np.linspace(low, high, samples)
    target = np.power(vdd, 1.0 / alpha)
    design = np.column_stack([vdd, np.ones_like(vdd)])
    (a, b), *_ = np.linalg.lstsq(design, target, rcond=None)

    residual = (a * vdd + b) - target
    return LinearFit(
        a=float(a),
        b=float(b),
        alpha=float(alpha),
        vdd_min=float(low),
        vdd_max=float(high),
        max_abs_error=float(np.max(np.abs(residual))),
        rms_error=float(np.sqrt(np.mean(residual**2))),
    )


@functools.lru_cache(maxsize=256)
def paper_fit(alpha: float) -> LinearFit:
    """Eq. 7 fit over the paper's published 0.3–1.0 V range.

    A pure function of ``alpha`` returning a frozen fit, so it is
    memoised: every closed-form solve of a technology re-reads one fit.
    """
    return fit_vdd_root(alpha, PAPER_FIT_RANGE)


def figure2_curves(
    alpha: float = 1.5,
    vdd_range: tuple[float, float] = FIGURE2_RANGE,
    samples: int = 61,
) -> dict[str, np.ndarray]:
    """Sample the two curves of Figure 2 (exact power law and its fit).

    Returns a dict with keys ``vdd``, ``exact``, ``linear`` and ``error``,
    each a numpy array of length ``samples``.  Figure 2 of the paper uses
    ``alpha = 1.5`` over 0.3–0.9 V.
    """
    fit = fit_vdd_root(alpha, vdd_range, samples=max(samples, 64))
    vdd = np.linspace(vdd_range[0], vdd_range[1], samples)
    return {
        "vdd": vdd,
        "exact": fit.exact(vdd),
        "linear": fit(vdd),
        "error": fit.error(vdd),
    }
