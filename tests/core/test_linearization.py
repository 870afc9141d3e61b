"""Unit tests for repro.core.linearization (Eq. 7 / Figure 2)."""

import numpy as np
import pytest

from repro.core.linearization import (
    FIGURE2_RANGE,
    PAPER_FIT_RANGE,
    figure2_curves,
    fit_vdd_root,
    paper_fit,
)
from repro.experiments.paper_data import PAPER_A, PAPER_ALPHA_LL, PAPER_B


class TestPaperConstants:
    def test_reproduces_published_a_and_b(self):
        """Section 4 publishes A = 0.671, B = 0.347 for alpha = 1.86."""
        fit = paper_fit(PAPER_ALPHA_LL)
        # The paper prints three decimals and does not specify its error
        # norm; least squares lands within 1e-3 of both constants.
        assert fit.a == pytest.approx(PAPER_A, abs=2e-3)
        assert fit.b == pytest.approx(PAPER_B, abs=2e-3)

    def test_paper_fit_range_is_03_to_10(self):
        assert PAPER_FIT_RANGE == (0.3, 1.0)
        fit = paper_fit(1.86)
        assert (fit.vdd_min, fit.vdd_max) == PAPER_FIT_RANGE


class TestPaperFitMemo:
    def test_one_fit_per_alpha_equal_to_a_fresh_one(self):
        """The memo hands back one frozen fit per alpha, field for field
        the fit :func:`fit_vdd_root` computes afresh, and stays bounded."""
        for alpha in (1.0, 1.3, PAPER_ALPHA_LL, 2.0):
            assert paper_fit(alpha) is paper_fit(alpha)
            assert paper_fit(alpha) == fit_vdd_root(alpha, PAPER_FIT_RANGE)
        assert paper_fit.cache_info().maxsize is not None

    def test_bad_alpha_is_raised_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                paper_fit(0.0)


class TestFitQuality:
    def test_fit_error_small_inside_range(self):
        fit = fit_vdd_root(1.86)
        assert fit.max_abs_error < 0.03
        assert fit.rms_error < fit.max_abs_error

    def test_alpha_one_fit_is_exact_identity(self):
        fit = fit_vdd_root(1.0)
        assert fit.a == pytest.approx(1.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)
        assert fit.max_abs_error < 1e-9

    def test_error_signs_alternate_for_concave_target(self):
        """x**(1/alpha) is concave for alpha > 1: it bulges above any
        secant, so the least-squares line over-estimates at the range ends
        and under-estimates in the middle."""
        fit = fit_vdd_root(1.86)
        vdd = np.array([0.3, 0.65, 1.0])
        errors = fit.error(vdd)
        assert errors[0] > 0 and errors[2] > 0
        assert errors[1] < 0

    def test_narrower_range_reduces_error(self):
        wide = fit_vdd_root(1.86, (0.2, 1.2))
        narrow = fit_vdd_root(1.86, (0.4, 0.6))
        assert narrow.max_abs_error < wide.max_abs_error

    def test_callable_and_exact_evaluate(self):
        fit = fit_vdd_root(1.5)
        vdd = 0.5
        assert fit(vdd) == pytest.approx(fit.a * vdd + fit.b)
        assert fit.exact(vdd) == pytest.approx(vdd ** (1 / 1.5))


class TestValidation:
    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            fit_vdd_root(1.86, (1.0, 0.3))
        with pytest.raises(ValueError):
            fit_vdd_root(1.86, (0.0, 1.0))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            fit_vdd_root(0.0)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_vdd_root(1.86, samples=1)


class TestFigure2:
    def test_curves_have_requested_shape(self):
        curves = figure2_curves()
        assert set(curves) == {"vdd", "exact", "linear", "error"}
        assert all(len(curve) == 61 for curve in curves.values())

    def test_default_matches_paper_figure(self):
        curves = figure2_curves()
        assert curves["vdd"][0] == pytest.approx(FIGURE2_RANGE[0])
        assert curves["vdd"][-1] == pytest.approx(FIGURE2_RANGE[1])

    def test_linear_tracks_exact_closely(self):
        curves = figure2_curves(alpha=1.5)
        assert np.max(np.abs(curves["error"])) < 0.02
