import math

import numpy as np
import pytest

from illposed.core import (DistributionFunction, InsufficientDataError,
                           Thresholds, geometric_grid)
from illposed.estimate import (interval_estimate, ratio_samples,
                               regression_estimate, regression_report)


def power_curve(s, c=1.0, eps_min=1e-10, points=60, eps_max=0.9):
    grid = geometric_grid(eps_max, eps_min, points)
    log_phi = math.log(c) - np.log(grid) / (2.0 * s)
    return DistributionFunction.build(grid, log_phi, source="counting")


def hausdorff_curve(eps_min=1e-12, points=60, eps_max=0.9):
    grid = geometric_grid(eps_max, eps_min, points)
    return DistributionFunction.build(
        grid, np.log(np.log(2.0 * np.pi / grid) / np.pi), source="counting")


class TestRatioSamples:
    def test_exact_power_laws(self):
        for s, expected in ((1.0, 1.0), (2.0, 2.0), (0.25, 0.25)):
            samples = ratio_samples(power_curve(s))
            values = [r for _, r in samples]
            assert values == pytest.approx([expected] * len(values))

    def test_skips_small_phi(self):
        grid = geometric_grid(2.0, 1e-4, 30)
        log_phi = -0.5 * np.log(grid)  # negative where eps > 1
        curve = DistributionFunction.build(grid, log_phi, source="counting")
        samples = ratio_samples(curve)
        assert all(e < 1.0 for e, _ in samples)
        assert len(samples) < len(curve)

    def test_hausdorff_ratios_increase_without_bound(self):
        # below eps = 1e-2 the curve is clear of the Phi = 1 crossing, where
        # the ratio denominator vanishes; from there r rises monotonically
        samples = ratio_samples(hausdorff_curve(eps_max=1e-2))
        values = [r for _, r in samples]
        assert all(a < b for a, b in zip(values, values[1:]))
        # oracle at the finest point: ln(1e12) / (2 ln Phi(1e-12))
        assert values[-1] > 5.6


class TestIntervalEstimate:
    def test_power_law_window_is_flat(self):
        iv = interval_estimate(ratio_samples(power_curve(1.0)))
        assert iv.classification == "moderate"
        assert iv.lower == pytest.approx(1.0, abs=1e-12)
        assert iv.upper == pytest.approx(1.0, abs=1e-12)
        assert iv.degree == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_biases_raw_window(self):
        # oracle: r = L / (L + 2 ln c) for s = 1, so the window sits below 1
        iv = interval_estimate(ratio_samples(power_curve(1.0, c=2.0)))
        assert iv.classification == "moderate"
        assert iv.upper < 1.0
        oracle = math.log(1e10) / (math.log(1e10) + 2.0 * math.log(2.0))
        assert iv.upper == pytest.approx(oracle, abs=1e-12)

    def test_severe_needs_rising_window(self):
        iv = interval_estimate(ratio_samples(hausdorff_curve()))
        assert iv.classification == "severe"
        assert iv.diagnostics["trend"] == "increasing"
        assert iv.diagnostics["drift"] > 0.1

    def test_mild_needs_falling_negligible_window(self):
        grid = geometric_grid(0.9, 1e-12, 60)
        curve = DistributionFunction.build(grid, grid ** -0.5,
                                           source="counting")
        iv = interval_estimate(ratio_samples(curve))
        assert iv.classification == "mild"
        assert iv.diagnostics["trend"] == "decreasing"

    def test_requires_minimum_samples(self):
        samples = [(10.0 ** -k, 1.0) for k in range(1, 6)]
        with pytest.raises(InsufficientDataError):
            interval_estimate(samples)

    def test_window_policy_recorded(self):
        iv = interval_estimate(ratio_samples(power_curve(0.5)),
                               Thresholds(window_fraction=0.5))
        assert iv.diagnostics["window_fraction"] == 0.5
        assert len(iv.diagnostics["window_eps"]) >= 10


class TestRegression:
    def test_power_slope_recovers_degree(self):
        slope, rms, degree = regression_report(power_curve(1.0))
        assert slope == pytest.approx(0.5, abs=1e-13)
        assert rms < 1e-12
        assert degree == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_invariance(self):
        for c in (0.1, 1.0, 10.0):
            for s in (0.5, 1.0, 2.0):
                degree = regression_estimate(power_curve(s, c=c))
                assert degree == pytest.approx(s, abs=1e-9)

    def test_log_curve_has_no_power_fit(self):
        grid = geometric_grid(0.9, 1e-12, 60)
        curve = DistributionFunction.build(grid, np.log(2.0 * np.log(1.0 / grid)),
                                           source="counting")
        assert regression_estimate(curve) is None

    def test_inverse_laplacian_rate(self):
        # Phi = eps^(-1) in four dimensions: slope 1, degree 1/2 = 2/d
        curve = power_curve(0.5)
        slope, _, degree = regression_report(curve)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert degree == pytest.approx(0.5, abs=1e-12)


def test_window_robustness_on_power_laws():
    for s in (0.5, 1.0, 2.0):
        curve = power_curve(s, c=2.0)
        full = regression_estimate(curve)
        halved = regression_estimate(curve,
                                     Thresholds(window_fraction=1.0 / 6.0))
        assert abs(full - halved) < 0.01


def test_interval_and_regression_agree_on_exact_power_laws():
    # with unit prefactor both estimators recover s to near machine accuracy;
    # with c != 1 the regression stays exact while the window converges at
    # the 1/log(1/eps) rate
    t = Thresholds()
    for s in (0.25, 1.0, 4.0):
        curve = power_curve(s)
        iv = interval_estimate(ratio_samples(curve), t)
        reg = regression_estimate(curve, t)
        assert iv.degree == pytest.approx(s, abs=1e-12)
        assert reg == pytest.approx(s, abs=1e-12)
    curve = power_curve(1.0, c=10.0, eps_min=1e-20)
    iv = interval_estimate(ratio_samples(curve), t)
    reg = regression_estimate(curve, t)
    assert reg == pytest.approx(1.0, abs=1e-12)
    envelope = 2.0 * math.log(10.0) / math.log(1e13)  # window start L = ln(1e13)
    assert 1.0 - iv.lower <= envelope
