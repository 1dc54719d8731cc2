import math

import numpy as np
import pytest

from illposed.core import (InsufficientDataError, SigmaSequence, TailLaw,
                           Thresholds, geometric_grid)
from illposed.counting import (corner_curve, counting_curve, counting_phi,
                               estimate_curve, interval_from_counting,
                               interval_from_sigma, step_multiplier_from_sigma)
from illposed.estimate import (ratio_samples, regression_estimate,
                               regression_report)
from illposed.distribution import phi_curve, superlevel_measure
from illposed.core import DistributionFunction


def harmonic_sequence():
    return SigmaSequence(1.0 / np.arange(1, 11, dtype=float))


class TestCountingPhi:
    def test_direct_enumeration(self):
        # sigma_2^2 = 0.25 > 0.2, sigma_3^2 = 1/9 < 0.2
        count = counting_phi(harmonic_sequence(), 0.2)
        assert count == (2.0, False)

    def test_zero_above_norm(self):
        assert counting_phi(harmonic_sequence(), 1.0).count == 0.0

    def test_exhausted_finite_data(self):
        count = counting_phi(harmonic_sequence(), 1e-9)
        assert count == (10.0, True)

    def test_strict_at_stored_squares(self):
        # ties are not exceedances: at eps = sigma_2^2 only sigma_1 counts
        assert counting_phi(harmonic_sequence(), 0.25).count == 1.0

    def test_law_extrapolation(self):
        n = np.arange(1, 65, dtype=float)
        seq = SigmaSequence(n ** -0.5, tail_law=TailLaw.power(0.5))
        # #{n : 1/n > 1e-6} = 999999, computed by enumeration around the root
        count = counting_phi(seq, 1e-6)
        assert count == (999999.0, False)

    def test_no_silent_extrapolation(self):
        seq = SigmaSequence(np.arange(1, 65, dtype=float) ** -0.5)
        assert counting_phi(seq, 1e-9).exhausted

    def test_monotone_in_eps(self):
        seq = harmonic_sequence()
        grid = geometric_grid(2.0, 1e-3, 40)
        counts = [counting_phi(seq, float(e)).count for e in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestCornerCurve:
    def test_corner_ratios_are_the_decay_exponents(self):
        n = np.arange(1, 257, dtype=float)
        seq = SigmaSequence(np.pi / n ** 1.5)
        phi = corner_curve(seq)
        # default window: the upper half, n = 128 .. 256
        assert np.array_equal(phi.eps_grid, seq.squares[127:])
        assert np.array_equal(phi.log_phi, np.log(n[127:]))
        ratios = np.array([r for _, r in ratio_samples(phi)])
        exponents = -np.log(seq.values[127:]) / np.log(n[127:])
        assert ratios == pytest.approx(exponents, rel=1e-14)

    def test_ties_keep_the_last_index(self):
        seq = SigmaSequence([1.0, 0.5, 0.5, 0.5, 0.25, 0.25, 0.1, 0.05])
        phi = corner_curve(seq, window=(1, 8))
        assert np.exp(phi.log_phi) == pytest.approx([4.0, 6.0, 7.0, 8.0])
        # Phi is right-continuous: just below each corner it counts n
        for eps, lp in zip(phi.eps_grid, phi.log_phi):
            below = counting_phi(seq, eps * (1.0 - 1e-12)).count
            assert below == pytest.approx(math.exp(lp))

    def test_window_is_clipped_to_n_at_least_two(self):
        seq = SigmaSequence(1.0 / np.arange(1, 11, dtype=float))
        phi = corner_curve(seq, window=(0, 40))
        assert np.exp(phi.log_phi[[0, -1]]) == pytest.approx([2.0, 10.0])
        with pytest.raises(InsufficientDataError, match="window too small"):
            corner_curve(seq, window=(9, 9))

    def test_flat_window_is_named(self):
        # one group of equal values is one corner: no decay to estimate
        seq = SigmaSequence(np.ones(64))
        with pytest.raises(InsufficientDataError, match="values tie"):
            corner_curve(seq)
        # a last value below the plateau gives a second corner
        assert len(corner_curve(SigmaSequence([1.0] * 63 + [0.5])).eps_grid) == 2

    def test_squares_that_underflow_are_left_out(self):
        # sigma_n = exp(-n): sigma_n^2 is 0 in floats beyond n = 372
        seq = SigmaSequence(np.exp(-np.arange(1, 701, dtype=float)))
        phi = corner_curve(seq)
        assert np.all(phi.eps_grid > 0)
        assert math.exp(phi.log_phi[-1]) == pytest.approx(372.0)
        assert interval_from_sigma(seq).classification == "severe"

    def test_interval_from_sigma_is_the_estimate_of_its_corners(self):
        n = np.arange(1, 1025, dtype=float)
        vals = np.sort(np.log(n + 1.0) / n)[::-1]
        seq = SigmaSequence(vals, tail_law=TailLaw.power_log(2))
        iv = interval_from_sigma(seq)
        ref, degree, info = estimate_curve(corner_curve(seq))
        assert (iv.lower, iv.upper) == (ref.lower, ref.upper)
        assert iv.classification == ref.classification == "moderate"
        assert {k: iv.diagnostics[k] for k in info} == info
        assert iv.diagnostics["power_slope"] == degree
        assert iv.diagnostics["window_indices"] == (512, 1024)
        # the whole window is the tail window
        assert len(iv.diagnostics["window_eps"]) == 513

    def test_every_entry_reads_the_whole_window(self):
        n = np.arange(1, 4097, dtype=float)
        seq = SigmaSequence(n ** -1.0, tail_law=TailLaw.power(1.0))
        phi = corner_curve(seq)
        interval, degree, info = estimate_curve(phi)
        assert len(interval.diagnostics["window_eps"]) == len(phi) == 2049
        assert repr(interval_from_counting(phi)) == repr(interval)
        slope, rms, fitted = regression_report(phi)
        assert (slope, rms) == (info["power_slope"], info["power_rms_rel"])
        assert regression_estimate(phi) == fitted == degree


class TestIntervalFromSigma:
    def test_exact_power_law(self):
        n = np.arange(1, 4097, dtype=float)
        seq = SigmaSequence(n ** -0.5, tail_law=TailLaw.power(0.5))
        iv = interval_from_sigma(seq)
        assert iv.classification == "moderate"
        assert iv.lower == pytest.approx(0.5)
        assert iv.upper == pytest.approx(0.5)
        assert iv.degree == pytest.approx(0.5)

    def test_sobolev_rate(self):
        n = np.arange(1, 4097, dtype=float)
        seq = SigmaSequence(n ** -0.5, tail_law=TailLaw.power(0.5))
        iv = interval_from_sigma(seq)
        assert iv.diagnostics["power_slope"] == pytest.approx(0.5)

    def test_multivariate_window_matches_oracle(self):
        # oracle: decay exponents of log(n+1)^2/n over the upper half window;
        # the limit is 1 but at N = 65536 the window still sits near 0.55
        n = np.arange(1, 65537, dtype=float)
        vals = np.sort(np.log(n + 1.0) ** 2 / n)[::-1]
        seq = SigmaSequence(vals, tail_law=TailLaw.power_log(3))
        iv = interval_from_sigma(seq)
        w = np.arange(32768, 65537, dtype=float)
        oracle = (np.log(w) - 2.0 * np.log(np.log(w + 1.0))) / np.log(w)
        assert iv.lower == pytest.approx(oracle.min(), abs=1e-9)
        assert iv.upper == pytest.approx(oracle.max(), abs=1e-9)
        assert 0.54 < iv.lower < iv.upper < 0.57

    def test_estimate_increases_towards_limit_one(self):
        degrees = []
        for n_terms in (4096, 65536):
            n = np.arange(1, n_terms + 1, dtype=float)
            vals = np.sort(np.log(n + 1.0) ** 2 / n)[::-1]
            seq = SigmaSequence(vals, tail_law=TailLaw.power_log(3))
            degrees.append(interval_from_sigma(seq).lower)
        assert degrees[1] > degrees[0]

    def test_requires_32_values(self):
        seq = SigmaSequence(np.arange(1, 11, dtype=float) ** -1.0)
        with pytest.raises(InsufficientDataError):
            interval_from_sigma(seq)

    def test_custom_window_is_honored(self):
        n = np.arange(1, 257, dtype=float)
        seq = SigmaSequence(np.pi / n, tail_law=TailLaw.power(1.0, scale=np.pi))
        iv = interval_from_sigma(seq, window=(64, 128))
        assert iv.diagnostics["window_indices"] == (64, 128)
        # the prefactor pi biases the raw exponents below 1: the window
        # minimum is 1 - log(pi)/log(64) at its coarse end
        oracle = 1.0 - math.log(math.pi) / math.log(64.0)
        assert iv.lower == pytest.approx(oracle, abs=1e-12)
        # the power-law slope is prefactor-free
        assert iv.diagnostics["power_slope"] == pytest.approx(1.0)


class TestIntervalFromCounting:
    def test_exact_power_curve(self):
        grid = geometric_grid(0.5, 1e-10, 60)
        curve = DistributionFunction.build(grid, -0.5 * np.log(grid),
                                           source="counting")
        iv = interval_from_counting(curve)
        assert iv.classification == "moderate"
        assert iv.degree == pytest.approx(1.0, abs=1e-12)

    def test_log_curve_is_severe(self):
        grid = geometric_grid(0.5, 1e-12, 60)
        curve = DistributionFunction.build(
            grid, np.log(np.log(2.0 * np.pi / grid) / np.pi), source="counting")
        iv = interval_from_counting(curve)
        assert iv.classification == "severe"

    def test_exp_curve_is_mild(self):
        grid = geometric_grid(0.5, 1e-12, 60)
        curve = DistributionFunction.build(grid, grid ** -0.5,
                                           source="counting")
        iv = interval_from_counting(curve)
        assert iv.classification == "mild"

    def test_non_informative_is_indeterminate(self):
        grid = geometric_grid(0.5, 1e-3, 12)
        curve = DistributionFunction.build(grid, [math.inf] * 12,
                                           source="superlevel")
        iv = interval_from_counting(curve)
        assert iv.classification == "indeterminate"


class TestEstimateCurve:
    @staticmethod
    def prefactor_curve():
        # Phi = 2 eps^(-1/2): ln 2 biases the ratio window, not the fit
        grid = geometric_grid(0.5, 1e-10, 60)
        return DistributionFunction.build(grid, math.log(2.0) - 0.5 * np.log(grid),
                                          source="counting")

    def test_accepted_fit_refines_the_degree(self):
        iv, degree, info = estimate_curve(self.prefactor_curve())
        assert iv.classification == "moderate"
        assert iv.degree == pytest.approx(0.93, abs=0.01)
        assert degree == info["power_slope"] == pytest.approx(1.0, abs=1e-12)

    def test_rejected_fit_falls_back_to_the_interval_degree(self):
        strict = Thresholds(residual_tol=0.0)  # no fit is ever accepted
        iv, degree, info = estimate_curve(self.prefactor_curve(), strict)
        assert iv.classification == "moderate"
        assert degree == iv.degree == pytest.approx(0.93, abs=0.01)
        assert info["power_rms_rel"] >= strict.residual_tol

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_log_law_is_severe_with_its_exponent(self, kappa):
        # Phi = 2 ln(1/eps)^kappa
        grid = geometric_grid(0.5, 1e-12, 60)
        curve = DistributionFunction.build(
            grid, math.log(2.0) + kappa * np.log(-np.log(grid)),
            source="counting")
        iv, degree, info = estimate_curve(curve)
        assert (iv.classification, degree) == ("severe", None)
        assert info["log_exponent"] == pytest.approx(kappa, abs=1e-10)
        assert info["log_rms_rel"] < 1e-10

    @pytest.mark.parametrize("sigma, cls, degree", [
        (np.arange(1, 65, dtype=float) ** -2.0, "moderate", 2.0),
        (np.exp(-np.arange(1, 65, dtype=float)), "severe", None)])
    def test_fits_decide_only_below_the_residual_tolerance(self, sigma, cls,
                                                           degree):
        # five corners: too few for the ratio classifier, so only a fit
        # decides; -ln sigma_n = 2 ln n is the power law and
        # ln n = ln ln(1/sigma_n^2) - ln 2 the log law, exactly
        phi = corner_curve(SigmaSequence(sigma), (4, 8))
        iv, got, _ = estimate_curve(phi)
        assert (iv.classification, got) == (cls, pytest.approx(degree))
        iv, got, _ = estimate_curve(phi, Thresholds(residual_tol=0.0))
        assert (iv.classification, got) == ("indeterminate", None)

    def test_severe_curve_keeps_no_degree(self):
        grid = geometric_grid(0.5, 1e-12, 60)
        curve = DistributionFunction.build(
            grid, np.log(np.log(2.0 * np.pi / grid) / np.pi), source="counting")
        iv, degree, _ = estimate_curve(curve)
        assert iv.classification == "severe"
        assert degree is None


class TestStepMultiplier:
    def test_pointwise_lookup(self):
        seq = SigmaSequence(np.array([1.0, 0.5]))
        lam, mu = step_multiplier_from_sigma(seq)
        assert lam.fn(0.5) == 1.0
        assert lam.fn(1.7) == 0.25
        assert mu.kind == "lebesgue_halfline"

    def test_superlevel_measure_counts_unit_cells(self):
        seq = SigmaSequence(np.array([1.0, 0.5]))
        lam, mu = step_multiplier_from_sigma(seq)
        assert superlevel_measure(lam, mu, 0.2) == 2.0

    def test_bridge_identity_exact(self):
        n = np.arange(1, 513, dtype=float)
        seq = SigmaSequence(n ** -1.0, tail_law=TailLaw.power(1.0))
        lam, mu = step_multiplier_from_sigma(seq)
        for eps in geometric_grid(0.9, 1e-5, 60):
            assert superlevel_measure(lam, mu, float(eps)) \
                == counting_phi(seq, float(eps)).count

    def test_numeric_bisection_agrees_with_counts(self):
        seq = SigmaSequence(np.arange(1, 65, dtype=float) ** -1.0)
        lam, mu = step_multiplier_from_sigma(seq)
        for eps in (0.9, 0.3, 0.011, 1e-3):
            numeric = superlevel_measure(lam, mu, eps, method="numeric")
            assert numeric == pytest.approx(counting_phi(seq, eps).count,
                                            abs=1e-8)

    def test_step_curve_equals_counting_curve(self):
        n = np.arange(1, 257, dtype=float)
        seq = SigmaSequence(n ** -0.75, tail_law=TailLaw.power(0.75))
        grid = geometric_grid(0.9, 1e-4, 40)
        lam, mu = step_multiplier_from_sigma(seq)
        a = counting_curve(seq, grid)
        b = phi_curve(lam, mu, grid)
        assert np.array_equal(a.log_phi, b.log_phi)


def test_estimator_agreement_on_power_tails():
    # window estimates from the sequence and from its counting curve agree
    for s in (0.25, 0.5, 1.0, 2.0):
        n = np.arange(1, 4097, dtype=float)
        seq = SigmaSequence(n ** -s, tail_law=TailLaw.power(s))
        iv_sigma = interval_from_sigma(seq)
        grid = geometric_grid(0.9, float(seq.values[-1] ** 2) * 1.0001, 60)
        iv_count = interval_from_counting(counting_curve(seq, grid))
        assert iv_sigma.degree is not None and iv_count.degree is not None
        assert abs(iv_sigma.degree - iv_count.degree) < 0.05
        assert abs(iv_sigma.degree - s) < 0.05
