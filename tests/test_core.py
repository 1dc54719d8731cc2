import math

import numpy as np
import pytest

from illposed.core import (CurveMonotonicityError, DistributionFunction,
                           IllPosednessInterval, MeasureSpace, Multiplier,
                           SigmaSequence, TailLaw, ball_volume,
                           geometric_grid, ratio, usable_samples)


def test_ratio_power_law_cancellation():
    # Phi = eps^(-1/2) -> ratio 1; Phi = eps^(-1) -> ratio 1/2
    assert ratio(1e-4, 0.5 * math.log(1e4)) == pytest.approx(1.0)
    assert ratio(1e-6, math.log(1e6)) == pytest.approx(0.5)


def test_ratio_hausdorff_closed_form():
    # oracle: Phi(eps) = log(2 pi / eps) / pi
    eps = 1e-6
    log_phi = math.log(math.log(2.0 * math.pi / eps) / math.pi)
    expected = math.log(eps) / (-2.0 * log_phi)
    assert expected == pytest.approx(4.301331, abs=1e-6)
    assert ratio(eps, log_phi) == pytest.approx(expected)


def test_ratio_undefined_samples_are_skipped():
    assert ratio(1e-4, 0.0) is None       # Phi <= 1
    assert ratio(1e-4, -2.0) is None
    assert ratio(1.5, 3.0) is None        # eps >= 1
    assert ratio(1e-4, math.inf) is None  # divergent sample


def test_usable_samples_keep_the_ratio_rule_and_math_log_digits():
    eps = np.array([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
    lp = np.array([1.0, 1.0, -np.inf, 0.0, 2.0, np.inf])
    kept, neg_log, kept_lp = usable_samples(eps, lp)
    assert kept.tolist() == [0.125] and kept_lp.tolist() == [2.0]
    # a vector log is a digit off on a few percent of values in (0.9, 1)
    fine = np.linspace(0.999, 0.9, 2000)
    _, neg_log, _ = usable_samples(fine, np.ones_like(fine))
    assert neg_log.tolist() == [-math.log(e) for e in fine.tolist()]


def test_geometric_grid_endpoints_inclusive():
    g = geometric_grid(1.0, 1e-12, points=60)
    assert g[0] == 1.0
    assert g[-1] == 1e-12
    assert np.all(np.diff(g) < 0)
    ratios = g[:-1] / g[1:]
    assert np.allclose(ratios, ratios[0])


class TestSigmaSequence:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            SigmaSequence(np.array([1.0, 2.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SigmaSequence(np.array([1.0, 0.0]))

    def test_tail_law_must_match_stored_tail(self):
        n = np.arange(1, 101, dtype=float)
        SigmaSequence(n ** -0.5, tail_law=TailLaw.power(0.5))
        with pytest.raises(ValueError):
            SigmaSequence(n ** -0.5, tail_law=TailLaw.power(1.0))

    def test_values_are_frozen(self):
        seq = SigmaSequence(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            seq.values[0] = 5.0


class TestMeasureSpace:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MeasureSpace("borel")


def test_ball_volume_matches_lebesgue_in_low_dimensions():
    assert ball_volume(1, 3.0) == pytest.approx(6.0)          # (-r, r)
    assert ball_volume(2, 2.0) == pytest.approx(math.pi * 4.0)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)


class TestDistributionFunction:
    def test_monotonicity_enforced(self):
        eps = np.array([1.0, 0.5, 0.25])
        DistributionFunction.build(eps, [0.0, 1.0, 2.0], source="counting")
        with pytest.raises(CurveMonotonicityError):
            DistributionFunction.build(eps, [0.0, 1.0, 0.5], source="counting")

    def test_finiteness_derived_from_sentinel(self):
        eps = np.array([1.0, 0.5, 0.25])
        curve = DistributionFunction.build(eps, [0.0, 1.0, math.inf],
                                           source="superlevel")
        assert curve.finiteness == "non_informative"
        curve = DistributionFunction.build(eps, [0.0, 1.0, 2.0],
                                           source="superlevel")
        assert curve.finiteness == "finite"

    def test_finiteness_flag_consistency_checked(self):
        eps = np.array([1.0, 0.5])
        with pytest.raises(ValueError):
            DistributionFunction(eps, np.array([0.0, 1.0]),
                                 "non_informative", "counting")

    def test_divergent_sample_cannot_precede_finite_one(self):
        eps = np.array([1.0, 0.5, 0.25])
        with pytest.raises(CurveMonotonicityError):
            DistributionFunction.build(eps, [math.inf, math.inf, 3.0],
                                       source="superlevel")

    def test_empty_sets_allowed_at_large_eps(self):
        eps = np.array([4.0, 1.0, 0.5])
        curve = DistributionFunction.build(eps, [-math.inf, 0.5, 1.5],
                                           source="superlevel", sup_bound=2.0)
        assert curve.finiteness == "finite"


def test_interval_invariants():
    IllPosednessInterval(0.5, 1.5, "moderate")
    with pytest.raises(ValueError):
        IllPosednessInterval(1.5, 0.5, "moderate")
    with pytest.raises(ValueError):
        IllPosednessInterval(0.5, 1.5, "bogus")


def test_multiplier_validation():
    with pytest.raises(ValueError):
        Multiplier(fn=lambda w: 1.0, sup_bound=0.0)


@pytest.mark.parametrize("breakpoints", [
    (math.nan,), (1.0, math.nan), (math.inf,), (0.0,), (-1.0,), (2.0, 1.0),
    (1.0, 1.0), [1.0], "1", ("1",)])
def test_breakpoints_must_be_finite_positive_and_increasing(breakpoints):
    # a NaN breakpoint used to drop out of the search silently: the
    # multiplier_a2 profile then measured Phi(0.1) = 0 instead of 5.657
    with pytest.raises(ValueError, match="breakpoints"):
        Multiplier(fn=lambda w: w * w / (1.0 + w ** 4), sup_bound=0.5,
                   breakpoints=breakpoints)


@pytest.mark.parametrize("breakpoints", [None, (), (1.0,), (1, 2.5),
                                         (np.float64(0.5), 3.0)])
def test_valid_breakpoints_are_kept(breakpoints):
    lam = Multiplier(fn=lambda w: w, sup_bound=1.0, breakpoints=breakpoints)
    assert lam.breakpoints == breakpoints
