import math
import warnings

import numpy as np
import pytest

from illposed.core import (COUNTING_INTEGERS, DISCRETE,
                           LEBESGUE_HALFLINE, LEBESGUE_LINE,
                           LEBESGUE_UNIT_INTERVAL, MONOTONE_TAIL,
                           PIECEWISE_MONOTONE, GENERIC_SAMPLED,
                           MeasureSpace, Multiplier,
                           UnsupportedMeasureError, geometric_grid,
                           DistributionFunction)
from illposed import counting
from illposed import discretize as dz
from illposed import distribution as dist
from illposed import gallery


HALF = MeasureSpace(LEBESGUE_HALFLINE)
LINE = MeasureSpace(LEBESGUE_LINE)
UNIT = MeasureSpace(LEBESGUE_UNIT_INTERVAL)


def bare(model_id, **params):
    """Gallery multiplier stripped of its closed forms: numeric path only."""
    model = gallery.make(model_id, **params)
    lam = model.multiplier
    stripped = Multiplier(fn=lam.fn, shape=lam.shape, sup_bound=lam.sup_bound,
                          breakpoints=lam.breakpoints,
                          cutoff_hint=lam.cutoff_hint,
                          sample_omega=lam.sample_omega,
                          sample_value=lam.sample_value,
                          resolution=lam.resolution)
    return stripped, model.measure


class TestSuperlevelMeasure:
    def test_hausdorff_bisection_matches_arccosh_oracle(self):
        lam, mu = bare("hausdorff")
        got = dist.superlevel_measure(lam, mu, 0.1)
        oracle = math.acosh(math.pi / 0.1) / math.pi
        assert oracle == pytest.approx(1.3178693792193628)
        assert got == pytest.approx(oracle, rel=1e-10)
        # the model's closed form is the small-eps logarithm, close but not equal
        closed = dist.superlevel_measure(gallery.make("hausdorff").multiplier,
                                         mu, 0.1)
        assert closed == pytest.approx(1.3179500387079857, rel=1e-12)

    def test_gaussian_radial_inversion(self):
        lam, mu = bare("gaussian_kernel", d=1)
        got = dist.superlevel_measure(lam, mu, 0.1)
        assert got == pytest.approx(2.0 * math.sqrt(2.0 * math.log(math.pi / 0.1)),
                                    rel=1e-10)

    def test_radial_ball_volume_scaling(self):
        for d in (1, 2, 3):
            lam, mu = bare("gaussian_kernel", d=d)
            r = math.sqrt(2.0 * math.log(math.pi ** d / 0.05))
            expected = math.pi ** (d / 2.0) * r ** d / math.gamma(d / 2.0 + 1.0)
            assert dist.superlevel_measure(lam, mu, 0.05) \
                == pytest.approx(expected, rel=1e-10)

    def test_even_decay_on_the_line(self):
        lam, mu = bare("multiplier_a1", s=1.0)
        assert dist.superlevel_measure(lam, mu, 0.01) \
            == pytest.approx(2.0 * math.sqrt(99.0), rel=1e-10)

    def test_empty_superlevel_set(self):
        lam, mu = bare("multiplier_a1", s=1.0)
        assert dist.superlevel_measure(lam, mu, 1.5) == 0.0
        assert dist.log_superlevel_measure(lam, mu, 1.5) == -math.inf

    def test_closed_form_precedence_and_numeric_override(self):
        model = gallery.make("multiplier_a1", s=1.0)
        lam, mu = model.multiplier, model.measure
        auto = dist.superlevel_measure(lam, mu, 0.01)
        numeric = dist.superlevel_measure(lam, mu, 0.01, method="numeric")
        assert auto == pytest.approx(2.0 * math.sqrt(99.0), rel=1e-14)
        assert numeric == pytest.approx(auto, rel=1e-10)

    def test_method_closed_requires_closed_form(self):
        lam, mu = bare("hausdorff")
        with pytest.raises(ValueError):
            dist.superlevel_measure(lam, mu, 0.1, method="closed")

    def test_divergence_detection_sin2(self):
        lam, mu = bare("counterexample_sin2")
        assert dist.superlevel_measure(lam, mu, 0.5, method="numeric") \
            == math.inf

    def test_divergence_detection_constant(self):
        lam, mu = bare("counterexample_const", c=0.5)
        assert dist.log_superlevel_measure(lam, mu, 0.25, method="numeric") \
            == math.inf

    def test_negative_multiplier_rejected(self):
        lam = Multiplier(fn=lambda w: -1.0, shape=MONOTONE_TAIL,
                         sup_bound=1.0)
        with pytest.raises(ValueError):
            dist.superlevel_measure(lam, HALF, 1e-6, method="numeric")

    def test_overflowing_closed_form_is_not_divergence(self):
        model = gallery.make("multiplier_c")
        lam, mu = model.multiplier, model.measure
        assert dist.log_superlevel_measure(lam, mu, 1e-6) \
            == pytest.approx(1000.0 + math.log(2.0), rel=1e-12)
        with pytest.raises(ValueError, match="log_superlevel_measure"):
            dist.superlevel_measure(lam, mu, 1e-6)


class TestPhiCurve:
    def test_a2_matches_quartic_oracle(self):
        # oracle: roots of eps y^2 - y + eps in y = w^2
        lam, mu = bare("multiplier_a2")
        for eps in (1e-2, 1e-4, 1e-6):
            disc = math.sqrt(1.0 - 4.0 * eps * eps)
            y_hi = (1.0 + disc) / (2.0 * eps)
            y_lo = 2.0 * eps / (1.0 + disc)
            oracle = 2.0 * (math.sqrt(y_hi) - math.sqrt(y_lo))
            got = dist.superlevel_measure(lam, mu, eps, method="numeric")
            assert got == pytest.approx(oracle, rel=1e-9)
        scaled = dist.superlevel_measure(lam, mu, 1e-6) * 1e-3
        assert 1.99 <= scaled <= 2.01

    def test_exponential_multiplier_curve(self):
        lam, mu = bare("multiplier_b", s=1.0)
        curve = dist.phi_curve(lam, mu, geometric_grid(0.9, 1e-4, 30))
        phi_at = math.exp(curve.log_phi[-1])
        assert phi_at == pytest.approx(2.0 * math.log(1e4), rel=1e-10)

    def test_sin2_curve_is_non_informative_but_returned(self):
        lam, mu = bare("counterexample_sin2")
        curve = dist.phi_curve(lam, mu, geometric_grid(0.9, 1e-2, 12))
        assert curve.finiteness == "non_informative"
        assert np.all(np.isposinf(curve.log_phi))

    def test_pole_trim_shifts_by_constant(self):
        model = gallery.make("fractional_line", s=0.5)
        lam, mu = model.multiplier, model.measure
        full = dist.superlevel_measure(lam, mu, 1e-4)
        trimmed = dist.superlevel_measure(lam, mu, 1e-4, trim=1.0)
        assert full - trimmed == pytest.approx(2.0, rel=1e-12)


class TestDecreasingRearrangement:
    def test_power_curve_inverse(self):
        grid = geometric_grid(0.9, 1e-8, 80)
        curve = DistributionFunction.build(grid, -0.5 * np.log(grid),
                                           source="counting", sup_bound=5.0)
        # Phi(tau) = tau^(-1/2) <= 10 iff tau >= 0.01
        assert dist.decreasing_rearrangement(curve, 10.0) \
            == pytest.approx(0.01, rel=1e-9)

    def test_hausdorff_inversion(self):
        model = gallery.make("hausdorff")
        grid = geometric_grid(0.99, 1e-8, 400)
        curve = dist.phi_curve(model.multiplier, model.measure, grid)
        # oracle: log(2 pi / tau)/pi = 1 at tau = 2 pi exp(-pi)
        assert dist.decreasing_rearrangement(curve, 1.0) \
            == pytest.approx(2.0 * math.pi * math.exp(-math.pi), rel=1e-4)

    def test_at_zero_returns_norm_bound(self):
        model = gallery.make("hausdorff")
        grid = geometric_grid(0.99, 1e-6, 40)
        curve = dist.phi_curve(model.multiplier, model.measure, grid)
        assert dist.decreasing_rearrangement(curve, 0.0) == math.pi

    def test_below_reachable_range_returns_norm_bound(self):
        grid = geometric_grid(0.9, 1e-4, 30)
        curve = DistributionFunction.build(grid, 2.0 - 0.5 * np.log(grid),
                                           source="counting", sup_bound=7.0)
        tiny = 0.5 * math.exp(float(curve.log_phi[0]))
        assert dist.decreasing_rearrangement(curve, tiny) == 7.0

    def test_rearrangement_multiplier_is_nonincreasing(self):
        model = gallery.make("multiplier_a1", s=1.0)
        grid = geometric_grid(0.99, 1e-8, 60)
        curve = dist.phi_curve(model.multiplier, model.measure, grid)
        star, mu = dist.rearrangement_multiplier(curve)
        ts = np.geomspace(1e-3, 1e5, 50)
        vals = [star(float(t)) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert mu.kind == LEBESGUE_HALFLINE


class TestRearrangementDuality:
    @pytest.mark.parametrize("model_id,params", [
        ("hausdorff", {}),
        ("multiplier_a1", {"s": 1.0}),
        ("multiplier_b", {"s": 1.0}),
    ])
    def test_distribution_function_is_preserved(self, model_id, params):
        model = gallery.make(model_id, **params)
        grid = geometric_grid(model.eps_max, 1e-8, 60)
        curve = dist.phi_curve(model.multiplier, model.measure, grid)
        star, mu = dist.rearrangement_multiplier(curve)
        recomputed = dist.phi_curve(star, mu, grid, method="numeric")
        a, b = np.exp(curve.log_phi), np.exp(recomputed.log_phi)
        assert np.max(np.abs(a - b) / np.maximum(a, 1e-300)) < 1e-6


class TestUnitInterval:
    # increasing profiles are single piecewise-monotone branches: the
    # monotone_tail shape promises initial-interval superlevel sets, which
    # an increasing profile violates
    def test_square_profile(self):
        lam = Multiplier(fn=lambda w: w * w, shape=PIECEWISE_MONOTONE,
                         sup_bound=1.0)
        assert dist.d_lambda(lam, UNIT, 0.25) == pytest.approx(0.5, abs=1e-10)
        assert dist.increasing_rearrangement(lam, UNIT, 0.5) \
            == pytest.approx(0.25, abs=1e-9)

    def test_identity_profile(self):
        lam = Multiplier(fn=lambda w: w, shape=PIECEWISE_MONOTONE,
                         sup_bound=1.0)
        for t in (0.1, 0.5, 0.9):
            assert dist.increasing_rearrangement(lam, UNIT, t) \
                == pytest.approx(t, abs=1e-9)

    def test_tent_profile(self):
        lam = Multiplier(fn=lambda w: min(w, 1.0 - w),
                         shape=PIECEWISE_MONOTONE, sup_bound=0.5,
                         breakpoints=(0.5,))
        # {min(w, 1-w) <= 1/4} = [0, 1/4] u [3/4, 1]
        assert dist.d_lambda(lam, UNIT, 0.25) == pytest.approx(0.5, abs=1e-10)

    def test_index_function_at_zero(self):
        lam = Multiplier(fn=lambda w: w * w, shape=MONOTONE_TAIL,
                         sup_bound=1.0)
        small = dist.increasing_rearrangement(lam, UNIT, 1e-4)
        assert 0.0 < small < 1e-6

    def test_requires_unit_interval_measure(self):
        lam = Multiplier(fn=lambda w: w, shape=MONOTONE_TAIL, sup_bound=1.0)
        with pytest.raises(UnsupportedMeasureError):
            dist.d_lambda(lam, HALF, 0.5)
        with pytest.raises(UnsupportedMeasureError):
            dist.increasing_rearrangement(lam, LINE, 0.5)


class TestReweight:
    def test_hausdorff_exponential_density(self):
        model = gallery.make("hausdorff")
        grid = np.array([1e-1, 1e-2, 1e-4])
        curve = dist.reweight(model.multiplier, model.measure,
                              lambda w: 0.5 * math.exp(math.pi * w), grid)
        assert math.exp(curve.log_phi[0]) \
            == pytest.approx(9.840845056908105, rel=1e-8)
        for eps, lp in zip(grid, curve.log_phi):
            assert math.exp(lp) == pytest.approx(1.0 / eps - 1.0 / (2 * math.pi),
                                                 rel=1e-8)

    def test_backward_heat_counting_density(self):
        model = gallery.make("backward_heat", t_bar=1.0)
        eps = math.exp(-9.0)
        curve = dist.reweight(model.multiplier, model.measure,
                              lambda k: 1.0, np.array([eps * 2, eps]))
        # 5 integers qualify; the value passes through the log domain
        assert math.exp(curve.log_phi[-1]) == pytest.approx(5.0, rel=1e-12)
        weighted = dist.reweight(model.multiplier, model.measure,
                                 lambda k: math.exp(float(k) ** 2),
                                 np.array([eps * 2, eps]))
        assert math.exp(weighted.log_phi[-1]) \
            == pytest.approx(1.0 + 2.0 * math.e + 2.0 * math.e ** 4, rel=1e-12)

    def test_unit_density_reproduces_phi_curve(self):
        model = gallery.make("hausdorff")
        grid = geometric_grid(0.9, 1e-6, 25)
        a = dist.reweight(model.multiplier, model.measure, lambda w: 1.0, grid)
        b = dist.phi_curve(model.multiplier, model.measure, grid)
        assert np.allclose(a.log_phi, b.log_phi, rtol=1e-12, atol=0.0)

    def test_rejects_nonpositive_density(self):
        model = gallery.make("hausdorff")
        with pytest.raises(ValueError):
            dist.reweight(model.multiplier, model.measure,
                          lambda w: -1.0, np.array([0.1, 0.01]))


class TestEssinf:
    def test_constant_is_well_posed_candidate(self):
        lam, mu = bare("counterexample_const", c=0.5)
        res = dist.essinf_estimate(lam, mu)
        assert res.verdict == "well_posed_candidate"
        assert res.value == pytest.approx(0.5)

    def test_sin2_is_ill_posed(self):
        lam, mu = bare("counterexample_sin2")
        res = dist.essinf_estimate(lam, mu)
        assert res.verdict == "ill_posed"

    def test_hausdorff_is_ill_posed(self):
        lam, mu = bare("hausdorff")
        assert dist.essinf_estimate(lam, mu).verdict == "ill_posed"

    def test_shifted_constant_stabilizes_above_floor(self):
        lam = Multiplier(fn=lambda w: 0.5 + 1.0 / (1.0 + w),
                         shape=GENERIC_SAMPLED, sup_bound=1.5,
                         resolution=1.0 / 64.0)
        res = dist.essinf_estimate(lam, HALF)
        assert res.verdict == "well_posed_candidate"
        assert res.value == pytest.approx(0.5, rel=1e-3)


class TestLpCheck:
    def test_hausdorff_l1_value(self):
        model = gallery.make("hausdorff")
        res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res.verdict == "finite"
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-6)

    def test_a1_l1_is_arctangent_mass(self):
        model = gallery.make("multiplier_a1", s=1.0)
        res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res.verdict == "finite"
        assert res.value == pytest.approx(math.pi, rel=1e-6)

    def test_mild_family_l1_diverges(self):
        model = gallery.make("multiplier_c", s=1.0)
        res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res.verdict == "infinite"

    def test_mild_family_admits_growth_function(self):
        # f(z) = exp(-2 / sqrt(z)) turns the log tail into an integrable one
        model = gallery.make("multiplier_c", s=1.0)
        res = dist.lp_check(model.multiplier, model.measure,
                            f=lambda z: math.exp(-2.0 / math.sqrt(z))
                            if z > 0 else 0.0)
        assert res.verdict == "finite"

    def test_p_below_one_rejected(self):
        model = gallery.make("hausdorff")
        with pytest.raises(ValueError):
            dist.lp_check(model.multiplier, model.measure, p=0.5)

    def test_constant_diverges(self):
        lam, mu = bare("counterexample_const", c=0.5)
        assert dist.lp_check(lam, mu, p=1).verdict == "infinite"

    @pytest.mark.parametrize("model_id,params,exact", [
        ("hausdorff", {}, math.pi / 2.0),
        ("multiplier_a1", {"s": 1.0}, math.pi),
        ("multiplier_a2", {}, math.pi / math.sqrt(2.0)),
        ("multiplier_b", {}, 2.0),
        ("laplace_kernel", {}, math.pi / 2.0),
        ("gaussian_kernel", {"d": 2}, 2.0 * math.pi ** 3),
        # sum of exp(-k^2) over the integers
        ("backward_heat", {}, 1.7726372048266521),
    ], ids=["hausdorff", "a1", "a2", "b", "laplace", "gaussian_d2", "heat"])
    def test_l1_matches_exact_integral(self, model_id, params, exact):
        model = gallery.make(model_id, **params)
        res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res.verdict == "finite"
        assert res.value == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("s", [0.75, 2.0])
    def test_fractional_line_diverges_at_an_end(self, s):
        # Phi = 2 eps^(-1/(2s)) is integrable at eps -> 0 only for s > 1/2
        # and at eps -> inf only for s < 1/2: |w|^-2s is never in L^1
        model = gallery.make("fractional_line", s=s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res == ("infinite", None)

    def test_fractional_line_critical_exponent_is_never_finite(self):
        # s = 1/2: Phi = 2/eps sits exactly on the borderline at both ends
        model = gallery.make("fractional_line", s=0.5)
        res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res.verdict != "finite"

    @pytest.mark.parametrize("s", [7.0, 8.0])
    def test_slope_rising_past_the_grid_is_never_finite(self, s):
        # ln Phi = ln 2 + eps^(-1/(2s)) is convex in ln(1/eps): lambda is never
        # in L^1, yet the slope over the grid's window stays below one
        model = gallery.make("multiplier_c", s=s)
        res = dist.lp_check(model.multiplier, model.measure, p=1)
        assert res.verdict != "finite"

    def test_slope_falling_past_the_grid_is_never_infinite(self):
        # lambda = exp(-(ln w)^2 / 196) beyond 1 is in L^1 (ln Phi = 14
        # sqrt(ln(1/eps)) bends below slope one only past eps ~ e^-49), yet
        # the window's slope is above one
        def fn(w):
            return 1.0 if w <= 1.0 else math.exp(-math.log(w) ** 2 / 196.0)

        lam = Multiplier(fn=fn, shape=MONOTONE_TAIL, sup_bound=1.0,
                         log_superlevel=lambda e: 14.0 * math.sqrt(
                             math.log(1.0 / e)) if e < 1.0 else -math.inf)
        assert dist.lp_check(lam, HALF, p=1).verdict != "infinite"

    def test_growth_function_on_the_numeric_path(self):
        # f(lambda) = exp(-1.1 / sqrt(lambda)) = |w|^-1.1 beyond e and
        # exp(-1.1) inside: 2 e exp(-1.1) + 20 exp(-0.1) = 22 exp(-0.1)
        model = gallery.make("multiplier_c", s=1.0)
        res = dist.lp_check(model.multiplier, model.measure,
                            f=lambda z: math.exp(-1.1 / math.sqrt(z))
                            if z > 0 else 0.0)
        assert res.verdict == "finite"
        assert res.value == pytest.approx(22.0 * math.exp(-0.1), rel=1e-8)

    def test_step_multiplier_l1_is_basel_sum(self):
        # lambda = sigma_n^2 = 1/n^2 on [n-1, n): a staircase distribution
        # function whose jumps never end
        seq = gallery.make("riemann_liouville").sigma_sequence(256)
        lam, mu = counting.step_multiplier_from_sigma(seq)
        res = dist.lp_check(lam, mu, p=1)
        assert res.verdict == "finite"
        assert res.value == pytest.approx(math.pi ** 2 / 6.0, rel=1e-6)

    def test_sampled_multiplier_l1_is_riemann_sum(self):
        # Phi counts samples, so the layer cake is the sum of the samples
        # times their spacing
        sampled = dz.fft_multiplier(dz.KernelSampler(
            fn=lambda x: math.exp(-x * x), decay=lambda x: math.exp(-x * x),
            L=8.0, N=256))
        res = dist.lp_check(sampled.multiplier, LINE, p=1)
        assert res.verdict == "finite"
        exact = float(np.sum(sampled.values)) * sampled.multiplier.resolution
        assert res.value == pytest.approx(exact, rel=1e-7)

    def test_set_beyond_enumeration_reach_is_not_infinite(self):
        # sum 1/(1+k^2) is finite, but without a cutoff hint the integer scan
        # flags the sets at small eps as divergent
        lam = Multiplier(fn=lambda k: 1.0 / (1.0 + k * k), shape=DISCRETE,
                         sup_bound=1.0)
        res = dist.lp_check(lam, MeasureSpace(COUNTING_INTEGERS), p=1)
        assert res.verdict != "infinite"
