import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from illposed.core import (COUNTING_INTEGERS, LEBESGUE_HALFLINE,
                           LEBESGUE_LINE, LEBESGUE_UNIT_INTERVAL, MeasureSpace,
                           Multiplier, UnsupportedMeasureError, ball_volume,
                           geometric_grid, DistributionFunction)
from illposed import distribution as dist
from illposed import gallery


HALF = MeasureSpace(LEBESGUE_HALFLINE)
LINE = MeasureSpace(LEBESGUE_LINE)
UNIT = MeasureSpace(LEBESGUE_UNIT_INTERVAL)


def bare(model_id, **params):
    """Gallery multiplier stripped of its closed forms: numeric path only."""
    model = gallery.make(model_id, **params)
    lam = model.multiplier
    stripped = Multiplier(fn=lam.fn, sup_bound=lam.sup_bound,
                          breakpoints=lam.breakpoints,
                          cutoff_hint=lam.cutoff_hint)
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

    @pytest.mark.parametrize("mu, want", [(HALF, (1.0, 4.0, 99.0)),
                                          (LINE, (2.0, 8.0, 198.0))])
    def test_finite_sampled_measure(self, mu, want):
        # {1/(1+|w|) > eps} is |w| < 1/eps - 1; the midpoint grid of step
        # SAMPLE_STEP counts it exactly, and the line doubles the half-line
        lam = Multiplier(fn=lambda w: 1.0 / (1.0 + np.abs(w)), sup_bound=1.0,
                         breakpoints=None)
        got = tuple(dist.superlevel_measure(lam, mu, eps, method="numeric")
                    for eps in (0.5, 0.2, 0.01))
        assert got == want

    def test_negative_multiplier_rejected(self):
        lam = Multiplier(fn=lambda w: np.full_like(w, -1.0), sup_bound=1.0)
        with pytest.raises(ValueError):
            dist.superlevel_measure(lam, HALF, 1e-6, method="numeric")

    @pytest.mark.parametrize("bad,text", [(-1.0, "-1.0"), (math.nan, "nan")])
    def test_bad_value_at_one_interior_grid_point_is_named(self, bad, text):
        # the 1001st midpoint of essinf's first grid, 2048 points on [0, 8]
        x0 = 1000.5 * 8.0 / 2048.0
        lam = Multiplier(fn=lambda w: np.where(w == x0, bad, 1.0 / (1.0 + w)),
                         sup_bound=1.0)
        with pytest.raises(ValueError,
                           match=rf"^multiplier must be nonnegative, got {text}$"):
            dist.essinf_estimate(lam, HALF)

    def test_overflowing_closed_form_is_not_divergence(self):
        model = gallery.make("multiplier_c")
        lam, mu = model.multiplier, model.measure
        assert dist.log_superlevel_measure(lam, mu, 1e-6) \
            == pytest.approx(1000.0 + math.log(2.0), rel=1e-12)
        with pytest.raises(ValueError, match="log_superlevel_measure"):
            dist.superlevel_measure(lam, mu, 1e-6)


class TestSuperlevelSearch:
    """The one search: monotone branches between the breakpoints, and an
    exact scan of the integers up to the cutoff."""

    def test_discrete_scan_counts_every_point_below_the_cutoff(self):
        # {1/(1+k^2) > 1e-5} is k^2 < 99999, so |k| <= 316: 633 integers
        lam = Multiplier(fn=lambda k: 1.0 / (1.0 + k * k), sup_bound=1.0,
                         cutoff_hint=lambda e: math.ceil(math.sqrt(1.0 / e)))
        mu = MeasureSpace(COUNTING_INTEGERS)
        assert dist.superlevel_measure(lam, mu, 1e-5) == 633.0
        curve = dist.phi_curve(lam, mu, geometric_grid(0.9, 1e-5, 20))
        assert math.exp(curve.log_phi[-1]) == pytest.approx(633.0, rel=1e-14)

    def test_multiplier_c_walks_its_constant_branch(self):
        lam, mu = bare("multiplier_c", s=1.0)
        assert lam.breakpoints == (math.e,)
        eps = np.array([0.5, 0.1])
        (a0, b0), (a1, b1) = dist._superlevel_set(lam, eps)
        # lambda = 1 on [0, e]: the whole branch, with no bisection in it
        assert list(a0) == [0.0, 0.0] and list(b0) == [math.e, math.e]
        assert list(a1) == [math.e, math.e]
        assert list(b1) == pytest.approx(np.exp(eps ** -0.5), rel=1e-12)
        closed = gallery.make("multiplier_c", s=1.0).multiplier
        curve = dist.phi_curve(lam, mu, geometric_grid(0.99, 1e-8, 40))
        finite = np.isfinite(curve.log_phi)
        assert 0 < np.count_nonzero(finite) < finite.size
        want = [closed.log_superlevel(float(e)) for e in curve.eps_grid[finite]]
        np.testing.assert_allclose(curve.log_phi[finite], want, rtol=1e-12)

    def test_monotone_tail_on_the_unit_interval_ends_at_one(self):
        # {1/(1+w) > eps} is [0, 1/eps - 1): beyond the domain at eps = 0.4
        lam = Multiplier(fn=lambda w: 1.0 / (1.0 + w), sup_bound=1.0)
        assert dist.superlevel_measure(lam, UNIT, 0.4) == 1.0
        assert dist.superlevel_measure(lam, UNIT, 0.8) \
            == pytest.approx(0.25, rel=1e-11)

    def test_counting_measure_needs_a_discrete_multiplier(self):
        lam = Multiplier(fn=lambda k: 1.0 / (1.0 + k * k), sup_bound=1.0)
        with pytest.raises(UnsupportedMeasureError):
            dist.reweight(lam, MeasureSpace(COUNTING_INTEGERS),
                          lambda k: 1.0, np.array([0.5, 0.1]))


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

    @pytest.mark.parametrize("model_id", ["gaussian_kernel", "laplace_kernel",
                                          "parabolic_source"])
    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("trim", [None, 1.0])
    def test_radial_log_measure_agrees_with_the_plain_volumes(self, model_id,
                                                              d, trim):
        # the numeric curve measures radial sets in logs, relative to the
        # largest radius; where the volumes are floats it gives the plain
        # volumes' measure, and each sample is its one-element grid's
        lam, mu = bare(model_id, d=d)
        grid = geometric_grid(gallery.make(model_id, d=d).eps_max, 1e-10, 40)
        curve = dist.phi_curve(lam, mu, grid, trim=trim)
        plain = dist._numeric_measure(lam, mu, grid, trim)
        # a trimmed shell just past the trim radius cancels in both
        assert np.exp(curve.log_phi) == pytest.approx(
            plain, rel=1e-13, abs=1e-13 * ball_volume(d, trim) if trim else 0.0)
        assert list(curve.log_phi) == [
            dist.log_superlevel_measure(lam, mu, float(e), trim=trim)
            for e in grid]

    def test_radial_log_measure_where_the_volume_overflows(self):
        # at d = 300 the ball of radius 100 has volume e^830: the plain
        # measure raises, its log is a float
        lam, mu = bare("parabolic_source", d=300)
        with pytest.raises(FloatingPointError):
            dist.superlevel_measure(lam, mu, 1e-8)
        r = dist._superlevel_set(lam, np.array([1e-8]))[0][1][0]
        assert r == pytest.approx(100.0, rel=1e-6)
        assert dist.log_superlevel_measure(lam, mu, 1e-8) == pytest.approx(
            150.0 * math.log(math.pi) - math.lgamma(151.0)
            + 300.0 * math.log(r), rel=1e-14)

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
        vals = [star.fn(float(t)) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert mu.kind == LEBESGUE_HALFLINE

    def test_array_of_t_matches_each_t(self):
        # t = 0, below the curve, between knots and beyond the finest knot
        model = gallery.make("hausdorff")
        curve = dist.phi_curve(model.multiplier, model.measure,
                               geometric_grid(0.99, 1e-8, 60))
        ts = np.concatenate([[0.0, 1e-3], np.geomspace(0.1, 1e3, 30)])
        got = dist.decreasing_rearrangement(curve, ts)
        assert got.shape == ts.shape
        assert list(got) == [dist.decreasing_rearrangement(curve, float(t))
                             for t in ts]
        with pytest.raises(ValueError):
            dist.decreasing_rearrangement(curve, np.array([1.0, math.nan]))


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
    # an increasing profile is one rising branch from 0 to 1
    def test_square_profile(self):
        lam = Multiplier(fn=lambda w: w * w, sup_bound=1.0)
        # {w^2 <= 1/4} = [0, 1/2]
        assert dist.increasing_rearrangement(lam, UNIT, 0.5) \
            == pytest.approx(0.25, abs=1e-9)

    def test_identity_profile(self):
        lam = Multiplier(fn=lambda w: w, sup_bound=1.0)
        for t in (0.1, 0.5, 0.9):
            assert dist.increasing_rearrangement(lam, UNIT, t) \
                == pytest.approx(t, abs=1e-9)

    def test_tent_profile(self):
        lam = Multiplier(fn=lambda w: np.minimum(w, 1.0 - w), sup_bound=0.5,
                         breakpoints=(0.5,))
        # {min(w, 1-w) <= 1/4} = [0, 1/4] u [3/4, 1]
        assert dist.increasing_rearrangement(lam, UNIT, 0.5) \
            == pytest.approx(0.25, abs=1e-9)

    def test_index_function_at_zero(self):
        lam = Multiplier(fn=lambda w: w * w, sup_bound=1.0)
        small = dist.increasing_rearrangement(lam, UNIT, 1e-4)
        assert 0.0 < small < 1e-6

    def test_requires_unit_interval_measure(self):
        lam = Multiplier(fn=lambda w: w, sup_bound=1.0)
        for mu in (HALF, LINE):
            with pytest.raises(UnsupportedMeasureError):
                dist.increasing_rearrangement(lam, mu, 0.5)


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

    def test_eps_above_every_value_weighs_nothing(self):
        # lambda <= lambda(0) = 1: no integer is kept at eps = 2, so its
        # weighted sum is 0.0 and ln Phi is -inf
        model = gallery.make("backward_heat", t_bar=1.0)
        kappa = lambda k: math.exp(float(k) ** 2)
        curve = dist.reweight(model.multiplier, model.measure, kappa,
                              np.array([2.0, math.exp(-9.0)]))
        assert curve.log_phi[0] == -math.inf
        assert math.exp(curve.log_phi[1]) \
            == pytest.approx(1.0 + 2.0 * math.e + 2.0 * math.e ** 4, rel=1e-12)
        sums = dist._discrete_scan(model.multiplier, np.array([2.0, 1.0]),
                                   weight=dist._positive(kappa))
        assert sums.tolist() == [0.0, 0.0]

    def test_weighted_scan_holds_one_copy_of_the_weights_per_eps(self):
        # t_bar = 1e-9 scans 271,451 integers.  The kept values and
        # weights (8 bytes a point each), two masks and one copy of the
        # weights an eps keeps, which its running sums overwrite, come to
        # 26 bytes a point; holding the whole scan through the density
        # calls and copying each eps's weights twice took 41
        lam = gallery.make("backward_heat", t_bar=1e-9).multiplier
        eps = geometric_grid(0.99, 1e-8, 40)
        weight = dist._positive(lambda k: 1.0 / 3.0 + math.exp(-1e-9 * k * k))
        points = 2 * int(lam.cutoff_hint(float(eps[-1]))) + 1
        tracemalloc.start()
        try:
            dist._discrete_scan(lam, eps, weight=weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * points

    def test_unit_density_reproduces_phi_curve(self):
        model = gallery.make("hausdorff")
        grid = geometric_grid(0.9, 1e-6, 25)
        a = dist.reweight(model.multiplier, model.measure, lambda w: 1.0, grid)
        b = dist.phi_curve(model.multiplier, model.measure, grid)
        assert np.allclose(a.log_phi, b.log_phi, rtol=1e-12, atol=0.0)

    def test_density_is_called_once_per_point_in_order(self):
        # more points than one slice holds, in a transposed 2-d array:
        # every point is passed as the Python number tolist gives, in
        # ravel order
        n = 2 * dist.DENSITY_SLICE + 7
        x = np.arange(-n, n).reshape(2, n).T
        calls = []
        weight = dist._positive(lambda k: calls.append(k) or 2.0 + k / n)
        got = weight(x)
        assert calls == x.ravel().tolist()
        assert all(type(k) is int for k in calls)
        assert got.shape == x.shape
        assert got.ravel().tolist() == [2.0 + k / n for k in calls]

    def test_rejects_nonpositive_density(self):
        model = gallery.make("hausdorff")
        with pytest.raises(ValueError):
            dist.reweight(model.multiplier, model.measure,
                          lambda w: -1.0, np.array([0.1, 0.01]))

    @pytest.mark.parametrize("kappa", [lambda w: math.exp(800.0 * w),
                                       lambda w: math.inf])
    def test_density_beyond_the_float_range_names_the_point(self, kappa):
        model = gallery.make("hausdorff")
        with pytest.raises(FloatingPointError,
                           match="the density leaves the float range at"):
            dist.reweight(model.multiplier, model.measure, kappa,
                          np.array([0.1, 0.01]))

    def test_counting_density_beyond_the_float_range(self):
        model = gallery.make("backward_heat", t_bar=1.0)
        with pytest.raises(FloatingPointError, match="at -27"):
            dist.reweight(model.multiplier, model.measure,
                          lambda k: math.exp(float(k) ** 2),
                          np.array([1e-300, 5e-324]))


class TestQuad:
    """The adaptive Gauss-Kronrod rule behind reweighting and the FFT
    bounds."""

    @staticmethod
    def promised(exact):
        return max(dist.QUAD_ABS_TOL, dist.QUAD_REL_TOL * abs(exact))

    @staticmethod
    def converged(f, a, b):
        got, converged = dist._quad(f, a, b)
        assert converged
        return got

    @pytest.mark.parametrize("x", [0.5, 3.0, 6.4])
    def test_criterion_7a_integrand(self, x):
        got = self.converged(lambda w: 0.5 * np.exp(math.pi * w), 0.0, x)
        exact = math.expm1(math.pi * x) / (2.0 * math.pi)
        assert abs(got - exact) <= self.promised(exact)
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("lower", [0.0, 1.0, 5.0, 64.0, 200.0])
    def test_exponential_tail(self, lower):
        got = self.converged(lambda t: np.exp(-t), lower, math.inf)
        exact = math.exp(-lower)
        assert abs(got - exact) <= self.promised(exact)
        assert got == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("lower", [0.0, 2.0, 6.0, 12.0])
    def test_gaussian_tail(self, lower):
        got = self.converged(lambda t: np.exp(-t * t), lower, math.inf)
        exact = 0.5 * math.sqrt(math.pi) * math.erfc(lower)
        assert abs(got - exact) <= self.promised(exact)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_square_root_with_its_endpoint_singularity(self):
        got = self.converged(np.sqrt, 0.0, 1.0)
        assert abs(got - 2.0 / 3.0) <= self.promised(2.0 / 3.0)

    def test_polynomials_to_degree_31_in_one_cell(self):
        for deg in range(32):
            got = self.converged(lambda x: x ** deg, 0.0, 1.0)
            assert got == pytest.approx(1.0 / (deg + 1), rel=1e-14, abs=0.0)

    def test_empty_range(self):
        assert dist._quad(np.exp, 2.0, 2.0) == (0.0, True)

    def test_agrees_with_scipy_on_the_reweighting_integrands(self):
        # the hausdorff sets [-x, x] of `reweight`, on the grid the README's
        # `illposed reweight` command uses; backward_heat sums, it never
        # integrates
        from scipy import integrate

        model = gallery.make("hausdorff")
        grid = geometric_grid(model.eps_max, model.eps_max * 1e-8, 60)
        for kappa in (lambda w: 0.5 * math.exp(math.pi * w), lambda w: 1.0):
            for eps in grid:
                x = dist.superlevel_measure(model.multiplier, model.measure,
                                            float(eps)) / 2.0
                ref, _ = integrate.quad(kappa, -x, x, epsrel=dist.QUAD_REL_TOL,
                                        limit=dist.QUAD_CELLS)
                got = self.converged(dist._positive(kappa), -x, x)
                assert got == pytest.approx(ref, rel=1e-12)

    def test_cell_limit_gives_a_finite_estimate_without_warning(self):
        points = []

        def f(x):
            points.append(x.size)
            return 1.0 / x

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, converged = dist._quad(f, 0.0, 1.0)
        assert not caught
        assert not converged
        assert math.isfinite(got) and got > 0
        # one cell, then two new ones per halving until QUAD_CELLS are in use
        assert sum(points) == 21 * (2 * dist.QUAD_CELLS - 1)

    def test_integral_near_the_float_limit(self):
        # int 1e300 exp(-w/100) over [0, inf) is 1e302, still a float
        got = self.converged(lambda w: 1e300 * np.exp(-w / 100.0), 0.0,
                             math.inf)
        assert got == pytest.approx(1e302, rel=1e-8)

    def test_integral_beyond_the_float_range_raises(self):
        # with peak 1e308 the integral is 1e310: an overflow, not a divergence
        with pytest.raises(FloatingPointError,
                           match="leaves the float range"):
            dist._quad(lambda w: 1e308 * np.exp(-w / 100.0), 0.0, math.inf)


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
        lam = Multiplier(fn=lambda w: 0.5 + 1.0 / (1.0 + w), sup_bound=1.5,
                         breakpoints=None)
        res = dist.essinf_estimate(lam, HALF)
        assert res.verdict == "well_posed_candidate"
        assert res.value == pytest.approx(0.5, rel=1e-3)


def _counted(lam):
    calls = [0]

    def fn(x):
        calls[0] += 1
        return lam.fn(x)
    return dataclasses.replace(lam, fn=fn), calls


class TestCallsPerGrid:
    """Each grid is one call of the multiplier, however many points it has."""

    @pytest.mark.parametrize("model_id", [m for m in gallery.MODEL_IDS
                                          if gallery.make(m).kind == "multiplier"])
    def test_essinf_calls_once_per_refinement(self, model_id):
        model = gallery.make(model_id)
        lam, calls = _counted(model.multiplier)
        dist.essinf_estimate(lam, model.measure)
        assert 0 < calls[0] <= (dist.ESSINF_DOUBLINGS + 1) * 7

    def test_numeric_curve_calls_do_not_grow_with_the_grid(self):
        model = gallery.make("parabolic_source")
        counts = []
        for points in (60, 120):
            lam, calls = _counted(model.multiplier)
            grid = geometric_grid(model.eps_max, model.eps_max * 2.0 ** -59,
                                  points)
            dist.phi_curve(lam, model.measure, grid, method="numeric")
            counts.append(calls[0])
        # the ladder and about 45 halvings, not a search per point
        assert counts[0] < 100
        assert abs(counts[1] - counts[0]) <= 3
