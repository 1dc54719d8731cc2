import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from illposed import counting, gallery
from illposed.core import Multiplier, geometric_grid
from illposed import distribution as dist


DEEP = geometric_grid(0.99, 1e-10, 60)


class TestConstructors:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown model"):
            gallery.make("cesaro")

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            gallery.make("multiplier_a1", s=-1.0)
        with pytest.raises(ValueError):
            gallery.make("riemann_liouville", alpha=0.0)

    def test_a_model_holds_one_kind_of_spectral_data(self):
        sigma = gallery.make("riemann_liouville")
        mult = gallery.make("hausdorff")
        assert (sigma.kind, mult.kind) == ("sigma", "multiplier")
        for bad in (dict(multiplier=mult.multiplier, measure=mult.measure),
                    dict(sigma_law=None), dict(measure=mult.measure)):
            with pytest.raises(ValueError, match="sigma_law or a multiplier"):
                replace(sigma, **bad)
        for bad in (dict(sigma_law=sigma.sigma_law), dict(measure=None),
                    dict(multiplier=None)):
            with pytest.raises(ValueError, match="sigma_law or a multiplier"):
                replace(mult, **bad)

    def test_hausdorff_peak_is_pi(self):
        model = gallery.make("hausdorff")
        assert model.multiplier.fn(0.0) == pytest.approx(math.pi)
        assert model.multiplier.sup_bound == math.pi

    def test_hausdorff_boundary_is_finite_at_the_smallest_subnormal(self):
        model = gallery.make("hausdorff")
        got = dist.superlevel_measure(model.multiplier, model.measure, 5e-324)
        want = (math.log(2.0 * math.pi) - math.log(5e-324)) / math.pi
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(237.5476, abs=1e-4)

    def test_backward_heat_evaluation(self):
        model = gallery.make("backward_heat", t_bar=2.0)
        assert model.multiplier.fn(2) == pytest.approx(math.exp(-8.0))
        assert model.multiplier.fn(-2) == pytest.approx(math.exp(-8.0))

    @pytest.mark.parametrize("t_bar", [1e-50, 1e-300])
    def test_backward_heat_count_past_the_float_mantissa(self, t_bar):
        # -ln(eps)/t is far beyond 2^53 here, where a float square root
        # no longer pins the integer root
        model = gallery.make("backward_heat", t_bar=t_bar)
        for eps in (0.5, 1e-3, 1e-12):
            x = -math.log(eps) / t_bar
            k = math.isqrt(math.ceil(x) - 1)
            assert k * k < x <= (k + 1) ** 2
            assert model.multiplier.superlevel(eps) == float(2 * k + 1)

    @pytest.mark.parametrize("t_bar", [1e-308, 5e-324])
    def test_backward_heat_count_past_the_float_range(self, t_bar):
        # -ln(eps)/t overflows to inf; its root sqrt(-ln eps)/sqrt(t) does not
        model = gallery.make("backward_heat", t_bar=t_bar)
        for eps in (1e-3, 1e-12):
            assert -math.log(eps) / t_bar == math.inf
            root = math.sqrt(-math.log(eps)) / math.sqrt(t_bar)
            assert model.multiplier.superlevel(eps) == \
                2.0 * math.floor(root) + 1.0
            assert model.multiplier.cutoff_hint(eps) == math.ceil(root) + 2

    def test_parabolic_limit_at_origin(self):
        model = gallery.make("parabolic_source", diffusivity=1.0, t0=3.0, d=2)
        assert model.multiplier.fn(0.0) == pytest.approx(9.0)
        assert model.multiplier.fn(1e-9) == pytest.approx(9.0, rel=1e-6)

    def test_fractional_pole(self):
        model = gallery.make("fractional_line", s=1.0)
        assert model.multiplier.fn(0.0) == math.inf
        assert model.multiplier.fn(2.0) == pytest.approx(0.25)

    def test_laplace_expected_degree_records_radial_rate(self):
        model = gallery.make("laplace_kernel", a=1.5, b=1.0, d=2)
        assert model.expected.degree == pytest.approx(1.5)  # 2a/d
        # at d = 1 the radial rate matches the dimension-free reading 2a
        model = gallery.make("laplace_kernel", a=1.5, b=1.0, d=1)
        assert model.expected.degree == pytest.approx(3.0)

    def test_expected_degrees(self):
        assert gallery.make("multiplier_a1", s=2.0).expected.degree == 2.0
        assert gallery.make("parabolic_source", d=2).expected.degree == 1.0
        assert gallery.make("sobolev_embedding", p=2.0, d=4).expected.degree \
            == pytest.approx(0.5)

    def test_available_models_lists_everything(self):
        rows = gallery.available_models()
        ids = [r[0] for r in rows]
        assert set(ids) == set(gallery.MODEL_IDS)
        assert len(ids) == 17


class TestAnalyzeDispatch:
    def test_sigma_path(self):
        rep = gallery.analyze(gallery.make("riemann_liouville", alpha=0.5),
                              n_terms=2048)
        assert rep.classification == "moderate"
        assert rep.degree == pytest.approx(0.5, abs=1e-6)
        assert rep.matches_expected
        assert rep.phi.source == "counting"

    def test_multiplier_path(self):
        rep = gallery.analyze(gallery.make("multiplier_a1", s=1.0), grid=DEEP)
        assert rep.classification == "moderate"
        assert rep.degree == pytest.approx(1.0, abs=0.01)
        assert rep.phi.source == "superlevel"
        assert rep.diagnostics["essinf_verdict"] == "ill_posed"

    def test_phi_path(self):
        rep = gallery.analyze(gallery.make("inverse_laplacian", d=4), grid=DEEP)
        assert rep.phi.source == "superlevel"
        assert rep.degree == pytest.approx(0.5, abs=1e-6)
        assert rep.diagnostics["essinf_verdict"] == "ill_posed"

    def test_fractional_closed_form_value(self):
        model = gallery.make("fractional_line", s=0.75)
        got = dist.superlevel_measure(model.multiplier, model.measure, 1e-3)
        assert got == pytest.approx(2.0 * 1e-3 ** (-2.0 / 3.0), rel=1e-12)
        rep = gallery.analyze(model, grid=DEEP)
        assert rep.degree == pytest.approx(0.75, abs=0.01)

    def test_counterexamples_flow_through(self):
        rep = gallery.analyze(gallery.make("counterexample_const", c=0.5),
                              grid=geometric_grid(0.45, 1e-4, 20))
        assert rep.classification == "indeterminate"
        assert rep.phi.finiteness == "non_informative"
        assert rep.diagnostics["essinf_verdict"] == "well_posed_candidate"
        assert rep.matches_expected

    def test_multivariate_mismatch_is_reported_honestly(self):
        rep = gallery.analyze(gallery.make("multivariate_integration", d=3),
                              n_terms=4096)
        # limit degree is 1; the finite window sits far below it
        assert rep.expected.degree == 1.0
        assert not rep.matches_expected
        assert rep.degree < 0.9


class TestCurve:
    @pytest.mark.parametrize("model_id", gallery.MODEL_IDS)
    def test_analyze_shows_the_curve(self, model_id):
        model = gallery.make(model_id)
        grid = geometric_grid(model.eps_max, model.eps_max * 1e-12, 40)
        shown = gallery.analyze(model, grid=grid, run_essinf=False).phi
        phi = gallery.curve(model, grid)
        for name in ("eps_grid", "log_phi"):  # bit for bit
            assert getattr(shown, name).tobytes() == getattr(phi, name).tobytes()

    @pytest.mark.parametrize("model_id", ["riemann_liouville", "hausdorff"])
    def test_default_grid(self, model_id):
        model = gallery.make(model_id)
        eps = gallery.curve(model).eps_grid
        assert eps.size == 60
        assert (eps[0], eps[-1]) == (model.eps_max, model.eps_max * 2.0 ** -59)


class TestGalleryInvariants:
    def test_weyl_consistency(self):
        inv = gallery.make("inverse_laplacian", d=3)
        wey = gallery.make("weyl", p=2.0, d=3, c=1.0)
        grid = geometric_grid(0.9, 1e-9, 40)
        a = dist.phi_curve(inv.multiplier, inv.measure, grid).log_phi
        b = dist.phi_curve(wey.multiplier, wey.measure, grid).log_phi
        assert a.tolist() == pytest.approx(b.tolist(), abs=1e-15)

    def test_weyl_log_superlevel_hook(self):
        log_phi = gallery.weyl(p=2.0, d=4, c=2.0).multiplier.log_superlevel
        # Phi = 2 eps^(-1): degree 1/2
        assert log_phi(1e-4) == pytest.approx(math.log(2.0) + math.log(1e4))

    def test_inner_zero_is_negligible(self):
        deg_a2 = gallery.analyze(gallery.make("multiplier_a2"),
                                 grid=geometric_grid(0.495, 1e-10, 60)).degree
        deg_a1 = gallery.analyze(gallery.make("multiplier_a1", s=1.0),
                                 grid=DEEP).degree
        assert abs(deg_a2 - deg_a1) <= 0.05

    def test_pole_removal_leaves_degree(self):
        for model_id, params, target in (
                ("fractional_line", {"s": 0.75}, 0.75),
                ("parabolic_source", {"d": 2}, 1.0)):
            rep = gallery.analyze(gallery.make(model_id, **params),
                                  grid=geometric_grid(0.99, 1e-12, 60),
                                  trim=1.0, run_essinf=False)
            assert rep.degree == pytest.approx(target, abs=0.05)

    def test_multiplier_scaling_shifts_the_grid(self):
        # Phi_{c lambda}(c eps) = Phi_lambda(eps)
        model = gallery.make("multiplier_a1", s=1.0)
        lam = model.multiplier
        c = 7.0
        scaled = Multiplier(fn=lambda w: c * lam.fn(w),
                            sup_bound=c * lam.sup_bound)
        for eps in (0.5, 1e-2, 1e-5):
            a = dist.superlevel_measure(scaled, model.measure, c * eps,
                                        method="numeric")
            b = dist.superlevel_measure(lam, model.measure, eps)
            assert a == pytest.approx(b, rel=1e-9)

    def test_scaling_leaves_interval_estimates(self):
        model = gallery.make("multiplier_a1", s=1.0)
        lam = model.multiplier
        c = 5.0
        scaled = Multiplier(fn=lambda w: c * lam.fn(w),
                            sup_bound=c * lam.sup_bound,
                            boundary=lambda e: lam.boundary(e / c))
        grid = geometric_grid(c * 0.99, c * 1e-10, 60)
        phi = dist.phi_curve(scaled, model.measure, grid)
        from illposed.counting import interval_from_counting
        from illposed.estimate import regression_estimate
        iv = interval_from_counting(phi)
        assert iv.classification == "moderate"
        assert regression_estimate(phi) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("model_id,params", [
        ("multiplier_a1", {"s": 0.7}), ("multiplier_a2", {}),
        ("multiplier_b", {"s": 2.0}), ("hausdorff", {}),
        ("fractional_line", {"s": 1.0}), ("backward_heat", {"t_bar": 0.5}),
    ])
    def test_closed_form_superlevels_are_nonincreasing(self, model_id, params):
        model = gallery.make(model_id, **params)
        grid = geometric_grid(model.eps_max, 1e-9, 50)
        vals = [dist.log_superlevel_measure(model.multiplier, model.measure,
                                            float(e), method="closed")
                for e in grid]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(a <= b + 1e-12 for a, b in zip(finite, finite[1:]))

    def test_finite_diverging_curves_are_flagged_ill_posed(self):
        # every model whose curve is finite with Phi -> infinity must also
        # trip the essential-infimum detector
        cases = [("multiplier_a1", {"s": 1.0}), ("multiplier_b", {"s": 1.0}),
                 ("hausdorff", {}), ("gaussian_kernel", {"d": 1}),
                 ("backward_heat", {"t_bar": 1.0})]
        for model_id, params in cases:
            model = gallery.make(model_id, **params)
            res = dist.essinf_estimate(model.multiplier, model.measure)
            assert res.verdict == "ill_posed", model_id


# points on which every multiplier is compared with its scalar values, plus
# each model's edge points
POINTS = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 41), [250.0, 1e4]])
EDGES = {
    "fractional_line": ([0.0, -0.0], [math.inf, math.inf]),
    "hausdorff": ([700.0 / math.pi + 1e-9, 1e3, 1e300], [0.0, 0.0, 0.0]),
    "parabolic_source": ([0.0], [1.0]),  # t0^2
    "multiplier_c": ([0.0, 0.5, 1.0, 2.7], [1.0, 1.0, 1.0, 1.0]),
}


def _bridge(name):
    """The multiplier of one of the two bridges from a curve or sequence."""
    if name == "step_multiplier_from_sigma":
        seq = gallery.make("riemann_liouville").sigma_sequence(64)
        return counting.step_multiplier_from_sigma(seq)[0]
    model = gallery.make("hausdorff")
    return dist.rearrangement_multiplier(gallery.curve(model))[0]


SHAPES = {"backward_heat": "discrete", "counterexample_sin2": "generic_sampled",
          "counterexample_const": "generic_sampled"}
MULTIPLIER_IDS = [m for m in gallery.MODEL_IDS
                  if gallery.make(m).kind == "multiplier"]


@pytest.mark.parametrize("name", MULTIPLIER_IDS + [
    "step_multiplier_from_sigma", "rearrangement_multiplier"])
def test_shape_is_read_off_the_data(name):
    # a cutoff_hint means the integer scan, breakpoints=None the sampled
    # sums, anything else the monotone branches
    lam = (gallery.make(name).multiplier if name in MULTIPLIER_IDS
           else _bridge(name))
    assert lam.shape == SHAPES.get(name, "monotone_tail")
    with pytest.raises(AttributeError):
        lam.shape = "discrete"


@pytest.mark.parametrize("model_id", MULTIPLIER_IDS)
def test_array_callback_matches_its_scalar_values(model_id):
    lam = gallery.make(model_id).multiplier
    if lam.shape == "discrete":
        points = np.arange(-60, 61)
        scalars = [lam.fn(int(k)) for k in points]
    else:
        edge, want = EDGES.get(model_id, ([], []))
        points = np.concatenate([POINTS, -POINTS, edge])
        scalars = [lam.fn(float(w)) for w in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = lam.fn(points)
    assert isinstance(values, np.ndarray) and values.shape == points.shape
    scalars = np.array(scalars, dtype=float)
    finite = np.isfinite(scalars)
    np.testing.assert_array_equal(values[~finite], scalars[~finite])
    np.testing.assert_array_max_ulp(values[finite], scalars[finite], maxulp=1)
    if lam.shape != "discrete" and edge:
        np.testing.assert_array_equal(values[-len(edge):], want)
