import math

import numpy as np
import pytest

from illposed import gallery
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

    def test_hausdorff_peak_is_pi(self):
        model = gallery.make("hausdorff")
        assert model.multiplier(0.0) == pytest.approx(math.pi)
        assert model.multiplier.sup_bound == math.pi

    def test_backward_heat_evaluation(self):
        model = gallery.make("backward_heat", t_bar=2.0)
        assert model.multiplier(2) == pytest.approx(math.exp(-8.0))
        assert model.multiplier(-2) == pytest.approx(math.exp(-8.0))

    def test_parabolic_limit_at_origin(self):
        model = gallery.make("parabolic_source", diffusivity=1.0, t0=3.0, d=2)
        assert model.multiplier(0.0) == pytest.approx(9.0)
        assert model.multiplier(1e-9) == pytest.approx(9.0, rel=1e-6)

    def test_fractional_pole(self):
        model = gallery.make("fractional_line", s=1.0)
        assert model.multiplier(0.0) == math.inf
        assert model.multiplier(2.0) == pytest.approx(0.25)

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
        assert rep.phi.source == "weyl"
        assert rep.degree == pytest.approx(0.5, abs=1e-6)

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


class TestGalleryInvariants:
    def test_weyl_consistency(self):
        inv = gallery.make("inverse_laplacian", d=3)
        wey = gallery.make("weyl", p=2.0, d=3, c=1.0)
        grid = geometric_grid(0.9, 1e-9, 40)
        a = [inv.log_phi_form(float(e)) for e in grid]
        b = [wey.log_phi_form(float(e)) for e in grid]
        assert a == pytest.approx(b, abs=1e-15)

    def test_weyl_generic_theta_callable(self):
        log_phi = gallery.weyl_from_theta(lambda eps: eps ** -0.5, d=4, c=2.0)
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
        scaled = Multiplier(fn=lambda w: c * lam.fn(w), shape=lam.shape,
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
        scaled = Multiplier(fn=lambda w: c * lam.fn(w), shape=lam.shape,
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
