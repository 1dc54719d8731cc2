import json
import math
import tracemalloc
import warnings

import pytest

from illposed import cli, counting, discretize, distribution, gallery
from illposed.core import geometric_grid


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gallery_list(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    for model_id in ("hausdorff", "multiplier_a1", "backward_heat",
                     "counterexample_sin2"):
        assert model_id in out


def test_analyze_json_schema_and_severity(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "hausdorff",
                       "--eps-min", "1e-12", "--eps-max", "0.99",
                       "--points", "60", "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "severe"
    for key in ("model", "params", "eps_grid", "log_phi", "ratios",
                "interval", "classification", "diagnostics"):
        assert key in payload
    assert len(payload["eps_grid"]) == 60
    assert set(payload["interval"]) == {"A", "B"}


def test_analyze_degree_with_params(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "multiplier_a1",
                       "--param", "s=2", "--eps-min", "1e-10",
                       "--eps-max", "0.99", "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "moderate"
    assert abs(payload["degree"] - 2.0) <= 0.05


def test_analyze_csv_columns(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "multiplier_b",
                       "--param", "s=1", "--eps-min", "1e-8",
                       "--eps-max", "0.9", "--points", "30",
                       "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,log_phi,ratio"
    assert len(lines) == 31


def test_byte_identical_reruns(capsys):
    args = ("analyze", "--model", "inverse_laplacian", "--param", "d=2",
            "--eps-min", "1e-9", "--eps-max", "0.9", "--emit", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args_csv = args[:-1] + ("csv",)
    _, first, _ = run(capsys, *args_csv)
    _, second, _ = run(capsys, *args_csv)
    assert first == second


def test_analyze_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--model", "multiplier_c",
                       "--param", "s=0.5", "--eps-min", "1e-10",
                       "--eps-max", "0.99", "--emit", "json",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["classification"] == "mild"


def test_unknown_model_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--model", "cesaro"])
    assert exc.value.code == 2


def test_bad_param_value_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--model", "multiplier_a1",
                       "--param", "s=-1")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_param_is_usage_error(capsys, value):
    code, _, err = run(capsys, "analyze", "--model", "multiplier_b",
                       "--param", f"s={value}")
    assert code == 2
    assert "finite" in err


DIMENSION_MODELS = ("multivariate_integration", "sobolev_embedding", "weyl",
                    "inverse_laplacian", "gaussian_kernel", "laplace_kernel",
                    "parabolic_source")


@pytest.mark.parametrize("model", DIMENSION_MODELS)
@pytest.mark.parametrize("value", ["inf", "nan", "0.5", "2.5"])
def test_bad_integer_dimension_is_usage_error(capsys, model, value):
    code, _, err = run(capsys, "analyze", "--model", model,
                       "--param", f"d={value}")
    assert code == 2
    assert err.startswith("error: parameter d must be a finite integer >= 1")
    assert "Traceback" not in err


def test_integral_float_dimension_is_accepted(capsys):
    outs = [run(capsys, "analyze", "--model", "gaussian_kernel",
                "--param", f"d={value}") for value in ("2", "2.0")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


@pytest.mark.parametrize("model,trim", [
    *(pytest.param("fractional_line", t, id=t)
      for t in ("-1", "nan", "inf", "-inf")),
    # a sigma model, which takes no trim, and a counting-law model
    ("riemann_liouville", "nan"), ("weyl", "-3")])
def test_invalid_trim_is_usage_error(capsys, model, trim):
    code, out, err = run(capsys, "analyze", "--model", model,
                         f"--trim={trim}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: trim must be a finite radius >= 0")


def test_unknown_param_key_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--model", "laplace_kernel",
                       "--param", "q=1")
    assert code == 2
    assert "'q'" in err and "a, b, d" in err


def test_trimmed_closed_form_with_empty_superlevel_sets(capsys):
    # the superlevel set lies inside the trimmed ball at coarse eps
    code, out, err = run(capsys, "analyze", "--model", "hausdorff",
                         "--trim", "1")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["log_phi"][0] == "-inf"
    assert payload["classification"] == "severe"
    assert payload["diagnostics"]["essinf_verdict"] == "ill_posed"
    assert payload["matches_expected"] is True


def test_check_unknown_criterion_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--only", "99")
    assert code == 2
    assert out == ""
    assert "99" in err and "1, 2, 3, 4, 5, 6, 7, 8, 9, 10" in err


def test_rearrange_decreasing(capsys):
    code, out, _ = run(capsys, "rearrange", "--model", "hausdorff",
                       "--mode", "decreasing", "--t-min", "1",
                       "--t-max", "10", "--points", "10",
                       "--eps-min", "1e-10", "--eps-max", "0.99",
                       "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    # lambda*(1) inverts Phi(tau) = 1 at 2 pi exp(-pi)
    assert payload["t"][0] == 1.0
    assert abs(payload["lambda_star"][0] - 2 * math.pi * math.exp(-math.pi)) \
        < 2e-3


@pytest.mark.parametrize("bounds", [("-1", "100"), ("1", "inf"),
                                    ("0", "100"), ("10", "1"), ("nan", "1")])
def test_rearrange_range_is_checked(capsys, bounds):
    code, out, err = run(capsys, "rearrange", "--model", "hausdorff",
                         "--t-min", bounds[0], "--t-max", bounds[1])
    assert code == 2
    assert out == ""
    assert "--t-min" in err and "--t-max" in err


@pytest.mark.parametrize("points", ["0", "-2"])
def test_rearrange_needs_a_point(capsys, points):
    code, out, err = run(capsys, "rearrange", "--model", "hausdorff",
                         "--points", points)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --points must be >= 1")


@pytest.mark.parametrize("command", ["analyze", "rearrange"])
@pytest.mark.parametrize("model", gallery.MODEL_IDS)
@pytest.mark.parametrize("terms", ["0", "-3"])
def test_sigma_terms_below_one_names_the_flag(capsys, command, model, terms):
    # sigma models used to fail on an empty sequence, multiplier models
    # ignored the value
    code, out, err = run(capsys, command, "--model", model,
                         "--sigma-terms", terms)
    assert code == 2
    assert out == ""
    assert err == f"error: --sigma-terms must be >= 1, got {terms}\n"


def test_rearrange_one_point(capsys):
    code, out, err = run(capsys, "rearrange", "--model", "hausdorff",
                         "--points", "1")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["t"] == [0.01] and len(payload["lambda_star"]) == 1


def test_rearrange_has_no_increasing_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rearrange", "--model", "hausdorff", "--mode", "increasing"])
    assert exc.value.code == 2
    assert "invalid choice: 'increasing'" in capsys.readouterr().err


def test_rearrange_inverts_the_counting_curve_of_few_terms(capsys):
    # 16 singular values leave the estimator 9 corners, too few for a
    # window; the counting curve is inverted all the same
    code, out, err = run(capsys, "rearrange", "--model", "riemann_liouville",
                         "--sigma-terms", "16", "--emit", "json")
    assert code == 0, err
    payload = json.loads(out)
    model = gallery.make("riemann_liouville")
    phi = counting.counting_curve(
        model.sigma_sequence(16),
        geometric_grid(model.eps_max, model.eps_max * 2.0 ** -59, 400))
    want = distribution.decreasing_rearrangement(phi, payload["t"])
    assert payload["lambda_star"] == want.tolist()


@pytest.mark.parametrize("model", ["hausdorff", "riemann_liouville"])
def test_rearrange_runs_no_estimator(capsys, monkeypatch, model):
    def boom(*args, **kwargs):
        raise AssertionError("rearrange ran the estimator")

    monkeypatch.setattr(counting, "estimate_curve", boom)
    code, _, err = run(capsys, "rearrange", "--model", model)
    assert code == 0, err


@pytest.mark.parametrize("flags", [("--trim", "1"), ("--method", "numeric"),
                                   ("--method", "closed")])
def test_sigma_model_takes_no_trim_and_no_method(capsys, flags):
    code, out, err = run(capsys, "analyze", "--model", "riemann_liouville",
                         *flags)
    assert code == 2
    assert out == ""
    assert "takes no trim and no method" in err


def test_reweight_hausdorff(capsys):
    code, out, _ = run(capsys, "reweight", "--model", "hausdorff",
                       "--density", "exp-pi", "--eps-min", "1e-8",
                       "--eps-max", "1e-2", "--points", "40",
                       "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    got = math.exp(payload["log_phi"][0])
    assert got == pytest.approx(1e2 - 1 / (2 * math.pi), rel=1e-8)
    # reweighting masks the severity: the curve now looks like 1/eps,
    # i.e. moderate of degree 1/2, which is why the measure must stay fixed
    assert payload["classification"] == "moderate"
    assert abs(payload["ratios"][-1][1] - 0.5) < 0.01


def test_reweight_with_too_few_samples_is_a_numerical_failure(capsys):
    code, out, err = run(capsys, "reweight", "--model", "hausdorff",
                         "--density", "exp-pi", "--points", "5")
    assert code == 1
    assert out == ""
    assert "need at least 10 samples" in err


def test_reweight_down_to_the_smallest_subnormal_eps_never_prints_inf(capsys):
    # the superlevel sets stay finite (radius 237.5 at 5e-324); the mass
    # exp(pi x) / 2 beyond the float range is a numerical failure
    code, out, err = run(capsys, "reweight", "--model", "hausdorff",
                         "--density", "exp-pi", "--eps-min", "5e-324",
                         "--emit", "csv")
    assert code == 1
    assert '"inf"' not in out
    assert err.startswith("numerical failure")


@pytest.mark.parametrize("model, density", [("hausdorff", "exp-pi"),
                                            ("backward_heat", "exp-t-k2")])
def test_density_beyond_the_float_range_is_named(capsys, model, density):
    # at 5e-324 the density reaches exp(746) (hausdorff) and exp(729)
    # (backward_heat); the mass is beyond the float range, not infinite
    code, out, err = run(capsys, "reweight", "--model", model,
                         "--density", density, "--eps-min", "5e-324")
    assert code == 1
    assert out == ""
    assert err.startswith("numerical failure: FloatingPointError: "
                          "the density leaves the float range at ")


@pytest.mark.parametrize("method", ["auto", "numeric"])
@pytest.mark.parametrize("model", ["hausdorff", "multiplier_b",
                                   "gaussian_kernel", "backward_heat"])
def test_severe_models_down_to_the_smallest_subnormal_eps(capsys, model,
                                                          method):
    # ln(1/eps) overflows below eps = 5.6e-309; -ln eps does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", "--model", model,
                             "--method", method, "--eps-min", "5e-324")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["classification"] == "severe"
    assert payload["finiteness"] == "finite"
    assert all(math.isfinite(v) for v in payload["log_phi"])
    assert payload["matches_expected"] is True


def test_sigma_report_diagnostics_come_from_the_one_estimator(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "riemann_liouville",
                       "--param", "alpha=0.5")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["diagnostics"]) == [
        "power_slope", "power_rms_rel", "log_exponent", "log_rms_rel",
        "trend", "drift"]
    # -ln sigma_n = alpha ln n against ln n: the slope is the degree
    assert payload["diagnostics"]["power_slope"] == pytest.approx(0.5)
    assert payload["degree"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("model, terms, degree, tol", [
    ("riemann_liouville", "16", 1.0, 1e-12),
    ("riemann_liouville", "8", 1.0, 1e-12),
    ("sobolev_embedding", "16", 1.0, 1e-12),
    ("sobolev_embedding", "8", 1.0, 1e-12),
    # the finite-window bias of the slowly converging law (the limit is 1);
    # at 7 terms the log law fits its 5 corners better, but their ratios
    # fall, which rules it out
    ("multivariate_integration", "8", 0.55, 0.01),
    ("multivariate_integration", "7", 0.52, 0.01)])
def test_short_sigma_law_windows_are_read_by_the_fits(capsys, model, terms,
                                                      degree, tol):
    # 9 and 5 corners: fewer than the ratio classifier's 10, enough for a fit
    code, out, err = run(capsys, "analyze", "--model", model,
                         "--sigma-terms", terms)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["classification"] == "moderate"
    assert payload["degree"] == pytest.approx(degree, abs=tol)


@pytest.mark.parametrize("model, terms, corners", [
    ("riemann_liouville", "3", 2),
    ("riemann_liouville", "4", 3),
    ("multivariate_integration", "4", 3),
    ("sobolev_embedding", "6", 4)])
def test_short_corner_windows_leave_no_window(capsys, model, terms, corners):
    # on 3 corners of multivariate_integration the log law fits better than
    # the power law: fewer than 5 corners decide nothing
    code, out, err = run(capsys, "analyze", "--model", model,
                         "--sigma-terms", terms)
    assert (code, out) == (1, "")
    assert f"need at least 5 samples, got {corners}" in err


WEYL = ("analyze", "--model", "weyl", "--param", "p=3", "--param", "d=2",
        "--param", "c=2", "--eps-min", "1e-12", "--eps-max", "0.9",
        "--points", "40", "--emit", "json")


def test_weyl_numeric_search_agrees_with_its_closed_form(capsys):
    _, out, _ = run(capsys, *WEYL)
    closed = json.loads(out)
    code, out, _ = run(capsys, *WEYL, "--method", "numeric")
    assert code == 0
    numeric = json.loads(out)
    # the search ran: bisection moves last digits, never more than 1e-6
    assert numeric["log_phi"] != closed["log_phi"]
    assert numeric["log_phi"] == pytest.approx(closed["log_phi"], abs=1e-6)
    assert numeric["classification"] == closed["classification"] == "moderate"


def test_weyl_trim_removes_the_pole_interval(capsys):
    code, out, _ = run(capsys, *WEYL, "--trim", "1")
    assert code == 0
    payload = json.loads(out)
    # Phi = 2 eps^(-1/3) on [0, inf); the trim takes away [0, 1)
    for eps, log_phi in zip(payload["eps_grid"], payload["log_phi"]):
        assert math.exp(log_phi) == pytest.approx(2.0 * eps ** (-1.0 / 3.0)
                                                  - 1.0, rel=1e-9)
    assert payload["diagnostics"]["trim"] == 1.0


def test_reweight_density_model_mismatch(capsys):
    code, _, err = run(capsys, "reweight", "--model", "multiplier_a1",
                       "--density", "exp-pi")
    assert code == 2
    assert "hausdorff" in err


REPORT_KEYS = ["eps_grid", "log_phi", "ratios", "interval", "classification",
               "degree", "expected", "matches_expected", "finiteness",
               "diagnostics"]


def _reweight_estimate():
    model = gallery.make("hausdorff")
    grid = geometric_grid(model.eps_max, model.eps_max * 1e-8)
    curve = distribution.reweight(model.multiplier, model.measure,
                                  lambda w: 0.5 * math.exp(math.pi * w), grid)
    interval, degree, _ = counting.estimate_curve(curve)
    return interval, degree


@pytest.mark.parametrize("argv, header, library", [
    (("analyze", "--model", "multiplier_a1", "--param", "s=2"),
     ["model", "params"],
     lambda: gallery.analyze(gallery.make("multiplier_a1", s=2))),
    (("reweight", "--model", "hausdorff", "--density", "exp-pi"),
     ["model", "density"], _reweight_estimate),
    (("discretize", "--operator", "j_alpha", "--n", "256"),
     ["operator", "n", "alpha", "sigma"],
     lambda: discretize.pipeline_from_matrix(
         discretize.riemann_liouville_section(1.0, 256), operator="j_alpha")),
], ids=["analyze", "reweight", "discretize"])
def test_every_command_emits_the_one_report(capsys, argv, header, library):
    code, out, _ = run(capsys, *argv, "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == header + REPORT_KEYS
    got = library()
    interval, degree = got if isinstance(got, tuple) else (got.interval,
                                                           got.degree)
    assert payload["interval"] == {"A": interval.lower, "B": interval.upper}
    assert payload["classification"] == interval.classification
    assert payload["degree"] == degree


def test_discretize_json(capsys):
    code, out, _ = run(capsys, "discretize", "--operator", "j_alpha",
                       "--alpha", "1.0", "--n", "512", "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "moderate"
    assert abs(payload["degree"] - 1.0) < 0.05
    assert payload["sigma"][0] == pytest.approx(2.0 / math.pi, rel=1e-5)


def test_discretize_hilbert_csv(capsys):
    code, out, _ = run(capsys, "discretize", "--operator", "hilbert",
                       "--n", "64", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sigma"
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(2.1161, abs=1e-3)


def test_fft_multiplier_csv(capsys):
    code, out, _ = run(capsys, "fft-multiplier", "--kernel", "gaussian",
                       "--L", "12", "--N", "256", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,lambda"
    values = {float(a): float(b) for a, b in
              (line.split(",") for line in lines[1:])}
    assert values[0.0] == pytest.approx(math.pi, abs=1e-8)


def test_fft_multiplier_laplace_kernel(capsys):
    code, out, _ = run(capsys, "fft-multiplier", "--kernel", "laplace",
                       "--a", "1.0", "--b", "1.0", "--L", "60",
                       "--N", "4096", "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    idx = payload["omega"].index(0.0)
    # h = exp(-|x|): transform 2/(1+w^2), lambda(0) = 4
    assert payload["lambda"][idx] == pytest.approx(4.0, rel=1e-3)


def test_config_overrides_thresholds(tmp_path, capsys):
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text("tau_mild = 0.9\n")
    # with tau_mild raised to 0.9 a degree-1 power law classifies as mild
    code, out, _ = run(capsys, "analyze", "--model", "inverse_laplacian",
                       "--param", "d=4", "--eps-min", "1e-10",
                       "--eps-max", "0.9", "--emit", "json",
                       "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["classification"] == "mild"


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "hausdorff"],
    ["reweight", "--model", "hausdorff", "--density", "exp-pi"],
    ["discretize", "--operator", "j_alpha", "--n", "64"]],
    ids=["analyze", "reweight", "discretize"])
def test_config_rejects_unknown_key(tmp_path, capsys, argv):
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text("tau_wild = 1\n")
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert "tau_wild" in err


@pytest.mark.parametrize("argv", [
    ["fft-multiplier", "--kernel", "gaussian", "--L", "12", "--N", "8"],
    ["rearrange", "--model", "hausdorff"]], ids=["fft-multiplier", "rearrange"])
def test_config_only_where_thresholds_are_read(tmp_path, capsys, argv):
    # the file is never opened: a missing one is as much a usage error
    for cfg in (tmp_path / "missing.cfg", tmp_path / "thresholds.cfg"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
        cfg.write_text("tau_mild = 0.9\n")
        assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "window_fraction = inf", "window_fraction = 1e308",
    "window_fraction = nan", "window_fraction = 0", "window_fraction = -1",
    "window_fraction = 2", "window_fraction = one third", "tau_mild = 60",
    "tau_mild = 0", "tau_severe = -inf", "tau_collapse = 0",
    "drift_tol = -0.1", "residual_tol = -1e-3"])
def test_config_rejects_bad_values(tmp_path, capsys, line):
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "analyze", "--model", "hausdorff",
                         "--config", str(cfg))
    assert code == 2
    assert out == ""
    # the requirement that failed names the key
    assert line.split()[0] in err.split(", got")[0]


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_directory_path_is_usage_error(tmp_path, capsys, flag):
    code, out, err = run(capsys, "analyze", "--model", "hausdorff",
                         flag, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err
    assert "numerical failure" not in err


def test_internal_failure_maps_to_exit_one(capsys, monkeypatch):
    from illposed import gallery

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic numerical failure")

    monkeypatch.setattr(gallery, "analyze", boom)
    code, _, err = run(capsys, "analyze", "--model", "hausdorff")
    assert code == 1
    assert "numerical failure" in err


def test_too_few_samples_is_a_numerical_failure(capsys):
    code, _, err = run(capsys, "analyze", "--model", "hausdorff",
                       "--points", "3")
    assert code == 1
    assert "need at least 10 samples, got 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--a=nan", "--b=0", "--b=-1", "--b=inf",
                                  "--L=inf", "--L=nan"])
def test_bad_kernel_numbers_are_usage_errors(capsys, flag):
    code, _, err = run(capsys, "fft-multiplier", "--kernel", "laplace",
                       "--L=8", "--N=64", flag)
    assert code == 2
    assert err.startswith("error:")


def test_kernel_too_large_for_its_transform_is_a_numerical_failure(capsys):
    code, _, err = run(capsys, "fft-multiplier", "--kernel", "gaussian",
                       "--L=1e300", "--N=8")
    assert code == 1
    assert "FloatingPointError" in err


def test_check_subset_runs_and_reports(capsys):
    code, out, _ = run(capsys, "check", "--only", "1,7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert all(l.startswith("[PASS]") for l in lines)
    assert "checks passed" in out


def test_check_full_reports_known_failures(capsys):
    # three checks are failing by construction (see README); the exit code
    # must reflect them and nothing else may fail
    code, out, _ = run(capsys, "check")
    assert code == 1
    failing = [l for l in out.splitlines() if l.startswith("[FAIL]")]
    assert sorted(l.split()[1] for l in failing) == ["4a", "5a", "6c"]


@pytest.mark.parametrize("t_bar", ["1e-308", "5e-324"])
def test_backward_heat_past_the_float_range_reports(capsys, t_bar):
    code = cli.main(["analyze", "--model", "backward_heat", "--param",
                     f"t_bar={t_bar}"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "severe"


def test_numeric_scan_past_its_point_limit_fails_at_once(capsys):
    # at t_bar = 1e-16 the scan would enumerate 1.3e9 integers
    tracemalloc.start()
    try:
        code = cli.main(["analyze", "--model", "backward_heat", "--param",
                         "t_bar=1e-16", "--method", "numeric"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert "needs 1.28e+09 points" in err and str(distribution.SCAN_POINTS) in err
    # bytes: far below the 8 bytes per point that one scan array takes
    assert peak < distribution.SCAN_POINTS
