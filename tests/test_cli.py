import json
import math

import pytest

from illposed import cli


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
@pytest.mark.parametrize("value", ["inf", "nan", "0.5"])
def test_bad_integer_dimension_is_usage_error(capsys, model, value):
    code, _, err = run(capsys, "analyze", "--model", model,
                       "--param", f"d={value}")
    assert code == 2
    assert err.startswith("error: parameter d") and "Traceback" not in err


@pytest.mark.parametrize("model,trim", [
    *(pytest.param("fractional_line", t, id=t)
      for t in ("-1", "nan", "inf", "-inf")),
    # a sigma and a phi model, which never use the trim
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


def test_rearrange_increasing_requires_unit_interval(capsys):
    code, _, err = run(capsys, "rearrange", "--model", "hausdorff",
                       "--mode", "increasing")
    assert code == 2
    assert "unit interval" in err


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


def test_reweight_density_model_mismatch(capsys):
    code, _, err = run(capsys, "reweight", "--model", "multiplier_a1",
                       "--density", "exp-pi")
    assert code == 2
    assert "hausdorff" in err


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


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "thresholds.cfg"
    cfg.write_text("tau_wild = 1\n")
    code, _, err = run(capsys, "analyze", "--model", "hausdorff",
                       "--config", str(cfg))
    assert code == 2
    assert "tau_wild" in err


def test_internal_failure_maps_to_exit_one(capsys, monkeypatch):
    from illposed import gallery

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic numerical failure")

    monkeypatch.setattr(gallery, "analyze", boom)
    code, _, err = run(capsys, "analyze", "--model", "hausdorff")
    assert code == 1
    assert "numerical failure" in err


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
