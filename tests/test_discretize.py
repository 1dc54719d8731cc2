import math
import warnings

import numpy as np
import pytest

from illposed.core import TruncationWarning
from illposed import cli
from illposed import discretize as dz


class TestHilbertMatrix:
    def test_small_section(self):
        h = dz.hilbert_matrix(2)
        assert np.allclose(h, [[1.0, 0.5], [0.5, 1.0 / 3.0]], rtol=0, atol=0)

    def test_three_by_three_spectrum(self):
        # oracle: symmetric eigensolve, independent of the SVD route
        h = dz.hilbert_matrix(3)
        eigs = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert eigs == pytest.approx([1.40831893, 0.12232707, 0.00268734],
                                     abs=1e-7)
        seq = dz.singular_values(h)
        assert seq.values == pytest.approx(eigs, rel=1e-12)

    def test_sigma_max_grows_slowly_below_pi(self):
        values = [dz.singular_values(dz.hilbert_matrix(n)).values[0]
                  for n in (16, 64, 256)]
        assert values[0] < values[1] < values[2] < math.pi


class TestRiemannLiouvilleMatrix:
    def test_alpha_one_entries(self):
        t = dz.riemann_liouville_matrix(1.0, 4)
        h = 0.25
        expected = np.tril(np.full((4, 4), h), -1) + np.eye(4) * (h / 2.0)
        assert np.allclose(t, expected, rtol=0, atol=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            dz.riemann_liouville_matrix(0.0, 8)
        with pytest.raises(ValueError):
            dz.riemann_liouville_matrix(-1.0, 8)

    def test_row_sums_match_collocation_points(self):
        n = 64
        t = dz.riemann_liouville_matrix(1.0, n)
        s = (np.arange(1, n + 1) - 0.5) / n
        h = 1.0 / n
        assert np.max(np.abs(t.sum(axis=1) - s)) <= h * h / 8.0

    def test_sigma_against_integration_operator(self):
        # oracle: sigma_n = 2 / ((2n-1) pi) for the unit-interval integration
        # operator; the midpoint sections deviate like ((2n-1) pi / 4N)^2 / 3
        seq = dz.singular_values(dz.riemann_liouville_matrix(1.0, 256))
        n = np.arange(1, 17)
        oracle = 2.0 / ((2 * n - 1) * math.pi)
        rel = np.abs(seq.values[:16] - oracle) / oracle
        assert rel.max() < 4e-3

    def test_weak_singularity_keeps_low_modes(self):
        seq = dz.singular_values(dz.riemann_liouville_matrix(0.5, 256))
        assert seq.values[0] > seq.values[10] > 0


class TestSingularValues:
    def test_identity(self):
        seq = dz.singular_values(np.eye(5))
        assert np.allclose(seq.values, np.ones(5), rtol=0, atol=0)
        assert seq.exhausted_flag

    def test_diagonal(self):
        seq = dz.singular_values(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(seq.values, [3.0, 2.0, 1.0])

    def test_drop_tolerance(self):
        seq = dz.singular_values(np.diag([1.0, 1e-20]))
        assert len(seq) == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dz.singular_values(np.array([[1.0, math.nan], [0.0, 1.0]]))

    def test_factorization_contract_on_random_matrices(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            rows = int(rng.integers(5, 200))
            cols = int(rng.integers(5, 200))
            m = rng.standard_normal((rows, cols))
            res = dz.svd_residuals(m)
            assert res["reconstruction"] <= 1e-10
            assert res["left_orth"] <= 1e-10
            assert res["right_orth"] <= 1e-10


GAUSS = dict(fn=lambda x: math.exp(-x * x), decay=lambda x: math.exp(-x * x))


class TestFftMultiplier:
    def test_dc_value_is_pi(self):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=12.0, N=4096, **GAUSS))
        at_zero = sampled.values[np.where(sampled.omega == 0.0)[0][0]]
        assert at_zero == pytest.approx(math.pi, abs=1e-8)

    def test_unit_frequency_value(self):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=12.0, N=4096, **GAUSS))
        # omega = 1 is off the dual lattice; the direct Riemann sum keeps
        # the full quadrature accuracy there
        assert sampled.value_at(1.0) \
            == pytest.approx(math.pi * math.exp(-0.5), rel=1e-6)
        analytic = math.pi * np.exp(-0.5 * sampled.omega ** 2)
        mask = np.abs(sampled.omega) <= 5.0
        rel = np.abs(sampled.values[mask] - analytic[mask]) / analytic[mask]
        assert rel.max() < 1e-6

    def test_plancherel(self):
        L, n = 12.0, 4096
        sampled = dz.fft_multiplier(dz.KernelSampler(L=L, N=n, **GAUSS))
        dx = 2 * L / n
        x = -L + dx * np.arange(n)
        h = np.exp(-x * x)
        lhs = np.sum(h * h) * dx
        rhs = np.sum(sampled.values) * (math.pi / L) / (2 * math.pi)
        assert abs(lhs - rhs) / lhs < 1e-8

    def test_real_even_kernel_gives_even_samples(self):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=8.0, N=256, **GAUSS))
        vals = sampled.values
        half = vals[1:]          # k = -N/2+1 .. N/2-1
        assert np.allclose(half, half[::-1], rtol=0, atol=1e-10 * vals.max())

    def test_refinement_halves_error_when_aliasing_dominates(self):
        # at N = 32 the alias images overlap the kept band (rel err ~1e-4);
        # doubling N moves them superexponentially far out, so the observed
        # error drops by far more than half before hitting the rounding floor
        errs = []
        for n in (32, 64):
            sampled = dz.fft_multiplier(dz.KernelSampler(L=12.0, N=n, **GAUSS))
            mask = np.abs(sampled.omega) <= 2.0
            analytic = math.pi * np.exp(-0.5 * sampled.omega[mask] ** 2)
            errs.append(float(np.max(
                np.abs(sampled.values[mask] - analytic) / analytic)))
        assert errs[0] > 1e-5  # aliasing really is the dominant term here
        assert errs[1] <= 0.5 * errs[0]

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            dz.KernelSampler(L=4.0, N=100, **GAUSS)

    def test_truncation_warning_when_envelope_violated(self):
        bad = dz.KernelSampler(fn=lambda x: 1.0 / (1.0 + abs(x)),
                               decay=lambda x: math.exp(-x * x),
                               L=6.0, N=64)
        with pytest.warns(TruncationWarning):
            dz.fft_multiplier(bad)


def _section_and_matrix(operator, alpha, n):
    if operator == "hilbert":
        return dz.hilbert_section(n), dz.hilbert_matrix(n)
    return (dz.riemann_liouville_section(alpha, n),
            dz.riemann_liouville_matrix(alpha, n))


def _no_dense(self):
    raise AssertionError("a certified section was made dense")


class TestSections:
    @pytest.mark.parametrize("operator,alpha", [("j_alpha", 0.5),
                                                ("j_alpha", 2.0),
                                                ("hilbert", None)])
    @pytest.mark.parametrize("n", [1, 7, 64, 129])
    def test_fft_products_match_the_dense_matrix(self, operator, alpha, n):
        section, dense = _section_and_matrix(operator, alpha, n)
        assert len(section) == n
        assert np.array_equal(section.dense(), dense)
        op = section.operator()
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        block = rng.standard_normal((n, 3))
        scale = np.abs(dense).sum(axis=1).max()
        for got, want in ((op.matvec(x), dense @ x),
                          (op.rmatvec(x), dense.T @ x),
                          (op.matmat(block), dense @ block),
                          (op.rmatmat(block), dense.T @ block)):
            assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_leading_values_match_the_dense_prefix(self, monkeypatch, alpha,
                                                   n):
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.riemann_liouville_section(alpha, n))
        dense = np.linalg.svd(dz.riemann_liouville_matrix(alpha, n),
                              compute_uv=False)
        assert seq.method == "propack"
        assert len(seq) == n // 8 and seq.kept == n
        assert not seq.exhausted_flag
        assert seq.values == pytest.approx(dense[:n // 8], rel=1e-12)

    @pytest.mark.parametrize("n,kept", [(256, 21), (512, 23), (1024, 26)])
    def test_hilbert_kept_counts_match_dense(self, monkeypatch, n, kept):
        dense = dz.singular_values(dz.hilbert_matrix(n))
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.hilbert_section(n))
        assert seq.method == "eigsh"
        assert len(seq) == seq.kept == len(dense) == kept
        # the trailing values sit at the rounding floor of both methods
        assert seq.values[:10] == pytest.approx(dense.values[:10], rel=1e-12)
        assert seq.values == pytest.approx(dense.values, rel=1e-2)

    def test_uncertified_alpha_takes_the_dense_path(self):
        n = 256
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = dz.singular_values(dz.riemann_liouville_section(2.0, n))
        dense = dz.singular_values(dz.riemann_liouville_matrix(2.0, n))
        assert seq.method == "dense"
        assert seq.kept == len(seq) == len(dense) == n - 1
        assert np.array_equal(seq.values, dense.values)

    def test_indefinite_hankel_takes_the_dense_path(self):
        # rank two with eigenvalues of both signs: the largest eigenvalues
        # alone would miss the negative one
        n = 256
        section = dz.Section("hankel", np.cos(0.3 * np.arange(2 * n - 1)), n)
        seq = dz.singular_values(section)
        dense = dz.singular_values(section.dense())
        assert seq.method == "dense"
        assert seq.kept == len(seq) == len(dense) == 2
        assert np.array_equal(seq.values, dense.values)

    def test_failed_solve_falls_back_to_dense(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(dz, "svds", fail)
        seq = dz.singular_values(dz.riemann_liouville_section(1.0, 128))
        dense = dz.singular_values(dz.riemann_liouville_matrix(1.0, 128))
        assert seq.method == "dense"
        assert np.array_equal(seq.values, dense.values)

    @pytest.mark.parametrize("operator,alpha,n", [("j_alpha", 0.25, 512),
                                                  ("j_alpha", 1.0, 1024),
                                                  ("j_alpha", 2.0, 256),
                                                  ("hilbert", None, 512)])
    def test_pipeline_agrees_with_the_dense_pipeline(self, operator, alpha,
                                                     n):
        section, dense = _section_and_matrix(operator, alpha, n)
        fast = dz.pipeline_from_matrix(section, operator=operator)
        slow = dz.pipeline_from_matrix(dense, operator=operator)
        assert fast.classification == slow.classification
        for key in ("window_indices", "kept_values"):
            assert fast.diagnostics[key] == slow.diagnostics[key]
        if slow.degree is None:
            assert fast.degree is None
        else:
            assert fast.degree == pytest.approx(slow.degree, rel=1e-9)
        assert slow.diagnostics["spectrum"] == {"method": "dense",
                                                "computed": len(slow.sigma)}

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            dz.riemann_liouville_section(alpha, 8)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError, match="finite"):
            dz.Section("toeplitz", [1.0, math.inf], 2)
        with pytest.raises(ValueError, match="coefficients"):
            dz.Section("hankel", [1.0, 0.5], 2)
        with pytest.raises(ValueError, match="kind"):
            dz.Section("circulant", [1.0, 0.5], 2)
        with pytest.raises(ValueError):
            dz.hilbert_section(0)


class TestDiscretizeCommand:
    @pytest.mark.parametrize("operator", ["j_alpha", "hilbert"])
    def test_reruns_are_byte_identical(self, capsys, operator):
        argv = ["discretize", "--operator", operator, "--n", "512",
                "--emit", "json"]
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("operator", ["j_alpha", "hilbert"])
    def test_too_small_section_is_a_usage_error(self, capsys, operator):
        code = cli.main(["discretize", "--operator", operator, "--n", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "window" in err
        assert "Traceback" not in err

    def test_infinite_alpha_is_rejected_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["discretize", "--operator", "j_alpha",
                             "--alpha", "inf", "--n", "8"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: alpha must be finite and positive\n"


class TestPipelines:
    def test_riemann_liouville_end_to_end(self):
        rep = dz.pipeline_from_matrix(dz.riemann_liouville_section(1.0, 2048),
                                      operator="j_alpha")
        assert rep.classification == "moderate"
        assert rep.degree == pytest.approx(1.0, abs=0.05)

    def test_hilbert_is_severe_with_artifact_note(self):
        rep = dz.pipeline_from_matrix(dz.hilbert_matrix(512),
                                      operator="hilbert")
        assert rep.classification == "severe"
        assert "discretization_artifact" in rep.diagnostics

    def test_gaussian_kernel_pipeline_severe(self):
        rep = dz.pipeline_from_kernel(
            dz.KernelSampler(L=12.0, N=2048, **GAUSS))
        assert rep.classification == "severe"
        assert rep.diagnostics["truncation_bound"] < 1e-8


class TestCsvExport:
    def test_matrix_roundtrip(self, tmp_path):
        m = dz.hilbert_matrix(3)
        path = tmp_path / "h3.csv"
        dz.matrix_to_csv(m, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, m)

    def test_multiplier_samples(self, tmp_path):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=4.0, N=64, **GAUSS))
        path = tmp_path / "lam.csv"
        dz.multiplier_samples_to_csv(sampled, path)
        text = path.read_text().splitlines()
        assert text[0] == "omega,lambda"
        assert len(text) == 65
