import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from illposed import cli, counting
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
        # a finite matrix has no tail law: counts beyond it saturate
        assert counting.counting_phi(seq, 0.5) == (5.0, True)

    def test_diagonal(self):
        seq = dz.singular_values(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(seq.values, [3.0, 2.0, 1.0])

    def test_drop_tolerance(self):
        seq = dz.singular_values(np.diag([1.0, 1e-20]))
        assert len(seq) == 1

    def test_dense_matrix_gives_a_dense_spectrum(self):
        seq = dz.singular_values(dz.hilbert_matrix(64))
        assert isinstance(seq, dz.Spectrum)
        assert seq.kept == len(seq)
        assert seq.method == "dense"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dz.singular_values(np.array([[1.0, math.nan], [0.0, 1.0]]))


GAUSS = dict(fn=lambda x: math.exp(-x * x))


class TestFftMultiplier:
    def test_dc_value_is_pi(self):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=12.0, N=4096, **GAUSS))
        at_zero = sampled.values[np.where(sampled.omega == 0.0)[0][0]]
        assert at_zero == pytest.approx(math.pi, abs=1e-8)

    def test_unit_frequency_value(self):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=12.0, N=4096, **GAUSS))
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

    @pytest.mark.parametrize("a,b,L,n", [(1.0, 1.0, 64.0, 16384),
                                         (3.0, 0.5, 20.0, 256)])
    def test_laplace_bounds_are_the_exact_tails(self, a, b, L, n):
        # 2 int_r^inf a exp(-t / b) dt = 2 a b exp(-r / b)
        env = lambda x: a * math.exp(-abs(x) / b)
        sampled = dz.fft_multiplier(dz.KernelSampler(fn=env, L=L, N=n))
        # the first alias image sits 2 pi / dx - pi N / (2 L) = pi N / (2 L)
        # from the band, and the bound counts the mass beyond half of that
        half_dist = math.pi * n / (4.0 * L)
        assert sampled.truncation_bound == pytest.approx(
            2.0 * a * b * math.exp(-L / b), rel=1e-6)
        assert sampled.aliasing_bound == pytest.approx(
            2.0 * a * b * math.exp(-half_dist / b), rel=1e-6)

    def test_gaussian_truncation_bound_is_the_exact_tail(self):
        sampled = dz.fft_multiplier(dz.KernelSampler(L=6.0, N=64, **GAUSS))
        assert sampled.truncation_bound == pytest.approx(
            math.sqrt(math.pi) * math.erfc(6.0), rel=1e-10)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            dz.KernelSampler(L=4.0, N=100, **GAUSS)


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
        scale = np.abs(dense).sum(axis=1).max()
        for got, want in ((op.matvec(x), dense @ x),
                          (op.rmatvec(x), dense.T @ x)):
            assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_leading_values_match_the_dense_prefix(self, monkeypatch, alpha,
                                                   n):
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.riemann_liouville_section(alpha, n))
        dense = np.linalg.svd(dz.riemann_liouville_matrix(alpha, n),
                              compute_uv=False)
        assert seq.method == "lanczos"
        assert len(seq) == n // 8 and seq.kept == n
        # counts beyond the leading values saturate: the data stops there
        assert counting.counting_phi(seq, seq.values[-1] ** 2 / 2.0) \
            == (n // 8, True)
        assert seq.values == pytest.approx(dense[:n // 8], rel=1e-12)

    @pytest.mark.parametrize("n,kept", [(256, 21), (512, 23), (1024, 26)])
    def test_hilbert_kept_counts_match_dense(self, monkeypatch, n, kept):
        dense = dz.singular_values(dz.hilbert_matrix(n))
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.hilbert_section(n))
        assert seq.method == "lanczos"
        assert len(seq) == seq.kept == len(dense) == kept
        # the trailing values sit at the rounding floor of both methods
        assert seq.values[:10] == pytest.approx(dense.values[:10], rel=1e-12)
        assert seq.values == pytest.approx(dense.values, rel=1e-2)

    @pytest.mark.parametrize("n", [22, 28, 49, 64, 65, 128, 200])
    def test_hilbert_kept_count_is_decided(self, n):
        # a Ritz value whose bound reaches across the drop tolerance has not
        # converged: stopping there would keep too few values
        seq = dz.singular_values(dz.hilbert_section(n))
        dense = dz.singular_values(dz.hilbert_matrix(n))
        assert seq.kept == len(seq) == len(dense)

    def test_uncertified_alpha_takes_the_dense_path(self):
        n = 256
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = dz.singular_values(dz.riemann_liouville_section(2.0, n))
        dense = dz.singular_values(dz.riemann_liouville_matrix(2.0, n))
        assert seq.method == "dense"
        assert seq.kept == len(seq) == len(dense) == n - 1
        assert np.array_equal(seq.values, dense.values)

    def test_indefinite_hankel_is_certified(self, monkeypatch):
        # rank two with eigenvalues of both signs: singular values see both,
        # where the largest eigenvalues alone would miss the negative one
        n = 256
        section = dz.Section("hankel", np.cos(0.3 * np.arange(2 * n - 1)), n)
        dense = dz.singular_values(section.dense())
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(section)
        assert seq.method == "lanczos"
        assert seq.kept == len(seq) == len(dense) == 2
        assert seq.values == pytest.approx(dense.values, rel=1e-12)

    def test_failed_solve_falls_back_to_dense(self, monkeypatch):
        monkeypatch.setattr(dz, "_bidiagonalize", lambda *args: None)
        seq = dz.singular_values(dz.riemann_liouville_section(1.0, 128))
        dense = dz.singular_values(dz.riemann_liouville_matrix(1.0, 128))
        assert seq.method == "dense"
        assert np.array_equal(seq.values, dense.values)

    @pytest.mark.parametrize("operator,alpha", [("j_alpha", 1.0),
                                                ("hilbert", None)])
    def test_transpose_residual_above_bound_goes_dense(self, monkeypatch,
                                                       operator, alpha):
        # transpose products off by 1e-8: A V = U B still holds, so only
        # ||A^T u - sigma v|| can tell that the triplets are wrong
        section, matrix = _section_and_matrix(operator, alpha, 256)
        exact = dz.Section.operator

        def skewed(self):
            op = exact(self)
            rmatvec = op.rmatvec
            op.rmatvec = lambda x: rmatvec(x) * (1.0 + 1e-8)
            return op
        monkeypatch.setattr(dz.Section, "operator", skewed)
        seq = dz.singular_values(section)
        assert seq.method == "dense"
        assert np.array_equal(seq.values, dz.singular_values(matrix).values)

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


def _thread_counts():
    return [get() for get, _ in dz._openblas_controls()]


def _needs_openblas():
    if not dz._openblas_controls():
        pytest.skip("no OpenBLAS thread control in this process")


class TestOneBlasThread:
    def test_block_runs_on_one_thread_and_restores_the_counts(self):
        _needs_openblas()
        before = _thread_counts()
        with dz._one_blas_thread():
            assert _thread_counts() == [1] * len(before)
        assert _thread_counts() == before
        with pytest.raises(RuntimeError, match="inside"):
            with dz._one_blas_thread():
                assert _thread_counts() == [1] * len(before)
                raise RuntimeError("inside")
        assert _thread_counts() == before

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_small_sections_solve_on_one_thread(self, monkeypatch, n):
        # up to ONE_THREAD_MAX_N the solve sees one thread; beyond it, and
        # after it, the counts the process had
        _needs_openblas()
        before, seen = _thread_counts(), []
        solve = dz._bidiagonalize

        def counted(*args):
            seen.append(_thread_counts())
            return solve(*args)
        monkeypatch.setattr(dz, "_bidiagonalize", counted)
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.riemann_liouville_section(1.0, n))
        assert seq.method == "lanczos"
        assert seen == [[1] * len(before) if n <= dz.ONE_THREAD_MAX_N
                        else before]
        assert _thread_counts() == before

    @pytest.mark.parametrize("operator,alpha", [("j_alpha", 1.0),
                                                ("hilbert", None)])
    def test_solve_without_controls_gives_the_same_spectrum(
            self, monkeypatch, operator, alpha):
        section, _ = _section_and_matrix(operator, alpha, 512)
        seq = dz.singular_values(section)
        monkeypatch.setattr(dz, "_openblas_controls", lambda: ())
        again = dz.singular_values(section)
        assert again.method == seq.method == "lanczos"
        assert again.kept == seq.kept
        assert np.array_equal(again.values, seq.values)

    def test_import_does_not_look_for_controls(self):
        # a fresh interpreter: this one has solved sections already
        script = ("import illposed, illposed.cli, illposed.discretize as dz\n"
                  "print([f.cache_info().misses for f in (dz._openblas_libraries,"
                  " dz._openblas_controls, dz._lapacke_dbdsdc)])")
        src = os.path.dirname(os.path.dirname(os.path.abspath(dz.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env,
                             timeout=300, check=True)
        assert out.stdout.strip() == "[0, 0, 0]"

    def test_overlapping_blocks_restore_the_counts(self):
        # threads entering and leaving blocks at random: the count reads 1
        # while any block is open and the old count once all have closed
        _needs_openblas()
        before, wrong = _thread_counts(), []

        def enter_many():
            for _ in range(300):
                with dz._one_blas_thread():
                    counts = _thread_counts()
                    if counts != [1] * len(before):
                        wrong.append(counts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_many) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
        assert _thread_counts() == before


def _needs_dbdsdc():
    if dz._lapacke_dbdsdc() is None:
        pytest.skip("no LAPACKE_dbdsdc in this process")


class TestBidiagonalSvd:
    @pytest.mark.parametrize("zeros", [None, "diagonal", "superdiagonal"])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 300])
    def test_equals_the_dense_svd_bit_for_bit(self, m, zeros):
        _needs_dbdsdc()
        rng = np.random.default_rng(m)
        d = 10.0 ** rng.uniform(-14.0, 0.0, m)
        e = 10.0 ** rng.uniform(-14.0, 0.0, m - 1)
        if zeros == "diagonal":
            d[rng.permutation(m)[:max(1, m // 5)]] = 0.0
        elif zeros == "superdiagonal":
            e[rng.permutation(m - 1)[:max(1, m // 5)]] = 0.0
        dense = np.linalg.svd(np.diag(d) + np.diag(e, 1))
        found = dz._bidiagonal_svd(d, e)
        for want, got in zip(dense, found):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_non_finite_entries_raise_as_the_dense_svd_does(self):
        _needs_dbdsdc()
        d, e = np.array([1.0, math.nan, 0.5]), np.array([0.25, 0.125])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(np.diag(d) + np.diag(e, 1))
        with pytest.raises(np.linalg.LinAlgError, match="dbdsdc"):
            dz._bidiagonal_svd(d, e)

    def test_superdiagonal_of_the_wrong_length_is_refused(self):
        # no pointer past the end of e reaches LAPACK
        _needs_dbdsdc()
        for e in ([0.5, 0.5], []):
            with pytest.raises(ValueError):
                dz._bidiagonal_svd([1.0, 2.0], e)

    @pytest.mark.parametrize("section", [
        dz.riemann_liouville_section(1.0, 512),
        dz.riemann_liouville_section(0.5, 512),
        dz.hilbert_section(512),
        dz.hilbert_section(3)])  # a test at m = 1
    def test_solve_without_the_symbol_gives_the_same_spectrum(
            self, monkeypatch, section):
        seq = dz.singular_values(section)
        monkeypatch.setattr(dz, "_lapacke_dbdsdc", lambda: None)
        again = dz.singular_values(section)
        assert (again.method, again.kept) == (seq.method, seq.kept)
        assert np.array_equal(again.values, seq.values)


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

    @pytest.mark.parametrize("operator", ["j_alpha", "hilbert"])
    def test_two_point_window_leaves_the_class_open(self, capsys, operator):
        # n = 3 gives the window 2 .. 3, through which both decay models fit
        # exactly: roundoff in their residuals must not pick the class
        code = cli.main(["discretize", "--operator", operator, "--n", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["diagnostics"]["window_indices"] == [2, 3]
        assert payload["diagnostics"]["power_rms_rel"] < dz.FIT_TOL
        assert payload["diagnostics"]["exp_rms_rel"] < dz.FIT_TOL
        assert (payload["classification"], payload["degree"]) == \
            ("indeterminate", None)

    def test_infinite_alpha_is_rejected_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["discretize", "--operator", "j_alpha",
                             "--alpha", "inf", "--n", "8"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: alpha must be finite and positive\n"

    @pytest.mark.parametrize("alpha, n", [("300", 64), ("150", 2048),
                                          ("100", 64), ("1e308", 8)])
    def test_huge_alpha_is_rejected_without_warnings(self, capsys, alpha, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["discretize", "--operator", "j_alpha",
                             "--alpha", alpha, "--n", str(n)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: alpha = {float(alpha)!r} at n = {n}:")
        assert err.count("\n") == 1


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

    def test_window_above_one_gives_no_ratio_samples(self):
        # eps = sigma_n^2 >= 1 across the window (4 .. 32): the ratio
        # ln eps / (-2 ln n) is undefined there, so [A, B] says nothing
        scaled = 1e3 * dz.riemann_liouville_matrix(1.0, 256)
        rep = dz.pipeline_from_matrix(scaled)
        assert (rep.interval.lower, rep.interval.upper) == (0.0, math.inf)
        assert rep.classification == "moderate"

    def test_no_decay_fit_falls_back_to_the_corner_estimate(self):
        # -ln sigma_n = sqrt(n) is neither linear in ln n nor in n over
        # the window 4 .. 16: the estimator reads the corner curve
        n = np.arange(1, 65, dtype=float)
        rep = dz.pipeline_from_matrix(np.diag(np.exp(-np.sqrt(n))))
        assert rep.diagnostics["window_indices"] == (4, 16)
        assert min(rep.diagnostics["power_rms_rel"],
                   rep.diagnostics["exp_rms_rel"]) > dz.FIT_TOL
        iv, degree, _ = counting.estimate_curve(
            counting.corner_curve(rep.sigma, (4, 16)))
        assert (rep.classification, rep.degree) == (iv.classification, degree)
        assert (rep.interval.lower, rep.interval.upper) == (iv.lower, iv.upper)
        assert rep.diagnostics["trend"] == iv.diagnostics["trend"]
