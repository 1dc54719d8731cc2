import functools
import json
import math
import mmap
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


GAUSS = dict(fn=lambda x: np.exp(-x * x))


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
        env = lambda x: a * np.exp(-np.abs(x) / b)
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

    def test_samples_are_taken_in_one_array_call(self):
        calls = []

        def fn(x):
            calls.append(np.array(x, copy=True))
            return np.exp(-x * x)

        L, n = 12.0, 4096
        sampled = dz.fft_multiplier(dz.KernelSampler(fn=fn, L=L, N=n))
        # the first call holds every sample point; the rest are the bounds'
        # quadrature cells, 21 points each
        dx = 2.0 * L / n
        np.testing.assert_array_equal(calls[0], -L + dx * np.arange(n))
        assert all(c.size < 64 and c.size % 21 == 0 for c in calls[1:])
        reference = dz.fft_multiplier(dz.KernelSampler(L=L, N=n, **GAUSS))
        np.testing.assert_array_equal(sampled.values, reference.values)

    @pytest.mark.parametrize("fn", [lambda x: 1.0,
                                    lambda x: np.exp(-x * x)[:-1],
                                    lambda x: np.exp(-x * x)[:, None]])
    def test_kernel_of_the_wrong_shape_is_refused(self, fn):
        with pytest.raises(ValueError, match="kernel must return an array "
                                             r"of shape \(64,\)"):
            dz.fft_multiplier(dz.KernelSampler(fn=fn, L=4.0, N=64))


def _section_and_matrix(operator, alpha, n):
    if operator == "hilbert":
        return dz.hilbert_section(n), dz.hilbert_matrix(n)
    return (dz.riemann_liouville_section(alpha, n),
            dz.riemann_liouville_matrix(alpha, n))


def _no_dense(self):
    raise AssertionError("a certified section was made dense")


def _mapped(a):
    """Whether the array a views a memory mapping of its own."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(getattr(a, "obj", None), mmap.mmap)


def _traced(rows, n):
    """Bytes of a one-thread solve's rows x n basis that tracemalloc sees:
    none where the basis is a mapping of its own."""
    return 0 if _mapped(dz._basis(1, 1, True)) else rows * n * 8


@functools.cache
def _rl_spectrum(alpha, n):
    """singular_values of riemann_liouville_section(alpha, n), solved once
    for the tests that read the same section."""
    return dz.singular_values(dz.riemann_liouville_section(alpha, n))


class TestSections:
    @pytest.mark.parametrize("operator,alpha", [("j_alpha", 0.5),
                                                ("j_alpha", 2.0),
                                                ("hilbert", None)])
    @pytest.mark.parametrize("n", [1, 7, 64, 129])
    def test_fft_products_match_the_dense_matrix(self, operator, alpha, n):
        section, dense = _section_and_matrix(operator, alpha, n)
        assert len(section) == n
        assert np.array_equal(section.dense(), dense)
        # the symmetric form: the section itself, or T J for Toeplitz T
        symmetric = dense if section.kind == "hankel" else dense[:, ::-1]
        assert np.array_equal(section.symmetric().dense(), symmetric)
        assert np.array_equal(symmetric, symmetric.T)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        scale = np.abs(dense).sum(axis=1).max()
        got = section.operator()(x)
        assert np.abs(got - symmetric @ x).max() <= 1e-12 * scale
        # a (3, n) block: each row multiplied
        x = rng.standard_normal((3, n))
        got = section.operator()(x)
        assert got.shape == (3, n)
        for row, want in zip(got, (symmetric @ x.T).T):
            assert np.abs(row - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_leading_values_match_the_dense_prefix(self, monkeypatch, alpha,
                                                   n):
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = _rl_spectrum(alpha, n)
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

    @pytest.mark.parametrize("n", [22, 28, 49, 55, 58, 64, 65, 67, 128,
                                   200])
    def test_hilbert_kept_count_is_decided(self, n):
        # a Ritz value whose bound reaches across the drop tolerance has not
        # converged: stopping there would keep too few values
        seq = dz.singular_values(dz.hilbert_section(n))
        dense = dz.singular_values(dz.hilbert_matrix(n))
        assert seq.kept == len(seq) == len(dense)

    def test_large_hilbert_section_solves_in_a_small_workspace(self,
                                                              monkeypatch):
        # the solve stops after 45 steps; 3n/4 rows of Q, reserved before
        # the first step, would take 14 GiB
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.hilbert_section(50000))
        assert seq.method == "lanczos"
        assert seq.kept == len(seq) == 39
        assert 2.44 < seq.values[0] < math.pi

    @pytest.mark.parametrize("section,rows", [
        pytest.param(dz.hilbert_section(50000), dz.FIRST_ROWS, id="hilbert"),
        pytest.param(dz.riemann_liouville_section(0.5, 2048), 3 * 2048 // 4,
                     id="j_alpha")])
    def test_solve_peaks_below_twice_its_basis(self, section, rows):
        # the basis Q of (rows + 1) x n doubles is the one array of that
        # size: no products S Q are stored, and the residual check forms
        # its Ritz vectors in row blocks.  A one-thread solve's basis is
        # a mapping that tracemalloc does not see
        n = len(section)
        basis = (rows + 1) * n * 8
        limit = basis + (_traced(rows + 1, n) if n <= dz.ONE_THREAD_MAX_N
                         else basis)
        tracemalloc.start()
        try:
            seq = dz.singular_values(section)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.method == "lanczos"
        assert peak < limit

    def test_solve_peaks_a_few_mib_beyond_its_basis(self):
        # past its basis capacity of 3n/4 + 1 rows, this solve holds the
        # final test's m x m eigenvectors (m = 582, 2.6 MiB), then, once
        # they are freed, its 256 Ritz vectors' coordinates and the
        # residual check's slices; the two together took 7.5 MiB.  Where
        # the basis is a mapping, tracemalloc sees none of it
        n = 2048
        section = dz.riemann_liouville_section(0.5, n)
        tracemalloc.start()
        try:
            seq = dz.singular_values(section)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.method == "lanczos"
        assert peak - _traced(3 * n // 4 + 1, n) < 5 * 2 ** 20

    def test_stop_tests_free_their_vectors_before_the_next(self,
                                                            monkeypatch):
        # a test that does not stop the solve drops its m x m vectors, so
        # the next test's dstevd allocates beside none of them
        eigh, vectors, alive = dz._tridiagonal_eigh, [], []

        def tracked(d, e):
            alive.append(sum(ref() is not None for ref in vectors))
            theta, y = eigh(d, e)
            vectors.append(weakref.ref(y))
            return theta, y

        monkeypatch.setattr(dz, "_tridiagonal_eigh", tracked)
        seq = dz.singular_values(dz.riemann_liouville_section(1.0, 512))
        assert seq.method == "lanczos"
        assert len(alive) >= 3
        assert alive == [0] * len(alive)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_mapped_basis_gives_the_same_bits(self, monkeypatch, alpha):
        # these solves run past FIRST_ROWS steps, so both of their bases
        # are mappings where mmap has the flags; in np.empty arrays every
        # value and residual is the same to the bit
        n = 512
        section = dz.riemann_liouville_section(alpha, n)
        k = dz._trusted_window(n)[1]
        basis, mapped = dz._basis, []

        def recorded(rows, n, mapped_):
            out = basis(rows, n, mapped_)
            mapped.append(_mapped(out))
            return out

        monkeypatch.setattr(dz, "_basis", recorded)
        with dz._one_blas_thread():
            s, residual = dz._lanczos(section.operator(), n, k, True)
        assert len(mapped) == 2
        if hasattr(mmap, "MAP_PRIVATE") and hasattr(mmap, "MAP_ANONYMOUS"):
            assert mapped == [True, True]
        monkeypatch.setattr(dz, "_basis",
                            lambda rows, n, mapped_: np.empty((rows, n)))
        with dz._one_blas_thread():
            s_empty, residual_empty = dz._lanczos(section.operator(), n, k,
                                                  True)
        assert np.array_equal(s, s_empty)
        assert np.array_equal(residual, residual_empty)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmRSS from /proc/self/status")
    def test_one_thread_solves_give_their_bases_back(self):
        # three solves up to n = 2048 in one process, after a small one
        # that loads what every solve shares: each basis goes back to the
        # system when its solve ends, so the resident set ends within
        # 8 MB of where it started, where heap-held bases kept 17 MB
        script = ("from illposed import discretize as dz\n"
                  "def rss():\n"
                  "    with open('/proc/self/status') as fh:\n"
                  "        return next(int(line.split()[1]) for line in fh\n"
                  "                    if line.startswith('VmRSS:'))\n"
                  "dz.singular_values(dz.riemann_liouville_section(0.5, 256))\n"
                  "start = rss()\n"
                  "for alpha, n in ((1.0, 2048), (0.5, 1024), (0.5, 2048)):\n"
                  "    seq = dz.singular_values(\n"
                  "        dz.riemann_liouville_section(alpha, n))\n"
                  "    assert seq.method == 'lanczos'\n"
                  "print(rss() - start)\n")
        grown = int(subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=_src_env(), timeout=300, check=True).stdout)
        assert grown < 8 * 1024  # KiB

    def test_residual_check_multiplies_in_small_slices(self):
        # 256 pairs at n = 2048: Ritz vectors in blocks of 32 rows (512 KiB),
        # each multiplied by S 8 rows at a time; one FFT product of the
        # whole block took 3.5 MiB
        n, pairs = 2048, 256
        rng = np.random.default_rng(n)
        basis = np.linalg.qr(rng.standard_normal((n, pairs)))[0].T.copy()
        vectors = np.linalg.qr(rng.standard_normal((pairs, pairs)))[0]
        theta = rng.standard_normal(pairs)
        matvec = dz.riemann_liouville_section(0.5, n).operator()
        matvec(basis[:1])
        tracemalloc.start()
        try:
            got = dz._ritz_residuals(matvec, basis, vectors, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x = vectors @ basis
        want = np.linalg.norm(matvec(x) - theta[:, None] * x, axis=1)
        assert got == pytest.approx(want, rel=1e-13, abs=0)
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("n,pairs,m", [(1000, 130, 260), (3072, 100, 150)])
    def test_residual_check_covers_every_pair(self, n, pairs, m):
        # 2^17 / 2n rows is not a multiple of four at these n (65 and 21),
        # and there are more pairs than one block holds: every residual is
        # still the one of the whole-block product
        rng = np.random.default_rng(n)
        basis = np.linalg.qr(rng.standard_normal((n, m)))[0].T.copy()
        vectors = np.linalg.qr(rng.standard_normal((m, m)))[0][:pairs]
        theta = rng.standard_normal(pairs)
        matvec = dz.riemann_liouville_section(0.5, n).operator()
        got = dz._ritz_residuals(matvec, basis, vectors, theta)
        x = vectors @ basis
        want = np.linalg.norm(matvec(x) - theta[:, None] * x, axis=1)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_solve_at_an_order_that_is_no_power_of_two(self, monkeypatch):
        # 125 pairs at n = 1000 fill two residual-check blocks of 64 rows
        n = 1000
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq = dz.singular_values(dz.riemann_liouville_section(1.0, n))
        dense = np.linalg.svd(dz.riemann_liouville_matrix(1.0, n),
                              compute_uv=False)
        assert seq.method == "lanczos"
        assert len(seq) == n // 8 and seq.kept == n
        assert seq.values == pytest.approx(dense[:n // 8], rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_widened_workspace_gives_the_same_values(self, monkeypatch, alpha):
        # these solves run past FIRST_ROWS steps and copy their bases once
        section = dz.riemann_liouville_section(alpha, 512)
        widened = dz.singular_values(section)
        monkeypatch.setattr(dz, "FIRST_ROWS", 256)
        assert np.array_equal(widened.values,
                              dz.singular_values(section).values)

    def test_blocked_reorthogonalization_gives_the_same_values(
            self, monkeypatch):
        # blocks of 8 rows against one block: other rounding, same values
        section = dz.riemann_liouville_section(0.5, 512)
        one_block = dz._lanczos(section.operator(), 512, 64)
        monkeypatch.setattr(dz, "BLOCK_DOUBLES", 8 * 512)
        s, residual = dz._lanczos(section.operator(), 512, 64, blocked=True)
        assert s == pytest.approx(one_block[0], rel=1e-13, abs=0)
        assert np.all(residual <= dz.RESIDUAL_TOL * s[0])

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
        monkeypatch.setattr(dz, "_lanczos", lambda *args: None)
        seq = dz.singular_values(dz.riemann_liouville_section(1.0, 128))
        dense = dz.singular_values(dz.riemann_liouville_matrix(1.0, 128))
        assert seq.method == "dense"
        assert np.array_equal(seq.values, dense.values)

    @pytest.mark.parametrize("operator,alpha", [("j_alpha", 1.0),
                                                ("hilbert", None)])
    def test_residual_above_bound_goes_dense(self, monkeypatch, operator,
                                             alpha):
        # products off by 1e-8 sigma_1 times a cyclic shift, which is not
        # symmetric: the tridiagonal recurrence does not see it, so only
        # the explicit residuals ||S x - theta x|| can tell.  sigma_1 is
        # that of the section whose operator is wrapped: the solve runs on
        # a scaled copy of the section
        section, matrix = _section_and_matrix(operator, alpha, 256)
        exact = dz.Section.operator

        def skewed(self):
            matvec = exact(self)
            shift = 1e-8 * np.linalg.norm(self.dense(), 2)
            return lambda x: matvec(x) + shift * np.roll(x, 1, axis=-1)
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

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
    def test_zero_section_has_no_positive_singular_values(self, monkeypatch,
                                                          kind):
        # the same error as the dense path, without a solve or a dense copy
        with pytest.raises(ValueError, match="no positive singular values"):
            dz.singular_values(np.zeros((3, 3)))
        n = 64
        section = dz.Section(kind, np.zeros(n if kind == "toeplitz"
                                            else 2 * n - 1), n)
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        with pytest.raises(ValueError, match="no positive singular values"):
            dz.singular_values(section)

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
    @pytest.mark.parametrize("c", [1e-300, 1e-170, 5e-324, 1e150, 1e300])
    def test_extreme_coefficients_match_the_scaled_svd(
            self, monkeypatch, kind, c):
        # constant coefficients whose squares or products underflow or
        # overflow: the solve runs on the section scaled by a power of two,
        # so it certifies the values of the dense SVD of that scaled
        # section, scaled back (the Hankel section has rank one, 64 c)
        n = 64
        section = dz.Section(kind, np.full(n if kind == "toeplitz"
                                          else 2 * n - 1, c), n)
        e = math.frexp(c)[1]
        dense = np.ldexp(np.linalg.svd(np.ldexp(section.dense(), -e),
                                       compute_uv=False), e)
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = dz.singular_values(section)
        assert seq.method == "lanczos"
        assert seq.kept == np.count_nonzero(dense > dz.SVD_DROP_TOL * dense[0])
        assert len(seq) == (16 if kind == "toeplitz" else 1)
        assert np.abs(seq.values - dense[:len(seq)]).max() <= 4e-15 * dense[0]
        if kind == "hankel":
            assert seq.values[0] == pytest.approx(n * c, rel=1e-15)


# the first Lanczos start entries, SplitMix64 of 1..4 scaled to [-1, 1)
START_HEX = ["0x1.8882a0e5ec772p-1", "-0x1.18761955e46a0p-3",
             "-0x1.e4ee8b9dffdb0p-1", "0x1.e22ee2a1c9320p-1"]


def test_section_solves_are_fixed_and_need_no_numpy_random():
    # a fresh interpreter, because pytest and this file import numpy.random;
    # two hash seeds, so that no set or dict order reaches the spectra
    script = ("import hashlib, json, sys\n"
              "from illposed import discretize as dz\n"
              "digests = [hashlib.sha256(dz.pipeline_from_matrix(s).sigma"
              ".values.tobytes()).hexdigest()\n"
              "           for s in (dz.riemann_liouville_section(0.5, 512),"
              " dz.hilbert_section(512))]\n"
              "print(json.dumps({'random': 'numpy.random' in sys.modules,"
              " 'digests': digests,"
              " 'start': [v.hex() for v in dz._start_vector(4).tolist()]}))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dz.__file__)))
    outs = [json.loads(subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        timeout=300, check=True).stdout) for seed in ("0", "12345")]
    assert outs[0] == outs[1]
    assert outs[0]["random"] is False
    # a platform that computes other start entries fails here first, not
    # in the golden digests of every section
    assert outs[0]["start"] == START_HEX


# points of the rFFT grid the symbol of a section is sampled on, 0 to 2 pi
SYMBOL_GRID = 1 << 22


@pytest.mark.parametrize("alpha,n", [(0.25, 1024), (0.25, 2048), (0.5, 1024),
                                     (0.5, 2048), (0.5, 4096)])
def test_toeplitz_sections_follow_their_symbol(alpha, n):
    # Avram-Parter: the singular values of T_n(a) are distributed like the
    # symbol |a(theta)| = |sum_k c_k e^(ik theta)|, so the count
    # N(sigma) = n |{theta in [0, pi] : |a(theta)| > sigma}| / pi sits
    # within 1/2 of j - 1/2 at sigma_j (at most 0.44 here) for alpha <= 1/2,
    # where the coefficients are (borderline) square-summable.  An oracle
    # that needs neither the dense SVD nor the Lanczos code: a value
    # missing from the solve shifts every later count by one.
    seq = _rl_spectrum(alpha, n)
    assert seq.method == "lanczos" and len(seq) == n // 8
    j = np.arange(2, n // 8 + 1)
    sigma = seq.values[j - 1]
    coeffs = dz.riemann_liouville_section(alpha, n).coeffs
    symbol = np.abs(np.fft.rfft(coeffs, SYMBOL_GRID))
    above = np.sort(symbol[symbol > sigma[-1]])
    count = above.size - np.searchsorted(above, sigma, side="right")
    assert np.abs(n * count / (SYMBOL_GRID // 2) - (j - 0.5)).max() <= 0.6


def _clears_drop_tol_by_substitution(c):
    """The certificate with its inverse series d (c * d = 1) by forward
    substitution, one term a step: the oracle of dz._clears_drop_tol."""
    d = np.empty(c.size)
    with np.errstate(all="ignore"):
        d[0] = 1.0 / c[0]
        for k in range(1, c.size):
            d[k] = -np.dot(c[k:0:-1], d[:k]) / c[0]
        return bool(np.abs(d).sum() * np.abs(c).sum() * dz.SVD_DROP_TOL < 1.0)


def test_certificate_decisions_match_forward_substitution():
    # 40 alphas by 12 orders: the FFT Newton iteration decides as the loop
    # does, and 258 of the 480 sections are certified
    certified = 0
    for alpha in np.linspace(0.05, 3.0, 40):
        for n in (1 << p for p in range(1, 13)):
            c = dz.riemann_liouville_section(float(alpha), n).coeffs
            decision = dz._clears_drop_tol(c)
            assert decision == _clears_drop_tol_by_substitution(c), (alpha, n)
            certified += decision
    assert certified == 258


@st.composite
def _random_sections(draw):
    # decaying coefficients, alternating, oscillating or with random signs
    # (indefinite Hankel sections), and Toeplitz sections with zero odd
    # coefficients, whose singular values come in pairs
    kind = draw(st.sampled_from(["toeplitz", "hankel"]))
    n = draw(st.integers(65, 400))
    size = n if kind == "toeplitz" else 2 * n - 1
    j = np.arange(size, dtype=float)
    if draw(st.booleans()):
        c = (j + 1.0) ** -draw(st.floats(0.3, 3.0))
    else:
        c = np.exp(-draw(st.floats(0.01, 1.0)) * j)
    modifier = draw(st.sampled_from(["none", "alternating", "oscillating",
                                     "random signs"]))
    if modifier == "alternating":
        c *= (-1.0) ** j
    elif modifier == "oscillating":
        c *= np.cos(draw(st.floats(0.05, 3.0)) * j)
    elif modifier == "random signs":
        signs = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        c[1:] *= signs.choice([-1.0, 1.0], size - 1)
    if kind == "toeplitz" and draw(st.booleans()):
        c[1::2] = 0.0
    return dz.Section(kind, c, n)


@settings(max_examples=40, deadline=None)
@given(_random_sections())
@example(dz.Section("toeplitz", np.where(np.arange(200) % 2, 0.0,
                                         (np.arange(200) + 1.0) ** -1.5), 200))
@example(dz.Section("hankel", np.cos(0.7 * np.arange(255))
                    * (np.arange(255) + 1.0) ** -1.0, 128))
def test_random_sections_match_the_dense_svd(section):
    # either the dense path, or the dense values above 1e-12 sigma_1 to
    # within 1e-12 sigma_1 and the dense count, up to values within a
    # factor of 2 of the drop tolerance
    seq = dz.singular_values(section)
    if seq.method == "dense":
        return
    dense = np.linalg.svd(section.dense(), compute_uv=False)
    scale, drop = dense[0], dz.SVD_DROP_TOL * dense[0]
    head = dense[:len(seq)]
    wanted = head > 1e-12 * scale
    assert np.abs(seq.values - head)[wanted].max() <= 1e-12 * scale
    lo, hi = sorted((seq.kept, int(np.count_nonzero(dense > drop))))
    assert np.all((dense[lo:hi] >= 0.5 * drop) & (dense[lo:hi] <= 2.0 * drop))


def _thread_count():
    return dz._openblas()[0]()


def _needs_openblas():
    if dz._openblas() is None:
        pytest.skip("numpy links no OpenBLAS with a thread control")


def _src_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dz.__file__)))
    return dict(os.environ, PYTHONPATH=src)


# a fresh interpreter with scipy's OpenBLAS mapped besides numpy's: the
# thread counts of both during and after a j_alpha n = 512 solve, numpy's
# and scipy's each set to 2 before it, and every /proc path opened
TWO_OPENBLAS_SCRIPT = """\
import ctypes, json, os, sys
import numpy as np
import scipy.linalg
from scipy.linalg import _flapack
opened = []
sys.addaudithook(lambda event, args: opened.append(os.fsdecode(args[0]))
                 if event == "open" and not isinstance(args[0], int)
                 else None)
from illposed import discretize as dz


def thread_control(lib):
    for threads, _, suffix, _ in dz.OPENBLAS_BUILDS:
        get = getattr(lib, f"{threads}_get_num_threads{suffix}", None)
        if get is not None:
            set_ = getattr(lib, f"{threads}_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_


numpy_get, numpy_set, dstevd = dz._openblas()
scipy_get, scipy_set = thread_control(ctypes.CDLL(_flapack.__file__))
numpy_set(2)
scipy_set(2)
seen, lanczos = [], dz._lanczos


def recorded(*args):
    seen.append([numpy_get(), scipy_get()])
    return lanczos(*args)


dz._lanczos = recorded
seq = dz.singular_values(dz.riemann_liouville_section(1.0, 512))
address = [ctypes.cast(f, ctypes.c_void_p).value for f in (numpy_get, scipy_get)]
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "distinct": address[0] != address[1], "method": seq.method,
    "seen": seen, "after": [numpy_get(), scipy_get()],
    "proc": [path for path in opened if path.startswith("/proc")],
    "dstevd": dstevd.__name__, "int64": dstevd.argtypes[2] is ctypes.c_int64,
    "ilp64": "USE64BITINT" in str(blas.get("openblas configuration"))}))
"""


class TestOneBlasThread:
    def test_block_runs_on_one_thread_and_restores_the_counts(self):
        _needs_openblas()
        before = _thread_count()
        with dz._one_blas_thread():
            assert _thread_count() == 1
        assert _thread_count() == before
        with pytest.raises(RuntimeError, match="inside"):
            with dz._one_blas_thread():
                assert _thread_count() == 1
                raise RuntimeError("inside")
        assert _thread_count() == before

    @staticmethod
    def _counts_seen_by(monkeypatch, name, section):
        # the thread count at each call of dz.<name> during one solve
        seen, call = [], getattr(dz, name)

        def counted(*args):
            seen.append(_thread_count())
            return call(*args)
        monkeypatch.setattr(dz, name, counted)
        return dz.singular_values(section), seen

    @pytest.mark.parametrize("operator,n", [
        pytest.param("j_alpha", 1024, id="1024"),
        pytest.param("j_alpha", 2048, id="2048"),
        pytest.param("hilbert", 2048, id="hilbert-2048")])
    def test_small_sections_solve_on_one_thread(self, monkeypatch, operator,
                                                n):
        # up to ONE_THREAD_MAX_N the solve sees one thread, and after it
        # the count the process had
        _needs_openblas()
        assert n <= dz.ONE_THREAD_MAX_N
        before = _thread_count()
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        section = (dz.hilbert_section(n) if operator == "hilbert"
                   else dz.riemann_liouville_section(1.0, n))
        seq, seen = self._counts_seen_by(monkeypatch, "_lanczos",
                                         section)
        assert seq.method == "lanczos"
        assert seen == [1]
        assert _thread_count() == before

    def test_larger_sections_keep_the_process_counts(self, monkeypatch):
        _needs_openblas()
        before = _thread_count()
        monkeypatch.setattr(dz, "ONE_THREAD_MAX_N", 512)
        monkeypatch.setattr(dz.Section, "dense", _no_dense)
        seq, seen = self._counts_seen_by(
            monkeypatch, "_lanczos",
            dz.riemann_liouville_section(1.0, 1024))
        assert seq.method == "lanczos"
        assert seen == [before]
        assert _thread_count() == before

    def test_dense_fallback_keeps_the_process_counts(self, monkeypatch):
        _needs_openblas()
        before = _thread_count()
        monkeypatch.setattr(dz, "_lanczos", lambda *args: None)
        seq, seen = self._counts_seen_by(
            monkeypatch, "_dense_singular_values",
            dz.riemann_liouville_section(1.0, 256))
        assert seq.method == "dense"
        assert seen == [before]
        assert _thread_count() == before

    @pytest.mark.parametrize("found", ["no-openblas", "fixed-count"])
    @pytest.mark.parametrize("operator,alpha", [("j_alpha", 1.0),
                                                ("hilbert", None)])
    def test_solve_without_controls_gives_the_same_spectrum(
            self, monkeypatch, operator, alpha, found):
        # no OpenBLAS found (dense eigh in the stop tests), or numpy's
        # dstevd with a thread count that the solve cannot move
        section, _ = _section_and_matrix(operator, alpha, 512)
        seq = dz.singular_values(section)
        blas = dz._openblas()
        if found == "fixed-count" and blas is not None:
            blas = (blas[0], lambda count: None, blas[2])
        else:
            blas = None
        monkeypatch.setattr(dz, "_openblas", lambda: blas)
        again = dz.singular_values(section)
        assert again.method == seq.method == "lanczos"
        assert again.kept == seq.kept
        assert np.array_equal(again.values, seq.values)

    def test_import_does_not_look_for_controls(self):
        # a fresh interpreter: this one has solved sections already
        script = ("import illposed, illposed.cli, illposed.discretize as dz\n"
                  "print(dz._openblas.cache_info().misses)")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=_src_env(),
                             timeout=300, check=True)
        assert out.stdout.strip() == "0"

    def test_only_numpys_openblas_moves_and_nothing_reads_proc(self):
        # scipy imported first, so that its own OpenBLAS copy is mapped
        # next to numpy's: a solve sets numpy's count to one and back, and
        # scipy's never moves, read through scipy's own extension handle
        pytest.importorskip("scipy.linalg")
        _needs_openblas()
        out = json.loads(subprocess.run(
            [sys.executable, "-c", TWO_OPENBLAS_SCRIPT], capture_output=True,
            text=True, env=_src_env(), timeout=300, check=True).stdout)
        assert out["distinct"] is True
        assert out["method"] == "lanczos"
        assert out["seen"] == [[1, 2]]
        assert out["after"] == [2, 2]
        assert out["proc"] == []
        # dstevd takes the build's integers: 64-bit where numpy's OpenBLAS
        # is ILP64, as in numpy's wheels
        assert out["int64"] is out["ilp64"]
        assert out["dstevd"].endswith("64_") is out["ilp64"]

    def test_overlapping_blocks_restore_the_counts(self):
        # threads entering and leaving blocks at random: the count reads 1
        # while any block is open and the old count once all have closed
        _needs_openblas()
        before, wrong = _thread_count(), []

        def enter_many():
            for _ in range(300):
                with dz._one_blas_thread():
                    count = _thread_count()
                    if count != 1:
                        wrong.append(count)
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
        assert _thread_count() == before


def _needs_dstevd():
    blas = dz._openblas()
    if blas is None or blas[2] is None:
        pytest.skip("numpy's OpenBLAS has no LAPACKE_dstevd")


class TestTridiagonalEigh:
    @pytest.mark.parametrize("zeros", [None, "diagonal", "offdiagonal"])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 300])
    def test_equals_eigh_bit_for_bit(self, m, zeros):
        _needs_dstevd()
        rng = np.random.default_rng(m)
        d = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-14.0, 0.0, m)
        e = 10.0 ** rng.uniform(-14.0, 0.0, m - 1)
        if zeros == "diagonal":
            d[rng.permutation(m)[:max(1, m // 5)]] = 0.0
        elif zeros == "offdiagonal":
            e[rng.permutation(m - 1)[:max(1, m // 5)]] = 0.0
        values, vectors = np.linalg.eigh(np.diag(d) + np.diag(e, 1)
                                         + np.diag(e, -1))
        found = dz._tridiagonal_eigh(d, e)
        # the vectors come as rows
        for want, got in zip((values, vectors.T), found):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_non_finite_entries_raise_as_eigh_does(self):
        _needs_dstevd()
        d, e = np.array([1.0, math.nan, 0.5]), np.array([0.25, 0.125])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        with pytest.raises(np.linalg.LinAlgError, match="dstevd"):
            dz._tridiagonal_eigh(d, e)

    def test_off_diagonal_of_the_wrong_length_is_refused(self):
        # no pointer past the end of e reaches LAPACK
        _needs_dstevd()
        for e in ([0.5, 0.5], []):
            with pytest.raises(ValueError):
                dz._tridiagonal_eigh([1.0, 2.0], e)

    @pytest.mark.parametrize("section", [
        dz.riemann_liouville_section(1.0, 512),
        dz.riemann_liouville_section(0.5, 512),
        dz.hilbert_section(512),
        dz.hilbert_section(2)])  # a test at m = 1
    def test_solve_without_the_symbol_gives_the_same_spectrum(
            self, monkeypatch, section):
        seq = dz.singular_values(section)
        blas = dz._openblas()
        monkeypatch.setattr(dz, "_openblas",
                            lambda: blas and (blas[0], blas[1], None))
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
        # n = 3 gives the window 2 .. 3, through which both decay models
        # fit exactly: two corners are too few for any fit to decide
        code = cli.main(["discretize", "--operator", operator, "--n", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        diagnostics = payload["diagnostics"]
        assert diagnostics["window_indices"] == [2, 3]
        assert (diagnostics["power_slope"], diagnostics["log_exponent"]) == \
            (None, None)
        assert (payload["classification"], payload["degree"]) == \
            ("indeterminate", None)
        assert payload["interval"] == {"A": 0.0, "B": "inf"}

    def test_residual_tolerance_is_read_from_the_config(self, tmp_path,
                                                        capsys):
        # the ratio classifier leaves j_alpha's n = 512 window open, and
        # with residual_tol = 0 no fit settles it
        argv = ["discretize", "--operator", "j_alpha", "--n", "512"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == \
            "moderate"
        cfg = tmp_path / "thresholds.cfg"
        cfg.write_text("residual_tol = 0\n")
        assert cli.main(argv + ["--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["classification"], payload["degree"]) == \
            ("indeterminate", None)

    def test_old_absolute_residual_default_leaves_sections_open(
            self, tmp_path, capsys):
        # the old default 1e-3, now read as a relative rms, rejects the
        # power law of j_alpha (0.0028), which alone settles its class
        argv = ["discretize", "--operator", "j_alpha", "--n", "512"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == \
            "moderate"
        cfg = tmp_path / "thresholds.cfg"
        cfg.write_text("residual_tol = 1e-3\n")
        assert cli.main(argv + ["--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["classification"], payload["degree"]) == \
            ("indeterminate", None)

    def test_residual_tolerance_leaves_the_ratio_class_alone(self, tmp_path,
                                                             capsys):
        # hilbert's window 2 .. 12 is severe by its ratios, before any fit:
        # no residual tolerance opens it
        argv = ["discretize", "--operator", "hilbert", "--n", "16"]
        cfg = tmp_path / "thresholds.cfg"
        cfg.write_text("residual_tol = 0\n")
        for extra in ([], ["--config", str(cfg)]):
            assert cli.main(argv + extra) == 0
            payload = json.loads(capsys.readouterr().out)
            assert (payload["classification"], payload["degree"]) == \
                ("severe", None)

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


SECTION_SIZES = (3, 8, 16, 32, 64, 128, 289)
# class and degree of each section by size, read over its window: 2 ..
# min(kept, 16) below 64 kept values, else 4 .. 16 (n = 64, 128) or 4 .. 36.
# The ratio classifier decides hilbert from n = 16 and j_alpha alpha = 1
# at n = 16; a power fit settles every other moderate j_alpha window.
# hilbert n = 8 (window 2 .. 8) fits neither law within residual_tol
_OPEN = ("indeterminate", None)
_SEVERE = ("severe", None)
SECTION_CLASSES = {
    ("j_alpha", 0.25): dict(zip(SECTION_SIZES, [
        _OPEN, _OPEN, _OPEN, ("moderate", 0.2953726153220634),
        ("moderate", 0.2827574462628349),
        ("moderate", 0.27624719085578825),
        ("moderate", 0.26856856673141694)])),
    ("j_alpha", 0.5): dict(zip(SECTION_SIZES, [
        _OPEN, ("moderate", 0.7192996905913033),
        ("moderate", 0.6749080189998885), ("moderate", 0.6254404885248489),
        ("moderate", 0.5744664567654773), ("moderate", 0.550975433665238),
        ("moderate", 0.5348767965519213)])),
    ("j_alpha", 1.0): dict(zip(SECTION_SIZES, [
        _OPEN, _OPEN, ("moderate", None), ("moderate", 1.2067565385366545),
        ("moderate", 1.1023216272585206),
        ("moderate", 1.0771198376482014),
        ("moderate", 1.0499763817085794)])),
    ("j_alpha", 2.0): dict(zip(SECTION_SIZES, [
        _OPEN, _OPEN, ("moderate", 2.255830507747094),
        ("moderate", 2.257558982341118), ("moderate", 2.227011393356296),
        ("moderate", 2.1423837856816395),
        ("moderate", 2.0916315917764408)])),
    ("hilbert", 1.0): dict(zip(SECTION_SIZES, [_OPEN] * 2 + [_SEVERE] * 5)),
}


class TestPipelines:
    @pytest.mark.parametrize("kept, lo, hi", [
        (2, 2, 2), (3, 2, 3), (16, 2, 16), (17, 2, 16), (63, 2, 16),
        (64, 4, 16), (127, 4, 16), (128, 4, 16), (1024, 8, 128),
        (2048, 16, 256)])
    def test_trusted_window_is_one_rule(self, kept, lo, hi):
        assert dz._trusted_window(kept) == (lo, hi)
        if kept >= 64:  # the windows every long spectrum has always read
            assert (lo, hi) == (max(4, kept // 128), max(16, kept // 8))

    @pytest.mark.parametrize("n", [289, 512, 1024])
    def test_hilbert_reads_the_same_whichever_solver_ran(self, n):
        # the window stops below the drop tolerance, where the Lanczos and
        # dense counts may differ by one (21 against 22 values at n = 289)
        fast = dz.pipeline_from_matrix(dz.hilbert_section(n))
        slow = dz.pipeline_from_matrix(dz.hilbert_matrix(n))
        assert fast.diagnostics["spectrum"]["method"] == "lanczos"
        assert fast.diagnostics["window_indices"] == \
            slow.diagnostics["window_indices"]
        assert fast.classification == slow.classification
        assert fast.interval.lower == pytest.approx(slow.interval.lower,
                                                    rel=1e-8)
        assert fast.interval.upper == pytest.approx(slow.interval.upper,
                                                    rel=1e-8)

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

    @pytest.mark.parametrize("operator, alpha, n, cls, degree", [
        (op, alpha, n, *SECTION_CLASSES[op, alpha][n])
        for op, alpha in SECTION_CLASSES for n in SECTION_SIZES])
    def test_section_class_table(self, operator, alpha, n, cls, degree):
        if operator == "hilbert":
            section = dz.hilbert_section(n)
        else:
            section = dz.riemann_liouville_section(alpha, n)
        rep = dz.pipeline_from_matrix(section, operator=operator)
        assert rep.classification == cls
        if degree is None:
            assert rep.degree is None
        else:
            assert rep.degree == pytest.approx(degree, rel=1e-9)

    def test_window_above_one_gives_no_ratio_samples(self):
        # eps = sigma_n^2 >= 1 across the window (4 .. 32): the estimator
        # reads only samples with eps < 1, so nothing decides the class
        scaled = 1e3 * dz.riemann_liouville_matrix(1.0, 256)
        rep = dz.pipeline_from_matrix(scaled)
        assert (rep.interval.lower, rep.interval.upper) == (0.0, math.inf)
        assert (rep.classification, rep.degree) == ("indeterminate", None)
        assert rep.diagnostics["power_slope"] is None

    def test_no_decay_fit_falls_back_to_the_corner_estimate(self):
        # -ln sigma_n = (ln n)^2 is neither linear in ln n nor a power of
        # ln n over the window 4 .. 16: the ratio classifier's class stands
        n = np.arange(1, 65, dtype=float)
        rep = dz.pipeline_from_matrix(np.diag(np.exp(-np.log(n) ** 2)))
        assert rep.diagnostics["window_indices"] == (4, 16)
        tol = dz.DEFAULT_THRESHOLDS.residual_tol
        assert min(rep.diagnostics["power_rms_rel"],
                   rep.diagnostics["log_rms_rel"]) > tol
        iv, degree, fits = counting.estimate_curve(
            counting.corner_curve(rep.sigma, (4, 16)))
        assert (rep.classification, rep.degree) == ("severe", None)
        assert (rep.classification, rep.degree) == (iv.classification, degree)
        assert (rep.interval.lower, rep.interval.upper) == (iv.lower, iv.upper)
        assert {k: rep.diagnostics[k] for k in fits} == fits
        assert rep.diagnostics["trend"] == iv.diagnostics["trend"]
        assert rep.diagnostics["drift"] == iv.diagnostics["drift"]
