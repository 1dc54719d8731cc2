"""Finite-dimensional realizations and their spectral pipelines.

Finite sections (Hilbert matrix, product-quadrature fractional
integration), dense or as structured Toeplitz/Hankel sections with FFT
matrix-vector products; singular value computation with a drop
tolerance and residual-checked Lanczos bidiagonalization; FFT estimation
of convolution multipliers from kernel samples; and the end-to-end
pipeline matrix -> spectrum -> corner curve -> interval.  Needs numpy
only: the LAPACK and thread-count routines it calls through ctypes are
found in the OpenBLAS already mapped into the process, numpy's own, and
without them the same results come from numpy alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .core import (DEFAULT_THRESHOLDS, INDETERMINATE, MODERATE, SEVERE,
                   IllPosednessInterval, InsufficientDataError, Report,
                   SigmaSequence)
from . import counting as _counting
from . import distribution as _distribution
from . import estimate as _estimate

__all__ = [
    "hilbert_matrix",
    "riemann_liouville_matrix",
    "Section",
    "hilbert_section",
    "riemann_liouville_section",
    "Spectrum",
    "singular_values",
    "KernelSampler",
    "SampledMultiplier",
    "fft_multiplier",
    "Report",
    "pipeline_from_matrix",
]

SVD_DROP_TOL = 1e-14
FIT_TOL = 0.02  # relative rms residual that selects a decay model
# per-triplet residual bound ||A^T u - sigma v|| <= RESIDUAL_TOL * sigma_1
RESIDUAL_TOL = 1e-10
EPS = np.finfo(float).eps
# a Lanczos coefficient this small against the largest one is rounding:
# the Krylov subspaces are exhausted
EXHAUSTED = 4.0 * EPS
# largest estimated |u_i . u_j| the Lanczos recurrence lets stand, well
# below what would show in the RESIDUAL_TOL certificate
LOSS_TOL = 1e-11
TOEPLITZ = "toeplitz"
HANKEL = "hankel"
# Sections up to this order solve on one BLAS thread: on a 2-core host a
# second one about doubles the CPU time of such a solve and saves little
# or no wall time.  The stop-test SVD of B (dbdsdc, m <= n/2 <= 512) takes
# the same time on one thread as on two (5 ms at m = 300, 19 ms at
# m = 560), and so do the reorthogonalization products up to about
# 300 x 1024, while two threads halve them at 512 x 1024.  At n = 2048 one
# thread made a benchmark `sections` pass 15% slower, measured while B
# still took the dense SVD, which ran 43% slower on one thread at
# m = 1100; dbdsdc takes about 0.1 s there on one thread or two.
ONE_THREAD_MAX_N = 1024
# (get, set) symbol pairs of OpenBLAS's thread count, first match wins:
# numpy's scipy-openblas wheels, then plain OpenBLAS, each ILP64 first
OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))
# LAPACKE_dbdsdc symbols with the type of their integer arguments, in the
# same order; the first found in any mapped OpenBLAS wins, so an ILP64
# library (numpy's wheels) goes before an LP64 one (scipy's).  The 64_
# suffix marks the ILP64 interface, as OpenBLAS names it.
DBDSDC_SYMBOLS = tuple(
    (f"{prefix}LAPACKE_dbdsdc{suffix}", integer)
    for prefix in ("scipy_", "")
    for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int)))
LAPACK_ROW_MAJOR = 101


def hilbert_matrix(n):
    """Finite section of the Hilbert matrix, entries 1/(i + j - 1), 1-based."""
    if n < 1:
        raise ValueError("n must be at least 1")
    i = np.arange(1, n + 1, dtype=float)
    return 1.0 / (i[:, None] + i[None, :] - 1.0)


def riemann_liouville_matrix(alpha, n):
    """Midpoint product-quadrature section of fractional integration.

    Collocation at s_i = (i - 1/2)/n; the cell holding the collocation
    point contributes its exact local integral (h/2)^alpha / Gamma(alpha+1),
    every earlier cell the midpoint value h (s_i - t_j)^(alpha-1) /
    Gamma(alpha).  The weakly singular diagonal limits the accuracy to
    O(h) for alpha < 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    h = 1.0 / n
    idx = np.arange(n)
    diff = (idx[:, None] - idx[None, :]).astype(float)
    out = np.zeros((n, n))
    mask = diff > 0
    # s_i - t_j = (i - j) h on the shared midpoint grid
    out[mask] = h ** alpha * diff[mask] ** (alpha - 1.0) / math.gamma(alpha)
    np.fill_diagonal(out, (0.5 * h) ** alpha / math.gamma(alpha + 1.0))
    return out


@dataclass(frozen=True, eq=False)
class Section:
    """Structured n x n finite section given by its generating coefficients.

    ``toeplitz``: lower triangular, entry (i, j) = coeffs[i - j] for i >= j,
    so ``coeffs`` is the first column (length n).  ``hankel``: entry
    (i, j) = coeffs[i + j], with ``coeffs`` of length 2n - 1.  Products
    with the section and its transpose are zero-padded real FFT
    convolutions, O(n log n), so the matrix itself is never stored.
    """

    kind: str
    coeffs: np.ndarray
    n: int

    def __post_init__(self):
        if self.kind not in (TOEPLITZ, HANKEL):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        c = np.array(self.coeffs, dtype=float)
        size = self.n if self.kind == TOEPLITZ else 2 * self.n - 1
        if c.shape != (size,):
            raise ValueError(f"a {self.kind} section of size {self.n} needs "
                             f"{size} coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("section coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __len__(self):
        return self.n

    def dense(self):
        """The section as a dense n x n matrix."""
        i = np.arange(self.n)
        if self.kind == TOEPLITZ:
            # zero above the diagonal: c padded with one zero at index -1
            lag = i[:, None] - i[None, :]
            return np.append(self.coeffs, 0.0)[np.where(lag >= 0, lag, -1)]
        return self.coeffs[i[:, None] + i[None, :]]

    def operator(self):
        """Products of a vector with the section (``matvec``) and its
        transpose (``rmatvec``) by FFTs."""
        n = self.n
        size = 1 << (2 * n - 2).bit_length()  # the power of two >= 2n - 1
        spectrum = np.fft.rfft(self.coeffs, size)

        def product(s, x, conj=False):
            # circular convolution (correlation if conj) with the
            # coefficients; size >= 2n - 1 keeps the first n entries free
            # of wrap-around
            f = np.fft.rfft(x, size)
            if conj:
                f = f.conj()
            f *= s
            return np.fft.irfft(f, size)[:n]

        if self.kind == TOEPLITZ:
            # (T x)_i = sum_t c_(i-t) x_t, (T^T x)_i = sum_t c_t x_(i+t)
            reverse = spectrum.conj()

            def matvec(x):
                return product(spectrum, x)

            def rmatvec(x):
                return product(reverse, x)
        else:
            # (H x)_i = sum_t c_(i+t) x_t
            def matvec(x):
                return product(spectrum, x, conj=True)
            rmatvec = matvec
        return SimpleNamespace(matvec=matvec, rmatvec=rmatvec)


def hilbert_section(n):
    """The section of ``hilbert_matrix(n)`` as a Hankel Section."""
    return Section(HANKEL, 1.0 / np.arange(1, 2 * n, dtype=float), n)


def riemann_liouville_section(alpha, n):
    """The section of ``riemann_liouville_matrix(alpha, n)`` as a Toeplitz
    Section, with the same coefficients entry for entry."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    # ln c_k is monotone in k >= 1, so c_0, c_1 and c_{n-1} bound them all;
    # their squares must stay within the normal floats, e^-708.4 to e^709.8
    try:
        logs = [alpha * math.log(0.5 / n) - math.lgamma(alpha + 1.0)]
        logs += [(alpha - 1.0) * math.log(k) - alpha * math.log(n)
                 - math.lgamma(alpha) for k in (1, n - 1) if n > 1]
    except OverflowError:  # lgamma of a huge alpha
        logs = [math.inf]
    if not all(-708.0 < 2.0 * v < 709.0 for v in logs):
        raise ValueError(f"alpha = {alpha!r} at n = {n}: the section's "
                         "coefficients or their squares leave the float range")
    h = 1.0 / n
    c = np.empty(n)
    c[1:] = h ** alpha * np.arange(1, n, dtype=float) ** (alpha - 1.0) \
        / math.gamma(alpha)
    c[0] = (0.5 * h) ** alpha / math.gamma(alpha + 1.0)
    return Section(TOEPLITZ, c, n)


@dataclass(frozen=True)
class Spectrum(SigmaSequence):
    """Leading singular values of a matrix and how they were computed.

    ``values`` holds the ``len(values)`` largest singular values; ``kept``
    is how many of all n values clear the drop tolerance, which is what a
    dense SVD would keep (``len(values)`` for ``dense`` itself).
    ``method`` is ``lanczos`` or ``dense``.
    """

    kept: int = 0
    method: str = "dense"


def _check_matrix(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def singular_values(m):
    """Nonincreasing positive singular values above SVD_DROP_TOL * sigma_max.

    Values below the drop tolerance are dominated by rounding in the
    factorization and are discarded rather than reported as data.  The
    result has no tail law: a finite matrix has no tail to extrapolate, so
    counts beyond its values saturate and are flagged exhausted.

    A ``Section`` gives a ``Spectrum``: its leading values by FFT-matvec
    Lanczos and the count a dense SVD would keep, or the dense result when
    that count cannot be certified (see ``_leading_values``); any other
    matrix gives the dense ``Spectrum`` of all kept values.
    """
    if isinstance(m, Section):
        leading = _leading_values(m)
        if leading is not None:
            return leading
        m = m.dense()
    return _dense_singular_values(m)


def _dense_singular_values(m):
    m = _check_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("matrix has no positive singular values")
    keep = s[s > SVD_DROP_TOL * s[0]]
    return Spectrum(keep, kept=keep.size, method="dense")


def _clears_drop_tol(c):
    """Whether every singular value of the lower-triangular Toeplitz section
    with first column c exceeds SVD_DROP_TOL * sigma_max.

    Its inverse is lower-triangular Toeplitz with first column d (c * d = 1
    as power series), and both the 1- and the inf-norm of a lower-triangular
    Toeplitz matrix are the absolute sum of its first column, so
    sigma_min >= 1 / sum|d| and sigma_max <= sum|c|.
    """
    d = np.empty(c.size)
    with np.errstate(all="ignore"):
        d[0] = 1.0 / c[0]
        for k in range(1, c.size):
            d[k] = -np.dot(c[k:0:-1], d[:k]) / c[0]
        return bool(np.abs(d).sum() * np.abs(c).sum() * SVD_DROP_TOL < 1.0)


@functools.cache
def _openblas_libraries():
    """Every OpenBLAS mapped into the process, from /proc/self/maps, in
    path order; empty without /proc or without OpenBLAS.  Looked up on
    first use, so that importing costs nothing."""
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                # the pathname is all after the fifth field; it may hold spaces
                fields = line.rstrip("\n").split(None, 5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                    paths.add(fields[5])
    except OSError:
        return ()
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libraries)


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of every mapped OpenBLAS."""
    controls = []
    for lib in _openblas_libraries():
        for get, set_ in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@functools.cache
def _lapacke_dbdsdc():
    """LAPACKE_dbdsdc of a mapped OpenBLAS, or None (another BLAS, no
    /proc)."""
    for name, integer in DBDSDC_SYMBOLS:
        for lib in _openblas_libraries():
            if hasattr(lib, name):
                dbdsdc = getattr(lib, name)
                pointer = ctypes.c_void_p
                dbdsdc.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                                   integer, pointer, pointer, pointer, integer,
                                   pointer, integer, pointer, pointer]
                dbdsdc.restype = integer
                return dbdsdc
    return None


_blocks_lock = threading.Lock()
_open_blocks = 0
_saved_counts = ()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore
    each library's previous count, also when the block raises.

    Where no OpenBLAS control is found (another BLAS, no /proc) the block
    runs unchanged.  The count is process-wide: another Python thread that
    calls BLAS while the block runs also runs on one thread.  Blocks may
    nest or overlap across threads: the first to open saves the counts and
    the last to close restores them.
    """
    global _open_blocks, _saved_counts
    controls = _openblas_controls()
    with _blocks_lock:
        if not _open_blocks:
            _saved_counts = tuple(get() for get, _ in controls)
            for _, set_ in controls:
                set_(1)
        _open_blocks += 1
    try:
        yield
    finally:
        with _blocks_lock:
            _open_blocks -= 1
            if not _open_blocks:
                for (_, set_), count in zip(controls, _saved_counts):
                    set_(count)


def _leading_values(section):
    """Leading singular values of a section, or None to use the dense SVD.

    Both kinds go through ``_bidiagonalize``.  Toeplitz sections: once
    the certificate shows that all n values clear the drop tolerance, it
    gives the top ``_trusted_window(n)[1]`` values.  Hankel sections: it
    gives every value down to the first converged one below the
    tolerance, and those values must account for the squared Frobenius
    norm up to RESIDUAL_TOL of it, which certifies that none was missed.
    No certificate, a window of n/2 or more, a solve that does not
    converge within n/2 steps, fewer than the wanted values, a triplet
    residual above RESIDUAL_TOL * sigma_1 or missing Hankel mass all give
    None.  Sections of order n <= ONE_THREAD_MAX_N solve on one BLAS
    thread (``_one_blas_thread``): there a second thread only spins beside
    the solve and saves no time; larger ones keep the library default.
    """
    n = len(section)
    if section.kind == TOEPLITZ:
        k = _trusted_window(n)[1]
        if 2 * k >= n or not _clears_drop_tol(section.coeffs):
            return None
    else:
        k = n
    with (_one_blas_thread() if n <= ONE_THREAD_MAX_N
          else contextlib.nullcontext()):
        found = _bidiagonalize(section.operator(), n, k)
    if found is None:
        return None
    s, residual = found
    kept = n
    if section.kind == HANKEL:
        # coeffs[j] fills the min(j + 1, 2n - 1 - j) entries of antidiagonal j
        j = np.arange(2 * n - 1)
        mass = np.dot(np.minimum(j + 1, 2 * n - 1 - j), section.coeffs ** 2)
        if mass - np.dot(s, s) > RESIDUAL_TOL * mass:
            return None
        kept = int(np.count_nonzero(s > SVD_DROP_TOL * s[0]))
        s, residual = s[:kept], residual[:kept]
    elif s.size < k:
        return None
    if s[-1] <= 0 or np.any(residual > RESIDUAL_TOL * s[0]):
        return None
    return Spectrum(s, kept=kept, method="lanczos")


def _bidiagonalize(op, n, k):
    """The k largest singular values of an n x n operator, cut after the
    first converged one below SVD_DROP_TOL * sigma_1, with the residual
    norm ||A^T u - sigma v|| of each triplet; None if that takes n/2 steps.

    Golub-Kahan-Lanczos bidiagonalization (R. M. Larsen, DAIMI PB-537,
    1998) from a fixed random start.  A V = U B with B upper bidiagonal
    holds by construction; A^T U = V B^T + beta_m v_{m+1} e_m^T holds up
    to the reorthogonalization, so |beta_m y_m| bounds the residual of the
    Ritz triplet (sigma, U y, V x), and the residuals returned are taken
    on that side.  Each new v is orthogonalized against all of V.  Then U
    loses orthogonality only through rounding, which a running bound
    follows (Larsen's recurrence with V orthogonal); u is orthogonalized
    against U when the bound passes LOSS_TOL: at most a few times in a
    solve, where orthogonalizing it at every step costs a third more time
    at n = 2048.  A coefficient at rounding level ends the recurrence:
    the subspaces are invariant and B's values exact.  Each stop test
    takes one SVD of B from its two diagonals (``_bidiagonal_svd``: LAPACK's
    ``dbdsdc``, else numpy's dense SVD).  Tests double in size until
    k steps, then aim 5% past where the count of converged triplets,
    extrapolated from the last two tests, reaches the wanted count: one
    more step costs far less than one more test.  The products A^T u_j
    are kept, so the residuals cost two matrix products and no FFT.
    """
    cap = n // 2
    U, V = np.empty((cap, n)), np.empty((cap + 1, n))
    W = np.empty((cap, n))  # W[j] = A^T u_j
    alpha, beta = np.zeros(cap), np.zeros(cap)
    v = np.random.default_rng(0).standard_normal(n)
    V[0] = v / math.sqrt(v @ v)
    b, norm, loss, test, last = 0.0, 0.0, 0.0, min(16, cap), None
    for j in range(cap):
        p = op.matvec(V[j])
        if j:
            p -= b * U[j - 1]
        a = math.sqrt(p @ p)
        # bound on max |u_j . u_i|
        loss = (b * loss + EPS * (a + b + norm)) / a if a > 0 else math.inf
        if loss > LOSS_TOL:
            a, loss = _orthogonalize(p, U[:j]), EPS
        exhausted = not a > EXHAUSTED * norm
        if exhausted:
            W[j] = 0.0
        else:
            U[j] = p / a
            W[j] = op.rmatvec(U[j])
            r = W[j] - a * V[j]
            b = _orthogonalize(r, V[:j + 1])
            norm = max(norm, a, b)
            alpha[j] = a
            exhausted = not b > EXHAUSTED * norm
        if not exhausted:
            beta[j] = b
            V[j + 1] = r / b
        m = j + 1
        if m < test and not exhausted:
            continue
        y, s, xt = _bidiagonal_svd(alpha[:m], beta[:m - 1])
        # the values down to the first below the tolerance, or all of
        # them once the subspaces are exhausted; a value has converged when
        # its bound is below RESIDUAL_TOL * sigma_1 and does not reach
        # across the tolerance, so that the count kept is decided
        drop = SVD_DROP_TOL * s[0]
        above = int(np.count_nonzero(s > drop))
        wanted = min(k, above if exhausted else above + 1)
        bound = np.abs(beta[m - 1] * y[m - 1, :wanted])
        loose = (bound > RESIDUAL_TOL * s[0]) | (np.abs(s[:wanted] - drop) <= bound)
        converged = int(np.argmax(loose)) if loose.any() else wanted
        if converged == wanted <= m:
            residual = y[:, :wanted].T @ W[:m] \
                - s[:wanted, None] * (xt[:wanted] @ V[:m])
            return s[:wanted], np.sqrt(np.einsum("ij,ij->i", residual, residual))
        if m < k or last is None or converged <= last[1]:
            test = 2 * m
        else:
            rate = (converged - last[1]) / (m - last[0])
            test = m + math.ceil(1.05 * (wanted - converged) / rate)
        test, last = min(test, cap), (m, converged)
    return None


def _orthogonalize(x, basis):
    """Remove from x, in place, its components along the orthonormal rows of
    ``basis`` by classical Gram-Schmidt, repeated while it cancels more than
    half of x; returns the new norm of x."""
    norm = math.sqrt(x @ x)
    for _ in range(3):
        x -= (basis @ x) @ basis
        norm, before = math.sqrt(x @ x), norm
        if norm > 0.5 * before:
            break
    return norm


def _bidiagonal_svd(d, e):
    """``np.linalg.svd`` of the upper bidiagonal matrix with diagonal d and
    superdiagonal e: (y, s, xt) with B = y diag(s) xt.

    LAPACK's bidiagonal divide and conquer (``dbdsdc``; Gu and Eisenstat,
    SIAM J. Matrix Anal. Appl. 16(1), 1995) through LAPACKE in numpy's
    OpenBLAS.  It is the routine ``gesdd`` calls after its Householder
    reduction to bidiagonal form, and that reduction and its
    back-transformation leave a bidiagonal matrix as it is, so skipping
    them, and the dense copy of B, gives the same bits.  Without that
    symbol (another BLAS, no /proc), the dense SVD of B.
    """
    dbdsdc = _lapacke_dbdsdc()
    if dbdsdc is None:
        return np.linalg.svd(np.diag(d) + np.diag(e, 1))
    s = np.array(d, dtype=float)  # overwritten by the values
    m = s.size
    if s.shape != (m,) or np.shape(e) != (m - 1,):
        raise ValueError("a bidiagonal needs m diagonal and m - 1 "
                         "superdiagonal entries")
    work = np.append(e, 0.0)  # float; destroyed; never empty
    y, xt = np.empty((m, m)), np.empty((m, m))
    info = dbdsdc(LAPACK_ROW_MAJOR, b"U", b"I", m, s.ctypes.data,
                  work.ctypes.data, y.ctypes.data, m, xt.ctypes.data, m,
                  None, None)
    if info:
        raise np.linalg.LinAlgError(f"SVD did not converge (dbdsdc info {info})")
    return y, s, xt


# ---------------------------------------------------------------------------
# FFT multiplier estimation

@dataclass(frozen=True)
class KernelSampler:
    """Sampling plan for a convolution kernel on [-L, L) with N cells.

    |kernel| must be integrable: the a-posteriori truncation and aliasing
    bounds integrate it.  N must be a power of two.
    """

    fn: Callable[[float], float]
    L: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L!r}")
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two")
        # the window 2L and the alias reach pi N / L must be floats
        if not (math.isfinite(2.0 * self.L)
                and math.isfinite(math.pi * self.N / self.L)):
            raise ValueError(f"L = {self.L!r} with N = {self.N}: the sample or "
                             "frequency grid leaves the float range")


@dataclass(frozen=True)
class SampledMultiplier:
    """|Fourier transform|^2 samples on the dual grid plus error bounds."""

    omega: np.ndarray
    values: np.ndarray
    truncation_bound: float
    aliasing_bound: float


def fft_multiplier(kernel: KernelSampler) -> SampledMultiplier:
    """Multiplier lambda = |F h|^2 estimated by a length-N DFT.

    Samples of h on x_m = -L + m dx are turned into values of the
    continuous transform integral F h(w) = int exp(-i w x) h(x) dx at the
    dual frequencies w_k = pi k / L, k = -N/2 .. N/2 - 1, via the exact
    phase factor (-1)^k dx.  The truncation bound integrates |kernel|
    beyond [-L, L]; the aliasing bound is the mass of |kernel| beyond half
    the first alias distance.
    """
    L, N = kernel.L, kernel.N
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    h = np.asarray([kernel.fn(v) for v in x.tolist()], dtype=float)
    k = np.arange(-N // 2, N // 2)
    # a kernel too large for its transform or |transform|^2 to be a float
    # raises FloatingPointError
    with np.errstate(over="raise", invalid="raise"):
        dft = np.fft.fftshift(np.fft.fft(h))
        hhat = dx * (-1.0) ** k * dft
        lam = np.abs(hhat) ** 2
    omega = np.pi * k / L

    magnitude = _distribution._pointwise(lambda t: abs(kernel.fn(t)))
    truncation = 2.0 * _distribution._quad(magnitude, L, math.inf)[0]
    # first alias image sits 2 pi / dx away from the kept band
    alias_dist = 2.0 * math.pi / dx - np.abs(omega).max()
    aliasing = _gauss_tail_bound(magnitude, alias_dist)

    return SampledMultiplier(omega=omega, values=lam,
                             truncation_bound=float(truncation),
                             aliasing_bound=float(aliasing))


def _gauss_tail_bound(magnitude, dist):
    """Crude |F h|(dist) bound: L1 mass of |h| beyond dist/2."""
    if dist <= 0:
        return math.inf
    return 2.0 * _distribution._quad(magnitude, dist / 2.0, math.inf)[0]


# ---------------------------------------------------------------------------
# end-to-end pipeline

def _trusted_window(n_kept):
    """Index window for degree estimation on discretized spectra.

    The upper part of a quadrature matrix's spectrum reflects the grid, not
    the operator, so the window stays in the low-to-mid range; very short
    spectra fall back to their upper half.
    """
    if n_kept < 64:
        return max(2, n_kept // 2), n_kept
    return max(4, n_kept // 128), max(16, n_kept // 8)


def _spectrum_fits(n, y):
    """Power-law vs exponential fit of y = -ln sigma_n over the indices n."""
    slope_p, _, rms_p = _estimate.power_law_fit(np.log(n), y)
    rate_e, _, rms_e = _estimate.power_law_fit(n, y)
    scale = max(float(y.max() - y.min()), 1e-300)
    return {"power_slope": slope_p, "power_rms_rel": rms_p / scale,
            "exp_rate": rate_e, "exp_rms_rel": rms_e / scale}


def pipeline_from_matrix(m, operator="matrix", thresholds=DEFAULT_THRESHOLDS):
    """matrix or Section -> singular values -> corner curve -> classification.

    Finite sections carry the true spectrum only in their lower index
    range, where the ratio samples of the corner curve (the raw decay
    exponents) are still biased by constant prefactors.  So [A, B] are
    their extremes, but the classification selects between an
    algebraic-decay model (moderate; degree = fitted exponent) and an
    exponential-decay model (severe) by the quality of the corresponding
    fits, and falls back to the estimator when neither fits or the window
    is too short to tell them apart.
    """
    seq = singular_values(m)
    kept = seq.kept
    lo, hi = _trusted_window(kept)
    hi = min(hi, kept)
    if hi <= lo:
        raise ValueError(f"{kept} singular value(s) kept: too few for a "
                         "two-point estimation window")
    phi = _counting.corner_curve(seq, (lo, hi))
    diagnostics = {"window_indices": (lo, hi), "kept_values": kept,
                   "spectrum": {"method": seq.method, "computed": len(seq)}}
    fits = _spectrum_fits(np.arange(lo, hi + 1, dtype=float),
                          -np.log(seq.values[lo - 1:hi]))
    diagnostics.update(fits)
    values = [r for _, r in _estimate.ratio_samples(phi)]
    lower = max(0.0, min(values, default=0.0))
    upper = max(lower, max(values, default=math.inf))
    # a line through two points fits exactly, and roundoff would pick the
    # decay model, so a fit decides only on three points or more
    fitted = hi - lo >= 2
    power_ok = fitted and fits["power_rms_rel"] <= FIT_TOL \
        and fits["power_slope"] > 0
    exp_ok = fitted and fits["exp_rms_rel"] <= FIT_TOL and fits["exp_rate"] > 0
    degree = None
    if power_ok and (not exp_ok
                     or fits["power_rms_rel"] <= fits["exp_rms_rel"]):
        classification = MODERATE
        degree = fits["power_slope"]
    elif exp_ok:
        classification = SEVERE
    else:
        try:
            fallback, degree, _ = _counting.estimate_curve(phi, thresholds)
            classification = fallback.classification
            diagnostics.update(fallback.diagnostics)
        except InsufficientDataError:
            classification = INDETERMINATE
    collapsed = degree if (classification == MODERATE
                           and upper - lower < thresholds.tau_collapse) else None
    interval = IllPosednessInterval(lower, upper, classification, collapsed,
                                    dict(diagnostics))
    if operator == "hilbert":
        diagnostics["discretization_artifact"] = (
            "finite sections of the Hilbert matrix have exponentially "
            "decaying singular values although the full operator is "
            "non-compact with continuous spectrum [0, pi]; the severe "
            "classification describes the truncation, not the operator")
    return Report({"operator": operator}, phi, interval, degree,
                  diagnostics, sigma=seq)

