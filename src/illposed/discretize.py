"""Finite-dimensional realizations and their spectral pipelines.

Finite sections (Hilbert matrix, product-quadrature fractional
integration), dense or as structured Toeplitz/Hankel sections with FFT
matrix-vector products; singular value computation with a drop tolerance
and residual-checked symmetric Lanczos on each section's symmetric Hankel
form (a singular value is the magnitude of one of its eigenvalues); FFT
estimation of convolution multipliers from kernel samples; and the
end-to-end pipeline matrix -> spectrum -> corner curve -> interval.  Needs
numpy only: the LAPACK and thread-count routines it calls through ctypes
are looked up on numpy's own linalg extension, so they are those of the
OpenBLAS numpy links, and without them the same results come from numpy
alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DEFAULT_THRESHOLDS, InsufficientDataError, Report,
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
# per-pair residual bound ||S x - theta x|| <= RESIDUAL_TOL * |theta_1|
RESIDUAL_TOL = 1e-10
EPS = np.finfo(float).eps
# a Lanczos coefficient this small against the largest one is rounding:
# the Krylov subspace is exhausted
EXHAUSTED = 4.0 * EPS
# Lanczos steps the basis holds before its one copy: hilbert sections
# stop within them (by m = 45 at n = 50000), j_alpha sections run on to
# m = 140-597 at n = 512-2048 and then get all 3n/4 rows at once
FIRST_ROWS = 64
# doubles in one row block of the reorthogonalization (1 MiB) in a solve
# on one BLAS thread: the block is read twice in a row, the second time
# from L2.  On a 2-vCPU Xeon it takes 14-19% off a pass over 150-600 rows
# of n = 2048 on one thread, and adds 50-60% on two, so solves on the
# library's threads orthogonalize against the whole basis at once.  The
# final residual check multiplies its Ritz vectors by the section in
# blocks whose FFT arrays hold about this many doubles.
BLOCK_DOUBLES = 1 << 17
TOEPLITZ = "toeplitz"
HANKEL = "hankel"
# Sections up to this order solve on one BLAS thread.  The rule: a second
# thread stays where, at alpha = 1 and 0.5, the wall time it saves in a
# fresh j_alpha `discretize` process is at least half the CPU it adds.  On
# a 2-vCPU Xeon (OpenBLAS 0.3.31), medians of 8 alternating pairs, wall/CPU
# on the library's threads against one: n = 3072, 0.60/1.13 against
# 0.77/0.90 s (alpha = 1), 0.77/1.47 against 1.08/1.20 s (0.5); n = 4096
# by more.  At n = 2048 it saved 0.04-0.09 s for 0.19-0.20 s (warm solves).
ONE_THREAD_MAX_N = 2048
# OpenBLAS builds as (thread prefix, LAPACKE prefix, suffix, integer type of
# the LAPACKE arguments), first match wins: numpy's scipy-openblas wheels,
# then plain OpenBLAS, each ILP64 first.  The 64_ suffix marks the ILP64
# interface, as OpenBLAS names it.
OPENBLAS_BUILDS = tuple(
    (threads, lapacke, suffix, integer)
    for threads, lapacke in (("scipy_openblas", "scipy_LAPACKE"),
                             ("openblas", "LAPACKE"))
    for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int)))
LAPACK_COL_MAJOR = 102


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
    with its symmetric form are zero-padded real FFT correlations,
    O(n log n), so the matrix itself is never stored.
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

    def symmetric(self):
        """The symmetric Hankel section with this section's singular values:
        the section itself, or T J for a Toeplitz section T and the flip J
        (orthogonal), whose entry (i, j) = coeffs[i + j - (n - 1)], zero
        where i + j < n - 1."""
        if self.kind == HANKEL:
            return self
        return Section(HANKEL, np.concatenate((np.zeros(self.n - 1),
                                               self.coeffs)), self.n)

    def operator(self):
        """x -> S x by FFTs, for the symmetric form S = ``symmetric()``: a
        vector of length n, or a (rows, n) block whose rows are each
        multiplied."""
        n = self.n
        size = 1 << (2 * n - 2).bit_length()  # the power of two >= 2n - 1
        spectrum = np.fft.rfft(self.symmetric().coeffs, size)

        def matvec(x):
            # (S x)_i = sum_t c_(i+t) x_t: a circular correlation with the
            # coefficients; size >= 2n - 1 keeps the first n entries free
            # of wrap-around
            f = np.fft.rfft(x, size).conj()
            f *= spectrum
            return np.fft.irfft(f, size)[..., :n]
        return matvec


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
    dense SVD would keep (``len(values)`` for ``dense`` itself).  Past 16
    kept values the window stops short of the last, where the two methods
    may count one apart.  ``method`` is ``lanczos`` or ``dense``.
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
    sigma_min >= 1 / sum|d| and sigma_max <= sum|c|.  d comes from Newton's
    iteration on power series, d <- d + d (1 - c d), which doubles the
    number of correct terms per step, with FFT products.
    """
    n = c.size
    with np.errstate(all="ignore"):
        d = 1.0 / c[:1]
        while d.size < n:
            k, m = d.size, min(2 * d.size, n)
            size = 1 << (m + k - 2).bit_length()  # >= m + k - 1: no wrap
            fd = np.fft.rfft(d, size)
            # c d = 1 + e z^k + O(z^m); the new terms are -d e
            e = np.fft.irfft(np.fft.rfft(c[:m], size) * fd, size)[k:m]
            d = np.concatenate(
                (d, -np.fft.irfft(fd * np.fft.rfft(e, size), size)[:m - k]))
        return bool(np.abs(d).sum() * np.abs(c).sum() * SVD_DROP_TOL < 1.0)


@functools.cache
def _openblas():
    """(get, set, dstevd) of the OpenBLAS numpy calls, or None.

    The symbols are looked up on numpy's own linalg extension: ``dlsym``
    on its handle also searches the libraries it links, so it finds the
    OpenBLAS numpy itself calls and no other copy in the process.  The
    first OPENBLAS_BUILDS row whose thread-count functions exist names
    the build, and ``dstevd`` (its LAPACKE_dstevd, or None) comes from
    that row only, so its integer width is the build's: a LAPACKE from
    another BLAS is never called with a guessed width.  None where numpy
    links no OpenBLAS.  Looked up on first use, so that importing costs
    nothing.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # another numpy layout
        return None
    for threads, lapacke, suffix, integer in OPENBLAS_BUILDS:
        get = getattr(lib, f"{threads}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{threads}_set_num_threads{suffix}", None)
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        dstevd = getattr(lib, f"{lapacke}_dstevd{suffix}", None)
        if dstevd is not None:
            pointer = ctypes.c_void_p
            dstevd.argtypes = [ctypes.c_int, ctypes.c_char, integer,
                               pointer, pointer, pointer, integer]
            dstevd.restype = integer
        return get, set_, dstevd
    return None


_blocks_lock = threading.Lock()
_open_blocks = 0
_saved_count = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS (``_openblas``) on one thread,
    then restore its previous count, also when the block raises.

    Where numpy links no OpenBLAS the block runs unchanged.  The count is
    process-wide: another Python thread that calls numpy's BLAS while the
    block runs also runs on one thread.  Blocks may nest or overlap across
    threads: the first to open saves the count and the last to close
    restores it.
    """
    global _open_blocks, _saved_count
    blas = _openblas()
    with _blocks_lock:
        if blas and not _open_blocks:
            _saved_count = blas[0]()
            blas[1](1)
        _open_blocks += 1
    try:
        yield
    finally:
        with _blocks_lock:
            _open_blocks -= 1
            if blas and not _open_blocks:
                blas[1](_saved_count)


def _leading_values(section):
    """Leading singular values of a section, or None to use the dense SVD.

    Both kinds go through ``_lanczos`` on the section's symmetric Hankel
    form S (``Section.symmetric``), whose eigenvalue magnitudes are the
    section's singular values.  The solve and the checks below run on the
    section scaled by 2^-e, the power of two that brings its largest
    coefficient into [1/2, 1): the scaling is exact, and no product or
    square underflows or overflows however tiny or huge the coefficients
    are; the values and residuals are scaled back by 2^e at the end.
    Toeplitz sections: once the certificate shows that all n values clear
    the drop tolerance, it gives the top
    ``_trusted_window(n)[1]`` values.  Hankel sections: it gives every
    value down to the first converged one below the tolerance, and those
    values must account for the squared Frobenius norm up to RESIDUAL_TOL
    of it, which certifies that none was missed.  No certificate, a window
    of n/2 or more, a solve that does not converge within 3n/4 steps,
    fewer than the wanted values, an eigenpair residual above
    RESIDUAL_TOL * sigma_1, missing Hankel mass or a value that leaves the
    float range when scaled back all give None.  Sections
    of order n <= ONE_THREAD_MAX_N solve on one BLAS thread
    (``_one_blas_thread``): there a second thread saves less wall time
    than half the CPU time it adds (see ONE_THREAD_MAX_N); larger ones,
    and the dense fallback, keep the library default.  A section of zeros
    raises the dense SVD's ValueError without a solve.
    """
    n = len(section)
    if not section.coeffs.any():
        raise ValueError("matrix has no positive singular values")
    e = math.frexp(np.abs(section.coeffs).max())[1]
    scaled = Section(section.kind, np.ldexp(section.coeffs, -e), n)
    if section.kind == TOEPLITZ:
        k = _trusted_window(n)[1]
        if 2 * k >= n or not _clears_drop_tol(scaled.coeffs):
            return None
    else:
        k = n
    one_thread = n <= ONE_THREAD_MAX_N
    with _one_blas_thread() if one_thread else contextlib.nullcontext():
        found = _lanczos(scaled.operator(), n, k, one_thread)
    if found is None:
        return None
    s, residual = found
    kept = n
    if section.kind == HANKEL:
        # coeffs[j] fills the min(j + 1, 2n - 1 - j) entries of antidiagonal j
        j = np.arange(2 * n - 1)
        mass = np.dot(np.minimum(j + 1, 2 * n - 1 - j), scaled.coeffs ** 2)
        if mass - np.dot(s, s) > RESIDUAL_TOL * mass:
            return None
        kept = int(np.count_nonzero(s > SVD_DROP_TOL * s[0]))
        s, residual = s[:kept], residual[:kept]
    elif s.size < k:
        return None
    with np.errstate(over="ignore"):
        s, residual = np.ldexp(s, e), np.ldexp(residual, e)
    if not (s[-1] > 0 and math.isfinite(s[0])) \
            or np.any(residual > RESIDUAL_TOL * s[0]):
        return None
    return Spectrum(s, kept=kept, method="lanczos")


def _lanczos(matvec, n, k, blocked=False):
    """The k largest eigenvalue magnitudes of a symmetric n x n operator,
    cut after the first converged one below SVD_DROP_TOL times the
    largest, with the residual norm ||S x - theta x|| of each eigenpair;
    None if that takes 3n/4 steps.

    Symmetric Lanczos with full reorthogonalization (Parlett, *The
    Symmetric Eigenvalue Problem*, SIAM 1998, ch. 13) from a fixed
    SplitMix64 start (``_start_vector``, normalized), which needs no
    ``numpy.random``: one product with S per step.  S Q^T = Q^T T +
    beta_m q_(m+1) e_m^T holds up to the reorthogonalization, with T
    tridiagonal, so |beta_m s_m| bounds the residual of the Ritz pair
    (theta, Q^T s).  Each new q is orthogonalized against all of Q, in row
    blocks of BLOCK_DOUBLES entries if ``blocked``; a coefficient at
    rounding level ends the recurrence: the subspace is invariant and T's
    values exact.  Each stop test takes one eigendecomposition of T
    (``_tridiagonal_eigh``: LAPACK's ``dstevd``, else numpy's ``eigh``)
    and orders the Ritz values by magnitude.  A value has converged when
    its bound is below RESIDUAL_TOL * |theta_1| and does not reach across
    the drop tolerance; the first value below the tolerance, also only
    once its bound is below half its own magnitude, so that the count
    kept is decided.  Tests double in size until k steps, then aim 5%
    past where the count of converged values, extrapolated from the last
    two tests, reaches the wanted count: one more step costs far less
    than one more test.  Only the basis Q is stored; the residuals of the
    returned pairs are taken against S itself (``_ritz_residuals``).  Q
    holds FIRST_ROWS steps at first; a solve that runs past them copies it
    once into room for 3n/4 steps (``_widened``).
    """
    cap = 3 * n // 4
    rows = min(cap, FIRST_ROWS)
    block = max(1, BLOCK_DOUBLES // n) if blocked else cap + 1
    Q = np.empty((rows + 1, n))
    alpha, beta = np.zeros(cap), np.zeros(cap)
    q = _start_vector(n)
    Q[0] = q / math.sqrt(q @ q)
    b, norm, test, last = 0.0, 0.0, min(16, cap), None
    for j in range(cap):
        if j == rows:
            Q = _widened(Q, cap + 1)
        r = matvec(Q[j])
        if j:
            r -= b * Q[j - 1]
        a = Q[j] @ r
        r -= a * Q[j]
        b = _orthogonalize(r, Q[:j + 1], block)
        alpha[j] = a
        norm = max(norm, abs(a), b)
        exhausted = not b > EXHAUSTED * norm
        if not exhausted:
            beta[j] = b
            Q[j + 1] = r / b
        m = j + 1
        if m < test and not exhausted:
            continue
        theta, y = _tridiagonal_eigh(alpha[:m], beta[:m - 1])
        order = np.argsort(-np.abs(theta), kind="stable")
        s = np.abs(theta[order])
        # the values down to the first below the tolerance, or all of
        # them once the subspace is exhausted
        drop = SVD_DROP_TOL * s[0]
        above = int(np.count_nonzero(s > drop))
        wanted = min(k, above if exhausted else above + 1)
        pairs = order[:wanted]
        bound = np.abs(beta[m - 1] * y[pairs, m - 1])
        loose = (bound > RESIDUAL_TOL * s[0]) | (np.abs(s[:wanted] - drop) <= bound)
        if above < min(wanted, m):
            loose[above] |= bound[above] >= 0.5 * s[above]
        converged = int(np.argmax(loose)) if loose.any() else wanted
        if converged == wanted <= m:
            return s[:wanted], _ritz_residuals(matvec, Q[:m], y[pairs],
                                               theta[pairs])
        if m < k or last is None or converged <= last[1]:
            test = 2 * m
        else:
            rate = (converged - last[1]) / (m - last[0])
            test = m + math.ceil(1.05 * (wanted - converged) / rate)
        test, last = min(test, cap), (m, converged)
    return None


def _start_vector(n):
    """Entries in [-1, 1) for the indices 1..n: the SplitMix64 finaliser
    (Steele, Lea and Flood, OOPSLA 2014) of each index, its top 53 bits
    scaled.  Lanczos needs only a start with components along the wanted
    eigenvectors.  Entry i does not depend on n, and every step is exact
    in uint64 or float arithmetic, so the vector is the same on every
    platform.  Array operations only: numpy warns when a uint64 *scalar*
    product wraps around, never when an array's does.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -52 - 1.0


def _ritz_residuals(matvec, basis, vectors, theta):
    """||S x - theta x|| of each Ritz pair (theta_i, x_i = basis^T
    vectors_i), taken explicitly, so that a product that is not symmetric
    shows.  The x are formed in row blocks, each multiplied by S in one FFT
    product; its rows are zero-padded to at least 2n entries, so blocks of
    BLOCK_DOUBLES / 2n rows keep each FFT array near BLOCK_DOUBLES doubles.
    """
    step = max(1, BLOCK_DOUBLES // (2 * basis.shape[1]))
    out = np.empty(len(theta))
    for start in range(0, len(theta), step):
        x = vectors[start:start + step] @ basis
        residual = matvec(x)
        residual -= theta[start:start + step, None] * x
        out[start:start + step] = np.sqrt(
            np.einsum("ij,ij->i", residual, residual))
    return out


def _widened(a, rows):
    """a copied into the first rows of a fresh ``np.empty`` array of that
    many rows; the pages of the rest are allocated only when written."""
    out = np.empty((rows, a.shape[1]))
    out[:len(a)] = a
    return out


def _orthogonalize(x, basis, block):
    """Remove from x, in place, its components along the orthonormal rows of
    ``basis`` by classical Gram-Schmidt, repeated while it cancels more than
    half of x; returns the new norm of x.  Each pass runs over blocks of
    ``block`` rows, so that the update reads a block again while it is
    still in cache."""
    norm = math.sqrt(x @ x)
    for _ in range(3):
        for start in range(0, len(basis), block):
            rows = basis[start:start + block]
            x -= (rows @ x) @ rows
        norm, before = math.sqrt(x @ x), norm
        if norm > 0.5 * before:
            break
    return norm


def _tridiagonal_eigh(d, e):
    """``np.linalg.eigh`` of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, its vectors transposed: (values in ascending order,
    vectors as rows).

    LAPACK's tridiagonal divide and conquer (``dstevd``; Gu and Eisenstat,
    SIAM J. Matrix Anal. Appl. 16(1), 1995) through the LAPACKE of the
    OpenBLAS numpy calls (``_openblas``), with that build's integer width.
    It is the routine ``eigh`` (``syevd``) calls after its Householder
    reduction to tridiagonal form, and that reduction and its
    back-transformation leave a tridiagonal matrix as it is, so skipping
    them, and the dense copy of T, gives the same bits.  It is called in
    column-major order, so LAPACKE hands it the output directly, without a
    transposed m x m copy, and the C-contiguous result holds the vectors
    as rows.  Where numpy links no OpenBLAS, or its OpenBLAS lacks the
    symbol, ``eigh`` of the dense matrix.
    """
    blas = _openblas()
    dstevd = blas and blas[2]
    if dstevd is None:
        w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        return w, v.T
    w = np.array(d, dtype=float)  # overwritten by the values
    m = w.size
    if w.shape != (m,) or np.shape(e) != (m - 1,):
        raise ValueError("a tridiagonal needs m diagonal and m - 1 "
                         "off-diagonal entries")
    work = np.append(e, 0.0)  # float; destroyed; never empty
    z = np.empty((m, m))
    info = dstevd(LAPACK_COL_MAJOR, b"V", m, w.ctypes.data, work.ctypes.data,
                  z.ctypes.data, m)
    if info:
        raise np.linalg.LinAlgError(
            f"Eigenvalues did not converge (dstevd info {info})")
    return w, z


# ---------------------------------------------------------------------------
# FFT multiplier estimation

@dataclass(frozen=True)
class KernelSampler:
    """Sampling plan for a convolution kernel on [-L, L) with N cells.

    ``fn`` maps an array of points to an array of its shape, under
    ``np.errstate``.  |kernel| must be integrable: the a-posteriori
    truncation and aliasing bounds integrate it.  N must be a power of two.
    """

    fn: Callable[[np.ndarray], np.ndarray]
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

    Samples of h on x_m = -L + m dx, from one call of ``kernel.fn``, become
    values of F h(w) = int exp(-i w x) h(x) dx at the dual frequencies
    w_k = pi k / L, k = -N/2 .. N/2 - 1, via the exact phase factor
    (-1)^k dx.  The truncation bound integrates |kernel| beyond [-L, L];
    the aliasing bound, a crude bound on |F h| at the first alias image,
    is the mass of |kernel| beyond half the alias distance.
    """
    L, N = kernel.L, kernel.N
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    with np.errstate(all="ignore"):
        h = np.asarray(kernel.fn(x), dtype=float)
    if h.shape != x.shape:
        raise ValueError(f"kernel must return an array of shape {x.shape}, "
                         f"got shape {h.shape}")
    k = np.arange(-N // 2, N // 2)
    # a kernel too large for its transform or |transform|^2 to be a float
    # raises FloatingPointError
    with np.errstate(over="raise", invalid="raise"):
        dft = np.fft.fftshift(np.fft.fft(h))
        hhat = dx * (-1.0) ** k * dft
        lam = np.abs(hhat) ** 2
    omega = np.pi * k / L

    magnitude = lambda t: np.abs(kernel.fn(t))
    truncation = 2.0 * _distribution._quad(magnitude, L, math.inf)[0]
    # the first alias image sits pi N / (2 L) > 0 beyond the kept band
    alias_dist = 2.0 * math.pi / dx - np.abs(omega).max()
    aliasing = 2.0 * _distribution._quad(magnitude, alias_dist / 2.0,
                                         math.inf)[0]

    return SampledMultiplier(omega, lam, truncation, aliasing)


# ---------------------------------------------------------------------------
# end-to-end pipeline

def _trusted_window(kept):
    """Index window (lo, hi) of a section's kept singular values to read:
    the top of a quadrature matrix's spectrum reflects the grid, not the
    operator, and its last kept values sit at the drop tolerance, where
    they depend on the solver.  A section that keeps 16 values or fewer
    (hilbert n <= 64) reads its whole kept spectrum from index 2."""
    lo = 2 if kept < 64 else max(4, kept // 128)
    return lo, min(kept, max(16, kept // 8))


def pipeline_from_matrix(m, operator="matrix", thresholds=DEFAULT_THRESHOLDS):
    """matrix or Section -> singular values -> corner curve -> classification.

    Finite sections carry the true spectrum only in a lower index range,
    the one rule of :func:`_trusted_window`, whose corner curve is read like
    any singular value law's, by :func:`counting.estimate_curve`, with its
    decay fits, trend and drift, whichever solver gave the values.  A window
    too short for any decision (fewer than ``estimate.MIN_FIT_SAMPLES``
    corners) is indeterminate.
    """
    seq = singular_values(m)
    kept = seq.kept
    lo, hi = _trusted_window(kept)
    if hi <= lo:
        raise ValueError(f"{kept} singular value(s) kept: too few for a "
                         "two-point estimation window")
    phi = _counting.corner_curve(seq, (lo, hi))
    try:
        interval, degree, fits = _counting.estimate_curve(phi, thresholds)
    except InsufficientDataError as exc:
        interval, degree = _estimate.indeterminate_interval(str(exc)), None
        fits = _estimate.NO_FIT
    diagnostics = {"window_indices": (lo, hi), "kept_values": kept,
                   "spectrum": {"method": seq.method, "computed": len(seq)},
                   **fits, "trend": interval.diagnostics.get("trend"),
                   "drift": interval.diagnostics.get("drift")}
    if operator == "hilbert":
        diagnostics["discretization_artifact"] = (
            "finite sections of the Hilbert matrix have exponentially "
            "decaying singular values although the full operator is "
            "non-compact with continuous spectrum [0, pi]; the severe "
            "classification describes the truncation, not the operator")
    return Report({"operator": operator}, phi, interval, degree,
                  diagnostics, sigma=seq)

