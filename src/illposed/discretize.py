"""Finite-dimensional realizations and their spectral pipelines.

Finite sections (Hilbert matrix, product-quadrature fractional
integration), dense or as structured Toeplitz/Hankel sections with FFT
matrix-vector products; singular value computation with an explicit
accuracy contract; FFT estimation of convolution multipliers from kernel
samples; and the end-to-end pipeline matrix/kernel -> spectrum -> curve ->
interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import fft as _fft
from scipy import integrate, linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, svds

from .core import (DEFAULT_THRESHOLDS, GENERIC_SAMPLED, INDETERMINATE,
                   LEBESGUE_LINE, MODERATE, SEVERE, IllPosednessInterval,
                   InsufficientDataError, MeasureSpace, Multiplier,
                   SigmaSequence, TruncationWarning, geometric_grid)
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
    "svd_residuals",
    "KernelSampler",
    "SampledMultiplier",
    "fft_multiplier",
    "PipelineReport",
    "pipeline_from_matrix",
    "pipeline_from_kernel",
    "matrix_to_csv",
    "multiplier_samples_to_csv",
]

SVD_DROP_TOL = 1e-14
# per-triplet residual bound ||A v - sigma u|| <= RESIDUAL_TOL * sigma_1
RESIDUAL_TOL = 1e-10
TOEPLITZ = "toeplitz"
HANKEL = "hankel"


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
        c = self.coeffs
        if self.kind == TOEPLITZ:
            return linalg.toeplitz(c, np.zeros(self.n))
        return linalg.hankel(c[:self.n], c[self.n - 1:])

    def operator(self):
        """LinearOperator whose products use FFTs, one per n x k block."""
        n = self.n
        size = _fft.next_fast_len(2 * n - 1, real=True)
        spectrum = _fft.rfft(self.coeffs, size)

        def convolve(x):
            # linear convolution with the coefficients; size >= 2n - 1
            # keeps every entry used below free of wrap-around
            s = spectrum if x.ndim == 1 else spectrum[:, None]
            return _fft.irfft(s * _fft.rfft(x, size, axis=0), size, axis=0)

        if self.kind == TOEPLITZ:
            def matvec(x):
                return convolve(x)[:n]

            def rmatvec(x):
                return convolve(x[::-1])[n - 1::-1]
        else:
            def matvec(x):
                return convolve(x[::-1])[n - 1:2 * n - 1]
            rmatvec = matvec
        return LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec,
                              matmat=matvec, dtype=float)


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
    h = 1.0 / n
    c = np.empty(n)
    c[1:] = h ** alpha * np.arange(1, n, dtype=float) ** (alpha - 1.0) \
        / math.gamma(alpha)
    c[0] = (0.5 * h) ** alpha / math.gamma(alpha + 1.0)
    return Section(TOEPLITZ, c, n)


@dataclass(frozen=True)
class Spectrum(SigmaSequence):
    """Leading singular values of a section and how they were computed.

    ``values`` holds the ``len(values)`` largest singular values; ``kept``
    is how many of all n values clear the drop tolerance, which is what a
    dense SVD would keep.  ``method`` is ``propack``, ``eigsh`` or
    ``dense``.
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


def svd_residuals(m):
    """Accuracy residuals of the factorization used by singular_values.

    Returns relative reconstruction error and the two orthogonality
    defects; the contract is that all three stay below 1e-10.
    """
    m = _check_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    norm = np.linalg.norm(m)
    recon = np.linalg.norm(m - (u * s) @ vt) / max(norm, 1e-300)
    k = s.size
    left = np.linalg.norm(u.T @ u - np.eye(k))
    right = np.linalg.norm(vt @ vt.T - np.eye(k))
    return {"reconstruction": float(recon), "left_orth": float(left),
            "right_orth": float(right)}


def singular_values(m, drop_tol=SVD_DROP_TOL):
    """Nonincreasing positive singular values above drop_tol * sigma_max.

    Values below the drop tolerance are dominated by rounding in the
    factorization and are discarded rather than reported as data.  The
    result is flagged exhausted: a finite matrix has no tail to
    extrapolate.

    A ``Section`` gives a ``Spectrum``: its leading values by FFT-matvec
    Lanczos and the count a dense SVD would keep, or the dense result when
    that count cannot be certified (see ``_leading_values``).
    """
    if isinstance(m, Section):
        leading = _leading_values(m, drop_tol)
        if leading is not None:
            return leading
        seq = _dense_singular_values(m.dense(), drop_tol)
        return Spectrum(seq.values, exhausted_flag=True, kept=len(seq),
                        method="dense")
    return _dense_singular_values(m, drop_tol)


def _dense_singular_values(m, drop_tol):
    m = _check_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("matrix has no positive singular values")
    keep = s[s > drop_tol * s[0]]
    return SigmaSequence(keep, exhausted_flag=True)


def _clears_drop_tol(c, drop_tol):
    """Whether every singular value of the lower-triangular Toeplitz section
    with first column c exceeds drop_tol * sigma_max.

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
        return bool(np.abs(d).sum() * np.abs(c).sum() * drop_tol < 1.0)


def _leading_values(section, drop_tol):
    """Leading singular values of a section, or None to use the dense SVD.

    Toeplitz sections: once the certificate shows that all n values clear
    the drop tolerance, the top ``_trusted_window(n)[1]`` come from
    PROPACK's Lanczos bidiagonalization.  Hankel sections are symmetric and
    taken to be positive semidefinite, as moment matrices such as the
    Hilbert section are, so their singular values are their largest
    eigenvalues: ARPACK finds them with k doubled from 32 until the k-th
    falls below the tolerance.  No certificate, a k of n/2 or more, a
    solver that does not converge, a triplet residual above
    RESIDUAL_TOL * sigma_1, or Hankel values that leave more than
    RESIDUAL_TOL of the squared Frobenius norm unaccounted for (an
    indefinite section) all give None.
    """
    n = len(section)
    op = section.operator()
    try:
        if section.kind == TOEPLITZ:
            k = _trusted_window(n)[1]
            if 2 * k >= n or not _clears_drop_tol(section.coeffs, drop_tol):
                return None
            u, s, vt = svds(op, k=k, solver="propack", maxiter=4 * k,
                            random_state=0)
            v = vt.T
            method = "propack"
        else:
            k = 32
            while True:
                if 2 * k >= n:
                    return None
                lam, v = eigsh(op, k=k, which="LA", v0=np.ones(n))
                s = np.abs(lam)
                if s.min() < drop_tol * s.max():
                    break
                k *= 2
            u = v * np.sign(lam)
            method = "eigsh"
    except (np.linalg.LinAlgError, ArpackError):
        return None
    order = np.argsort(s)[::-1]
    s, u, v = s[order], u[:, order], v[:, order]
    kept = n
    if section.kind == HANKEL:
        # coeffs[j] fills the min(j + 1, 2n - 1 - j) entries of antidiagonal j
        j = np.arange(2 * n - 1)
        mass = np.dot(np.minimum(j + 1, 2 * n - 1 - j), section.coeffs ** 2)
        if mass - np.dot(s, s) > RESIDUAL_TOL * mass:
            return None
        kept = int(np.count_nonzero(s > drop_tol * s[0]))
        s, u, v = s[:kept], u[:, :kept], v[:, :kept]
    residual = np.linalg.norm(op.matmat(v) - u * s, axis=0)
    if s[-1] <= 0 or np.any(residual > RESIDUAL_TOL * s[0]):
        return None
    return Spectrum(s, exhausted_flag=kept == s.size, kept=kept,
                    method=method)


# ---------------------------------------------------------------------------
# FFT multiplier estimation

@dataclass(frozen=True)
class KernelSampler:
    """Sampling plan for a convolution kernel on [-L, L) with N cells.

    ``decay`` is an integrable envelope of |kernel| used for the
    a-posteriori truncation and aliasing bounds; N must be a power of two.
    """

    fn: Callable[[float], float]
    decay: Callable[[float], float]
    L: float
    N: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two")


@dataclass(frozen=True)
class SampledMultiplier:
    """|Fourier transform|^2 samples on the dual grid plus error bounds."""

    multiplier: Multiplier
    omega: np.ndarray
    values: np.ndarray
    truncation_bound: float
    aliasing_bound: float
    x: np.ndarray = None
    h: np.ndarray = None

    def value_at(self, w):
        """|F h|^2 at an arbitrary frequency via the direct Riemann sum.

        Off-grid frequencies keep the full quadrature accuracy; the grid
        samples themselves are the FFT special case of the same sum.
        """
        dx = float(self.x[1] - self.x[0])
        hhat = dx * np.sum(self.h * np.exp(-1j * w * self.x))
        return float(np.abs(hhat) ** 2)


def fft_multiplier(kernel: KernelSampler) -> SampledMultiplier:
    """Multiplier lambda = |F h|^2 estimated by a length-N DFT.

    Samples of h on x_m = -L + m dx are turned into values of the
    continuous transform integral F h(w) = int exp(-i w x) h(x) dx at the
    dual frequencies w_k = pi k / L, k = -N/2 .. N/2 - 1, via the exact
    phase factor (-1)^k dx.  The truncation bound integrates the declared
    envelope beyond [-L, L]; the aliasing bound evaluates the envelope
    transform at the first alias distance.
    """
    L, N = kernel.L, kernel.N
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    h = np.asarray([kernel.fn(v) for v in x], dtype=float)
    edge = max(abs(h[0]), abs(kernel.fn(L)))
    env_edge = abs(kernel.decay(L))
    if edge > max(env_edge * (1.0 + 1e-9), 1e-12):
        warnings.warn(
            f"kernel magnitude {edge:.3g} at the window edge exceeds the "
            f"declared envelope {env_edge:.3g}; transform values carry "
            "truncation error", TruncationWarning, stacklevel=2)
    k = np.arange(-N // 2, N // 2)
    dft = np.fft.fftshift(np.fft.fft(h))
    hhat = dx * (-1.0) ** k * dft
    omega = np.pi * k / L
    lam = np.abs(hhat) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        tail, _ = integrate.quad(lambda t: abs(kernel.decay(t)), L, np.inf,
                                 epsrel=1e-8, limit=200)
    truncation = 2.0 * tail
    # first alias image sits 2 pi / dx away from the kept band
    alias_dist = 2.0 * math.pi / dx - np.abs(omega).max()
    aliasing = _gauss_tail_bound(kernel.decay, alias_dist)

    sup = float(lam.max())
    mult = Multiplier(fn=_interp_fn(omega, lam), shape=GENERIC_SAMPLED,
                      sup_bound=max(sup, 1e-300),
                      sample_omega=omega.astype(float), sample_value=lam,
                      resolution=float(np.pi / L), decay=kernel.decay)
    return SampledMultiplier(multiplier=mult, omega=omega.astype(float),
                             values=lam, truncation_bound=float(truncation),
                             aliasing_bound=float(aliasing), x=x, h=h)


def _gauss_tail_bound(decay, dist):
    """Crude |F env|(dist) bound: L1 mass of the envelope beyond dist/2."""
    if dist <= 0:
        return math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda t: abs(decay(t)), dist / 2.0, np.inf,
                                epsrel=1e-8, limit=200)
    return 2.0 * val


def _interp_fn(omega, lam):
    def fn(w):
        return float(np.interp(w, omega, lam, left=0.0, right=0.0))
    return fn


# ---------------------------------------------------------------------------
# end-to-end pipelines

@dataclass
class PipelineReport:
    operator: str
    sigma: SigmaSequence | None
    phi: object
    interval: object
    classification: str
    degree: float | None
    diagnostics: dict = field(default_factory=dict)


def _trusted_window(n_kept):
    """Index window for degree estimation on discretized spectra.

    The upper part of a quadrature matrix's spectrum reflects the grid, not
    the operator, so the window stays in the low-to-mid range; very short
    spectra fall back to their upper half.
    """
    if n_kept < 64:
        return max(2, n_kept // 2), n_kept
    return max(4, n_kept // 128), max(16, n_kept // 8)


def _spectrum_fits(seq, window):
    """Power-law vs exponential fit of -log sigma over the index window."""
    lo, hi = window
    n = np.arange(lo, hi + 1, dtype=float)
    y = -np.log(seq.values[lo - 1:hi])
    slope_p, _, rms_p = _estimate.power_law_fit(np.log(n), y)
    rate_e, _, rms_e = _estimate.power_law_fit(n, y)
    scale = max(float(y.max() - y.min()), 1e-300)
    return {"power_slope": slope_p, "power_rms_rel": rms_p / scale,
            "exp_rate": rate_e, "exp_rms_rel": rms_e / scale}


def pipeline_from_matrix(m, operator="matrix", thresholds=DEFAULT_THRESHOLDS,
                         points=60, fit_tol=0.02):
    """matrix or Section -> singular values -> curve -> classification.

    Finite sections carry the true spectrum only in their lower index
    range, where raw decay exponents are still biased by constant
    prefactors, so the classification selects between an algebraic-decay
    model (moderate; degree = fitted exponent) and an exponential-decay
    model (severe) by the quality of the corresponding fits.
    """
    seq = singular_values(m)
    if isinstance(seq, Spectrum):
        kept, method = seq.kept, seq.method
    else:
        kept, method = len(seq), "dense"
    lo, hi = _trusted_window(kept)
    hi = min(hi, kept)
    if hi <= lo:
        raise ValueError(f"{kept} singular value(s) kept: too few for a "
                         "two-point estimation window")
    sq = seq.squares
    grid_hi = float(sq[lo - 1]) * 0.999
    grid_lo = float(sq[hi - 1]) * 1.001
    if grid_lo >= grid_hi:
        grid_lo = grid_hi * 1e-9
    grid = geometric_grid(grid_hi, grid_lo, points)
    phi = _counting.counting_curve(seq, grid)
    diagnostics = {"window_indices": (lo, hi), "kept_values": kept,
                   "spectrum": {"method": method, "computed": len(seq)}}
    fits = _spectrum_fits(seq, (lo, hi))
    diagnostics.update(fits)
    n = np.arange(lo, hi + 1, dtype=float)
    exponents = -np.log(seq.values[lo - 1:hi]) / np.log(n)
    lower = max(0.0, float(exponents.min()))
    upper = max(lower, float(exponents.max()))
    power_ok = fits["power_rms_rel"] <= fit_tol and fits["power_slope"] > 0
    exp_ok = fits["exp_rms_rel"] <= fit_tol and fits["exp_rate"] > 0
    degree = None
    if power_ok and (not exp_ok
                     or fits["power_rms_rel"] <= fits["exp_rms_rel"]):
        classification = MODERATE
        degree = fits["power_slope"]
    elif exp_ok:
        classification = SEVERE
    else:
        try:
            classification, degree, trend = _estimate.classify_window(
                exponents, thresholds)
            diagnostics.update(trend)
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
    return PipelineReport(operator=operator, sigma=seq, phi=phi,
                          interval=interval,
                          classification=interval.classification,
                          degree=degree, diagnostics=diagnostics)


def pipeline_from_kernel(kernel: KernelSampler, thresholds=DEFAULT_THRESHOLDS,
                         points=60, eps_min=None):
    """kernel -> FFT multiplier -> distribution curve -> interval estimate."""
    sampled = fft_multiplier(kernel)
    lam = sampled.multiplier
    # the stored samples already cover both half-axes, so the indicator sum
    # is the line measure itself
    mu = MeasureSpace(LEBESGUE_LINE)
    eps_hi = 0.99 * min(lam.sup_bound, 1.0)
    if eps_min is not None:
        eps_lo = eps_min
    else:
        # stay above the multiplier value at the sampled band edge, where
        # superlevel sets would be truncated by the finite frequency range
        edge = 4.0 * float(max(sampled.values[0], sampled.values[-1]))
        eps_lo = max(eps_hi * 1e-12, edge)
    grid = geometric_grid(eps_hi, eps_lo, points)
    phi = _distribution.phi_curve(lam, mu, grid)
    interval = _counting.interval_from_counting(phi, thresholds)
    degree = interval.degree
    if interval.classification == "moderate":
        refined = _estimate.regression_estimate(phi, thresholds)
        degree = refined if refined is not None else degree
    diagnostics = {"truncation_bound": sampled.truncation_bound,
                   "aliasing_bound": sampled.aliasing_bound}
    return PipelineReport(operator="kernel", sigma=None, phi=phi,
                          interval=interval,
                          classification=interval.classification,
                          degree=degree, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# CSV export

def matrix_to_csv(m, path):
    """Write a dense matrix as plain CSV rows."""
    m = _check_matrix(m)
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def multiplier_samples_to_csv(sampled: SampledMultiplier, path):
    """Write (omega, lambda) sample pairs as CSV."""
    with open(path, "w") as fh:
        fh.write("omega,lambda\n")
        for w, v in zip(sampled.omega, sampled.values):
            fh.write(f"{w:.17g},{v:.17g}\n")
