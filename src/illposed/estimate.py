"""Interval estimates and classifications from finite distribution data.

The asymptotic lower/upper limits are approximated by the min/max of the
ratio samples over a tail window.  Window min/max alone cannot tell a
diverging ratio sequence (severe) from one converging to a positive limit
from below (moderate with a prefactor), so the decision also uses the
relative drift across the window and a coarse monotone-trend check.  A
least-squares power-law fit provides the refined degree estimate whenever
the curve really is a power law.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (DEFAULT_THRESHOLDS, INDETERMINATE,
                   InsufficientDataError, IllPosednessInterval, MILD,
                   MODERATE, NON_INFORMATIVE, SEVERE, ratio)

__all__ = [
    "ratio_samples",
    "interval_estimate",
    "regression_estimate",
    "regression_report",
    "classify_window",
    "power_law_fit",
]


def ratio_samples(phi):
    """Ratio samples (eps, r) of a distribution curve, coarse to fine.

    Samples where the ratio is undefined (eps >= 1, Phi <= 1, divergent
    Phi) are skipped.
    """
    out = []
    for eps, lp in zip(phi.eps_grid, phi.log_phi):
        r = ratio(float(eps), float(lp))
        if r is not None:
            out.append((float(eps), r))
    return out


def power_law_fit(x, y):
    """Least-squares line y ~ intercept + slope*x; returns (slope, intercept, rms)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least two points for a fit")
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    with np.errstate(over="ignore"):  # residuals beyond 1e154: rms is inf
        rms = float(np.sqrt(np.mean(resid ** 2)))
    return float(coef[0]), float(coef[1]), rms


def _block_trend(w, blocks=4):
    """Coarse trend over block means: 'increasing', 'decreasing' or 'mixed'.

    Block averages tolerate the sawtooth produced by integer-valued counting
    curves, which a pointwise monotonicity check would reject.
    """
    w = np.asarray(w, dtype=float)
    k = min(blocks, w.size)
    means = np.array([chunk.mean() for chunk in np.array_split(w, k)])
    d = np.diff(means)
    slack = 1e-12 * np.maximum(np.abs(means[1:]), 1e-300)
    if np.all(d >= -slack) and means[-1] > means[0]:
        return "increasing"
    if np.all(d <= slack) and means[-1] < means[0]:
        return "decreasing"
    return "mixed"


def classify_window(window, thresholds=DEFAULT_THRESHOLDS):
    """Classify a tail window of ratio (or decay-exponent) samples.

    Returns ``(classification, degree, diagnostics)``.  Severe needs the
    window to keep rising (relative drift >= drift_tol with an increasing
    trend) or to clear tau_severe outright; mild needs a falling or already
    negligible window; moderate needs the window to have settled between the
    two cutoffs.
    """
    t = thresholds
    w = np.asarray(window, dtype=float)
    if w.size < t.min_tail_samples:
        raise InsufficientDataError(
            f"need at least {t.min_tail_samples} tail samples, got {w.size}")
    lo, hi = float(w.min()), float(w.max())
    drift = float((w[-1] - w[0]) / max(abs(w[-1]), 1e-300))
    trend = _block_trend(w)
    if lo > t.tau_severe:
        cls = SEVERE
    elif drift >= t.drift_tol and trend == "increasing":
        cls = SEVERE
    elif hi < t.tau_mild:
        cls = MILD
    elif drift <= -t.drift_tol and trend == "decreasing" and w[-1] < t.tau_mild:
        cls = MILD
    elif abs(drift) < t.drift_tol and t.tau_mild <= lo and hi <= t.tau_severe:
        cls = MODERATE
    else:
        cls = INDETERMINATE
    degree = None
    if cls == MODERATE and hi - lo < t.tau_collapse:
        degree = 0.5 * (lo + hi)
    diagnostics = {
        "window_size": int(w.size),
        "trend": trend,
        "drift": drift,
        "window_values": w.tolist(),
    }
    return cls, degree, diagnostics


def _tail(seq, fraction, minimum):
    k = max(minimum, int(math.ceil(len(seq) * fraction)))
    if len(seq) < minimum:
        raise InsufficientDataError(
            f"need at least {minimum} samples, got {len(seq)}")
    return seq[-k:]


def interval_estimate(samples, thresholds=DEFAULT_THRESHOLDS):
    """Interval estimate from ratio samples ordered coarse to fine.

    ``samples`` is a sequence of (eps, r) pairs with eps descending, e.g.
    the output of :func:`ratio_samples`.  The window is the trailing
    ``thresholds.window_fraction`` of the samples.
    """
    t = thresholds
    tail = _tail(list(samples), t.window_fraction, t.min_tail_samples)
    w = [r for _, r in tail]
    cls, degree, diags = classify_window(w, t)
    diags["window_eps"] = [e for e, _ in tail]
    diags["window_fraction"] = t.window_fraction
    lower = max(0.0, min(w))
    upper = max(lower, max(w))
    return IllPosednessInterval(lower, upper, cls, degree, diags)


def indeterminate_interval(reason, diagnostics=None):
    """Interval placeholder for inputs no estimate can be drawn from."""
    d = dict(diagnostics or {})
    d["reason"] = reason
    return IllPosednessInterval(0.0, math.inf, INDETERMINATE, None, d)


def regression_report(phi, thresholds=DEFAULT_THRESHOLDS):
    """Power-law fit of log Phi against ln(1/eps) over the tail window.

    Returns ``(slope, rms, degree)`` where the degree 1/(2*slope) is None
    whenever the fit residual exceeds the threshold (the curve is not a
    power law) or the slope is not positive.  Unlike the raw ratio, the
    fitted slope is insensitive to constant prefactors in Phi.
    """
    t = thresholds
    if phi.finiteness == NON_INFORMATIVE:
        return None, math.inf, None
    # -ln eps, since 1/eps overflows below eps = 5.6e-309
    pairs = [(-math.log(e), lp)
             for e, lp in zip(phi.eps_grid.tolist(), phi.log_phi.tolist())
             if math.isfinite(lp) and lp > 0 and 0 < e < 1]
    if len(pairs) < t.min_tail_samples:
        return None, math.inf, None
    tail = _tail(pairs, t.window_fraction, t.min_tail_samples)
    x = [p[0] for p in tail]
    y = [p[1] for p in tail]
    slope, _, rms = power_law_fit(x, y)
    degree = None
    if rms < t.residual_tol and slope > 0:
        degree = 1.0 / (2.0 * slope)
    return slope, rms, degree


def regression_estimate(phi, thresholds=DEFAULT_THRESHOLDS):
    """Degree from the power-law fit, or None when the fit is poor."""
    _, _, degree = regression_report(phi, thresholds)
    return degree
