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
from dataclasses import replace

import numpy as np

from .core import (CORNERS, DEFAULT_THRESHOLDS, EXHAUSTED, INDETERMINATE,
                   InsufficientDataError, IllPosednessInterval, MILD,
                   MODERATE, NON_INFORMATIVE, SEVERE, _ratios, ratio_samples,
                   usable_samples)

__all__ = [
    "ratio_samples",
    "regression_estimate",
    "regression_report",
    "classify_window",
    "power_law_fit",
]

# the regression report of a curve without a fit: (slope, rms, degree)
_NO_FIT = (None, math.inf, None)


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
    curves, which a pointwise monotonicity check would reject.  Blocks of
    +inf ratios have no step between them (inf - inf is nan): 'mixed'.
    A block of ratios near the float limit may sum past it, and its mean
    is then +inf as well.
    """
    k = min(blocks, w.size)
    with np.errstate(over="ignore", invalid="ignore"):
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
    # nan across a window of +inf ratios, +-inf across ratios near 1e308
    with np.errstate(invalid="ignore", over="ignore"):
        drift = float((w[-1] - w[0]) / max(abs(w[-1]), 1e-300))
    trend = _block_trend(w)
    if lo > t.tau_severe or (drift >= t.drift_tol and trend == "increasing"):
        cls = SEVERE
    elif hi < t.tau_mild or (drift <= -t.drift_tol and trend == "decreasing"
                             and w[-1] < t.tau_mild):
        cls = MILD
    elif abs(drift) < t.drift_tol and t.tau_mild <= lo and hi <= t.tau_severe:
        cls = MODERATE
    else:
        cls = INDETERMINATE
    degree = 0.5 * (lo + hi) \
        if cls == MODERATE and hi - lo < t.tau_collapse else None
    return cls, degree, {"window_size": int(w.size), "trend": trend,
                         "drift": drift, "window_values": w.tolist()}


def _tail(thresholds, *arrays):
    """The tail window of coarse-to-fine sample arrays of one length."""
    t, size = thresholds, len(arrays[0])
    if size < t.min_tail_samples:
        raise InsufficientDataError(
            f"need at least {t.min_tail_samples} samples, got {size}")
    k = max(t.min_tail_samples, int(math.ceil(size * t.window_fraction)))
    return tuple(a[-k:] for a in arrays)


def indeterminate_interval(reason):
    """Interval placeholder for inputs no estimate can be drawn from."""
    return IllPosednessInterval(0.0, math.inf, INDETERMINATE, None,
                                {"reason": reason})


def read_curve(phi, thresholds=DEFAULT_THRESHOLDS):
    """Interval estimate and power-law fit of ``phi`` from one tail window.

    The window is the tail of the samples :func:`core.usable_samples`
    selects; a corner curve (source ``core.CORNERS``), whose window was
    chosen by index, is read whole.  The fit is ``(slope, rms, degree)``
    of ln Phi against -ln eps (1/eps overflows below eps = 5.6e-309), with
    the degree 1/(2*slope) only when the residual is below
    ``residual_tol`` and the slope positive.  A non-informative curve, or
    one without a usable sample, is indeterminate with no fit; 1 to
    ``min_tail_samples - 1`` usable samples raise InsufficientDataError.
    """
    if phi.finiteness == NON_INFORMATIVE:
        return indeterminate_interval(
            "distribution function attains +inf; not informative"), _NO_FIT
    eps, neg_log, lp = usable_samples(phi.eps_grid, phi.log_phi)
    if not eps.size:
        return indeterminate_interval("no usable ratio samples"), _NO_FIT
    if phi.source == CORNERS:
        thresholds = replace(thresholds, window_fraction=1.0)
    eps, neg_log, lp = _tail(thresholds, eps, neg_log, lp)
    r = _ratios(neg_log, lp)
    cls, degree, diags = classify_window(r, thresholds)
    diags["window_eps"] = eps.tolist()
    diags["window_fraction"] = thresholds.window_fraction
    lower = max(0.0, float(r.min()))
    interval = IllPosednessInterval(lower, max(lower, float(r.max())), cls,
                                    degree, diags)
    if phi.finiteness == EXHAUSTED:
        # counts saturated at the stored length somewhere on the grid; the
        # tail of the curve is then an artifact of missing data
        interval.diagnostics["exhausted_data"] = True
    slope, _, rms = power_law_fit(neg_log, lp)
    degree = 1.0 / (2.0 * slope) \
        if rms < thresholds.residual_tol and slope > 0 else None
    return interval, (slope, rms, degree)


def regression_report(phi, thresholds=DEFAULT_THRESHOLDS):
    """Power-law fit of log Phi against ln(1/eps) over the tail window.

    Returns ``(slope, rms, degree)`` where the degree 1/(2*slope) is None
    whenever the fit residual exceeds the threshold (the curve is not a
    power law) or the slope is not positive.  Unlike the raw ratio, the
    fitted slope is insensitive to constant prefactors in Phi.  A curve
    with fewer usable samples than a window needs has no fit.
    """
    try:
        return read_curve(phi, thresholds)[1]
    except InsufficientDataError:
        return _NO_FIT


def regression_estimate(phi, thresholds=DEFAULT_THRESHOLDS):
    """Degree from the power-law fit, or None when the fit is poor."""
    return regression_report(phi, thresholds)[2]
