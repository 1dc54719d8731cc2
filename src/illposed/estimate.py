"""Interval estimates and classifications from finite distribution data.

The asymptotic lower/upper limits are approximated by the min/max of the
ratio samples over a tail window.  Window min/max alone cannot tell a
diverging ratio sequence (severe) from one converging to a positive limit
from below (moderate with a prefactor), so the decision also uses the
relative drift across the window and a coarse monotone-trend check.  Where
that leaves the class open, two least-squares decay fits over the same
window settle it: a power law of Phi (moderate) or a power of ln(1/eps)
(severe).  The power law's slope is the degree itself, free of the
prefactor bias of the ratios.
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

FIT_KEYS = ("power_slope", "power_rms_rel", "log_exponent", "log_rms_rel")
# the decay fits of a curve without a window
NO_FIT = dict(zip(FIT_KEYS, (None, math.inf, None, math.inf)))
# a line through two points fits exactly, and the log law may fit three or
# four corners of a power law better: a fit decides on five samples or more
MIN_FIT_SAMPLES = 5


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
    two cutoffs.  A window shorter than ``min_tail_samples`` is
    indeterminate.
    """
    t = thresholds
    w = np.asarray(window, dtype=float)
    lo, hi = float(w.min()), float(w.max())
    # nan across a window of +inf ratios, +-inf across ratios near 1e308
    with np.errstate(invalid="ignore", over="ignore"):
        drift = float((w[-1] - w[0]) / max(abs(w[-1]), 1e-300))
    trend = _block_trend(w)
    if w.size < t.min_tail_samples:
        cls = INDETERMINATE
    elif lo > t.tau_severe or (drift >= t.drift_tol and trend == "increasing"):
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


def decay_fits(neg_log, log_phi):
    """The two decay models fitted over one window of usable samples.

    power: -ln(eps)/2 = a + p ln Phi, whose slope p is the degree;
    log:   ln Phi = c + kappa ln ln(1/eps), severe for kappa > 0.
    Each rms residual is relative to the range of its dependent variable.
    """
    ln_ln = np.fromiter(map(math.log, neg_log.tolist()), float, neg_log.size)
    out = []
    for x, y in ((log_phi, 0.5 * neg_log), (ln_ln, log_phi)):
        slope, _, rms = power_law_fit(x, y)
        out += [slope, rms / max(float(y.max() - y.min()), 1e-300)]
    return dict(zip(FIT_KEYS, out))


def indeterminate_interval(reason):
    """Interval placeholder for inputs no estimate can be drawn from."""
    return IllPosednessInterval(0.0, math.inf, INDETERMINATE, None,
                                {"reason": reason})


def read_curve(phi, thresholds=DEFAULT_THRESHOLDS):
    """Interval, fitted degree and decay fits of ``phi``, from one window.

    The window is the trailing ``window_fraction``, at least
    ``min_tail_samples``, of the samples :func:`core.usable_samples`
    selects; a corner curve (source ``core.CORNERS``), whose window was
    chosen by index, is read whole and needs :data:`MIN_FIT_SAMPLES` (or
    ``min_tail_samples`` if fewer).  :func:`classify_window` classifies the
    window's ratios.  Where it leaves the class open, a short corner curve
    included, the better of the :func:`decay_fits` with a positive slope, a
    relative rms below ``residual_tol`` and :data:`MIN_FIT_SAMPLES` samples
    decides: the power law gives moderate, the log law severe unless the
    window falls.

    Returns ``(interval, fitted, fits)``.  ``fitted`` is the slope of an
    accepted power-law fit where the class is moderate or the power law is
    the better accepted fit, else None.  A non-informative curve, or one
    without a usable sample, is indeterminate with :data:`NO_FIT`; too few
    samples raise InsufficientDataError.
    """
    if phi.finiteness == NON_INFORMATIVE:
        return indeterminate_interval(
            "distribution function attains +inf; not informative"), None, \
            dict(NO_FIT)
    eps, neg_log, lp = usable_samples(phi.eps_grid, phi.log_phi)
    if not eps.size:
        return indeterminate_interval("no usable ratio samples"), None, \
            dict(NO_FIT)
    t, need = thresholds, thresholds.min_tail_samples
    if phi.source == CORNERS:
        t, need = replace(t, window_fraction=1.0), min(need, MIN_FIT_SAMPLES)
    if eps.size < need:
        raise InsufficientDataError(
            f"need at least {need} samples, got {eps.size}")
    k = max(t.min_tail_samples, int(math.ceil(eps.size * t.window_fraction)))
    eps, neg_log, lp = eps[-k:], neg_log[-k:], lp[-k:]
    r = _ratios(neg_log, lp)
    cls, degree, diags = classify_window(r, t)
    diags["window_eps"] = eps.tolist()
    diags["window_fraction"] = t.window_fraction
    fits = decay_fits(neg_log, lp)
    accepted = {c: rms for c, slope, rms in (
        (MODERATE, fits["power_slope"], fits["power_rms_rel"]),
        (SEVERE, fits["log_exponent"], fits["log_rms_rel"]))
        if r.size >= MIN_FIT_SAMPLES and rms < t.residual_tol and slope > 0}
    if diags["trend"] == "decreasing":  # the ratios of a log law rise
        accepted.pop(SEVERE, None)
    best = min(accepted, key=accepted.get, default=None)  # power on a tie
    if cls == INDETERMINATE and best:
        cls = best
    lower = max(0.0, float(r.min()))
    interval = IllPosednessInterval(lower, max(lower, float(r.max())), cls,
                                    degree, diags)
    if phi.finiteness == EXHAUSTED:
        # counts saturated at the stored length somewhere on the grid; the
        # tail of the curve is then an artifact of missing data
        interval.diagnostics["exhausted_data"] = True
    fitted = fits["power_slope"] \
        if MODERATE in accepted and MODERATE in (cls, best) else None
    return interval, fitted, fits


def regression_report(phi, thresholds=DEFAULT_THRESHOLDS):
    """The power-law fit of :func:`read_curve`: ``(slope, rms, fitted)``.

    The slope of -ln(eps)/2 on ln Phi is the degree, insensitive to
    constant prefactors in Phi, and the rms is relative to the range of
    -ln(eps)/2.  ``fitted`` is the slope where that fit is accepted and
    the class is moderate or it beats the log law (a prefactor can make a
    power law's ratios rise), else None.  Too few samples give no fit.
    """
    try:
        _, fitted, fits = read_curve(phi, thresholds)
    except InsufficientDataError:
        fitted, fits = None, NO_FIT
    return fits["power_slope"], fits["power_rms_rel"], fitted


def regression_estimate(phi, thresholds=DEFAULT_THRESHOLDS):
    """Degree from the accepted power-law fit of :func:`regression_report`."""
    return regression_report(phi, thresholds)[2]
