"""Compact-operator path: counting functions built from singular values.

The counting function Phi(eps) = #{n : sigma_n^2 > eps} plays the role the
superlevel-set measure plays for non-compact operators; the step multiplier
built here is the bridge between the two pictures and satisfies the exact
integer identity tested in the suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_THRESHOLDS, INF, InsufficientDataError,
                   IllPosednessInterval, LEBESGUE_HALFLINE, MODERATE,
                   MONOTONE_TAIL, MeasureSpace, Multiplier, NON_INFORMATIVE,
                   DistributionFunction, SigmaSequence)
from . import estimate

__all__ = [
    "PhiCount",
    "counting_phi",
    "counting_curve",
    "interval_from_sigma",
    "interval_from_counting",
    "estimate_curve",
    "window_logs",
    "step_multiplier_from_sigma",
]


class PhiCount(NamedTuple):
    count: float
    exhausted: bool


def _law_count(law, eps):
    """Largest n with law.sigma(n)^2 > eps (strict), as an integer count."""
    target = math.sqrt(eps)
    if law.sigma(1) <= target:
        return 0
    # bracket by doubling, then integer bisection
    lo, hi = 1, 2
    while law.sigma(hi) > target:
        lo, hi = hi, hi * 2
        if hi > 2 ** 200:  # decay too slow to matter at any real grid point
            return INF
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if law.sigma(mid) > target:
            lo = mid
        else:
            hi = mid
    return lo


def counting_phi(sigma: SigmaSequence, eps: float) -> PhiCount:
    """#{n : sigma_n^2 > eps}, with strict inequality at ties.

    When all stored values exceed eps the result depends on the metadata:
    a declared tail law extrapolates the count analytically, otherwise the
    stored length is returned with the exhausted flag set.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    sq = sigma.squares  # nonincreasing
    # count strict exceedances: N - #{sq <= eps}
    asc = sq[::-1]
    count = int(sq.size - np.searchsorted(asc, eps, side="right"))
    if count < sq.size:
        return PhiCount(float(count), False)
    if sigma.tail_law is None:
        return PhiCount(float(sq.size), True)
    n = _law_count(sigma.tail_law, eps)
    return PhiCount(float(max(n, sq.size)), False)


def counting_curve(sigma: SigmaSequence, grid) -> DistributionFunction:
    """Counting function sampled on a descending eps grid (log domain)."""
    logs = []
    exhausted = False
    for eps in grid:
        c = counting_phi(sigma, float(eps))
        exhausted = exhausted or c.exhausted
        logs.append(math.log(c.count) if c.count > 0 else -INF)
    sup = float(sigma.values[0] ** 2)
    return DistributionFunction.build(np.asarray(grid, dtype=float), logs,
                                      source="counting", sup_bound=sup,
                                      exhausted=exhausted)


def _window_indices(n_values, window):
    if window is None:
        lo, hi = n_values // 2, n_values
    else:
        lo, hi = window
    lo = max(2, int(lo))  # n = 1 has log n = 0
    hi = min(int(hi), n_values)
    if hi - lo + 1 < 2:
        raise InsufficientDataError("window too small")
    return lo, hi


def window_logs(seq: SigmaSequence, lo, hi):
    """(n, -ln sigma_n) over the 1-based index window [lo, hi]."""
    n = np.arange(lo, hi + 1, dtype=float)
    return n, -np.log(seq.values[lo - 1:hi])


def interval_from_sigma(sigma: SigmaSequence, window=None,
                        thresholds=DEFAULT_THRESHOLDS) -> IllPosednessInterval:
    """Interval of ill-posedness from the decay exponents -ln sigma_n / ln n.

    The window (1-based index range, default the upper half) stands in for
    the asymptotic liminf/limsup; it is recorded in the diagnostics along
    with a regression cross-check: the fit -ln sigma_n ~ s ln n, whose
    slope is the degree when the residual is small and which, like the
    curve-side regression, is insensitive to constant prefactors.
    """
    if len(sigma) < 32:
        raise InsufficientDataError(
            f"need at least 32 singular values, got {len(sigma)}")
    lo, hi = _window_indices(len(sigma), window)
    n, y = window_logs(sigma, lo, hi)
    exponents = y / np.log(n)
    cls, degree, diags = estimate.classify_window(exponents, thresholds)
    diags["window_indices"] = (lo, hi)
    slope, _, rms = estimate.power_law_fit(np.log(n), y)
    diags["regression_slope"] = slope
    diags["regression_rms"] = rms
    if rms < thresholds.residual_tol and slope > 0:
        diags["regression_degree"] = slope
    lower = max(0.0, float(exponents.min()))
    upper = max(lower, float(exponents.max()))
    return IllPosednessInterval(lower, upper, cls, degree, diags)


def interval_from_counting(phi: DistributionFunction,
                           thresholds=DEFAULT_THRESHOLDS) -> IllPosednessInterval:
    """Interval of ill-posedness from a sampled counting/distribution curve."""
    if phi.finiteness == NON_INFORMATIVE:
        return estimate.indeterminate_interval(
            "distribution function attains +inf; not informative")
    samples = estimate.ratio_samples(phi)
    if not samples:
        return estimate.indeterminate_interval("no usable ratio samples")
    iv = estimate.interval_estimate(samples, thresholds)
    if phi.finiteness == "exhausted":
        # counts saturated at the stored length somewhere on the grid; the
        # tail of the curve is then an artifact of missing data
        iv.diagnostics["exhausted_data"] = True
    return iv


def estimate_curve(phi: DistributionFunction, thresholds=DEFAULT_THRESHOLDS):
    """Interval, degree and regression diagnostics of a distribution curve.

    The degree is the regression-refined one when the interval is moderate
    and the power-law fit is accepted, since constant prefactors bias the
    raw ratio window; otherwise it is the interval's own degree.
    """
    interval = interval_from_counting(phi, thresholds)
    slope, rms, degree = estimate.regression_report(phi, thresholds)
    if interval.classification != MODERATE or degree is None:
        degree = interval.degree
    return interval, degree, {"regression_slope": slope, "regression_rms": rms}


def step_multiplier_from_sigma(sigma: SigmaSequence):
    """Piecewise-constant multiplier on [0, inf) with the same counting data.

    lambda(w) = sigma_n^2 on [n-1, n).  Its Lebesgue superlevel measure
    equals counting_phi exactly (an integer), which is attached as the
    closed-form superlevel; the numeric bisection path recovers the same
    integers to tolerance.
    """
    sq = sigma.squares
    law = sigma.tail_law

    def fn(omega):
        if omega < 0:
            raise ValueError("the step multiplier lives on [0, inf)")
        n = int(math.floor(omega))
        if n < sq.size:
            return float(sq[n])
        if law is not None:
            return float(law.sigma(n + 1) ** 2)
        return 0.0

    def superlevel(eps):
        return counting_phi(sigma, eps).count

    def log_superlevel(eps):
        c = counting_phi(sigma, eps).count
        return math.log(c) if c > 0 else -INF

    mult = Multiplier(fn=fn, shape=MONOTONE_TAIL,
                      sup_bound=float(sq[0]),
                      superlevel=superlevel, log_superlevel=log_superlevel)
    return mult, MeasureSpace(LEBESGUE_HALFLINE)
