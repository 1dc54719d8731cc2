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

from .core import (CORNERS, DEFAULT_THRESHOLDS, INF, InsufficientDataError,
                   IllPosednessInterval, LEBESGUE_HALFLINE, MeasureSpace,
                   MODERATE, Multiplier, DistributionFunction, SigmaSequence)
from . import estimate

__all__ = [
    "PhiCount",
    "counting_phi",
    "counting_curve",
    "interval_from_sigma",
    "interval_from_counting",
    "estimate_curve",
    "corner_curve",
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
    counts = [counting_phi(sigma, float(eps)) for eps in grid]
    logs = [math.log(c.count) if c.count > 0 else -INF for c in counts]
    return DistributionFunction.build(
        np.asarray(grid, dtype=float), logs, source="counting",
        sup_bound=float(sigma.values[0] ** 2),
        exhausted=any(c.exhausted for c in counts))


def corner_curve(sigma: SigmaSequence, window=None) -> DistributionFunction:
    """The counting curve at its corners: ln Phi(sigma_n^2-) = ln n.

    ``window`` is the 1-based index range (default the upper half), n >= 2
    since ln 1 = 0.  At eps_n = sigma_n^2 the ratio sample is the decay
    exponent -ln sigma_n / ln n.  Phi is right-continuous, so its left
    limit at a tied value counts the whole group: each group of equal
    squares keeps its last index.  Squares that underflow to 0 lie below
    every float eps and are left out.
    """
    n_values = len(sigma)
    lo, hi = (n_values // 2, n_values) if window is None else window
    lo, hi = max(2, int(lo)), min(int(hi), n_values)
    sq = sigma.squares[lo - 1:hi]
    last = np.diff(sq, append=0.0) < 0  # False on ties and on zeros
    n = np.arange(lo, lo + sq.size, dtype=float)[last]
    if n.size < 2:
        if np.count_nonzero(sq) >= 2:
            raise InsufficientDataError(
                "the window's values tie: a flat spectrum has no decay to "
                "estimate")
        raise InsufficientDataError("window too small")
    return DistributionFunction.build(sq[last], np.log(n), source=CORNERS,
                                      sup_bound=float(sigma.values[0] ** 2))


def interval_from_sigma(sigma: SigmaSequence, window=None,
                        thresholds=DEFAULT_THRESHOLDS) -> IllPosednessInterval:
    """Interval of ill-posedness from the singular values.

    The degree of the counting function equals that of the singular values,
    so this estimates the whole :func:`corner_curve` of the window, as
    :func:`estimate_curve` does.  The diagnostics add the index range of
    the corners and the decay fits; the power-law slope of -ln sigma_n on
    ln n is the degree, free of the constant prefactors that bias the raw
    exponents.
    """
    if len(sigma) < 32:
        raise InsufficientDataError(
            f"need at least 32 singular values, got {len(sigma)}")
    phi = corner_curve(sigma, window)
    interval, _, fits = estimate.read_curve(phi, thresholds)
    n = np.rint(np.exp(phi.log_phi[[0, -1]]))
    interval.diagnostics.update(fits, window_indices=(int(n[0]), int(n[1])))
    return interval


def interval_from_counting(phi: DistributionFunction,
                           thresholds=DEFAULT_THRESHOLDS) -> IllPosednessInterval:
    """Interval of ill-posedness from a sampled counting/distribution curve."""
    return estimate.read_curve(phi, thresholds)[0]


def estimate_curve(phi: DistributionFunction, thresholds=DEFAULT_THRESHOLDS):
    """Interval, degree and decay-fit diagnostics of a distribution curve.

    All three come from one window, by the one rule of
    :func:`estimate.read_curve`: the ratio classifier decides and a
    power-law or log-law fit settles what it leaves open.  The degree is
    the power-law slope of a moderate curve whenever that fit is accepted,
    since constant prefactors bias the ratio window; otherwise it is the
    interval's own.
    """
    interval, fitted, fits = estimate.read_curve(phi, thresholds)
    moderate = interval.classification == MODERATE
    return interval, fitted if moderate and fitted else interval.degree, fits


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
        if np.any(omega < 0):
            raise ValueError("the step multiplier lives on [0, inf)")
        n = np.floor(omega)
        stored = n < sq.size
        beyond = 0.0 if law is None else law.sigma(n + 1.0) ** 2
        return np.where(stored, sq[np.where(stored, n, 0).astype(int)], beyond)

    def superlevel(eps):
        return counting_phi(sigma, eps).count

    mult = Multiplier(fn=fn, sup_bound=float(sq[0]), superlevel=superlevel)
    return mult, MeasureSpace(LEBESGUE_HALFLINE)
