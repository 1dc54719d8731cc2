"""Superlevel-set measures of multipliers on benchmark measure spaces.

The distribution function Phi(eps) = mu({lambda > eps}) is the non-compact
counterpart of the singular value counting function.  This module measures
superlevel sets numerically (bisection on monotone profiles, branchwise
bisection on piecewise monotone ones, enumeration on the integers,
indicator sums on sampled data), evaluates closed forms when a model
carries them, and builds the derived objects: rearrangements, reweighted
curves, essential-infimum and integrability diagnostics.

All functions are pure; per-epsilon evaluations are independent and
truncation schedules are deterministic, so results are reproducible.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .core import (COUNTING_INTEGERS, DISCRETE, GENERIC_SAMPLED, INF,
                   LEBESGUE_HALFLINE, LEBESGUE_LINE, LEBESGUE_RADIAL,
                   LEBESGUE_UNIT_INTERVAL, MONOTONE_TAIL, Multiplier,
                   NON_INFORMATIVE, PIECEWISE_MONOTONE,
                   RADIAL_MONOTONE_TAIL, TruncationWarning,
                   UnsupportedMeasureError, ball_volume, DistributionFunction,
                   MeasureSpace)

__all__ = [
    "superlevel_measure",
    "log_superlevel_measure",
    "phi_curve",
    "decreasing_rearrangement",
    "rearrangement_multiplier",
    "d_lambda",
    "increasing_rearrangement",
    "reweight",
    "essinf_estimate",
    "EssinfResult",
    "lp_check",
    "LpResult",
]

BISECT_REL_TOL = 1e-12
QUAD_REL_TOL = 1e-8
# domain-doubling divergence rule: growth by >= 1.5 over 5 consecutive
# doublings flags the measure as infinite; slow logarithmic growth
# stabilizes the ratio near 1 and is never caught by it
GROWTH_FACTOR = 1.5
GROWTH_RUNS = 5
# truncation schedules of essinf and of the L^p check (see their docstrings)
R0 = 8.0
ESSINF_DOUBLINGS = 14
ESSINF_SAMPLES = 2048
ESSINF_FLOOR_REL = 1e-13
LP_MAX_DOUBLINGS = 40
LP_GROWTH_FACTOR = 1.2
LP_REL_TOL = 1e-6


class _Divergent(Exception):
    """Internal: the superlevel set has unbounded measure."""


def _check_value(v):
    if v < 0 or math.isnan(v):
        raise ValueError(f"multiplier must be nonnegative, got {v!r}")
    return v


def _interval_measure(mu, x):
    """Measure of an initial interval / centered ball of extent x >= 0."""
    if x <= 0:
        return 0.0
    if mu.kind == LEBESGUE_HALFLINE:
        return x
    if mu.kind == LEBESGUE_LINE:
        return 2.0 * x
    if mu.kind == LEBESGUE_RADIAL:
        return ball_volume(mu.dim, x)
    if mu.kind == LEBESGUE_UNIT_INTERVAL:
        return min(x, 1.0)
    raise UnsupportedMeasureError(
        f"no interval measure for kind {mu.kind!r}")


def _midpoint_values(fn, r, n):
    """fn at the n midpoints of [0, r].  The samples are numpy floats, so
    an overflowing fn gives the IEEE limit without a warning; nan raises."""
    x = (np.arange(n) + 0.5) * (r / n)
    with np.errstate(over="ignore"):
        return np.asarray([_check_value(fn(v)) for v in x])


def _bisect(fn, eps, lo, hi, rising=False):
    """Where fn crosses eps in [lo, hi], 0 <= lo < hi; fn is above eps on
    the lo side, or on the hi side when ``rising``."""
    while hi - lo > BISECT_REL_TOL * max(hi, 1e-30):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (_check_value(fn(mid)) > eps) != rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _initial_interval_sup(fn, eps, hint=1.0, cap=INF):
    """sup{x >= 0 : fn(x) > eps}, assuming {fn > eps} is anchored at 0.

    Monotonicity of fn is not required, only that the superlevel set is an
    initial interval; the bisection then converges to its endpoint.  The
    upper bracket grows by doubling; exceeding 1e280 means the set is
    unbounded for every practical purpose and raises the divergence signal.
    """
    if cap <= 0 or not _check_value(fn(0.0)) > eps:
        return 0.0
    hi = min(max(hint, 1e-6), cap)
    lo = 0.0
    while _check_value(fn(hi)) > eps:
        lo = hi
        if hi >= cap:
            return cap
        hi = min(hi * 2.0, cap)
        if hi > 1e280:
            raise _Divergent
    return _bisect(fn, eps, lo, hi)


def _superlevel_set(lam, eps, domain_hi=INF):
    """The nonempty intervals of {lam > eps} within [0, domain_hi], one per
    monotone branch; on [0, inf) the profile must decay past its last
    breakpoint."""
    fn = lam.fn
    if lam.shape in (MONOTONE_TAIL, RADIAL_MONOTONE_TAIL):
        hint = max(1.0, *(lam.breakpoints or (1.0,)))
        x = _initial_interval_sup(fn, eps, hint=hint, cap=domain_hi)
        return [(0.0, x)] if x > 0 else []
    if lam.shape != PIECEWISE_MONOTONE:
        raise UnsupportedMeasureError(f"unsupported shape {lam.shape!r}")
    pts = [0.0] + [b for b in lam.breakpoints if 0.0 < b < domain_hi]
    bounded = domain_hi < INF
    if bounded:
        pts.append(domain_hi)
    out = []
    for a, b in zip(pts, pts[1:]):
        va, vb = _check_value(fn(a)), _check_value(fn(b))
        if va > eps and vb > eps:
            out.append((a, b))
        elif va > eps:
            out.append((a, _bisect(fn, eps, a, b)))
        elif vb > eps:
            out.append((_bisect(fn, eps, a, b, rising=True), b))
    last = pts[-1]
    if not bounded and _check_value(fn(last)) > eps:
        shifted = lambda x: fn(last + x)
        x = _initial_interval_sup(shifted, eps, hint=max(1.0, last))
        out.append((last, last + x))
    return out


def _settle(total_at, size, tol):
    """total_at(size) for doubling sizes until it is stable to a relative
    tol twice in a row; sustained growth or 60 rounds mean divergence."""
    prev = None
    growth = stable = 0
    for _ in range(60):
        cur = total_at(size)
        if prev is not None:
            if prev > 0 and cur >= GROWTH_FACTOR * prev:
                growth += 1
                if growth >= GROWTH_RUNS:
                    raise _Divergent
            else:
                growth = 0
            if abs(cur - prev) <= tol * max(cur, 1e-300):
                stable += 1
                if stable >= 2:
                    return cur
            else:
                stable = 0
        prev = cur
        size *= 2
    raise _Divergent


def _discrete_scan(lam, eps, weight=None):
    """Sum of weights over {k in Z : lam(k) > eps}; counts when weight is None.
    Exact on |k| <= cutoff_hint(eps) when there is one, else settled."""
    def scan(kmax):
        total = 0.0
        for k in range(-kmax, kmax + 1):
            if _check_value(lam.fn(k)) > eps:
                total += 1.0 if weight is None else weight(k)
        return total

    if lam.cutoff_hint is not None:
        return scan(int(lam.cutoff_hint(eps)))
    return _settle(scan, 8, 0.0)


def _sampled_measure(lam, eps):
    """Indicator sum on declared samples, or on a growing truncated grid."""
    if lam.sample_omega is not None:
        om = lam.sample_omega
        vals = lam.sample_value
        step = lam.resolution or float(np.median(np.diff(np.sort(om))))
        hits = vals > eps
        if hits.size and (hits[0] or hits[-1]):
            warnings.warn("superlevel set reaches the sampled boundary; "
                          "measure is truncated", TruncationWarning,
                          stacklevel=3)
        return step * float(np.count_nonzero(hits))
    step = lam.resolution or (1.0 / 128.0)

    def grid_measure(r):
        n = max(16, int(round(r / step)))
        vals = _midpoint_values(lam.fn, r, n)
        return (r / n) * float(np.count_nonzero(vals > eps))

    return _settle(grid_measure, 8.0, 1e-12)


def _numeric_measure(lam, mu, eps, trim=None):
    if lam.shape == DISCRETE:
        if trim or mu.kind != COUNTING_INTEGERS:
            raise UnsupportedMeasureError(
                "discrete multipliers need the untrimmed counting measure")
        return _discrete_scan(lam, eps)
    if lam.shape == GENERIC_SAMPLED:
        if trim:
            raise UnsupportedMeasureError(
                "pole trimming needs a multiplier with monotone branches")
        m = _sampled_measure(lam, eps)
        return 2.0 * m if mu.kind == LEBESGUE_LINE and lam.sample_omega is None else m
    t = trim or 0.0
    hi = 1.0 if mu.kind == LEBESGUE_UNIT_INTERVAL else INF
    m = 0.0
    for a, b in _superlevel_set(lam, eps, hi):
        m += _interval_measure(mu, max(b, t)) - _interval_measure(mu, max(a, t))
    return m


def _closed_measure(lam, mu, eps, want_log, trim=None):
    if trim:
        if lam.boundary is None:
            return None
        x = max(0.0, lam.boundary(eps))
        m = _interval_measure(mu, x) - _interval_measure(mu, min(trim, x))
        return (math.log(m) if m > 0 else -INF) if want_log else m
    if want_log and lam.log_superlevel is not None:
        return lam.log_superlevel(eps)
    if lam.superlevel is not None:
        m = lam.superlevel(eps)
        return (math.log(m) if m > 0 else -INF) if want_log else m
    if lam.log_superlevel is not None:
        log_m = lam.log_superlevel(eps)
        try:
            return math.exp(log_m)
        except OverflowError:
            raise ValueError(f"the measure exp({log_m!r}) overflows a float; "
                             "use log_superlevel_measure") from None
    if lam.boundary is not None:
        m = _interval_measure(mu, max(0.0, lam.boundary(eps)))
        return (math.log(m) if m > 0 else -INF) if want_log else m
    return None


def superlevel_measure(lam, mu, eps, method="auto", trim=None):
    """mu({omega : lambda(omega) > eps}) in plain units (inf when divergent).

    ``method`` selects the evaluation path: "auto" prefers a closed form
    and falls back to the numeric search, "closed" requires one, "numeric"
    forces the search (used to cross-check closed forms).  ``trim`` removes
    an initial interval / centered ball of that radius from the domain,
    which is how pole neighbourhoods are excised.
    """
    return _measure(lam, mu, eps, method, trim, want_log=False)


def log_superlevel_measure(lam, mu, eps, method="auto", trim=None):
    """ln of :func:`superlevel_measure`; +inf sentinel when divergent."""
    return _measure(lam, mu, eps, method, trim, want_log=True)


def _measure(lam, mu, eps, method, trim, want_log):
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trim is not None and not (math.isfinite(trim) and trim >= 0):
        raise ValueError(f"trim must be a finite radius >= 0, got {trim!r}")
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method != "numeric":
        closed = _closed_measure(lam, mu, eps, want_log, trim)
        if closed is not None:
            return closed
        if method == "closed":
            raise ValueError("multiplier has no usable closed form")
    try:
        m = _numeric_measure(lam, mu, eps, trim)
    except _Divergent:
        return INF
    if want_log:
        return math.log(m) if m > 0 else -INF
    return m


def phi_curve(lam, mu, grid, method="auto", trim=None):
    """Distribution function of the multiplier sampled on a descending grid.

    Divergent samples are stored as the +inf sentinel and flag the whole
    curve as non-informative; the curve is still returned.  Monotonicity is
    enforced at construction (violations raise, they are numeric failures).
    """
    logs = [log_superlevel_measure(lam, mu, float(e), method, trim)
            for e in grid]
    return DistributionFunction.build(np.asarray(grid, dtype=float), logs,
                                      source="superlevel",
                                      sup_bound=lam.sup_bound)


# ---------------------------------------------------------------------------
# rearrangements

def decreasing_rearrangement(phi, t):
    """Generalized inverse lambda*(t) = inf{tau > 0 : Phi(tau) <= t}.

    Evaluated from the stored curve by monotone log-log interpolation
    between grid knots; lambda*(0) is the squared-norm bound sup_bound, and
    values of t below the reachable range of the curve also return it.
    """
    if phi.finiteness == NON_INFORMATIVE:
        raise ValueError("cannot invert a non-informative curve")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return phi.sup_bound
    eps = phi.eps_grid
    lp = phi.log_phi
    lt = math.log(t)
    if lt < lp[0]:
        return phi.sup_bound
    if lt >= lp[-1]:
        return _tail_extrapolate(eps, lp, lt)
    k = int(np.searchsorted(lp, lt, side="right"))  # lp[k-1] <= lt < lp[k]
    la, lb = lp[k - 1], lp[k]
    if not np.isfinite(la) or lb <= la:
        return float(eps[k - 1])
    frac = (lb - lt) / (lb - la)
    return float(math.exp(math.log(eps[k]) +
                          frac * (math.log(eps[k - 1]) - math.log(eps[k]))))


def _tail_extrapolate(eps, lp, lt):
    """Continue the last log-log segment past the finest grid point."""
    fin = np.isfinite(lp)
    idx = np.where(fin)[0]
    if idx.size < 2 or lp[idx[-1]] <= lp[idx[-2]]:
        return float(eps[-1])
    i, j = idx[-2], idx[-1]
    slope = (math.log(eps[j]) - math.log(eps[i])) / (lp[j] - lp[i])
    return float(math.exp(math.log(eps[j]) + (lt - lp[j]) * slope))


def rearrangement_multiplier(phi):
    """The decreasing rearrangement as a multiplier on ([0, inf), Lebesgue).

    Spectral equivalence means this multiplier has the same distribution
    function as the one the curve came from, which the suite verifies.
    """
    fn = lambda t: decreasing_rearrangement(phi, t)
    mult = Multiplier(fn=fn, shape=MONOTONE_TAIL, sup_bound=phi.sup_bound,
                      decay=fn)
    return mult, MeasureSpace(LEBESGUE_HALFLINE)


def d_lambda(lam, mu, eps):
    """Sublevel distribution mu({omega in [0,1] : lambda(omega) <= eps})."""
    if mu.kind != LEBESGUE_UNIT_INTERVAL:
        raise UnsupportedMeasureError(
            "the sublevel distribution needs the unit-interval measure")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        # {lambda <= 0} has measure zero for the injective models handled here
        return 0.0
    above = _numeric_measure(lam, mu, eps)
    return min(1.0, max(0.0, 1.0 - above))


def increasing_rearrangement(lam, mu, t):
    """lambda*(t) = sup{eps : d_lambda(eps) <= t} on the unit interval.

    Both d_lambda and this inverse are index functions at zero: positive
    for positive arguments with limit zero.
    """
    if mu.kind != LEBESGUE_UNIT_INTERVAL:
        raise UnsupportedMeasureError(
            "the increasing rearrangement needs the unit-interval measure")
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    hi = lam.sup_bound
    if d_lambda(lam, mu, hi) <= t:
        return hi
    return _bisect(functools.partial(d_lambda, lam, mu), t, 0.0, hi,
                   rising=True)


# ---------------------------------------------------------------------------
# reweighting

def _quad(f, a, b):
    val, _ = integrate.quad(f, a, b, epsrel=QUAD_REL_TOL, limit=200)
    return val


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def reweight(lam, mu, kappa, grid):
    """Distribution curve of the reweighted measure kappa * mu.

    Integrates kappa over the superlevel sets: adaptive quadrature on
    continuous measures, exact summation on the counting measure.  With
    kappa identically one this reproduces :func:`phi_curve`.  Reweighting
    changes the apparent growth of the curve, which is exactly why the
    benchmark measure must stay fixed when classifying.
    """
    if not mu.is_discrete and mu.kind not in (
            LEBESGUE_LINE, LEBESGUE_HALFLINE, LEBESGUE_UNIT_INTERVAL):
        raise UnsupportedMeasureError(f"reweighting not supported on {mu.kind!r}")
    weight = _positive(kappa)
    hi = 1.0 if mu.kind == LEBESGUE_UNIT_INTERVAL else INF
    logs = []
    for e in grid:
        eps = float(e)
        try:
            if mu.is_discrete:
                mass = _discrete_scan(lam, eps, weight=weight)
            else:
                if lam.shape == MONOTONE_TAIL and lam.boundary is not None:
                    x = min(max(0.0, lam.boundary(eps)), hi)
                    spans = [(0.0, x)] if x > 0 else []
                else:
                    spans = _merge(_superlevel_set(lam, eps, hi))
                mass = 0.0
                for a, b in spans:
                    if mu.kind == LEBESGUE_LINE:
                        mass += _quad(weight, -b, -a) if a > 0 else 0.0
                        mass += _quad(weight, a if a > 0 else -b, b)
                    else:
                        mass += _quad(weight, a, b)
        except _Divergent:
            mass = INF
        logs.append(math.log(mass) if mass > 0 else -INF)
    return DistributionFunction.build(np.asarray(grid, dtype=float), logs,
                                      source="reweighted",
                                      sup_bound=lam.sup_bound)


def _positive(kappa):
    def wrapped(x):
        v = kappa(x)
        if not v > 0:
            raise ValueError(f"density must be strictly positive, got {v!r}")
        return v
    return wrapped


# ---------------------------------------------------------------------------
# diagnostics

class EssinfResult(NamedTuple):
    value: float
    verdict: str  # well_posed_candidate | ill_posed | indeterminate
    history: tuple


def essinf_estimate(lam, mu):
    """Sampled infimum over expanding truncations with refinement.

    The infimum over [0, R] is sampled on midpoint grids that are refined
    until stable; the truncation radius then doubles.  A sequence that
    keeps decaying (or hits the floor) is the ill-posed signature, a
    stabilized positive sequence the well-posed candidate; anything else is
    indeterminate.
    """
    history = []
    seen_max = 0.0
    hit_zero = False
    for k in range(ESSINF_DOUBLINGS + 1):
        r = R0 * 2.0 ** k
        if lam.shape == DISCRETE:
            ks = np.arange(-int(r), int(r) + 1)
            vals = np.asarray([_check_value(lam.fn(int(i))) for i in ks])
            m = float(vals.min())
            seen_max = max(seen_max, float(vals.max()))
        else:
            m, mx, stable = _refined_min(lam.fn, r, seen_max)
            seen_max = max(seen_max, mx)
            if not stable:
                hit_zero = True
        history.append(m)
        floor = ESSINF_FLOOR_REL * max(seen_max, 1e-300)
        if m <= floor:
            hit_zero = True
        if hit_zero:
            # the infimum over a larger domain can only be smaller still
            break
    floor = ESSINF_FLOOR_REL * max(seen_max, 1e-300)
    if hit_zero or history[-1] <= floor:
        return EssinfResult(0.0, "ill_posed", tuple(history))
    last = history[-3:]
    if len(last) == 3 and max(last) - min(last) <= 1e-3 * max(last):
        return EssinfResult(history[-1], "well_posed_candidate",
                            tuple(history))
    slack = 1e-12
    nonincreasing = all(b <= a * (1 + slack) for a, b in zip(history, history[1:]))
    if nonincreasing and history[-1] <= 0.5 * history[0]:
        return EssinfResult(history[-1], "ill_posed", tuple(history))
    return EssinfResult(history[-1], "indeterminate", tuple(history))


def _refined_min(fn, r, seen_max):
    """Min of fn over midpoint grids on [0, r], refined until stable.

    Returns (min, max_seen, stable); an unstable result means the sampled
    minimum kept collapsing under refinement, i.e. the infimum is zero to
    numerical resolution.  Two consecutive collapses (a factor >= 3 drop
    each) already decide the outcome, so the refinement stops there.
    """
    n = ESSINF_SAMPLES
    prev = None
    collapses = 0
    mx = seen_max
    for _ in range(7):
        vals = _midpoint_values(fn, r, n)
        m = float(vals.min())
        mx = max(mx, float(vals.max()))
        if m <= ESSINF_FLOOR_REL * max(mx, 1e-300):
            return m, mx, True
        if prev is not None:
            if abs(m - prev) <= 0.05 * max(prev, 1e-300):
                return m, mx, True
            collapses = collapses + 1 if m <= prev / 3.0 else 0
            if collapses >= 2:
                return m, mx, False
        prev = m
        n *= 2
    return prev, mx, False


class LpResult(NamedTuple):
    verdict: str  # finite | infinite | indeterminate
    value: float | None


def lp_check(lam, mu, p=None, f=None):
    """Numeric integrability check of lambda**p (or f(lambda)) over mu.

    Partial integrals over expanding truncations converge (relative
    increments below LP_REL_TOL twice in a row, with the tail dominated by
    the declared decay envelope) -> finite with the accumulated value;
    sustained growth across doublings -> infinite; neither, or convergence
    without a declared envelope -> indeterminate.
    """
    if (p is None) == (f is None):
        raise ValueError("exactly one of p or f is required")
    if p is not None and p < 1:
        raise ValueError("p must be >= 1")
    g = (lambda v: v ** p) if p is not None else f

    def integrand(x):
        return g(_check_value(lam.fn(x)))

    if mu.is_discrete:
        return _lp_discrete(lam, g)

    if mu.kind == LEBESGUE_LINE:
        factor, weight = 2.0, integrand
    elif mu.kind in (LEBESGUE_HALFLINE, LEBESGUE_UNIT_INTERVAL):
        factor, weight = 1.0, integrand
    elif mu.kind == LEBESGUE_RADIAL:
        d = mu.dim
        surf = d * ball_volume(d, 1.0)
        factor, weight = 1.0, (lambda x: surf * x ** (d - 1) * integrand(x))
    else:
        raise UnsupportedMeasureError(f"unsupported measure {mu.kind!r}")

    if mu.kind == LEBESGUE_UNIT_INTERVAL:
        return LpResult("finite", factor * _quad(weight, 0.0, 1.0))

    total = factor * _quad(weight, 0.0, R0)
    growth = converged = 0
    r = R0
    for _ in range(LP_MAX_DOUBLINGS):
        seg = factor * _quad(weight, r, 2.0 * r)
        new = total + seg
        if total > 0 and new >= LP_GROWTH_FACTOR * total:
            growth += 1
            if growth >= GROWTH_RUNS:
                return LpResult("infinite", None)
        else:
            growth = 0
        if new > 0 and (new - total) / new < LP_REL_TOL:
            converged += 1
            if converged >= 2:
                total = new
                r *= 2.0
                break
        else:
            converged = 0
        total = new
        r *= 2.0
    else:
        return LpResult("indeterminate", None)

    if lam.decay is None:
        return LpResult("indeterminate", total)
    env = (lambda x: g(max(0.0, lam.decay(x))))
    env_weight = env if mu.kind != LEBESGUE_RADIAL else (
        lambda x: mu.dim * ball_volume(mu.dim, 1.0) * x ** (mu.dim - 1) * env(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        tail, _ = integrate.quad(env_weight, r, np.inf, epsrel=QUAD_REL_TOL,
                                 limit=200)
    if not math.isfinite(tail) or tail > max(LP_REL_TOL * total, 1e-12):
        return LpResult("indeterminate", total)
    return LpResult("finite", total + factor * tail)


def _lp_discrete(lam, g):
    kmax = 8
    total = sum(g(_check_value(lam.fn(k)))
                for k in range(-kmax, kmax + 1))
    growth = converged = 0
    for _ in range(LP_MAX_DOUBLINGS):
        new_total = total + sum(
            g(_check_value(lam.fn(s * k)))
            for k in range(kmax + 1, 2 * kmax + 1) for s in (1, -1))
        if total > 0 and new_total >= LP_GROWTH_FACTOR * total:
            growth += 1
            if growth >= GROWTH_RUNS:
                return LpResult("infinite", None)
        else:
            growth = 0
        if new_total > 0 and (new_total - total) / new_total < LP_REL_TOL:
            converged += 1
            if converged >= 2:
                return LpResult("finite", new_total)
        else:
            converged = 0
        total = new_total
        kmax *= 2
    return LpResult("indeterminate", None)
