"""Superlevel-set measures of multipliers on benchmark measure spaces.

The distribution function Phi(eps) = mu({lambda > eps}) is the non-compact
counterpart of the singular value counting function.  This module measures
superlevel sets numerically (bisection on monotone profiles, branchwise
bisection on piecewise monotone ones, enumeration on the integers,
indicator sums on sampled data), evaluates closed forms when a model
carries them, and builds the derived objects: rearrangements, reweighted
curves, the essential-infimum diagnostic and, by the layer-cake formula,
L^p integrability.

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

from .core import (COUNTING_INTEGERS, DEFAULT_THRESHOLDS, DISCRETE,
                   GENERIC_SAMPLED, INF, InsufficientDataError,
                   LEBESGUE_HALFLINE, LEBESGUE_LINE, LEBESGUE_RADIAL,
                   LEBESGUE_UNIT_INTERVAL, MONOTONE_TAIL, Multiplier,
                   NON_INFORMATIVE, PIECEWISE_MONOTONE,
                   RADIAL_MONOTONE_TAIL, TruncationWarning,
                   UnsupportedMeasureError, ball_volume, DistributionFunction,
                   MeasureSpace, geometric_grid)
from .estimate import _tail, power_law_fit

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
# truncation schedule of essinf (see its docstring)
R0 = 8.0
ESSINF_DOUBLINGS = 14
ESSINF_SAMPLES = 2048
ESSINF_FLOOR_REL = 1e-13
# a fitted layer-cake tail slope this close to one decides nothing
LP_SLOPE_TOL = 0.05


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


def _check_trim(trim):
    if trim is not None and not (math.isfinite(trim) and trim >= 0):
        raise ValueError(f"trim must be a finite radius >= 0, got {trim!r}")


def _measure(lam, mu, eps, method, trim, want_log):
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_trim(trim)
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
    mult = Multiplier(fn=fn, shape=MONOTONE_TAIL, sup_bound=phi.sup_bound)
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
    """Integrability of lambda**p (or of f(lambda)) over mu, by the layer cake.

    int g(lambda) dmu = int_0^inf Phi(g^-1(t)) dt for g increasing with
    g(0) = 0, so the distribution function decides it on every measure
    space.  Each end is decided by a power-law fit of ln Phi(eps) against
    ln(1/g(eps)) over the tail window of a default-depth curve: as eps -> 0
    a slope above one diverges, as eps -> inf (only when sup_bound is
    infinite) a slope below one does.  A slope within LP_SLOPE_TOL of one,
    or one that moves by more than that across the window toward the other
    verdict, is indeterminate.  A divergent sample is infinite when it shows
    among the first min_tail_samples points of the eps -> 0 grid; deeper,
    the numeric searches cannot tell a set beyond their reach from an
    unbounded one, and it is indeterminate.  A finite value is the quadrature over
    u = ln(1/t) of the numeric measure between the ends plus the fitted
    power-law tails beyond them; where quad cannot follow a staircase
    (counting, step and sampled multipliers) the body is summed by
    bisection, exactly on its flat steps.
    """
    if (p is None) == (f is None):
        raise ValueError("exactly one of p or f is required")
    if p is not None and p < 1:
        raise ValueError("p must be >= 1")
    t = DEFAULT_THRESHOLDS
    top = min(lam.sup_bound, 1.0)
    lo, hi = top * 2.0 ** -59, lam.sup_bound
    fine = geometric_grid(top, lo)
    ends = [(1.0, fine)]
    if hi == INF:
        hi = 2.0 ** 59
        ends.append((-1.0, geometric_grid(hi, 1.0)))
    if p is not None:
        u_of = lambda e: -p * math.log(e)
        eps_of = lambda u: math.exp(-u / p)
    else:
        u_of = lambda e: -math.log(f(e)) if f(e) > 0 else INF
        # g^-1 by bisection in ln eps, which resolves eps relative to itself
        eps_of = lambda u: lo * math.exp(_bisect(
            lambda v: f(lo * math.exp(v)), math.exp(-u), 0.0,
            math.log(hi / lo), rising=True))
    # Phi is nonincreasing: a divergent sample anywhere shows at the finest
    # eps, and deciding it here spares a curve of divergent samples
    if log_superlevel_measure(lam, mu, lo) == INF:
        reach = float(fine[t.min_tail_samples - 1])
        diverges = log_superlevel_measure(lam, mu, reach) == INF
        return LpResult("infinite" if diverges else "indeterminate", None)
    # the u limits of the quadrature, keyed by end: -1 large eps, +1 eps -> 0
    span, tails, knots = {-1.0: u_of(hi)}, 0.0, set()
    for sign, grid in ends:
        phi = phi_curve(lam, mu, grid)
        pts = [(u_of(float(e)), lp) for e, lp in zip(grid, phi.log_phi)]
        pts = [(u, lp) for u, lp in pts if math.isfinite(u) and lp > -INF]
        if sign < 0:
            pts.reverse()  # the window sits at the coarse end
        try:
            tail = _tail(pts, t.window_fraction, t.min_tail_samples)
        except InsufficientDataError:
            return LpResult("indeterminate", None)
        half = len(tail) // 2
        k, near, far = (power_law_fit(*zip(*w))[0]
                        for w in (tail, tail[:half], tail[half:]))
        # > 0: the slope still moves toward divergence at the window's end
        drift = sign * (far - near)
        if sign * (k - 1.0) > LP_SLOPE_TOL and drift >= -LP_SLOPE_TOL:
            return LpResult("infinite", None)
        if sign * (k - 1.0) >= -LP_SLOPE_TOL or drift > LP_SLOPE_TOL:
            return LpResult("indeterminate", None)
        span[sign], lp = pts[-1]
        tails += math.exp(lp - span[sign]) / (sign * (1.0 - k))
        knots.update(u for u, _ in pts)
    a, b = span[-1.0], span[1.0]
    log_phi = lambda u: log_superlevel_measure(
        lam, mu, eps_of(u), method="numeric")
    # with full_output quad reports failure as a fourth item, not a warning
    body, _, _, *failed = integrate.quad(
        lambda u: math.exp(log_phi(u) - u), a, b, epsrel=QUAD_REL_TOL,
        limit=200, full_output=1)
    if failed and math.isfinite(body):
        cuts = [a] + sorted(u for u in knots if a < u < b) + [b]
        body = _layers(log_phi, cuts, QUAD_REL_TOL * abs(body))
    if not math.isfinite(body):
        return LpResult("indeterminate", None)
    return LpResult("finite", body + tails)


def _layers(log_phi, cuts, tol):
    """int Phi(u) exp(-u) du over the cuts for a nondecreasing Phi.

    On a cell [a, b] the integral lies between Phi(a) and Phi(b) times the
    weight exp(-a) - exp(-b).  A cell is halved until that bracket is at
    most tol; it then counts the bracket's mean, which is exact where Phi
    is flat and otherwise off by at most half the bracket.
    """
    total = 0.0
    vals = [log_phi(u) for u in cuts]
    cells = list(zip(cuts, cuts[1:], vals, vals[1:]))
    while cells:
        a, b, la, lb = cells.pop()
        low = math.exp(la - a) * -math.expm1(a - b)
        high = math.exp(lb - b) * math.expm1(b - a)
        m = 0.5 * (a + b)
        # a non-finite bracket is kept, so the sum reports it
        if high - low > tol and b - m > BISECT_REL_TOL * max(1.0, abs(m)):
            lm = log_phi(m)
            cells += [(a, m, la, lm), (m, b, lm, lb)]
        else:
            total += 0.5 * (low + high)
    return total
