"""Superlevel-set measures of multipliers on benchmark measure spaces.

The distribution function Phi(eps) = mu({lambda > eps}) is the non-compact
counterpart of the singular value counting function.  This module measures
superlevel sets numerically (bisection on the monotone branches of a
continuous profile, an exact scan of the integers up to the multiplier's
cutoff, indicator sums on a fixed-step midpoint grid), evaluates closed
forms when a model carries them, and builds the derived objects:
rearrangements, reweighted curves and the essential-infimum diagnostic.

The numeric search works on a whole eps grid at once.  Multiplier
callbacks take an array of points and return an array of its shape, and
``_values`` evaluates and checks each grid in one call.  The reweighting
density alone is scalar, as callers write it with ``math.exp``;
``_positive`` adapts it to arrays by calling it point by point.  Every
continuous profile is walked branch by branch between its breakpoints; the
branch that runs to infinity gets one bracket per eps, grown along one
ladder of doublings shared by the grid, and one bisection then halves
every crossing together, each stopping on the rule a lone bracket would
use.  The doubling loop of the indicator sums settles each eps on its own.
A single eps is a one-element grid, so a sample's value does not depend on
the grid it was computed in.  The logs of radial measures are taken from
the radii, so a ball whose volume leaves the floats still has a finite
ln Phi; plain measures keep plain arithmetic.

All functions are pure; per-epsilon results are independent and
truncation schedules are deterministic, so results are reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (COUNTING_INTEGERS, DISCRETE, GENERIC_SAMPLED, INF,
                   LEBESGUE_HALFLINE, LEBESGUE_LINE, LEBESGUE_RADIAL,
                   LEBESGUE_UNIT_INTERVAL, Multiplier,
                   NON_INFORMATIVE, UnsupportedMeasureError, ball_volume,
                   DistributionFunction, MeasureSpace)

__all__ = [
    "superlevel_measure",
    "log_superlevel_measure",
    "phi_curve",
    "decreasing_rearrangement",
    "rearrangement_multiplier",
    "increasing_rearrangement",
    "reweight",
    "essinf_estimate",
    "EssinfResult",
]

BISECT_REL_TOL = 1e-12
QUAD_REL_TOL = 1e-8
# domain-doubling divergence rule: growth by >= 1.5 over 5 consecutive
# doublings flags the measure as infinite; slow logarithmic growth
# stabilizes the ratio near 1 and is never caught by it
GROWTH_FACTOR = 1.5
GROWTH_RUNS = 5
# midpoint-grid step of the sampled (generic_sampled) measure
SAMPLE_STEP = 1.0 / 64.0
# most integers a discrete scan enumerates at once: 2^24 of them take
# about 0.6 GB at peak, and backward_heat at t_bar = 1e-12 needs 1.3e7
SCAN_POINTS = 1 << 24
DENSITY_SLICE = 1 << 12  # points _positive lists for the density at once
# truncation schedule of essinf (see its docstring)
R0 = 8.0
ESSINF_DOUBLINGS = 14
ESSINF_SAMPLES = 2048
ESSINF_FLOOR_REL = 1e-13


def _values(fn, x):
    """fn on the array x, checked: an array of x's shape, nonnegative, no NaN.

    The callback runs under ``np.errstate``, so one that overflows or hits
    a pole saturates (to +inf or 0) without a warning.
    """
    with np.errstate(all="ignore"):
        v = np.asarray(fn(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"multiplier must return an array of shape {x.shape}, "
                         f"got shape {v.shape}")
    ok = v >= 0
    if np.count_nonzero(ok) < ok.size:
        raise ValueError(
            f"multiplier must be nonnegative, got {float(v[~ok][0])!r}")
    return v


def _log(m):
    return math.log(m) if m > 0 else -INF


def _log_ball_volume(d, r):
    """ln ``ball_volume(d, r)`` for a radius r >= 0, finite where the volume
    overflows: (d/2) ln pi - lgamma(d/2 + 1) + d ln r, -inf at r = 0."""
    return (0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
            + d * math.log(r)) if r > 0 else -INF


def _log_shells(d, pieces):
    """ln of the volume of the disjoint shells a <= |x| < b in R^d, one
    per (a, b) pair of arrays, 0 <= a <= b, at every index: with R the
    largest b, ln V(R) + ln sum((b/R)^d - (a/R)^d), so it stays finite
    where the volumes overflow; -inf for no volume, +inf for an unbounded
    shell."""
    radius = np.max([b for _, b in pieces], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = sum((b / radius) ** d - (a / radius) ** d for a, b in pieces)
    return [INF if r == INF else _log_ball_volume(d, r) + _log(v)
            for r, v in zip(radius.tolist(), shares.tolist())]


def _interval_measure(mu, x):
    """Measure of initial intervals / centered balls of extents x >= 0."""
    if mu.kind == LEBESGUE_HALFLINE:
        return x
    if mu.kind == LEBESGUE_LINE:
        return 2.0 * x
    if mu.kind == LEBESGUE_RADIAL:
        return ball_volume(mu.dim, x)
    if mu.kind == LEBESGUE_UNIT_INTERVAL:
        return np.minimum(x, 1.0)
    raise UnsupportedMeasureError(
        f"no interval measure for kind {mu.kind!r}")


def _midpoint_values(fn, r, n):
    """fn at the n midpoints of [0, r], in one call."""
    return _values(fn, (np.arange(n) + 0.5) * (r / n))


def _count_above(vals, eps):
    """#{v in vals : v > e} for every e in eps."""
    return vals.size - np.searchsorted(np.sort(vals), eps, side="right")


def _bisect(fn, eps, lo, hi, rising=False):
    """Where fn crosses eps[i] in [lo[i], hi[i]], 0 <= lo < hi, for every i.

    fn is above eps on the lo side, or on the hi side where ``rising`` (a
    bool, or an array of them).  All brackets are halved together, one call
    of fn per step, and each stops on its own at relative width
    BISECT_REL_TOL or when its midpoint rounds to an end, so a bracket ends
    where it would on its own.
    """
    out = np.empty(eps.shape)
    idx = np.arange(eps.size)
    rising = np.broadcast_to(rising, eps.shape)
    while idx.size:
        mid = 0.5 * (lo + hi)
        keep = ((hi - lo > BISECT_REL_TOL * np.maximum(hi, 1e-30))
                & (mid != lo) & (mid != hi))
        if np.count_nonzero(keep) < idx.size:
            out[idx[~keep]] = mid[~keep]
            idx, eps, lo, hi, mid, rising = (
                a[keep] for a in (idx, eps, lo, hi, mid, rising))
            if not idx.size:
                break
        up = (_values(fn, mid) > eps) != rising
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return out


def _initial_interval_sup(fn, eps, hint):
    """sup{x >= 0 : fn(x) > eps[i]} for every i, assuming each superlevel
    set is an initial interval.

    Monotonicity of fn is not required, only that the superlevel set is
    anchored at 0; the bisection then converges to its endpoint.  The upper
    brackets grow by doubling from ``hint`` along one ladder of points
    shared by the whole grid; a bracket beyond 1e280 means the set is
    unbounded for every practical purpose, and that eps alone gets +inf.
    """
    x = np.zeros(eps.shape)
    live = np.flatnonzero(_values(fn, np.zeros(1))[0] > eps)
    lo, hi = np.zeros(eps.shape), np.zeros(eps.shape)
    low, step = 0.0, hint
    while live.size:
        above = _values(fn, np.array([step]))[0] > eps[live]
        lo[live[~above]], hi[live[~above]] = low, step
        live = live[above]
        low, step = step, step * 2.0
        if step > 1e280:
            x[live] = INF
            break
    found = hi > 0
    x[found] = _bisect(fn, eps[found], lo[found], hi[found])
    return x


def _superlevel_set(lam, eps, domain_hi=INF):
    """{lam > eps[i]} within [0, domain_hi] for every i, as one (a, b) pair
    of arrays per monotone branch, a == b where the branch holds none of it.

    The branches run between 0, the breakpoints and domain_hi.  On
    [0, inf) the last one runs from the last breakpoint to infinity, where
    the profile must decay; b is +inf where the set is unbounded.
    """
    if lam.shape in (DISCRETE, GENERIC_SAMPLED):
        raise UnsupportedMeasureError(f"unsupported shape {lam.shape!r}")
    fn = lam.fn
    pts = [0.0] + [b for b in lam.breakpoints if b < domain_hi]
    bounded = domain_hi < INF
    if bounded:
        pts.append(domain_hi)
    out = []
    if len(pts) > 1:
        # one row per branch [a, b] and one column per eps; the bracket of
        # each crossing is bisected in one search, rising where fn(b) > fn(a)
        vals = _values(fn, np.array(pts))
        shape = (len(pts) - 1, eps.size)
        a = np.broadcast_to(np.array(pts[:-1])[:, None], shape)
        b = np.broadcast_to(np.array(pts[1:])[:, None], shape)
        in_a, in_b = vals[:-1, None] > eps, vals[1:, None] > eps
        rising = np.broadcast_to((vals[1:] > vals[:-1])[:, None], shape)
        lo, hi = a.copy(), np.where(in_a | in_b, b, a)
        cross = in_a != in_b
        x = _bisect(fn, np.broadcast_to(eps, shape)[cross], a[cross],
                    b[cross], rising=rising[cross])
        lo[cross] = np.where(rising[cross], x, a[cross])
        hi[cross] = np.where(rising[cross], b[cross], x)
        out = list(zip(lo, hi))
    if not bounded:
        last = pts[-1]
        x = _initial_interval_sup(lambda w: fn(last + w), eps,
                                  hint=max(1.0, last))
        out.append((np.full(eps.shape, last), last + x))
    return out


def _discrete_scan(lam, eps, weight=None):
    """Sum of weights over {k in Z : lam(k) > eps[i]} for every i; counts
    when weight is None.  Exact: one call of fn covers every |k| up to the
    largest cutoff_hint, past which lam <= eps[i]; one call of weight every
    k kept, each sum adding its terms one at a time in ascending k."""
    top = max((int(lam.cutoff_hint(float(e))) for e in eps), default=0)
    if 2 * top + 1 > SCAN_POINTS:
        raise MemoryError(f"the discrete scan needs {float(2 * top + 1):.3g} "
                          f"points, more than the {SCAN_POINTS} it may hold")
    vals = _values(lam.fn, np.arange(-top, top + 1))
    if weight is None:
        return _count_above(vals, eps).astype(float)
    # only the kept points' values and weights outlive the density calls:
    # the whole scan's values go first, and its points are made again
    kept = vals > np.min(eps, initial=INF)
    vals = vals[kept]
    w = weight(np.arange(-top, top + 1)[kept])
    return np.array([_running_sum(w[vals > e]) for e in eps])


def _running_sum(w):
    """Sum of w adding one term at a time from w[0], 0.0 for none.  The
    running sums overwrite w, so each eps's copy of its kept weights is
    the one array it adds, freed before the next eps's."""
    return np.cumsum(w, out=w)[-1] if w.size else 0.0


def _sampled_measure(lam, eps):
    """Indicator sums on midpoint grids of [0, r] for doubling r, until
    each eps is stable to a relative 1e-12 twice in a row; sustained
    growth or 60 rounds mean divergence, and that eps gets +inf."""
    def grid_measure(r):
        n = max(16, int(round(r / SAMPLE_STEP)))
        return (r / n) * _count_above(_midpoint_values(lam.fn, r, n), eps)

    r = 8.0
    prev = grid_measure(r)
    out = np.full(eps.shape, INF)
    live = np.ones(eps.shape, dtype=bool)
    growth = stable = np.zeros(eps.shape, dtype=int)
    for _ in range(59):
        r *= 2
        cur = grid_measure(r)
        growth = np.where((prev > 0) & (cur >= GROWTH_FACTOR * prev),
                          growth + 1, 0)
        live &= growth < GROWTH_RUNS
        stable = np.where(np.abs(cur - prev) <= 1e-12 * np.maximum(cur, 1e-300),
                          stable + 1, 0)
        done = live & (stable >= 2)
        out[done] = cur[done]
        live &= ~done
        if not live.any():
            break
        prev = cur
    return out


def _numeric_measure(lam, mu, eps, trim=None):
    """mu({lam > eps[i]}) for every i of the array eps, +inf where divergent."""
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
        return 2.0 * m if mu.kind == LEBESGUE_LINE else m
    t = trim or 0.0
    hi = 1.0 if mu.kind == LEBESGUE_UNIT_INTERVAL else INF
    m = np.zeros(eps.shape)
    for a, b in _superlevel_set(lam, eps, hi):
        m += (_interval_measure(mu, np.maximum(b, t))
              - _interval_measure(mu, np.maximum(a, t)))
    return m


def _numeric_log_measure(lam, mu, eps, trim=None):
    """ln of ``_numeric_measure`` for every eps, as a list: radial sets are
    measured in logs (``_log_shells``), so they stay finite where their
    volume overflows."""
    if mu.kind != LEBESGUE_RADIAL or lam.shape in (DISCRETE, GENERIC_SAMPLED):
        return [_log(m) for m in _numeric_measure(lam, mu, eps, trim)]
    t = trim or 0.0
    return _log_shells(mu.dim, [(np.maximum(a, t), np.maximum(b, t))
                                for a, b in _superlevel_set(lam, eps)])


def _closed_form(lam, trim):
    """Whether _closed_measure has a hook for this multiplier and trim."""
    if trim:
        return lam.boundary is not None
    return any(h is not None for h in
               (lam.superlevel, lam.log_superlevel, lam.boundary))


def _closed_measure(lam, mu, eps, want_log, trim=None):
    if trim:
        x = max(0.0, lam.boundary(eps))
        if want_log and mu.kind == LEBESGUE_RADIAL:
            return _log_shells(mu.dim, [(np.array([min(trim, x)]),
                                         np.array([x]))])[0]
        m = float(_interval_measure(mu, x)
                  - _interval_measure(mu, min(trim, x)))
        return _log(m) if want_log else m
    if want_log and lam.log_superlevel is not None:
        return lam.log_superlevel(eps)
    if lam.superlevel is not None:
        m = lam.superlevel(eps)
        return _log(m) if want_log else m
    if lam.log_superlevel is not None:
        log_m = lam.log_superlevel(eps)
        try:
            return math.exp(log_m)
        except OverflowError:
            raise ValueError(f"the measure exp({log_m!r}) overflows a float; "
                             "use log_superlevel_measure") from None
    x = max(0.0, lam.boundary(eps))
    if want_log and mu.kind == LEBESGUE_RADIAL:
        return _log_ball_volume(mu.dim, x)
    m = float(_interval_measure(mu, x))
    return _log(m) if want_log else m


def superlevel_measure(lam, mu, eps, method="auto", trim=None):
    """mu({omega : lambda(omega) > eps}) in plain units (inf when divergent).

    ``method`` selects the evaluation path: "auto" prefers a closed form
    and falls back to the numeric search, "closed" requires one, "numeric"
    forces the search (used to cross-check closed forms).  ``trim`` removes
    an initial interval / centered ball of that radius from the domain,
    which is how pole neighbourhoods are excised.

    A numeric eps is a one-element search, about 1 ms on the hausdorff
    multiplier (0.8-1.4 ms on two cores), which is what a whole 60-point
    numeric curve costs; loops over eps should call :func:`phi_curve`.
    """
    return _measure(lam, mu, eps, method, trim, want_log=False)


def log_superlevel_measure(lam, mu, eps, method="auto", trim=None):
    """ln of :func:`superlevel_measure`; +inf sentinel when divergent."""
    return _measure(lam, mu, eps, method, trim, want_log=True)


def _check_trim(trim):
    if trim is not None and not (math.isfinite(trim) and trim >= 0):
        raise ValueError(f"trim must be a finite radius >= 0, got {trim!r}")


def _numeric_path(lam, eps, method, trim):
    """Check a request; True when it takes the numeric search."""
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    _check_trim(trim)
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "numeric":
        return True
    if _closed_form(lam, trim):
        return False
    if method == "closed":
        raise ValueError("multiplier has no usable closed form")
    return True


def _measure(lam, mu, eps, method, trim, want_log):
    if not _numeric_path(lam, eps, method, trim):
        try:
            return _closed_measure(lam, mu, eps, want_log, trim)
        except OverflowError:
            raise ValueError(f"the closed form leaves the float range at "
                             f"eps = {eps!r}") from None
    eps = np.array([float(eps)])
    if want_log:
        return _numeric_log_measure(lam, mu, eps, trim)[0]
    return float(_numeric_measure(lam, mu, eps, trim)[0])


def phi_curve(lam, mu, grid, method="auto", trim=None):
    """Distribution function of the multiplier sampled on a descending grid.

    The numeric search runs once over the whole grid; closed forms are
    evaluated per eps.  Divergent samples are stored as the +inf sentinel
    and flag the whole curve as non-informative; the curve is still
    returned.  Monotonicity is enforced at construction (violations raise,
    they are numeric failures).
    """
    eps = np.asarray(grid, dtype=float)
    if _numeric_path(lam, eps, method, trim):
        logs = _numeric_log_measure(lam, mu, eps, trim)
    else:
        logs = [log_superlevel_measure(lam, mu, float(e), method, trim)
                for e in eps]
    return DistributionFunction.build(eps, logs, source="superlevel",
                                      sup_bound=lam.sup_bound)


# ---------------------------------------------------------------------------
# rearrangements

def decreasing_rearrangement(phi, t):
    """Generalized inverse lambda*(t) = inf{tau > 0 : Phi(tau) <= t}.

    ``t`` is a number or an array, and the result has its shape.  Evaluated
    from the stored curve by monotone log-log interpolation between grid
    knots; lambda*(0) is the squared-norm bound sup_bound, and values of t
    below the reachable range of the curve also return it.  Beyond the
    finest knot the last log-log segment is continued.
    """
    if phi.finiteness == NON_INFORMATIVE:
        raise ValueError("cannot invert a non-informative curve")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be nonnegative")
    eps, lp = phi.eps_grid, phi.log_phi
    with np.errstate(divide="ignore"):
        lt = np.log(t)
    out = np.full(t.shape, phi.sup_bound)
    tail = (t > 0) & (lt >= lp[0]) & (lt >= lp[-1])
    out[tail] = _tail_extrapolate(eps, lp, lt[tail])
    inner = (t > 0) & (lt >= lp[0]) & ~tail
    lt = lt[inner]
    k = np.searchsorted(lp, lt, side="right")  # lp[k-1] <= lt < lp[k]
    la, lb = lp[k - 1], lp[k]
    le = np.log(eps)
    kink = np.isfinite(la) & (lb > la)
    with np.errstate(invalid="ignore"):
        frac = (lb - lt) / (lb - la)
    out[inner] = np.where(kink, np.exp(le[k] + frac * (le[k - 1] - le[k])),
                          eps[k - 1])
    return float(out) if out.ndim == 0 else out


def _tail_extrapolate(eps, lp, lt):
    """Continue the last log-log segment past the finest grid point."""
    idx = np.flatnonzero(np.isfinite(lp))
    if idx.size < 2 or lp[idx[-1]] <= lp[idx[-2]]:
        return eps[-1]
    i, j = idx[-2], idx[-1]
    slope = (math.log(eps[j]) - math.log(eps[i])) / (lp[j] - lp[i])
    return np.exp(math.log(eps[j]) + (lt - lp[j]) * slope)


def rearrangement_multiplier(phi):
    """The decreasing rearrangement as a multiplier on ([0, inf), Lebesgue).

    Spectral equivalence means this multiplier has the same distribution
    function as the one the curve came from, which the suite verifies.
    """
    fn = lambda t: decreasing_rearrangement(phi, t)
    mult = Multiplier(fn=fn, sup_bound=phi.sup_bound)
    return mult, MeasureSpace(LEBESGUE_HALFLINE)


def _sublevel(lam, mu, eps):
    """The sublevel distribution d(eps) = mu({omega in [0, 1] :
    lambda(omega) <= eps}) at every eps of the array."""
    out = np.zeros(eps.shape)
    # {lambda <= 0} has measure zero for the injective models handled here
    pos = eps > 0
    out[pos] = np.clip(1.0 - _numeric_measure(lam, mu, eps[pos]), 0.0, 1.0)
    return out


def increasing_rearrangement(lam, mu, t):
    """lambda*(t) = sup{eps : d(eps) <= t} on the unit interval.

    d is the sublevel distribution of ``_sublevel``.  Both d and this
    inverse are index functions at zero: positive for positive arguments
    with limit zero.
    """
    if mu.kind != LEBESGUE_UNIT_INTERVAL:
        raise UnsupportedMeasureError(
            "the increasing rearrangement needs the unit-interval measure")
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    hi = lam.sup_bound
    if _sublevel(lam, mu, np.array([hi]))[0] <= t:
        return hi
    return float(_bisect(lambda e: _sublevel(lam, mu, e), np.array([float(t)]),
                         np.zeros(1), np.array([hi]), rising=True)[0])


# ---------------------------------------------------------------------------
# reweighting

# The 21-point Kronrod rule on [-1, 1] and its embedded 10-point Gauss rule
# (QUADPACK's qk21).  The rule is symmetric; _GK_X holds the nodes x >= 0
# from the end inward, and the Gauss nodes are x_1, x_3, ..., x_9.
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_G_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
QUAD_ABS_TOL = 1.49e-8
QUAD_CELLS = 200
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _kronrod(fx):
    """The Kronrod sum of each row of values at (c, c - h x_i, c + h x_i):
    the centre term plus one dot product over the symmetric pairs."""
    return _GK_W[10] * fx[:, 0] + (fx[:, 1:11] + fx[:, 11:]) @ _GK_W[:10]


def _gk21(g, a, b):
    """The 21-point Gauss-Kronrod rule on the cells [a_i, b_i]: integrals and
    error estimates, with the error heuristics of QUADPACK's qk21.

    g maps an array of points to its values.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    dx = h[:, None] * _GK_X[:10]
    fx = g(np.concatenate([c[:, None], c[:, None] - dx, c[:, None] + dx],
                          axis=1))
    resk = _kronrod(fx)
    # the Gauss nodes c -/+ h x_1, c -/+ h x_3, ..., c -/+ h x_9
    resg = (fx[:, 2:11:2] + fx[:, 12::2]) @ _G_W
    resabs = _kronrod(np.abs(fx)) * np.abs(h)
    resasc = _kronrod(np.abs(fx - 0.5 * resk[:, None])) * np.abs(h)
    err = np.abs((resk - resg) * h)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                   np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * h, err


def _quad(f, a, b):
    """(int_a^b f, converged) for finite a and a finite or infinite b.

    Globally adaptive 21-point Gauss-Kronrod: the cell with the largest
    error estimate is halved until the estimates sum to at most
    max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral|), as in QUADPACK's qagse.
    ``converged`` is False when QUAD_CELLS cells are in use first; the
    estimate so far is then returned.  An infinite b maps to t in (0, 1]
    by x = a + (1 - t) / t.  Like a multiplier callback, f takes an array
    of points and returns an array of its shape.  A sum that leaves the
    float range, or an integrand value that is not a number, raises
    FloatingPointError: an overflow is never an infinite integral.
    """
    if a == b:
        return 0.0, True
    g, lo, hi = f, a, b
    if b == INF:
        g = lambda t: f(a + (1.0 - t) / t) / t / t
        lo, hi = 0.0, 1.0
    cells = [(lo, hi)]
    with np.errstate(all="ignore"):
        res, err = (list(v) for v in _gk21(g, np.array([lo]), np.array([hi])))
        while True:
            total = math.fsum(res)
            if not math.isfinite(total):
                raise FloatingPointError(
                    f"the integral over [{a!r}, {b!r}] leaves the float range")
            if math.fsum(err) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)):
                return total, True
            if len(cells) >= QUAD_CELLS:
                return total, False
            i = int(np.argmax(err))
            lo, hi = cells[i]
            m = 0.5 * (lo + hi)
            r, e = _gk21(g, np.array([lo, m]), np.array([m, hi]))
            cells[i], res[i], err[i] = (lo, m), float(r[0]), float(e[0])
            cells.append((m, hi))
            res.append(float(r[1]))
            err.append(float(e[1]))


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
    if mu.is_discrete != (lam.shape == DISCRETE):
        raise UnsupportedMeasureError(
            "discrete multipliers need the counting measure and the counting "
            "measure needs a discrete multiplier")
    weight = _positive(kappa)
    hi = 1.0 if mu.kind == LEBESGUE_UNIT_INTERVAL else INF
    eps = np.asarray(grid, dtype=float)
    if mu.is_discrete:
        masses = _discrete_scan(lam, eps, weight=weight)
    else:
        if lam.boundary is not None:
            # the closed form's set [0, x) from its measure, so that each
            # closed-form evaluation is one measure call like any other
            per_x = 2.0 if mu.kind == LEBESGUE_LINE else 1.0
            x = [superlevel_measure(lam, mu, float(e)) / per_x for e in eps]
            pieces = [(np.zeros(eps.shape), np.array(x))]
        else:
            pieces = _superlevel_set(lam, eps, hi)
        masses = [_mass(weight, mu, [(a[i], b[i]) for a, b in pieces])
                  for i in range(eps.size)]
    return DistributionFunction.build(eps, [_log(m) for m in masses],
                                      source="reweighted",
                                      sup_bound=lam.sup_bound)


def _mass(weight, mu, pieces):
    """The integral of weight over the union of the (a, b) pieces."""
    spans = _merge([(float(a), float(b)) for a, b in pieces if a < b])
    if spans and spans[-1][1] == INF:
        return INF
    mass = 0.0
    for a, b in spans:
        if mu.kind == LEBESGUE_LINE:
            mass += _quad(weight, -b, -a)[0] if a > 0 else 0.0
            mass += _quad(weight, a if a > 0 else -b, b)[0]
        else:
            mass += _quad(weight, a, b)[0]
    return mass


def _positive(kappa):
    """The scalar density kappa as an array callback, the one place it is
    called: point by point in order, on Python numbers listed DENSITY_SLICE
    at a time, each value finite and > 0."""
    def checked(p):
        try:
            v = kappa(p)
        except OverflowError:
            v = INF
        if v == INF:
            raise FloatingPointError(
                f"the density leaves the float range at {p!r}")
        if not v > 0:
            raise ValueError(f"density must be strictly positive, got {v!r}")
        return v
    return lambda x: np.fromiter(
        (checked(p) for i in range(0, x.size, DENSITY_SLICE)
         for p in x.flat[i:i + DENSITY_SLICE].tolist()),
        float, x.size).reshape(x.shape)


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
    for k in range(ESSINF_DOUBLINGS + 1):
        r = R0 * 2.0 ** k
        if lam.shape == DISCRETE:
            vals = _values(lam.fn, np.arange(-int(r), int(r) + 1))
            m, stable = float(vals.min()), True
            seen_max = max(seen_max, float(vals.max()))
        else:
            m, mx, stable = _refined_min(lam.fn, r, seen_max)
            seen_max = max(seen_max, mx)
        history.append(m)
        if not stable or m <= ESSINF_FLOOR_REL * max(seen_max, 1e-300):
            # the infimum over a larger domain can only be smaller still
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
    numerical precision.  Two consecutive collapses (a factor >= 3 drop
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
