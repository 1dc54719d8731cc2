import contextlib
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from illposed.core import (MODERATE, NON_INFORMATIVE,
                           IllPosednessInterval, InsufficientDataError,
                           MeasureSpace, Multiplier, SigmaSequence,
                           Thresholds, geometric_grid, ratio)
from illposed.counting import (counting_phi, estimate_curve,
                               interval_from_counting,
                               step_multiplier_from_sigma)
from illposed.estimate import (classify_window, indeterminate_interval,
                               power_law_fit, ratio_samples,
                               regression_report)
from illposed.distribution import (decreasing_rearrangement,
                                   log_superlevel_measure, phi_curve,
                                   reweight, superlevel_measure)
from illposed.core import (CLASSIFICATIONS, DistributionFunction,
                           LEBESGUE_HALFLINE, LEBESGUE_LINE,
                           LEBESGUE_UNIT_INTERVAL)
from illposed import cli, gallery


HALF = MeasureSpace(LEBESGUE_HALFLINE)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                     allow_infinity=False)


@given(s=st.floats(min_value=0.05, max_value=20.0),
       eps=st.floats(min_value=1e-30, max_value=0.9))
def test_ratio_recovers_exact_power_law_exponent(s, eps):
    # Phi = eps^(-1/(2 s)) pointwise
    log_phi = -math.log(eps) / (2.0 * s)
    assume(log_phi > 1e-12)
    assert ratio(eps, log_phi) == pytest.approx(s, rel=1e-12)


sigma_lists = st.lists(st.floats(min_value=1e-8, max_value=10.0),
                       min_size=1, max_size=40).map(
    lambda vals: np.sort(np.asarray(vals))[::-1])


@given(values=sigma_lists, eps=st.floats(min_value=1e-9, max_value=200.0))
def test_counting_phi_counts_strict_exceedances(values, eps):
    seq = SigmaSequence(values)
    count = counting_phi(seq, eps).count
    brute = sum(1 for v in values if v * v > eps)
    assert count == brute


@given(values=sigma_lists,
       eps_pair=st.tuples(st.floats(min_value=1e-9, max_value=200.0),
                          st.floats(min_value=1e-9, max_value=200.0)))
def test_counting_phi_nonincreasing_in_eps(values, eps_pair):
    seq = SigmaSequence(values)
    lo, hi = sorted(eps_pair)
    assert counting_phi(seq, lo).count >= counting_phi(seq, hi).count


@given(values=sigma_lists, eps=st.floats(min_value=1e-9, max_value=200.0))
@settings(max_examples=50, deadline=None)
def test_step_multiplier_bridge_identity(values, eps):
    seq = SigmaSequence(values)
    lam, mu = step_multiplier_from_sigma(seq)
    measure = superlevel_measure(lam, mu, eps)
    assert measure == counting_phi(seq, eps).count
    assert float(measure).is_integer()


@given(frac=st.floats(min_value=0.0, max_value=0.999), values=sigma_lists)
def test_counting_right_continuity_at_stored_squares(frac, values):
    seq = SigmaSequence(values)
    k = int(frac * len(values))
    eps = float(values[k]) ** 2
    # at a stored square the count excludes every tie
    count = counting_phi(seq, eps).count
    assert count == sum(1 for v in values if v * v > eps)


@given(s=st.floats(min_value=0.2, max_value=3.0),
       c=st.floats(min_value=0.5, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_phi_curves_are_monotone(s, c):
    lam = Multiplier(fn=lambda w: c / (1.0 + w) ** s, sup_bound=c)
    grid = geometric_grid(0.9 * c, 1e-6 * c, 40)
    curve = phi_curve(lam, HALF, grid)  # construction enforces monotonicity
    finite = curve.log_phi[np.isfinite(curve.log_phi)]
    assert np.all(np.diff(finite) >= -1e-12)


@given(s=st.floats(min_value=0.2, max_value=3.0),
       c=st.floats(min_value=0.5, max_value=5.0),
       knots=st.lists(st.tuples(st.floats(min_value=0.05, max_value=0.6),
                                st.floats(min_value=0.0, max_value=1.0)),
                      min_size=2, max_size=5),
       kind=st.sampled_from([LEBESGUE_HALFLINE, LEBESGUE_LINE,
                             LEBESGUE_UNIT_INTERVAL]))
@settings(max_examples=20, deadline=None)
def test_numeric_curve_equals_its_single_eps_measures(s, c, knots, kind):
    # one search over the grid gives each sample bit for bit what a
    # one-element grid gives: a power law and a piecewise-linear profile
    xs = np.concatenate([[0.0], np.cumsum([g for g, _ in knots])])
    ys = np.array([c] + [c * v for _, v in knots])
    power = Multiplier(fn=lambda w: c / (1.0 + w) ** s, sup_bound=c)
    linear = Multiplier(fn=lambda w: np.interp(np.abs(w), xs, ys),
                        sup_bound=float(ys.max()),
                        breakpoints=tuple(float(x) for x in xs[1:]))
    grid = geometric_grid(0.9 * c, 1e-6 * c, 24)
    for lam, mu in ((power, HALF), (linear, MeasureSpace(kind))):
        curve = phi_curve(lam, mu, grid, method="numeric")
        assert list(curve.log_phi) == [
            log_superlevel_measure(lam, mu, float(e), method="numeric")
            for e in grid]


def test_divergence_guard_marks_only_the_eps_that_trip_it():
    # Phi = 2 exp(eps^(-1/2)): the search passes 1e280 below eps ~ 2.4e-6
    model = gallery.make("multiplier_c", s=1.0)
    lam, mu = model.multiplier, model.measure
    grid = geometric_grid(0.99, 1e-8, 40)
    curve = phi_curve(lam, mu, grid, method="numeric")
    single = [log_superlevel_measure(lam, mu, float(e), method="numeric")
              for e in grid]
    assert list(curve.log_phi) == single
    assert np.isfinite(curve.log_phi[0]) and np.isposinf(curve.log_phi[-1])


@given(s=st.floats(min_value=0.3, max_value=3.0),
       t=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
def test_rearrangement_inverts_power_curves(s, t):
    # Phi(tau) = tau^(-1/(2s)) has inverse lambda*(t) = t^(-2s)
    grid = geometric_grid(0.9, 1e-12, 120)
    curve = DistributionFunction.build(grid, -np.log(grid) / (2.0 * s),
                                       source="counting", sup_bound=math.inf)
    expected = t ** (-2.0 * s)
    assume(curve.log_phi[0] < math.log(t) < curve.log_phi[-1])
    got = decreasing_rearrangement(curve, t)
    assert got == pytest.approx(expected, rel=1e-9)


@given(t_pair=st.tuples(st.floats(min_value=1e-2, max_value=1e2),
                        st.floats(min_value=1e-2, max_value=1e2)))
@settings(max_examples=40, deadline=None)
def test_rearrangement_is_nonincreasing(t_pair):
    grid = geometric_grid(0.9, 1e-10, 80)
    curve = DistributionFunction.build(
        grid, np.log(2.0) - 0.7 * np.log(grid), source="counting",
        sup_bound=1.0)
    lo, hi = sorted(t_pair)
    assert decreasing_rearrangement(curve, lo) \
        >= decreasing_rearrangement(curve, hi)


@given(knots=st.lists(st.tuples(st.floats(min_value=0.05, max_value=0.6),
                                st.floats(min_value=0.0, max_value=1.0)),
                      min_size=2, max_size=5),
       v0=st.floats(min_value=0.05, max_value=1.0),
       kind=st.sampled_from([LEBESGUE_HALFLINE, LEBESGUE_LINE,
                             LEBESGUE_UNIT_INTERVAL]),
       levels=st.sets(st.integers(min_value=1, max_value=99), min_size=2,
                      max_size=4))
@settings(max_examples=60, deadline=None)
def test_unit_density_reweighting_matches_the_numeric_curve(knots, v0, kind,
                                                            levels):
    # piecewise linear through (0, v0) and the knots; past the last knot it
    # decays like 1/x on the unbounded domains and stays constant on the
    # unit interval, where knots beyond 1 lie outside the domain
    xs = np.concatenate([[0.0], np.cumsum([g for g, _ in knots])])
    ys = np.array([v0] + [v for _, v in knots])
    decays = kind != LEBESGUE_UNIT_INTERVAL

    def fn(w):
        w = np.abs(w)
        inner = np.interp(w, xs, ys)
        if not decays:
            return inner
        return np.where(w <= xs[-1], inner, float(ys[-1]) / (1.0 + w - xs[-1]))

    lam = Multiplier(fn=fn, sup_bound=float(ys.max()),
                     breakpoints=tuple(float(x) for x in xs[1:]))
    mu = MeasureSpace(kind)
    grid = np.array(sorted(levels, reverse=True)) / 100.0
    weighted = reweight(lam, mu, lambda w: 1.0, grid)
    numeric = phi_curve(lam, mu, grid, method="numeric")
    np.testing.assert_allclose(np.exp(weighted.log_phi),
                               np.exp(numeric.log_phi), rtol=1e-6, atol=0.0)


odd_floats = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "-1", "0", "1e-300", "0.5", "2",
                     "300", "1e308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
# sizes stay small so that a valid request finishes at once; "1e9" and the
# non-finite spellings are rejected by the parser
odd_sizes = st.one_of(st.sampled_from(["inf", "nan", "1e9", "-3"]),
                      st.integers(min_value=-2, max_value=64).map(str))
# valid kernel sizes and lengths come up often enough to reach the bounds
kernel_floats = st.one_of(st.sampled_from(["1e-300", "1e300", "0.5", "12", "64"]),
                          odd_floats)
REWEIGHTS = (("hausdorff", "exp-pi"), ("backward_heat", "exp-t-k2"))
MULTIPLIER_MODELS = tuple(m for m in gallery.MODEL_IDS
                          if gallery.make(m).kind == "multiplier")
SIGMA_MODELS = tuple(m for m in gallery.MODEL_IDS
                     if gallery.make(m).kind == "sigma")
# grids that reach below 5.6e-309, where 1/eps overflows
tiny_floats = st.one_of(st.sampled_from(["5e-324", "1e-310", "2e-308"]),
                        odd_floats)
odd_requests = st.one_of(
    st.tuples(st.sampled_from(MULTIPLIER_MODELS), tiny_floats).map(
        lambda me: ["analyze", "--model", me[0], f"--eps-min={me[1]}"]),
    odd_floats.map(lambda v: ["analyze", "--model", "fractional_line",
                              f"--trim={v}"]),
    st.tuples(st.sampled_from(["multiplier_a1", "multiplier_b",
                               "multiplier_c", "fractional_line"]),
              odd_floats).map(lambda mv: ["analyze", "--model", mv[0],
                                          "--param", f"s={mv[1]}"]),
    st.tuples(st.sampled_from(["gaussian_kernel", "laplace_kernel",
                               "parabolic_source", "multivariate_integration",
                               "sobolev_embedding"]),
              odd_floats).map(lambda mv: ["analyze", "--model", mv[0],
                                          "--param", f"d={mv[1]}"]),
    odd_floats.map(lambda v: ["analyze", "--model", "weyl", "--param",
                              f"p={v}"]),
    # counts whose integer root is past 2^53
    odd_floats.map(lambda v: ["analyze", "--model", "backward_heat",
                              "--param", f"t_bar={v}"]),
    st.tuples(odd_floats, odd_sizes).map(
        lambda an: ["discretize", "--operator", "j_alpha",
                    f"--alpha={an[0]}", f"--n={an[1]}"]),
    # the kernel's tail and alias bounds go through the Gauss-Kronrod rule
    st.tuples(st.sampled_from(["gaussian", "laplace"]), kernel_floats,
              kernel_floats, kernel_floats,
              st.one_of(st.sampled_from(["2", "8", "64"]), odd_sizes)).map(
        lambda k: ["fft-multiplier", "--kernel", k[0], f"--L={k[1]}",
                   f"--a={k[2]}", f"--b={k[3]}", f"--N={k[4]}"]),
    # every model with every density: the matching pairs integrate (hausdorff)
    # or sum (backward_heat), the others are usage errors
    st.tuples(st.sampled_from(gallery.MODEL_IDS),
              st.sampled_from(cli.DENSITIES)).map(
        lambda md: ["reweight", "--model", md[0], "--density", md[1]]),
    st.tuples(st.sampled_from(REWEIGHTS), st.sampled_from(["min", "max"]),
              odd_floats).map(
        lambda r: ["reweight", "--model", r[0][0], "--density", r[0][1],
                   f"--eps-{r[1]}={r[2]}"]),
    st.tuples(st.sampled_from(REWEIGHTS), odd_sizes).map(
        lambda r: ["reweight", "--model", r[0][0], "--density", r[0][1],
                   f"--points={r[1]}"]),
    # estimation windows of 0 to 9 samples: few singular values, short grids
    st.tuples(st.sampled_from(SIGMA_MODELS), odd_sizes).map(
        lambda ms: ["analyze", "--model", ms[0], f"--sigma-terms={ms[1]}"]),
    # rearrange inverts the counting curve however few terms it has
    st.tuples(st.sampled_from(SIGMA_MODELS), odd_sizes).map(
        lambda ms: ["rearrange", "--model", ms[0], f"--sigma-terms={ms[1]}"]),
    st.tuples(st.sampled_from(gallery.MODEL_IDS), odd_sizes).map(
        lambda mp: ["analyze", "--model", mp[0], f"--points={mp[1]}"]),
    st.tuples(st.sampled_from(gallery.MODEL_IDS), odd_floats, odd_floats,
              odd_sizes).map(
        lambda r: ["rearrange", "--model", r[0], f"--t-min={r[1]}",
                   f"--t-max={r[2]}", f"--points={r[3]}"]))


# boundaries whose inner power eps^(-1/s) overflows although the root is a
# float: each reports, and its last ln Phi is ln 2 + x/2 + ln(1 - e^-x)/2
# with x = -ln eps / s (-ln eps / (2a) for laplace_kernel)
OVERFLOWING_POWERS = {
    ("analyze", "--model", "multiplier_a1", "--eps-min=5e-324"): 1.0,
    ("analyze", "--model", "multiplier_a1", "--eps-min=1e-310"): 1.0,
    ("analyze", "--model", "multiplier_a1", "--param", "s=0.5",
     "--eps-min=1e-200"): 0.5,
    ("analyze", "--model", "laplace_kernel", "--param", "a=0.25",
     "--eps-min=1e-200"): 0.5,
}
# weyl's eps^(-1/p) overflows at small p although its log is a float: each
# reports, and its last ln Phi is (d/2) (-ln eps) / p with d = 2
WEYL_POWERS = {
    ("analyze", "--model", "weyl", "--param", "p=0.05"): 0.05,
    ("analyze", "--model", "weyl", "--param", "p=1e-300"): 1e-300,
}
# weyl's ln Phi itself leaves the floats: a usage error naming p and d, not
# a divergence
WEYL_OVERFLOWS = (
    ("analyze", "--model", "weyl", "--param", "p=1e-300", "--param",
     "d=10000000"),)
# every sigma_n is 1: exit 1, naming the tie
FLAT_SPECTRA = (
    ("analyze", "--model", "sobolev_embedding", "--param", "d=1e308"),
    ("analyze", "--model", "riemann_liouville", "--param", "alpha=1e-300"))
REPORT_KEYS = ["eps_grid", "log_phi", "ratios", "interval", "classification",
               "degree", "expected", "matches_expected", "finiteness",
               "diagnostics"]


@given(argv=odd_requests)
# -ln(eps) / t_bar overflows: the count and the scan's cutoff take the root
@example(argv=["analyze", "--model", "backward_heat", "--param", "t_bar=1e-308"])
@example(argv=["analyze", "--model", "backward_heat", "--param", "t_bar=5e-324"])
@example(argv=["analyze", "--model", "multiplier_a1", "--eps-min=5e-324"])
@example(argv=["analyze", "--model", "multiplier_a1", "--eps-min=1e-310"])
@example(argv=["analyze", "--model", "multiplier_a1", "--param", "s=0.5",
               "--eps-min=1e-200"])
@example(argv=["analyze", "--model", "laplace_kernel", "--param", "a=0.25",
               "--eps-min=1e-200"])
# geomspace's power overflows at a t_max next to the float limit
@example(argv=["rearrange", "--model", "riemann_liouville", "--t-min=1e-300",
               "--t-max=1.7976931348622103e+308", "--points=2"])
@example(argv=["analyze", "--model", "weyl", "--param", "p=0.05"])
@example(argv=["analyze", "--model", "weyl", "--param", "p=1e-300"])
@example(argv=["analyze", "--model", "weyl", "--param", "p=1e-300", "--param",
               "d=10000000"])
@example(argv=["analyze", "--model", "sobolev_embedding", "--param", "d=1e308"])
@example(argv=["analyze", "--model", "riemann_liouville", "--param",
               "alpha=1e-300"])
@settings(max_examples=80, deadline=None)
def test_cli_exit_codes_are_clean_on_odd_numbers(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the spelling
            code = exc.code
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] in ("analyze", "discretize", "reweight"):
        # every report goes through the one serializer
        payload = json.loads(out.getvalue())
        assert list(payload)[-len(REPORT_KEYS):] == REPORT_KEYS
        assert list(payload["interval"]) == ["A", "B"]
        assert payload["classification"] in CLASSIFICATIONS
    if tuple(argv) in OVERFLOWING_POWERS:
        assert code == 0
        x = -math.log(payload["eps_grid"][-1]) / OVERFLOWING_POWERS[tuple(argv)]
        closed = math.log(2.0) + 0.5 * x + 0.5 * math.log(-math.expm1(-x))
        assert payload["log_phi"][-1] == pytest.approx(closed, rel=1e-12)
    if tuple(argv) in WEYL_POWERS:
        assert code == 0
        p = WEYL_POWERS[tuple(argv)]
        closed = -math.log(payload["eps_grid"][-1]) / p
        assert payload["log_phi"][-1] == pytest.approx(closed, rel=1e-12)
        assert payload["interval"] == {"A": pytest.approx(p / 2, rel=1e-12),
                                       "B": pytest.approx(p / 2, rel=1e-12)}
    if tuple(argv) in WEYL_OVERFLOWS:
        assert code == 2
        assert "p = 1e-300 and d = 10000000" in err.getvalue()
    if tuple(argv) in FLAT_SPECTRA:
        assert code == 1
        assert "a flat spectrum has no decay" in err.getvalue()


# The estimator as it read curves one sample at a time, kept as the oracle
# of the array pass: the scalar ratio and its loop, the tail window of a
# list, and the regression's own filter.

def _ref_ratio(eps, log_phi):
    if not 0.0 < eps < 1.0:
        return None
    if not log_phi > 0.0 or math.isinf(log_phi):
        return None
    return math.log(eps) / (-2.0 * log_phi)


def _ref_ratio_samples(phi):
    out = []
    for eps, lp in zip(phi.eps_grid, phi.log_phi):
        r = _ref_ratio(float(eps), float(lp))
        if r is not None:
            out.append((float(eps), r))
    return out


def _ref_tail(seq, fraction, minimum):
    k = max(minimum, int(math.ceil(len(seq) * fraction)))
    if len(seq) < minimum:
        raise InsufficientDataError(
            f"need at least {minimum} samples, got {len(seq)}")
    return seq[-k:]


def _ref_interval(phi, t):
    if phi.source == "corners":
        t = replace(t, window_fraction=1.0)
    if phi.finiteness == NON_INFORMATIVE:
        return indeterminate_interval(
            "distribution function attains +inf; not informative")
    samples = _ref_ratio_samples(phi)
    if not samples:
        return indeterminate_interval("no usable ratio samples")
    tail = _ref_tail(samples, t.window_fraction, t.min_tail_samples)
    w = [r for _, r in tail]
    cls, degree, diags = classify_window(w, t)
    diags["window_eps"] = [e for e, _ in tail]
    diags["window_fraction"] = t.window_fraction
    lower = max(0.0, min(w))
    iv = IllPosednessInterval(lower, max(lower, max(w)), cls, degree, diags)
    if phi.finiteness == "exhausted":
        iv.diagnostics["exhausted_data"] = True
    return iv


def _ref_regression(phi, t):
    if phi.source == "corners":
        t = replace(t, window_fraction=1.0)
    if phi.finiteness == NON_INFORMATIVE:
        return None, math.inf, None
    pairs = [(-math.log(e), lp)
             for e, lp in zip(phi.eps_grid.tolist(), phi.log_phi.tolist())
             if math.isfinite(lp) and lp > 0 and 0 < e < 1]
    if len(pairs) < t.min_tail_samples:
        return None, math.inf, None
    tail = _ref_tail(pairs, t.window_fraction, t.min_tail_samples)
    slope, _, rms = power_law_fit([p[0] for p in tail], [p[1] for p in tail])
    degree = None
    if rms < t.residual_tol and slope > 0:
        degree = 1.0 / (2.0 * slope)
    return slope, rms, degree


def _ref_estimate_curve(phi, t):
    interval = _ref_interval(phi, t)
    slope, rms, degree = _ref_regression(phi, t)
    if interval.classification != MODERATE or degree is None:
        degree = interval.degree
    return interval, degree, {"regression_slope": slope, "regression_rms": rms}


@st.composite
def estimator_curves(draw):
    """Curves with usable windows of every size: eps reaching above 1, ln Phi
    starting below 0 or at -inf (empty sets), exact power laws that the
    regression accepts, rough staircases it does not, +inf tails."""
    n = draw(st.integers(min_value=2, max_value=48))
    # fine grids just below eps = 1, where a vector log is most often a
    # digit off (2 to 5% of values in (0.9, 1) with numpy 2.4 on AVX-512)
    step = draw(st.one_of(st.floats(min_value=1.001, max_value=1.05),
                          st.floats(min_value=1.05, max_value=64.0)))
    top = draw(st.one_of(st.floats(min_value=0.9, max_value=0.9999),
                         st.floats(min_value=1e-3, max_value=4.0)))
    eps = top * step ** -np.arange(n)
    if draw(st.booleans()):
        s = draw(st.floats(min_value=0.01, max_value=100.0))
        c = draw(st.floats(min_value=-5.0, max_value=5.0))
        lp = c - np.log(eps) / (2 * s)
    else:
        steps = draw(st.lists(st.floats(min_value=0.0, max_value=30.0),
                              min_size=n, max_size=n))
        lp = draw(st.floats(min_value=-20.0, max_value=5.0)) + np.cumsum(steps)
    empty = draw(st.integers(min_value=0, max_value=n))
    divergent = draw(st.integers(min_value=0, max_value=3))
    lp[:empty] = -math.inf
    lp[n - min(divergent, n - empty):] = math.inf
    return DistributionFunction.build(
        eps, lp, source=draw(st.sampled_from(["counting", "corners"])),
        exhausted=draw(st.booleans()))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except InsufficientDataError as exc:
        return f"InsufficientDataError: {exc}"


@given(phi=estimator_curves(),
       fraction=st.sampled_from([1.0 / 3.0, 0.05, 0.5, 1.0]),
       minimum=st.sampled_from([10, 2, 5]))
@settings(max_examples=300, deadline=None)
def test_one_pass_estimator_equals_the_per_sample_one(phi, fraction, minimum):
    # bit for bit: repr shows every digit and the type of every number
    t = Thresholds(window_fraction=fraction, min_tail_samples=minimum)
    assert repr(ratio_samples(phi)) == repr(_ref_ratio_samples(phi))
    for eps, lp in zip(phi.eps_grid.tolist(), phi.log_phi.tolist()):
        assert repr(ratio(eps, lp)) == repr(_ref_ratio(eps, lp))
    assert repr(regression_report(phi, t)) == repr(_ref_regression(phi, t))
    for new, ref in ((interval_from_counting, _ref_interval),
                     (estimate_curve, _ref_estimate_curve)):
        assert _outcome(new, phi, t) == _outcome(ref, phi, t)
