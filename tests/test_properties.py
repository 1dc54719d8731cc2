import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from illposed.core import (MONOTONE_TAIL, MeasureSpace, Multiplier,
                           SigmaSequence, classify, geometric_grid, ratio)
from illposed.counting import counting_phi, step_multiplier_from_sigma
from illposed.distribution import (decreasing_rearrangement, phi_curve,
                                   reweight, superlevel_measure)
from illposed.core import (DistributionFunction, LEBESGUE_HALFLINE,
                           LEBESGUE_LINE, LEBESGUE_UNIT_INTERVAL,
                           PIECEWISE_MONOTONE)
from illposed import cli


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


@given(lower=st.floats(min_value=0.0, max_value=100.0),
       width=st.floats(min_value=0.0, max_value=100.0))
def test_classify_is_total_on_valid_intervals(lower, width):
    cls, degree = classify(lower, lower + width)
    assert cls in ("mild", "moderate", "severe", "indeterminate")
    if degree is not None:
        assert cls == "moderate"
        assert lower <= degree <= lower + width


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
    lam = Multiplier(fn=lambda w: c / (1.0 + w) ** s, shape=MONOTONE_TAIL,
                     sup_bound=c)
    grid = geometric_grid(0.9 * c, 1e-6 * c, 40)
    curve = phi_curve(lam, HALF, grid)  # construction enforces monotonicity
    finite = curve.log_phi[np.isfinite(curve.log_phi)]
    assert np.all(np.diff(finite) >= -1e-12)


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
        w = abs(w)
        if w <= xs[-1] or not decays:
            return float(np.interp(w, xs, ys))
        return float(ys[-1]) / (1.0 + w - xs[-1])

    lam = Multiplier(fn=fn, shape=PIECEWISE_MONOTONE, sup_bound=float(ys.max()),
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
odd_requests = st.one_of(
    odd_floats.map(lambda v: ["analyze", "--model", "fractional_line",
                              f"--trim={v}"]),
    st.tuples(st.sampled_from(["multiplier_a1", "multiplier_b",
                               "multiplier_c", "fractional_line"]),
              odd_floats).map(lambda mv: ["analyze", "--model", mv[0],
                                          "--param", f"s={mv[1]}"]),
    st.tuples(st.sampled_from(["gaussian_kernel", "laplace_kernel",
                               "parabolic_source"]),
              odd_floats).map(lambda mv: ["analyze", "--model", mv[0],
                                          "--param", f"d={mv[1]}"]),
    st.tuples(odd_floats, odd_sizes).map(
        lambda an: ["discretize", "--operator", "j_alpha",
                    f"--alpha={an[0]}", f"--n={an[1]}"]))


@given(argv=odd_requests)
@settings(max_examples=30, deadline=None)
def test_cli_exit_codes_are_clean_on_odd_numbers(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the spelling
            code = exc.code
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
