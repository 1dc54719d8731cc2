"""The closed forms of the gallery against mpmath at 50 digits.

Each closed form is checked against the formula that defines it, taken
exactly at the float eps, on its model's default grid and at two eps next
to 1, where eps^(-p) - 1 cancels.  The closed forms must agree to 1e-14
relative:

- the boundary sqrt(eps^(-1/s) - 1) of ``multiplier_a1``;
- the boundary sqrt((eps^(-1/(2a)) - 1) / b) of ``laplace_kernel``;
- ln Phi = ln c + (d/2)(-ln eps)/p of ``weyl`` and ``inverse_laplacian``.

The radial measure's ln Phi, the log of the d-ball volume at the boundary,
is checked to 1e-12 where the volume itself leaves the floats.
"""

import mpmath
import pytest

from illposed import distribution, gallery
from illposed.core import geometric_grid

DIGITS = 50
REL_TOL = 1e-14
NEAR_ONE = (0.9999, 0.999999)


def _boundary(power):
    """sqrt(eps^(-1/power) - 1): power = s for multiplier_a1, 2a for
    laplace_kernel at b = 1."""
    return lambda eps: mpmath.sqrt(eps ** (-1 / mpmath.mpf(power)) - 1)


def _weyl_log_phi(p, d):
    """ln Phi at c = 1."""
    return lambda eps: mpmath.mpf(d) / 2 * -mpmath.log(eps) / p


CASES = {
    "multiplier_a1 s=0.5": ("multiplier_a1", {"s": 0.5}, "boundary",
                            _boundary(0.5)),
    "multiplier_a1 s=1": ("multiplier_a1", {"s": 1.0}, "boundary",
                          _boundary(1.0)),
    "multiplier_a1 s=2": ("multiplier_a1", {"s": 2.0}, "boundary",
                          _boundary(2.0)),
    "laplace_kernel": ("laplace_kernel", {}, "boundary", _boundary(2.0)),
    "laplace_kernel a=0.25": ("laplace_kernel", {"a": 0.25}, "boundary",
                              _boundary(0.5)),
    "weyl": ("weyl", {}, "log_superlevel", _weyl_log_phi(2, 2)),
    "inverse_laplacian": ("inverse_laplacian", {}, "log_superlevel",
                          _weyl_log_phi(2, 2)),
}


def _rel_error(got, exact, eps):
    with mpmath.workdps(DIGITS):
        want = exact(mpmath.mpf(eps))
        return float(abs(got - want) / abs(want))


@pytest.mark.parametrize("case", list(CASES))
def test_closed_form_matches_mpmath(case):
    model_id, params, hook, exact = CASES[case]
    model = gallery.make(model_id, **params)
    closed = getattr(model.multiplier, hook)
    grid = geometric_grid(model.eps_max, model.eps_max * 2.0 ** -59).tolist()
    worst = max(_rel_error(closed(eps), exact, eps)
                for eps in grid + list(NEAR_ONE))
    assert worst <= REL_TOL


def test_weyl_log_phi_where_phi_underflows():
    # Phi = eps^(-20) = 1e-800 is no float, but ln Phi = -921.03 is
    log_phi = gallery.make("weyl", p=0.1).multiplier.log_superlevel(1e40)
    assert log_phi == pytest.approx(-921.0340371976183, rel=1e-15)
    assert _rel_error(log_phi, _weyl_log_phi(0.1, 2), 1e40) <= REL_TOL


def _log_ball_volume(d, radius):
    """ln(pi^(d/2) r^d / Gamma(d/2 + 1)) with r = radius(eps)."""
    return lambda eps: (mpmath.mpf(d) / 2 * mpmath.log(mpmath.pi)
                        - mpmath.loggamma(mpmath.mpf(d) / 2 + 1)
                        + d * mpmath.log(radius(eps)))


RADIAL = {
    # boundary sqrt(2 (d ln pi - ln eps)) of pi^d exp(-r^2 / 2)
    "gaussian_kernel d=300": ("gaussian_kernel", _log_ball_volume(
        300, lambda eps: mpmath.sqrt(2 * (300 * mpmath.log(mpmath.pi)
                                          - mpmath.log(eps))))),
    "laplace_kernel d=300": ("laplace_kernel", _log_ball_volume(
        300, _boundary(2.0))),
}


@pytest.mark.parametrize("case", list(RADIAL))
@pytest.mark.parametrize("eps", [0.5, 1e-6, 1e-12])
def test_radial_log_measure_where_the_volume_overflows(case, eps):
    model_id, exact = RADIAL[case]
    model = gallery.make(model_id, d=300)
    got = distribution.log_superlevel_measure(model.multiplier, model.measure,
                                              eps)
    assert _rel_error(got, exact, eps) <= 1e-12
