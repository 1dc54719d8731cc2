"""Shared domain types and the ratio/classification primitives.

Every type here is immutable after construction and every operation is a
pure function, so evaluations across the points of an epsilon grid can run
concurrently without coordination.

Distribution values are carried in the log domain throughout: mild models
produce Phi(eps) ~ exp(eps**-c), which overflows any fixed-width float long
before the interesting part of the grid is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

INF = math.inf

# classification labels
WELL_POSED = "well_posed"
MILD = "mild"
MODERATE = "moderate"
SEVERE = "severe"
INDETERMINATE = "indeterminate"
CLASSIFICATIONS = (WELL_POSED, MILD, MODERATE, SEVERE, INDETERMINATE)

# finiteness flags of a distribution curve
FINITE = "finite"
NON_INFORMATIVE = "non_informative"
EXHAUSTED = "exhausted"

# measure kinds
LEBESGUE_HALFLINE = "lebesgue_halfline"
LEBESGUE_LINE = "lebesgue_line"
LEBESGUE_RADIAL = "lebesgue_radial"
COUNTING_INTEGERS = "counting_integers"
LEBESGUE_UNIT_INTERVAL = "lebesgue_unit_interval"
MEASURE_KINDS = (
    LEBESGUE_HALFLINE,
    LEBESGUE_LINE,
    LEBESGUE_RADIAL,
    COUNTING_INTEGERS,
    LEBESGUE_UNIT_INTERVAL,
)

# multiplier shapes
MONOTONE_TAIL = "monotone_tail"
RADIAL_MONOTONE_TAIL = "radial_monotone_tail"
PIECEWISE_MONOTONE = "piecewise_monotone"
DISCRETE = "discrete"
GENERIC_SAMPLED = "generic_sampled"
SHAPES = (MONOTONE_TAIL, RADIAL_MONOTONE_TAIL, PIECEWISE_MONOTONE, DISCRETE,
          GENERIC_SAMPLED)


class InsufficientDataError(ValueError):
    """An estimator was given fewer samples than it needs."""


class UnsupportedMeasureError(ValueError):
    """The operation does not support the given measure kind."""


class CurveMonotonicityError(RuntimeError):
    """A computed distribution curve violates monotonicity beyond tolerance.

    Phi is nonincreasing in eps by definition, so a violation indicates a
    numerical failure upstream, not a property of the model.
    """


class TruncationWarning(UserWarning):
    """A sampled kernel or multiplier is visibly truncated at the boundary."""


@dataclass(frozen=True)
class Thresholds:
    """Cutoffs turning finite window statistics into a classification.

    The limits defining mild/moderate/severe are asymptotic and have no
    exact finite-data counterpart, so these numbers are configuration, not
    mathematics.  ``drift_tol`` separates ratio sequences that have settled
    (relative change below it across the tail window -> moderate) from ones
    still rising or falling (-> severe / mild candidates).
    """

    tau_mild: float = 0.05
    tau_severe: float = 50.0
    tau_collapse: float = 0.1
    window_fraction: float = 1.0 / 3.0
    drift_tol: float = 0.1
    residual_tol: float = 1e-3
    min_tail_samples: int = 10


DEFAULT_THRESHOLDS = Thresholds()


def geometric_grid(eps_max, eps_min=None, points=60, step=2.0):
    """Descending geometric epsilon grid.

    With ``eps_min`` given, both endpoints are included exactly; otherwise
    the grid is ``eps_max * step**-j`` for j = 0 .. points-1.
    """
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    if points < 2:
        raise ValueError("need at least two grid points")
    j = np.arange(points, dtype=float)
    if eps_min is None:
        grid = eps_max * step ** (-j)
    else:
        if not 0 < eps_min < eps_max:
            raise ValueError("need 0 < eps_min < eps_max")
        grid = eps_max * (eps_min / eps_max) ** (j / (points - 1.0))
        grid[0], grid[-1] = eps_max, eps_min
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class TailLaw:
    """Symbolic decay law for the tail of a singular value sequence.

    kinds:
      power        sigma_n = scale * n**-alpha
      power_log    sigma_n = scale * log(n+1)**(d-1) / n
      exponential  sigma_n = scale * exp(-c * n**q)
    """

    kind: str
    alpha: float = 1.0
    d: int = 1
    c: float = 1.0
    q: float = 1.0
    scale: float = 1.0
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("power", "power_log", "exponential"):
            raise ValueError(f"unknown tail law kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("tail law scale must be positive")

    def sigma(self, n):
        """Evaluate the law at index n (scalar or array, 1-based)."""
        n = np.asarray(n, dtype=float)
        if self.kind == "power":
            return self.scale * n ** -self.alpha
        if self.kind == "power_log":
            return self.scale * np.log(n + 1.0) ** (self.d - 1) / n
        return self.scale * np.exp(-self.c * n ** self.q)

    @staticmethod
    def power(alpha, scale=1.0, rel_tol=1e-6):
        return TailLaw("power", alpha=alpha, scale=scale, rel_tol=rel_tol)

    @staticmethod
    def power_log(d, scale=1.0, rel_tol=1e-6):
        return TailLaw("power_log", d=d, scale=scale, rel_tol=rel_tol)

    @staticmethod
    def exponential(c, q=1.0, scale=1.0, rel_tol=1e-6):
        return TailLaw("exponential", c=c, q=q, scale=scale, rel_tol=rel_tol)


@dataclass(frozen=True)
class SigmaSequence:
    """Finite nonincreasing sequence of positive singular values.

    ``exhausted_flag`` marks data known to be complete (e.g. all singular
    values of a finite matrix): counting beyond the stored range then
    saturates instead of extrapolating.  A ``tail_law`` authorizes analytic
    extrapolation; the stored tail must actually match it.
    """

    values: np.ndarray
    tail_law: TailLaw | None = None
    exhausted_flag: bool = False

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("singular values must be finite and positive")
        if np.any(np.diff(v) > 0):
            raise ValueError("singular values must be nonincreasing")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.tail_law is not None:
            self._check_tail_law()

    def _check_tail_law(self):
        v = self.values
        m = max(1, v.size // 10)
        n = np.arange(v.size - m + 1, v.size + 1, dtype=float)
        model = self.tail_law.sigma(n)
        rel = np.abs(model - v[-m:]) / v[-m:]
        if rel.max() > self.tail_law.rel_tol:
            raise ValueError(
                f"stored tail deviates from declared law by {rel.max():.3g} "
                f"(> {self.tail_law.rel_tol:.3g} relative)")

    def __len__(self):
        return self.values.size

    @property
    def squares(self):
        return self.values ** 2


@dataclass(frozen=True)
class MeasureSpace:
    """Benchmark measure descriptor; ``dim`` is only meaningful for the
    radial kind."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == LEBESGUE_RADIAL and self.dim < 1:
            raise ValueError("radial measure needs a positive dimension")

    @property
    def is_discrete(self):
        return self.kind == COUNTING_INTEGERS


def ball_volume(d, r):
    """Lebesgue volume of the d-ball of radius r: pi^(d/2) r^d / Gamma(d/2+1)."""
    if r <= 0:
        return 0.0
    return math.pi ** (d / 2.0) * r ** d / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Multiplier:
    """Nonnegative multiplier with enough structure to measure superlevel sets.

    ``fn`` evaluates the multiplier pointwise (on the radius for radial
    shapes, on integers for discrete ones).  ``shape`` declares how the
    superlevel sets {fn > eps} can be found numerically:

      monotone_tail         initial-interval superlevel sets; fn nonincreasing
                            beyond ``breakpoints[0]`` (default 0)
      radial_monotone_tail  same, on the radius in R^d
      piecewise_monotone    fn monotone between consecutive breakpoints
      discrete              evaluated on the integers
      generic_sampled       indicator sums on a declared grid

    Closed forms, when present, take precedence over the numeric search:
    ``superlevel`` (plain measure), ``log_superlevel`` (log measure, for
    models whose Phi overflows) or ``boundary`` (threshold point / radius of
    the superlevel set); ``cutoff_hint`` maps eps to a safe enumeration
    cutoff for discrete multipliers.  Integrals of functions of the
    multiplier need no further data: they follow from the superlevel
    measures by the layer-cake formula (see ``distribution.lp_check``).
    """

    fn: Callable
    shape: str
    sup_bound: float
    breakpoints: tuple = ()
    superlevel: Callable | None = None
    log_superlevel: Callable | None = None
    boundary: Callable | None = None
    cutoff_hint: Callable | None = None
    sample_omega: np.ndarray | None = None
    sample_value: np.ndarray | None = None
    resolution: float | None = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown multiplier shape {self.shape!r}")
        if self.sup_bound <= 0:
            raise ValueError("sup_bound must be positive")
        if (self.sample_omega is None) != (self.sample_value is None):
            raise ValueError("sampled multipliers need both omega and value arrays")

    def __call__(self, omega):
        return self.fn(omega)


@dataclass(frozen=True)
class DistributionFunction:
    """Log-domain samples of a distribution function on a descending grid.

    ``log_phi[j]`` is ln Phi(eps_grid[j]); +inf marks a divergent sample
    (the curve is then non-informative), -inf an empty superlevel set.
    Phi is nonincreasing in eps, so log_phi must be nondecreasing along the
    descending grid; small violations (1e-9 relative) are tolerated as
    roundoff, larger ones raise.
    """

    eps_grid: np.ndarray
    log_phi: np.ndarray
    finiteness: str
    source: str
    sup_bound: float = INF

    def __post_init__(self):
        eps = np.array(self.eps_grid, dtype=float)
        lp = np.array(self.log_phi, dtype=float)
        if eps.ndim != 1 or eps.size < 2 or lp.shape != eps.shape:
            raise ValueError("need matching 1-d grids with at least 2 points")
        if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValueError("eps grid must be positive and strictly decreasing")
        self._check_monotone(lp)
        expected = NON_INFORMATIVE if np.any(np.isposinf(lp)) else None
        if expected == NON_INFORMATIVE and self.finiteness != NON_INFORMATIVE:
            raise ValueError("curve with +inf samples must be non_informative")
        if expected is None and self.finiteness == NON_INFORMATIVE:
            raise ValueError("non_informative requires a +inf sample")
        if self.finiteness not in (FINITE, NON_INFORMATIVE, EXHAUSTED):
            raise ValueError(f"unknown finiteness flag {self.finiteness!r}")
        for name, arr in (("eps_grid", eps), ("log_phi", lp)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @staticmethod
    def _check_monotone(lp, rel_tol=1e-9):
        finite = np.isfinite(lp)
        both = finite[:-1] & finite[1:]
        # positive where Phi decreases down the grid
        drop = np.where(both, lp[:-1], 0.0) - np.where(both, lp[1:], 0.0)
        slack = rel_tol * np.maximum(1.0, np.abs(np.where(both, lp[:-1], 0.0)))
        if np.any(drop[both] > slack[both]):
            worst = float(np.max(drop[both]))
            raise CurveMonotonicityError(
                f"log Phi decreases by {worst:.3g} along the descending grid")
        # an infinite sample can never be followed by a finite one
        pos = np.where(np.isposinf(lp))[0]
        if pos.size and np.any(np.isfinite(lp[pos[0]:])):
            raise CurveMonotonicityError("finite sample after a divergent one")

    @classmethod
    def build(cls, eps_grid, log_phi, source, sup_bound=INF, exhausted=False):
        """Construct with the finiteness flag derived from the samples."""
        lp = np.asarray(log_phi, dtype=float)
        if np.any(np.isposinf(lp)):
            flag = NON_INFORMATIVE
        elif exhausted:
            flag = EXHAUSTED
        else:
            flag = FINITE
        return cls(np.asarray(eps_grid, dtype=float), lp, flag, source, sup_bound)

    def __len__(self):
        return self.eps_grid.size


@dataclass(frozen=True)
class IllPosednessInterval:
    """Estimated interval [lower, upper] with its classification.

    ``degree`` is only reported for moderate intervals that have collapsed
    to (numerically) a point; diagnostics carry the window actually used,
    the ratio samples, trend and drift statistics.
    """

    lower: float
    upper: float
    classification: str
    degree: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if not 0 <= self.lower <= self.upper:
            raise ValueError("need 0 <= lower <= upper")
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")


def ratio(eps, log_phi):
    """Decay-rate quotient ln(eps) / (-2 * ln Phi(eps)).

    Defined for 0 < eps < 1 and ln Phi > 0 finite; returns None otherwise
    (the sample is skipped, it is not an error).  For exact power laws
    Phi = eps**(-1/(2 s)) the quotient equals s at every point.
    """
    if not 0.0 < eps < 1.0:
        return None
    if not log_phi > 0.0 or math.isinf(log_phi):
        return None
    return math.log(eps) / (-2.0 * log_phi)


def classify(lower, upper, thresholds=DEFAULT_THRESHOLDS):
    """Pure threshold classification of an interval estimate.

    Returns ``(classification, degree)``; the degree is the midpoint and is
    only reported when the interval has collapsed below ``tau_collapse``.
    ``well_posed`` is never produced here: only the essential-infimum
    diagnostics may claim it.  Intervals straddling a threshold are
    indeterminate.
    """
    t = thresholds
    if math.isnan(lower) or math.isnan(upper) or not 0 <= lower <= upper:
        raise ValueError("need 0 <= lower <= upper")
    if upper < t.tau_mild:
        return MILD, None
    if lower > t.tau_severe:
        return SEVERE, None
    if t.tau_mild <= lower and upper <= t.tau_severe:
        degree = 0.5 * (lower + upper) if upper - lower < t.tau_collapse else None
        return MODERATE, degree
    return INDETERMINATE, None
