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
import numbers
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

# source tag of corner curves, whose window is chosen by index, so the
# estimator reads them whole
CORNERS = "corners"

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

# multiplier shapes, read off a multiplier's data by Multiplier.shape
MONOTONE_TAIL = "monotone_tail"
DISCRETE = "discrete"
GENERIC_SAMPLED = "generic_sampled"


class InsufficientDataError(ValueError):
    """An estimator was given fewer samples than it needs."""


class UnsupportedMeasureError(ValueError):
    """The operation does not support the given measure kind."""


class CurveMonotonicityError(RuntimeError):
    """A computed distribution curve violates monotonicity beyond tolerance.

    Phi is nonincreasing in eps by definition, so a violation indicates a
    numerical failure upstream, not a property of the model.
    """


@dataclass(frozen=True)
class Thresholds:
    """Cutoffs turning finite window statistics into a classification.

    The limits defining mild/moderate/severe are asymptotic and have no
    exact finite-data counterpart, so these numbers are configuration, not
    mathematics.  ``drift_tol`` separates ratio sequences that have settled
    (relative change below it across the tail window -> moderate) from ones
    still rising or falling (-> severe / mild candidates).  ``residual_tol``
    is the one fit tolerance: a decay fit whose rms residual, relative to
    the range of its dependent variable, is below it may settle a class
    the ratios leave open and give the degree.
    """

    tau_mild: float = 0.05
    tau_severe: float = 50.0
    tau_collapse: float = 0.1
    window_fraction: float = 1.0 / 3.0
    drift_tol: float = 0.1
    residual_tol: float = 0.02
    min_tail_samples: int = 10

    def __post_init__(self):
        t, n = self, self.min_tail_samples
        rules = [(math.isfinite(v), f"{k} finite") for k, v in vars(t).items()]
        rules += [
            (0 < t.tau_mild < t.tau_severe, "0 < tau_mild < tau_severe"),
            (t.tau_collapse > 0, "tau_collapse > 0"),
            (0 < t.window_fraction <= 1, "0 < window_fraction <= 1"),
            (t.drift_tol > 0, "drift_tol > 0"),
            (t.residual_tol >= 0, "residual_tol >= 0"),
            (isinstance(n, numbers.Integral) and n >= 2,
             "min_tail_samples an integer >= 2")]
        for ok, need in rules:
            if not ok:
                raise ValueError(f"thresholds need {need}, got {t}")


DEFAULT_THRESHOLDS = Thresholds()


def geometric_grid(eps_max, eps_min, points=60):
    """Descending geometric epsilon grid; both endpoints are included
    exactly."""
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    if points < 2:
        raise ValueError("need at least two grid points")
    if not 0 < eps_min < eps_max:
        raise ValueError("need 0 < eps_min < eps_max")
    j = np.arange(points, dtype=float)
    grid = eps_max * (eps_min / eps_max) ** (j / (points - 1.0))
    grid[0], grid[-1] = eps_max, eps_min
    grid.flags.writeable = False
    return grid


# largest relative deviation of a stored tail from its declared law
_TAIL_LAW_TOL = 1e-6


@dataclass(frozen=True)
class TailLaw:
    """Symbolic decay law for the tail of a singular value sequence.

    kinds:
      power        sigma_n = scale * n**-alpha
      power_log    sigma_n = scale * log(n+1)**(d-1) / n
    """

    kind: str
    alpha: float = 1.0
    d: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "power_log"):
            raise ValueError(f"unknown tail law kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("tail law scale must be positive")

    def sigma(self, n):
        """Evaluate the law at index n (scalar or array, 1-based).

        A value beyond the float range is +inf, without a warning.
        """
        n = np.asarray(n, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == "power":
                return self.scale * n ** -self.alpha
            return self.scale * np.log(n + 1.0) ** (self.d - 1) / n

    @staticmethod
    def power(alpha, scale=1.0):
        return TailLaw("power", alpha=alpha, scale=scale)

    @staticmethod
    def power_log(d, scale=1.0):
        return TailLaw("power_log", d=d, scale=scale)


@dataclass(frozen=True)
class SigmaSequence:
    """Finite nonincreasing sequence of positive singular values.

    A ``tail_law`` authorizes analytic extrapolation; the stored tail must
    actually match it.  Without one the data is taken as complete (e.g. all
    singular values of a finite matrix): counting beyond the stored range
    then saturates and is flagged exhausted.
    """

    values: np.ndarray
    tail_law: TailLaw | None = None

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
        with np.errstate(over="ignore"):
            rel = np.abs(model - v[-m:]) / v[-m:]
        if rel.max() > _TAIL_LAW_TOL:
            raise ValueError(
                f"stored tail deviates from declared law by {rel.max():.3g} "
                f"(> {_TAIL_LAW_TOL:.3g} relative)")

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
    """Lebesgue volume of the d-ball of radius r: pi^(d/2) r^d / Gamma(d/2+1).

    ``r`` may be an array; radii r <= 0 give 0.  A volume beyond the float
    range raises FloatingPointError, so it is never mistaken for +inf.
    """
    r = np.maximum(r, 0.0)
    with np.errstate(over="raise"):
        return math.pi ** (d / 2.0) * r ** d / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Multiplier:
    """Nonnegative multiplier with enough structure to measure superlevel sets.

    ``fn`` evaluates the multiplier (on the radius for radial measures, on
    integers for discrete ones) at every point of a numpy array and returns
    an array of the same shape.  Values must be nonnegative; saturating to
    +inf (a pole) or to 0 (underflow) is allowed, and the evaluator runs
    the callback under ``np.errstate``, so overflow warnings need no
    handling inside it.  How the superlevel sets {fn > eps} are searched
    numerically is read off the data (see ``shape``):

      cutoff_hint set       the integers up to ``cutoff_hint(eps)``
      breakpoints None      indicator sums on a midpoint grid of step
                            ``distribution.SAMPLE_STEP``
      otherwise             fn monotone on each branch between 0, the
                            ``breakpoints`` (none by default) and the end of
                            the domain, the last branch decaying on an
                            unbounded domain

    ``breakpoints`` is None or a tuple of finite, positive, strictly
    increasing numbers.  Closed forms, when present, take precedence over
    the numeric search: ``superlevel`` (plain measure), ``log_superlevel``
    (log measure, for models whose Phi overflows) or ``boundary`` (threshold
    point / radius of the superlevel set); ``cutoff_hint`` maps eps to an
    integer beyond which a discrete multiplier stays at or below eps.
    Reweighted curves need no further data: ``distribution.reweight``
    integrates its density, the one scalar callback, over the superlevel
    sets.  ``discretize.KernelSampler.fn`` takes arrays as ``fn`` does.
    """

    fn: Callable
    sup_bound: float
    breakpoints: tuple | None = ()
    superlevel: Callable | None = None
    log_superlevel: Callable | None = None
    boundary: Callable | None = None
    cutoff_hint: Callable | None = None

    def __post_init__(self):
        if self.sup_bound <= 0:
            raise ValueError("sup_bound must be positive")
        b = self.breakpoints
        if b is not None and not (
                isinstance(b, tuple)
                and all(isinstance(x, numbers.Real) for x in b)
                and all(x < y for x, y in zip((0.0,) + b, b + (INF,)))):
            raise ValueError("breakpoints must be None or a tuple of finite, "
                             f"positive, strictly increasing numbers, got {b!r}")

    @property
    def shape(self):
        """The numeric search the data selects: DISCRETE with a cutoff_hint,
        GENERIC_SAMPLED without breakpoints, MONOTONE_TAIL otherwise."""
        if self.cutoff_hint is not None:
            return DISCRETE
        return GENERIC_SAMPLED if self.breakpoints is None else MONOTONE_TAIL


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
        if np.any(np.isposinf(lp)) != (self.finiteness == NON_INFORMATIVE):
            raise ValueError("a curve is non_informative exactly when it "
                             "has a +inf sample")
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
        if not 0 <= self.lower <= self.upper:  # False on NaN too
            raise ValueError(f"need 0 <= lower <= upper, got "
                             f"[{self.lower!r}, {self.upper!r}]")
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")


@dataclass
class Report:
    """What every pipeline reports, whatever its spectral data.

    ``header`` names what was analysed (a model and its parameters, an
    operator and its section, a model and its density) and leads the
    serialized report.  ``phi`` is the curve shown, whose ratio samples are
    ``ratios``; ``interval`` and ``degree`` come from the estimator, which may
    have read another curve (the corners of a counting curve).  A gallery
    model's tag and whether the estimate matches it are ``expected`` and
    ``matches_expected``; the singular values of a matrix are ``sigma``.
    """

    header: dict
    phi: DistributionFunction
    interval: IllPosednessInterval
    degree: float | None
    diagnostics: dict = field(default_factory=dict)
    expected: object = None
    matches_expected: bool | None = None
    sigma: SigmaSequence | None = None

    @property
    def classification(self):
        return self.interval.classification

    @property
    def ratios(self):
        return ratio_samples(self.phi)


def ratio(eps, log_phi):
    """Decay-rate quotient ln(eps) / (-2 * ln Phi(eps)) of one sample.

    Defined on the samples :func:`usable_samples` keeps; returns None
    otherwise (the sample is skipped, it is not an error).  For exact power
    laws Phi = eps**(-1/(2 s)) the quotient equals s at every point.
    """
    _, neg_log, lp = usable_samples([eps], [log_phi])
    return float(_ratios(neg_log, lp)[0]) if lp.size else None


def usable_samples(eps_grid, log_phi):
    """The samples with 0 < eps < 1 and 0 < ln Phi < inf, as arrays
    (eps, -ln eps, ln Phi); the estimator reads no other.

    The logs are ``math.log``'s, whose last digits numpy's vector log does
    not always reproduce.
    """
    eps = np.asarray(eps_grid, dtype=float)
    lp = np.asarray(log_phi, dtype=float)
    keep = (eps > 0.0) & (eps < 1.0) & (lp > 0.0) & (lp < INF)
    eps, lp = eps[keep], lp[keep]
    neg_log = -np.fromiter(map(math.log, eps.tolist()), float, eps.size)
    return eps, neg_log, lp


def ratio_samples(phi):
    """Ratio samples (eps, r) of a distribution curve, coarse to fine;
    samples where the ratio is undefined are skipped."""
    eps, neg_log, lp = usable_samples(phi.eps_grid, phi.log_phi)
    return list(zip(eps.tolist(), _ratios(neg_log, lp).tolist()))


def _ratios(neg_log, log_phi):
    """The ratios (-ln eps) / (2 ln Phi) of usable samples; as in float
    arithmetic, a subnormal ln Phi gives +inf, without a warning."""
    with np.errstate(over="ignore"):
        return neg_log / (2.0 * log_phi)
