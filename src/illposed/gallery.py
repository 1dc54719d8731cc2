"""Named operator models with closed-form spectral data.

Each model carries a singular value law (compact examples) or a multiplier
with its benchmark measure.  A directly known distribution function
(eigenvalue counting asymptotics) is the multiplier of its decreasing
rearrangement on ([0, inf), Lebesgue), with the closed form as its
``log_superlevel`` hook.  Models also record the classification and degree
their parameters imply, which the test suite checks against the computed
pipeline.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (COUNTING_INTEGERS, INF, INDETERMINATE, LEBESGUE_HALFLINE,
                   LEBESGUE_LINE, LEBESGUE_RADIAL, MODERATE, MILD, Multiplier,
                   MeasureSpace, Report, SEVERE, SigmaSequence, TailLaw,
                   DEFAULT_THRESHOLDS, geometric_grid)
from . import counting as _counting
from . import distribution as _distribution

__all__ = ["Expected", "OperatorModel", "Report", "make", "curve", "analyze",
           "available_models", "MODEL_IDS"]

MATCH_TOL = 0.05  # largest |degree - tagged degree| that matches


@dataclass(frozen=True)
class Expected:
    classification: str
    degree: float | None = None
    essinf_verdict: str | None = None


@dataclass(frozen=True)
class OperatorModel:
    """A named operator with its spectral data and expected classification."""

    id: str
    parameters: dict
    expected: Expected
    sigma_law: TailLaw | None = None
    multiplier: Multiplier | None = None
    measure: MeasureSpace | None = None
    eps_max: float = 0.99
    notes: str = ""

    def __post_init__(self):
        data = (self.sigma_law is not None, self.multiplier is not None,
                self.measure is not None)
        if data not in ((True, False, False), (False, True, True)):
            raise ValueError(f"model {self.id!r} needs a sigma_law or a "
                             "multiplier with its measure, not both")

    @property
    def kind(self):
        """The spectral data: "sigma" (a singular value law) or "multiplier"."""
        return "sigma" if self.sigma_law is not None else "multiplier"

    def sigma_sequence(self, n_terms=4096):
        """Materialize the singular value law to its first n_terms values.

        Singular values are nonincreasing by definition while a decay law
        only holds asymptotically (the log-type laws rise over their first
        few indices), so the head is sorted into place.
        """
        if self.sigma_law is None:
            raise ValueError(f"model {self.id!r} has no singular value law")
        n = np.arange(1, n_terms + 1, dtype=float)
        values = np.sort(self.sigma_law.sigma(n))[::-1]
        return SigmaSequence(values, tail_law=self.sigma_law)


def _positive(**kwargs):
    for name, value in kwargs.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"parameter {name} must be finite and positive, got {value}")


def _dimension(d):
    """The integer dimension d >= 1, checked before the conversion."""
    if not (math.isfinite(d) and d >= 1 and d == int(d)):
        raise ValueError(f"parameter d must be a finite integer >= 1, got {d}")
    return int(d)


def _sqrt_expm1(x):
    """sqrt(e^x - 1) as e^(x/2) sqrt(1 - e^-x), for x where e^x overflows."""
    return math.exp(0.5 * x) * math.sqrt(-math.expm1(-x))


# ---------------------------------------------------------------------------
# compact models (singular value laws)

def riemann_liouville(alpha=1.0):
    """Fractional integration of order alpha on the unit interval."""
    _positive(alpha=alpha)
    return OperatorModel(
        id="riemann_liouville", parameters={"alpha": float(alpha)},
        sigma_law=TailLaw.power(alpha),
        expected=Expected(MODERATE, float(alpha)),
        notes="sigma_n = n^-alpha; degree alpha")


def multivariate_integration(d=2):
    """Iterated integration over the d-dimensional unit cube.

    The limit degree is 1 for every d, but the log factors push finite
    windows well below it: the report shows the honest finite-size value.
    """
    d = _dimension(d)
    return OperatorModel(
        id="multivariate_integration", parameters={"d": d},
        sigma_law=TailLaw.power_log(d),
        expected=Expected(MODERATE, 1.0),
        notes="sigma_n = log(n+1)^(d-1)/n; limit degree 1 for every d")


def sobolev_embedding(p=2.0, d=2):
    """Embedding of the order-p Sobolev space over a d-cube into L2."""
    d = _dimension(d)
    _positive(p=p)
    return OperatorModel(
        id="sobolev_embedding", parameters={"p": float(p), "d": d},
        sigma_law=TailLaw.power(p / d),
        expected=Expected(MODERATE, p / d),
        notes="sigma_n = n^(-p/d); degree p/d")


# ---------------------------------------------------------------------------
# counting asymptotics given directly

def weyl(p=2.0, d=2, c=1.0):
    """Eigenvalue-counting model Phi(eps) = c * (Theta^-1(eps))^(d/2).

    Theta(t) = t^-p, so Phi = c * eps^(-d/(2p)) and the degree is p/d.  The
    multiplier is the decreasing rearrangement (t/c)^(-2p/d) on [0, inf),
    with a pole at t = 0.
    """
    d = _dimension(d)
    _positive(p=p, c=c)
    p, c = float(p), float(c)
    power = -2.0 * p / d

    def fn(t):
        a = np.abs(t)
        pole = a == 0  # kept out of the power, which warns at 0
        return np.where(pole, INF, np.where(pole, 1.0, a / c) ** power)

    def log_superlevel(eps):
        # log c + (d/2) log Theta^-1(eps), with Theta^-1(eps) = eps^(-1/p)
        try:
            inv = eps ** (-1.0 / p)
        except OverflowError:  # the power leaves the floats, its log may not
            log_inv = -math.log(eps) / p
        else:
            if not inv > 0:
                return -INF
            log_inv = math.log(inv)
        # Phi is finite at every eps > 0: an infinite log is an overflow
        log_phi = math.log(c) + 0.5 * d * log_inv
        if not math.isfinite(log_phi):
            raise ValueError(f"weyl with p = {p!r} and d = {d}: ln Phi(eps) = "
                             f"ln c + (d/2)(-ln eps)/p leaves the float range "
                             f"at eps = {eps!r}")
        return log_phi

    mult = Multiplier(fn=fn, sup_bound=INF, log_superlevel=log_superlevel)
    return OperatorModel(
        id="weyl", parameters={"p": p, "d": d, "c": c},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_HALFLINE),
        expected=Expected(MODERATE, p / d, essinf_verdict="ill_posed"),
        notes="Phi = c * eps^(-d/(2p)) from the eigenvalue counting law")


def inverse_laplacian(d=2):
    """Squared inverse of the Laplacian on a d-dimensional manifold."""
    d = _dimension(d)
    return replace(
        weyl(p=2.0, d=d, c=1.0), id="inverse_laplacian", parameters={"d": d},
        expected=Expected(MODERATE, 2.0 / d, essinf_verdict="ill_posed"),
        notes="Phi ~ eps^(-d/4); degree 2/d, dimension dependent")


# ---------------------------------------------------------------------------
# multiplier models

def backward_heat(t_bar=1.0):
    """Periodic backward heat evolution: lambda(k) = exp(-k^2 t), k in Z."""
    _positive(t_bar=t_bar)
    t = float(t_bar)

    def fn(k):
        return np.exp(-t * k * k)

    def strict_root(x):
        # largest integer k >= 0 with k^2 < x, i.e. k^2 <= ceil(x) - 1
        return math.isqrt(math.ceil(x) - 1) if x > 0 else -1

    def root(eps):
        # sqrt(-ln eps / t) and the largest integer k >= 0 below it; for t
        # below about 1e-307 the quotient overflows but its root does not,
        # and is then far too large for k^2 < x to differ from k <= sqrt(x)
        x = max(0.0, -math.log(eps)) / t
        if math.isfinite(x):
            return math.sqrt(x), strict_root(x)
        r = math.sqrt(-math.log(eps)) / math.sqrt(t)
        return r, math.floor(r)

    def count(eps):
        k = root(eps)[1] if eps < 1.0 else -1
        return float(2 * k + 1) if k >= 0 else 0.0

    mult = Multiplier(fn=fn, sup_bound=1.0, superlevel=count,
                      cutoff_hint=lambda e: math.ceil(root(e)[0]) + 2)
    return OperatorModel(
        id="backward_heat", parameters={"t_bar": t},
        multiplier=mult, measure=MeasureSpace(COUNTING_INTEGERS),
        expected=Expected(SEVERE, essinf_verdict="ill_posed"),
        notes="Phi ~ 2 sqrt(log(1/eps)/t); severe")


def multiplier_a1(s=1.0):
    """lambda = (1 + w^2)^-s on the line: the moderate reference family."""
    _positive(s=s)
    s = float(s)

    def fn(w):
        return (1.0 + w * w) ** -s

    def boundary(eps):
        if eps >= 1.0:
            return 0.0
        try:
            return math.sqrt(eps ** (-1.0 / s) - 1.0)
        except OverflowError:  # the power leaves the floats, the root may not
            return _sqrt_expm1(-math.log(eps) / s)

    mult = Multiplier(fn=fn, sup_bound=1.0, boundary=boundary)
    return OperatorModel(
        id="multiplier_a1", parameters={"s": s},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_LINE),
        expected=Expected(MODERATE, s, essinf_verdict="ill_posed"),
        notes="Phi = 2 sqrt(eps^(-1/s) - 1); degree s")


def multiplier_a2():
    """lambda = w^2 / (1 + w^4): an inner zero that does not change the degree."""
    def fn(w):
        w2 = w * w
        return w2 / (1.0 + w2 * w2)

    def superlevel(eps):
        if eps >= 0.5:
            return 0.0
        disc = math.sqrt(1.0 - 4.0 * eps * eps)
        y_hi = (1.0 + disc) / (2.0 * eps)
        y_lo = 2.0 * eps / (1.0 + disc)  # stable form of (1 - disc)/(2 eps)
        return 2.0 * (math.sqrt(y_hi) - math.sqrt(y_lo))

    mult = Multiplier(fn=fn, sup_bound=0.5,
                      breakpoints=(1.0,), superlevel=superlevel)
    return OperatorModel(
        id="multiplier_a2", parameters={},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_LINE),
        expected=Expected(MODERATE, 1.0, essinf_verdict="ill_posed"),
        eps_max=0.495,
        notes="Phi ~ 2(eps^-1/2 - eps^1/2); the inner zero is negligible")


def multiplier_b(s=1.0):
    """lambda = exp(-|w|^s) on the line: the severe reference family."""
    _positive(s=s)
    s = float(s)

    def fn(w):
        return np.exp(-np.abs(w) ** s)

    def boundary(eps):
        return (-math.log(eps)) ** (1.0 / s) if eps < 1.0 else 0.0

    mult = Multiplier(fn=fn, sup_bound=1.0, boundary=boundary)
    return OperatorModel(
        id="multiplier_b", parameters={"s": s},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_LINE),
        expected=Expected(SEVERE, essinf_verdict="ill_posed"),
        notes="Phi = 2 log(1/eps)^(1/s); severe")


def multiplier_c(s=1.0):
    """lambda = log(|w|)^-2s beyond e, 1 inside: the mild reference family.

    Phi = 2 exp(eps^(-1/(2s))) overflows floats almost immediately, so the
    model supplies log Phi in closed form and the numeric path is only
    usable at coarse eps.
    """
    _positive(s=s)
    s = float(s)

    def fn(w):
        a = np.abs(w)
        return np.where(a < math.e, 1.0,
                        np.log(np.maximum(a, math.e)) ** (-2.0 * s))

    def log_superlevel(eps):
        if eps >= 1.0:
            return -INF
        return math.log(2.0) + eps ** (-1.0 / (2.0 * s))

    mult = Multiplier(fn=fn, sup_bound=1.0,
                      breakpoints=(math.e,), log_superlevel=log_superlevel)
    return OperatorModel(
        id="multiplier_c", parameters={"s": s},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_LINE),
        expected=Expected(MILD, essinf_verdict="ill_posed"),
        notes="log Phi = log 2 + eps^(-1/(2s)); mild")


def hausdorff():
    """Moment-sequence operator: lambda = pi / cosh(pi w) on [0, inf).

    The closed-form boundary is the standard small-eps form log(2 pi /
    eps)/pi, taken as a difference of logs so that it stays finite down to
    the smallest subnormal eps; the numeric bisection path recovers the
    exact arccosh threshold, which agrees with it to O(eps^2).
    """
    def fn(w):
        x = math.pi * np.abs(w)
        # cosh overflows beyond 700, where the quotient underflows anyway
        return np.where(x > 700.0, 0.0, math.pi / np.cosh(np.minimum(x, 700.0)))

    def boundary(eps):
        return max(0.0, (math.log(2.0 * math.pi) - math.log(eps)) / math.pi)

    mult = Multiplier(fn=fn, sup_bound=math.pi, boundary=boundary)
    return OperatorModel(
        id="hausdorff", parameters={},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_HALFLINE),
        expected=Expected(SEVERE, essinf_verdict="ill_posed"),
        notes="Phi ~ log(2 pi/eps)/pi; severe; |T|^2 = pi")


def gaussian_kernel(d=1):
    """Convolution by exp(-|t|^2): lambda = pi^d exp(-|w|^2/2), radial."""
    d = _dimension(d)
    peak = math.pi ** d

    def fn(r):
        return peak * np.exp(-0.5 * r * r)

    def boundary(eps):
        if eps >= peak:
            return 0.0
        return math.sqrt(2.0 * (math.log(peak) - math.log(eps)))

    mult = Multiplier(fn=fn, sup_bound=peak, boundary=boundary)
    return OperatorModel(
        id="gaussian_kernel", parameters={"d": d},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_RADIAL, dim=d),
        expected=Expected(SEVERE, essinf_verdict="ill_posed"),
        notes="Phi ~ log(1/eps)^(d/2); severe")


def laplace_kernel(a=1.0, b=1.0, d=1):
    """Laplace-type point-spread kernel: lambda = (1 + b |w|^2)^-2a, radial.

    The radial computation gives degree 2a/d; at d = 1 this matches the
    dimension-free reading 2a.
    """
    d = _dimension(d)
    _positive(a=a, b=b)
    a, b = float(a), float(b)

    def fn(r):
        return (1.0 + b * r * r) ** (-2.0 * a)

    def boundary(eps):
        if eps >= 1.0:
            return 0.0
        try:
            return math.sqrt((eps ** (-0.5 / a) - 1.0) / b)
        except OverflowError:
            return _sqrt_expm1(-math.log(eps) / (2.0 * a)) / math.sqrt(b)

    mult = Multiplier(fn=fn, sup_bound=1.0, boundary=boundary)
    return OperatorModel(
        id="laplace_kernel", parameters={"a": a, "b": b, "d": d},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_RADIAL, dim=d),
        expected=Expected(MODERATE, 2.0 * a / d, essinf_verdict="ill_posed"),
        notes="Phi ~ eps^(-d/(4a)); degree 2a/d (2a at d = 1)")


def fractional_line(s=0.5):
    """Fractional integration on the whole line: lambda = |w|^-2s, unbounded."""
    _positive(s=s)
    s = float(s)

    def fn(w):
        a = np.abs(w)
        pole = a == 0  # kept out of the power, which warns at 0
        return np.where(pole, INF, np.where(pole, 1.0, a) ** (-2.0 * s))

    def boundary(eps):
        return eps ** (-0.5 / s)

    mult = Multiplier(fn=fn, sup_bound=INF, boundary=boundary)
    return OperatorModel(
        id="fractional_line", parameters={"s": s},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_LINE),
        expected=Expected(MODERATE, s, essinf_verdict="ill_posed"),
        notes="Phi = 2 eps^(-1/(2s)); degree s; pole at 0 is harmless")


def parabolic_source(diffusivity=1.0, t0=1.0, d=1):
    """Heat-source identification: lambda = (1 - exp(-t0 k^2 |w|^2))^2 / (k^4 |w|^4)."""
    d = _dimension(d)
    _positive(diffusivity=diffusivity, t0=t0)
    kap, t0 = float(diffusivity), float(t0)
    kap4 = kap ** 4

    def fn(r):
        # lambda(0) = t0^2 is the limit of the quotient, which is 0/0 there
        at0 = np.equal(r, 0.0)
        r = np.where(at0, 1.0, r)
        a = t0 * kap * kap * r * r
        num = -np.expm1(-a)
        return np.where(at0, t0 * t0, (num * num) / (kap4 * r ** 4))

    mult = Multiplier(fn=fn, sup_bound=t0 * t0)
    return OperatorModel(
        id="parabolic_source",
        parameters={"diffusivity": kap, "t0": t0, "d": d},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_RADIAL, dim=d),
        expected=Expected(MODERATE, 2.0 / d, essinf_verdict="ill_posed"),
        eps_max=min(0.99, 0.99 * t0 * t0),
        notes="lambda ~ |w|^-4 at infinity; degree 2/d")


def counterexample_sin2():
    """lambda = sin^2 on [0, inf): ill-posed but with a useless Phi."""
    def fn(w):
        return np.sin(w) ** 2

    mult = Multiplier(fn=fn, sup_bound=1.0, breakpoints=None,
                      log_superlevel=lambda e: INF if e < 1.0 else -INF)
    return OperatorModel(
        id="counterexample_sin2", parameters={},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_HALFLINE),
        expected=Expected(INDETERMINATE, essinf_verdict="ill_posed"),
        notes="Phi = +inf below 1: non-informative although 0 in essran")


def counterexample_const(c=0.5):
    """lambda identically c: Phi is non-informative and nothing is ill-posed."""
    _positive(c=c)
    c = float(c)
    mult = Multiplier(fn=lambda w: np.full(np.shape(w), c),
                      sup_bound=c, breakpoints=None,
                      log_superlevel=lambda e: INF if e < c else -INF)
    return OperatorModel(
        id="counterexample_const", parameters={"c": c},
        multiplier=mult, measure=MeasureSpace(LEBESGUE_HALFLINE),
        expected=Expected(INDETERMINATE, essinf_verdict="well_posed_candidate"),
        eps_max=0.99 * c,
        notes="Phi = +inf below c, yet essinf = c > 0: not ill-posed")


_FACTORIES = {f.__name__: f for f in (
    riemann_liouville, multivariate_integration, sobolev_embedding, weyl,
    inverse_laplacian, backward_heat, multiplier_a1, multiplier_a2,
    multiplier_b, multiplier_c, hausdorff, gaussian_kernel, laplace_kernel,
    fractional_line, parabolic_source, counterexample_sin2,
    counterexample_const)}

MODEL_IDS = tuple(_FACTORIES)


def make(model_id, **params):
    """Construct a gallery model by id; unknown ids and parameter names
    raise with the choices."""
    try:
        factory = _FACTORIES[model_id]
    except KeyError:
        raise ValueError(f"unknown model {model_id!r}; choose from "
                         f"{', '.join(MODEL_IDS)}") from None
    names = inspect.signature(factory).parameters
    unknown = [k for k in params if k not in names]
    if unknown:
        raise ValueError(f"model {model_id!r} has no parameter "
                         f"{', '.join(map(repr, unknown))}; its parameters: "
                         f"{', '.join(names) or 'none'}")
    return factory(**params)


def available_models():
    """(id, parameter defaults, expected classification, notes) rows."""
    rows = []
    for model_id, factory in _FACTORIES.items():
        sig = inspect.signature(factory)
        params = ", ".join(f"{k}={v.default}" for k, v in sig.parameters.items())
        model = factory()
        exp = model.expected.classification
        if model.expected.degree is not None:
            exp += f" (degree {model.expected.degree:g})"
        rows.append((model_id, params, exp, model.notes))
    return rows


# ---------------------------------------------------------------------------
# the end-to-end pipeline

def curve(model, grid=None, n_terms=4096, method="auto", trim=None):
    """The distribution curve of a gallery model on a descending eps grid.

    The default grid has 60 points from ``model.eps_max`` down to
    ``eps_max * 2**-59``.  A singular value law gives the counting curve of
    its first ``n_terms`` values, which can be neither trimmed nor searched
    numerically; a multiplier gives its superlevel curve.
    """
    _distribution._check_trim(trim)
    if grid is None:
        grid = geometric_grid(model.eps_max, model.eps_max * 2.0 ** -59)
    if model.kind == "multiplier":
        return _distribution.phi_curve(model.multiplier, model.measure, grid,
                                       method=method, trim=trim)
    if trim is not None or method != "auto":
        raise ValueError(f"model {model.id!r} has a singular value law: its "
                         "counting curve takes no trim and no method")
    return _counting.counting_curve(model.sigma_sequence(n_terms), grid)


def analyze(model, grid=None, thresholds=DEFAULT_THRESHOLDS, n_terms=4096,
            method="auto", trim=None, run_essinf=True):
    """Run the full pipeline for a gallery model and compare with its tag.

    The report shows :func:`curve`.  The estimate reads the same curve for
    a multiplier and the corners of the counting curve for a singular value
    law.  The reported degree is the regression-refined one whenever the
    tail is power-law.
    """
    phi = estimated = curve(model, grid, n_terms, method, trim)
    if model.kind == "sigma":  # the estimate reads the corners
        estimated = _counting.corner_curve(model.sigma_sequence(n_terms))
    interval, degree, diagnostics = _counting.estimate_curve(estimated,
                                                            thresholds)
    if model.kind == "multiplier" and run_essinf:
        ess = _distribution.essinf_estimate(model.multiplier, model.measure)
        diagnostics["essinf_value"] = ess.value
        diagnostics["essinf_verdict"] = ess.verdict

    matches = interval.classification == model.expected.classification
    if matches and model.expected.degree is not None:
        matches = (degree is not None and
                   abs(degree - model.expected.degree) <= MATCH_TOL)
    if model.expected.essinf_verdict is not None and run_essinf:
        matches = matches and (diagnostics.get("essinf_verdict") ==
                               model.expected.essinf_verdict)
    diagnostics.setdefault("trend", interval.diagnostics.get("trend"))
    diagnostics.setdefault("drift", interval.diagnostics.get("drift"))
    if trim is not None:
        diagnostics["trim"] = trim
    return Report({"model": model.id, "params": dict(model.parameters)},
                  phi, interval, degree, diagnostics,
                  expected=model.expected, matches_expected=matches)
