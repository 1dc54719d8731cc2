"""Acceptance checks: golden values and property suites for the whole stack.

Each criterion function returns a list of (name, passed, detail) records so
the CLI can print one line per check and the test suite can assert them
individually.  Heavy artifacts are cached, each for the one criterion that
reads it: the section pipelines for criterion 4 (the alpha = 1 solve is
read twice), the Hilbert sigma_max for 5, the Gaussian FFT samples for 6
(N = 4096 read twice).  Beyond that a cache pays off only when one process
runs the same criterion again.

Three checks are known to fail by construction and are kept failing on
purpose; their tolerances cannot be met by the objects they pin down (see
the README notes): the 1% singular value tolerance at n <= 128 for the
midpoint quadrature at N=1024 (actual 1.28%), the sigma_max >= 2.9 bracket
for the N=1024 Hilbert section (actual 2.445, convergence to pi is
logarithmic), and FFT error halving between N=2048 and N=4096 (both sit at
the float64 rounding floor ~1e-14).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import counting, discretize, distribution, gallery
from .core import (LEBESGUE_HALFLINE, MODERATE, MILD, NON_INFORMATIVE,
                   SEVERE, MeasureSpace, geometric_grid, ratio)

__all__ = ["CheckResult", "run_all", "CRITERIA"]


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.criterion}: {self.detail}"


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def _rl_sigma(alpha, n):
    """Leading singular values of the section, the first n/8 of them."""
    return _rl_pipeline(alpha, n).sigma


@lru_cache(maxsize=None)
def _rl_pipeline(alpha, n):
    return discretize.pipeline_from_matrix(
        discretize.riemann_liouville_section(alpha, n), operator="j_alpha")


@lru_cache(maxsize=None)
def _hilbert_sigma_max(n):
    return float(discretize.singular_values(
        discretize.hilbert_section(n)).values[0])


@lru_cache(maxsize=None)
def _gaussian_fft(n):
    return discretize.fft_multiplier(discretize.KernelSampler(
        fn=lambda x: np.exp(-x * x), L=12.0, N=n))


def _gaussian_fft_max_rel_err(n, omega_cap=5.0):
    sampled = _gaussian_fft(n)
    mask = np.abs(sampled.omega) <= omega_cap
    analytic = math.pi * np.exp(-0.5 * sampled.omega[mask] ** 2)
    return float(np.max(np.abs(sampled.values[mask] - analytic) / analytic))


def criterion_1():
    """Moment-problem multiplier: curve, severity, norm recovery; < 1 s."""
    out = []
    t0 = time.perf_counter()
    model = gallery.make("hausdorff")
    lam, mu = model.multiplier, model.measure
    worst = 0.0
    grid = geometric_grid(1e-3, 1e-12, points=19)
    curve = distribution.phi_curve(lam, mu, grid, method="numeric")
    for eps, lp in zip(curve.eps_grid, curve.log_phi):
        ref = math.log(2.0 * math.pi / eps) / math.pi
        worst = max(worst, abs(math.exp(lp) - ref) / ref)
    out.append(_result("1a hausdorff curve vs log(2 pi/eps)/pi", worst <= 5e-3,
                       f"max rel dev {worst:.3e} (tol 5e-3)"))
    report = gallery.analyze(model, grid=geometric_grid(0.99, 1e-12, 60))
    out.append(_result("1b hausdorff classified severe",
                       report.classification == SEVERE,
                       f"classification {report.classification}"))
    lstar0 = distribution.decreasing_rearrangement(report.phi, 0.0)
    out.append(_result("1c rearrangement at 0 recovers |T|^2 = pi",
                       abs(lstar0 - math.pi) <= 1e-9,
                       f"lambda*(0) = {lstar0!r}"))
    dt = time.perf_counter() - t0
    out.append(_result("1d runtime", dt < 1.0, f"{dt:.2f} s (< 1 s)"))
    return out


def criterion_2():
    """Reference multiplier family: moderate degrees, severe and mild tails."""
    out = []
    for s in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        rep = gallery.analyze(gallery.make("multiplier_a1", s=s),
                              grid=geometric_grid(0.99, 1e-10, 60))
        dt = time.perf_counter() - t0
        ok = (rep.classification == MODERATE and rep.degree is not None
              and abs(rep.degree - s) <= 0.05 and dt < 1.0)
        out.append(_result(f"2a moderate family s={s}", ok,
                           f"degree {rep.degree}, {rep.classification}, "
                           f"{dt:.2f} s"))
    t0 = time.perf_counter()
    a2 = gallery.make("multiplier_a2")
    rep = gallery.analyze(a2, grid=geometric_grid(0.495, 1e-10, 60))
    scaled = distribution.superlevel_measure(a2.multiplier, a2.measure,
                                             1e-6) * math.sqrt(1e-6)
    dt = time.perf_counter() - t0
    out.append(_result(
        "2b inner zero: degree 1 and Phi*sqrt(eps) -> 2",
        rep.classification == MODERATE and rep.degree is not None
        and abs(rep.degree - 1.0) <= 0.05 and 1.99 <= scaled <= 2.01
        and dt < 1.0,
        f"degree {rep.degree}, Phi*sqrt(eps) = {scaled:.6f}, {dt:.2f} s"))
    t0 = time.perf_counter()
    b = gallery.make("multiplier_b", s=1.0)
    rep = gallery.analyze(b, grid=geometric_grid(0.99, 1e-10, 60))
    ratios = []
    for eps in geometric_grid(1e-2, 1e-10, 9):
        phi_val = distribution.superlevel_measure(b.multiplier, b.measure,
                                                  float(eps))
        ratios.append(phi_val / math.log(1.0 / eps))
    dt = time.perf_counter() - t0
    out.append(_result(
        "2c severe family s=1 with Phi/log(1/eps) in [1.9, 2.1]",
        rep.classification == SEVERE and min(ratios) >= 1.9
        and max(ratios) <= 2.1 and dt < 1.0,
        f"{rep.classification}, Phi/log range "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], {dt:.2f} s"))
    t0 = time.perf_counter()
    # the r(1e-3) < 0.05 bound pins s = 0.5; at s = 1 the same quantity is
    # 0.109 however deep the grid, so the bound selects the parameter
    c_half = gallery.make("multiplier_c", s=0.5)
    rep_half = gallery.analyze(c_half, grid=geometric_grid(0.99, 1e-12, 60))
    r_small = ratio(1e-3, c_half.multiplier.log_superlevel(1e-3))
    rep_one = gallery.analyze(gallery.make("multiplier_c", s=1.0),
                              grid=geometric_grid(0.99, 1e-12, 60))
    dt = time.perf_counter() - t0
    out.append(_result(
        "2d mild family: r(1e-3) < 0.05 at s=0.5, mild at s=1 too",
        rep_half.classification == MILD and r_small < 0.05
        and rep_one.classification == MILD and dt < 1.0,
        f"r(1e-3) = {r_small:.4f}, classes {rep_half.classification}/"
        f"{rep_one.classification}, {dt:.2f} s"))
    return out


def criterion_3():
    """Equivalence of the sigma, counting and step-multiplier estimates."""
    out = []
    for s in (0.25, 0.5, 1.0, 2.0):
        model = gallery.make("riemann_liouville", alpha=s)
        seq = model.sigma_sequence(4096)
        iv_sigma = counting.interval_from_sigma(seq)
        sq = seq.squares
        grid = geometric_grid(0.9, float(sq[-1]) * 1.0001, 60)
        phi_count = counting.counting_curve(seq, grid)
        iv_count = counting.interval_from_counting(phi_count)
        step, mu = counting.step_multiplier_from_sigma(seq)
        phi_step = distribution.phi_curve(step, mu, grid)
        iv_step = counting.interval_from_counting(phi_step)
        degrees = [iv_sigma.degree, iv_count.degree, iv_step.degree]
        ok = all(d is not None for d in degrees)
        spread = max(degrees) - min(degrees) if ok else math.inf
        dev = max(abs(d - s) for d in degrees) if ok else math.inf
        exact = all(
            distribution.superlevel_measure(step, mu, float(e))
            == counting.counting_phi(seq, float(e)).count for e in grid)
        out.append(_result(
            f"3 estimator agreement s={s}",
            ok and spread <= 0.05 and dev <= 0.05 and exact,
            f"degrees {['%.4f' % d if d is not None else 'None' for d in degrees]}, "
            f"integer identity {'holds' if exact else 'violated'}"))
    return out


def criterion_4():
    """Discretized fractional integration against the analytic spectrum."""
    out = []
    t0 = time.perf_counter()
    seq = _rl_sigma(1.0, 1024)
    n = np.arange(1, 129)
    oracle = 2.0 / ((2 * n - 1) * math.pi)
    rel = float(np.max(np.abs(seq.values[:128] - oracle) / oracle))
    # known red: the midpoint rule's relative error at n=128, N=1024 is
    # 1.283e-2 (it grows like (n pi / 2N)^2 / 3), so the stated 1% cannot
    # be met by the matrix this criterion pins down
    out.append(_result("4a sigma within 1% of 2/((2n-1) pi) for n <= 128",
                       rel <= 1e-2, f"max rel dev {rel:.4e} (tol 1e-2)"))
    rep = _rl_pipeline(1.0, 1024)
    out.append(_result("4b end-to-end degree 1.0 +/- 0.05 at alpha=1",
                       rep.degree is not None
                       and abs(rep.degree - 1.0) <= 0.05
                       and rep.classification == MODERATE,
                       f"degree {rep.degree}, {rep.classification}"))
    rep_half = _rl_pipeline(0.5, 1024)
    out.append(_result("4c end-to-end degree 0.5 +/- 0.1 at alpha=0.5",
                       rep_half.degree is not None
                       and abs(rep_half.degree - 0.5) <= 0.1
                       and rep_half.classification == MODERATE,
                       f"degree {rep_half.degree}, {rep_half.classification}"))
    dt = time.perf_counter() - t0
    out.append(_result("4d runtime", dt < 120.0, f"{dt:.1f} s (< 120 s)"))
    return out


def criterion_5():
    """Hilbert matrix finite sections."""
    out = []
    smax = {n: _hilbert_sigma_max(n) for n in (64, 256, 1024)}
    # known red: sigma_max(1024) = 2.445; the sections converge to pi only
    # logarithmically, reaching 2.9 would need N of order 1e10
    out.append(_result("5a sigma_max(1024) in [2.9, pi]",
                       2.9 <= smax[1024] <= math.pi,
                       f"sigma_max = {smax[1024]:.6f}"))
    increasing = smax[64] < smax[256] < smax[1024] <= math.pi
    out.append(_result("5b sigma_max increasing in N and below pi",
                       increasing,
                       f"{smax[64]:.4f} < {smax[256]:.4f} < {smax[1024]:.4f}"))
    rep = discretize.pipeline_from_matrix(discretize.hilbert_section(512),
                                          operator="hilbert")
    flagged = "discretization_artifact" in rep.diagnostics
    out.append(_result("5c finite-section severity flagged as artifact",
                       rep.classification == SEVERE and flagged,
                       f"{rep.classification}, artifact note "
                       f"{'present' if flagged else 'missing'}"))
    return out


def criterion_6():
    """FFT multiplier for the Gaussian kernel."""
    out = []
    err = _gaussian_fft_max_rel_err(4096)
    out.append(_result("6a max rel error below 1e-6 on |w| <= 5 (N=4096)",
                       err <= 1e-6, f"max rel err {err:.3e}"))
    sampled = _gaussian_fft(4096)
    L, n = 12.0, 4096
    dx = 2 * L / n
    x = -L + dx * np.arange(n)
    h = np.exp(-x * x)
    lhs = float(np.sum(h * h) * dx)
    rhs = float(np.sum(sampled.values) * (math.pi / L) / (2 * math.pi))
    plancherel = abs(lhs - rhs) / lhs
    out.append(_result("6b Plancherel identity within 1e-8",
                       plancherel <= 1e-8, f"rel defect {plancherel:.3e}"))
    err_coarse = _gaussian_fft_max_rel_err(2048)
    # known red: both N sit at the float64 rounding floor (~8e-15), the
    # discretization error proper is ~1e-60 here, so no halving is visible
    out.append(_result("6c error halves from N=2048 to N=4096",
                       err <= 0.5 * err_coarse,
                       f"err(2048) = {err_coarse:.3e}, err(4096) = {err:.3e}"))
    return out


def criterion_7():
    """Measure reweighting changes the apparent growth as predicted."""
    out = []
    model = gallery.make("hausdorff")
    grid = np.array([1e-2, 1e-4, 1e-6])
    curve = distribution.reweight(model.multiplier, model.measure,
                                  lambda w: 0.5 * math.exp(math.pi * w), grid)
    worst = 0.0
    for eps, lp in zip(curve.eps_grid, curve.log_phi):
        target = 1.0 / eps - 1.0 / (2.0 * math.pi)
        worst = max(worst, abs(math.exp(lp) - target) / target)
    out.append(_result("7a exponential reweighting of the moment multiplier",
                       worst <= 1e-6, f"max rel dev {worst:.3e} vs 1/eps - 1/(2 pi)"))
    heat = gallery.make("backward_heat", t_bar=1.0)
    ms = np.arange(3, 9)
    grid = np.exp(-ms.astype(float) ** 2) / 2.0
    curve = distribution.reweight(heat.multiplier, heat.measure,
                                  lambda k: math.exp(float(k) ** 2), grid)
    ratios = [lp / math.log(1.0 / eps)
              for eps, lp in zip(curve.eps_grid, curve.log_phi)]
    out.append(_result(
        "7b reweighted heat multiplier grows like 1/eps along eps_m",
        min(ratios) >= 0.85 and max(ratios) <= 1.05,
        f"log Phi / log(1/eps) in [{min(ratios):.4f}, {max(ratios):.4f}]"))
    return out


def criterion_8():
    """Non-informative counterexamples and the ill-posedness detector."""
    out = []
    sin2 = gallery.analyze(gallery.make("counterexample_sin2"),
                           grid=geometric_grid(0.99, 1e-6, 30))
    ok = (sin2.phi.finiteness == NON_INFORMATIVE
          and sin2.diagnostics.get("essinf_verdict") == "ill_posed")
    out.append(_result("8a sin^2: non-informative yet ill-posed", ok,
                       f"finiteness {sin2.phi.finiteness}, essinf "
                       f"{sin2.diagnostics.get('essinf_verdict')}"))
    const = gallery.analyze(gallery.make("counterexample_const", c=0.5),
                            grid=geometric_grid(0.45, 1e-6, 30))
    ok = (const.phi.finiteness == NON_INFORMATIVE
          and const.diagnostics.get("essinf_verdict") == "well_posed_candidate"
          and abs(const.diagnostics.get("essinf_value", 0.0) - 0.5) <= 1e-9)
    out.append(_result("8b constant 0.5: non-informative, not ill-posed", ok,
                       f"essinf {const.diagnostics.get('essinf_value')} "
                       f"({const.diagnostics.get('essinf_verdict')})"))
    finite_models = [
        gallery.make("multiplier_a1", s=1.0),
        gallery.make("multiplier_a2"),
        gallery.make("multiplier_b", s=1.0),
        gallery.make("multiplier_c", s=1.0),
        gallery.make("hausdorff"),
        gallery.make("gaussian_kernel", d=2),
        gallery.make("laplace_kernel", a=1.0, b=1.0, d=1),
        gallery.make("fractional_line", s=0.75),
        gallery.make("parabolic_source", diffusivity=1.0, t0=1.0, d=2),
        gallery.make("backward_heat", t_bar=1.0),
    ]
    verdicts = {m.id: distribution.essinf_estimate(m.multiplier, m.measure).verdict
                for m in finite_models}
    bad = [k for k, v in verdicts.items() if v != "ill_posed"]
    out.append(_result(
        "8c every finite-curve model is detected ill-posed", not bad,
        "all ill_posed" if not bad else f"unexpected verdicts: {bad}"))
    return out


def criterion_9():
    """Unbounded multipliers: degrees and pole irrelevance."""
    out = []
    # the trimmed curve is Phi(eps) minus a constant, so its power-law fit
    # needs a deeper grid before the constant stops biasing the window
    for s in (0.5, 0.75, 2.0):
        rep = gallery.analyze(gallery.make("fractional_line", s=s),
                              grid=geometric_grid(0.99, 1e-10, 60))
        trimmed = gallery.analyze(gallery.make("fractional_line", s=s),
                                  grid=geometric_grid(0.99, 1e-12, 60),
                                  trim=1.0, run_essinf=False)
        ok = (rep.degree is not None and abs(rep.degree - s) <= 0.05
              and trimmed.degree is not None
              and abs(trimmed.degree - s) <= 0.05)
        out.append(_result(f"9a fractional integration s={s}", ok,
                           f"degree {rep.degree}, trimmed {trimmed.degree}"))
    for d in (1, 2, 4):
        rep = gallery.analyze(gallery.make("parabolic_source", d=d),
                              grid=geometric_grid(0.99, 1e-10, 60))
        trimmed = gallery.analyze(gallery.make("parabolic_source", d=d),
                                  grid=geometric_grid(0.99, 1e-12, 60),
                                  trim=1.0, run_essinf=False)
        target = 2.0 / d
        ok = (rep.degree is not None and abs(rep.degree - target) <= 0.05
              and trimmed.degree is not None
              and abs(trimmed.degree - target) <= 0.05)
        out.append(_result(f"9b source identification d={d}", ok,
                           f"degree {rep.degree}, trimmed {trimmed.degree} "
                           f"(target {target})"))
    return out


def criterion_10():
    """Spectral equivalence of the decreasing rearrangement."""
    out = []
    cases = [("hausdorff", {}), ("multiplier_a1", {"s": 1.0}),
             ("multiplier_b", {"s": 1.0})]
    mu = MeasureSpace(LEBESGUE_HALFLINE)
    for model_id, params in cases:
        model = gallery.make(model_id, **params)
        grid = geometric_grid(model.eps_max, 1e-8, 60)
        phi = distribution.phi_curve(model.multiplier, model.measure, grid)
        star, _ = distribution.rearrangement_multiplier(phi)
        phi_star = distribution.phi_curve(star, mu, grid, method="numeric")
        a = np.exp(phi.log_phi)
        b = np.exp(phi_star.log_phi)
        rel = float(np.max(np.abs(a - b) / np.maximum(a, 1e-300)))
        out.append(_result(f"10 rearrangement duality {model_id}",
                           rel <= 1e-6, f"max rel dev {rel:.3e}"))
    return out


CRITERIA = {
    "1": criterion_1, "2": criterion_2, "3": criterion_3, "4": criterion_4,
    "5": criterion_5, "6": criterion_6, "7": criterion_7, "8": criterion_8,
    "9": criterion_9, "10": criterion_10,
}


def run_all(only=None):
    """Run all (or the selected) acceptance criteria; returns CheckResults."""
    results = []
    for key, fn in CRITERIA.items():
        if only is not None and key not in only:
            continue
        results.extend(fn())
    return results
