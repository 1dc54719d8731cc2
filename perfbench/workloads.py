"""Seeded request lists of the four workloads, and the truth answers are checked against.

Every request draws its parameters from sets the acceptance suite already
pins, so the right answer is known without consulting the program: the
classification and degree a gallery model is tagged with, closed-form
distribution functions, analytic Fourier transforms, and the documented
PASS/FAIL state of each acceptance check.  The seed only shuffles the order
in which a pass sends its requests.

Answers that differ from the truth are reported, never hidden.  The ones
the program is known to get wrong are listed in ``KNOWN_MISMATCHES`` and
``KNOWN_FAILURES``; they count in ``mismatch_frac`` and ``fail_frac`` but do
not mark a run incorrect, while any other difference does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("catalogue", "numeric", "sections", "check")

MODELS = ("riemann_liouville", "multivariate_integration", "sobolev_embedding",
          "weyl", "inverse_laplacian", "backward_heat", "multiplier_a1",
          "multiplier_a2", "multiplier_b", "multiplier_c", "hausdorff",
          "gaussian_kernel", "laplace_kernel", "fractional_line",
          "parabolic_source", "counterexample_sin2", "counterexample_const")
MULTIPLIER_MODELS = MODELS[5:]
# non-default parameters the acceptance suite pins, as (model, key, value)
PINNED = (("multiplier_a1", "s", 0.5), ("multiplier_a1", "s", 2.0),
          ("multiplier_c", "s", 0.5), ("fractional_line", "s", 0.75),
          ("fractional_line", "s", 2.0), ("parabolic_source", "d", 2),
          ("parabolic_source", "d", 4), ("riemann_liouville", "alpha", 0.25),
          ("riemann_liouville", "alpha", 0.5), ("riemann_liouville", "alpha", 2.0),
          ("gaussian_kernel", "d", 2))
# criterion 9's trimmed cases
TRIMMED = (("fractional_line", "s", 0.5), ("fractional_line", "s", 0.75),
           ("fractional_line", "s", 2.0), ("parabolic_source", "d", 1),
           ("parabolic_source", "d", 2), ("parabolic_source", "d", 4))
ROUND_TRIPS = ("hausdorff", "multiplier_a1", "multiplier_b")  # criterion 10
SECTION_SIZES = (512, 1024, 2048)
SECTION_OPERATORS = (("j_alpha", 1.0), ("j_alpha", 0.5), ("hilbert", 1.0))
CRITERIA = tuple(str(k) for k in range(1, 11))
FFT_N = 16384

# tail_ms is the latency with this many request types' worth of samples
# beyond it: the middle of one request type's samples, so that the figure
# does not jump between two types from run to run
TAIL_TYPES_BEYOND = {"catalogue": 1.5, "numeric": 1.5, "sections": 4.5, "check": 2.5}

DEGREE_TOL = 0.05
# acceptance checks that fail by construction (see acceptance.py)
EXPECTED_FAILING_CHECKS = ("4a", "5a", "6c")
EXPECTED_PASSING_CHECKS = 35

KNOWN_MISMATCHES = {
    "catalogue": {
        # finite windows sit well below the limit degree 1 (about 0.87)
        "analyze multivariate_integration",
        # beyond t = Phi(eps_min) the last log-log segment is extrapolated,
        # which overestimates the true 2 pi exp(-pi t) by up to 1e80
        "rearrange hausdorff",
    },
    "numeric": {
        # the numeric search cannot follow Phi = 2 exp(eps^(-1/2s)) and
        # the curve classifies as indeterminate instead of mild
        "numeric multiplier_c",
        "numeric multiplier_c s=0.5",
    },
}
KNOWN_FAILURES = {
    # the trimmed closed form takes log(0) and the CLI exits 2 with
    # "math domain error"
    "catalogue": {"analyze hausdorff --trim 1"},
}


@dataclass(frozen=True)
class Request:
    """One call into the program; ``args`` is plain data so lists compare."""

    name: str
    kind: str
    args: tuple


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def _catalogue():
    reqs = [Request(f"analyze {m}", "cli_analyze", ("analyze", "--model", m))
            for m in MODELS]
    for model, key, value in PINNED:
        reqs.append(Request(f"analyze {model} {key}={_fmt(value)}", "cli_analyze",
                            ("analyze", "--model", model, "--param",
                             f"{key}={_fmt(value)}")))
    reqs.append(Request("analyze hausdorff --trim 1", "cli_analyze",
                        ("analyze", "--model", "hausdorff", "--trim", "1")))
    # the README's rearrange and reweight commands
    reqs.append(Request("rearrange hausdorff", "cli_rearrange",
                        ("rearrange", "--model", "hausdorff", "--mode",
                         "decreasing", "--t-min", "1", "--t-max", "100",
                         "--points", "20", "--emit", "csv")))
    reqs.append(Request("reweight hausdorff exp-pi", "cli_reweight",
                        ("reweight", "--model", "hausdorff", "--density",
                         "exp-pi", "--emit", "csv")))
    reqs.append(Request("reweight backward_heat exp-t-k2", "cli_reweight",
                        ("reweight", "--model", "backward_heat", "--density",
                         "exp-t-k2", "--emit", "json")))
    for kernel, length in (("gaussian", "12"), ("laplace", "64")):
        for emit in ("json", "csv"):
            reqs.append(Request(f"fft-multiplier {kernel} {emit}", "cli_fft",
                                ("fft-multiplier", "--kernel", kernel, "--L",
                                 length, "--N", str(FFT_N), "--emit", emit)))
    return reqs


def _numeric():
    reqs = [Request(f"numeric {m}", "analyze", (m, (), None))
            for m in MULTIPLIER_MODELS]
    reqs += [Request(f"numeric {m} {k}={_fmt(v)}", "analyze", (m, ((k, v),), None))
             for m, k, v in PINNED if m in MULTIPLIER_MODELS]
    reqs += [Request(f"trim {m} {k}={_fmt(v)}", "analyze", (m, ((k, v),), 1.0))
             for m, k, v in TRIMMED]
    reqs += [Request(f"round trip {m}", "round_trip", (m,)) for m in ROUND_TRIPS]
    reqs += [Request("reweight hausdorff exp-pi", "reweight", ("hausdorff",)),
             Request("reweight backward_heat exp-t-k2", "reweight",
                     ("backward_heat",))]
    return reqs


def _sections():
    return [Request(f"discretize {op} alpha={_fmt(alpha)} n={n}", "cli_discretize",
                    ("discretize", "--operator", op, "--alpha", _fmt(alpha),
                     "--n", str(n), "--emit", "json"))
            for op, alpha in SECTION_OPERATORS for n in SECTION_SIZES]


def _check():
    return [Request(f"criterion {k}", "criterion", (k,)) for k in CRITERIA]


_BUILDERS = {"catalogue": _catalogue, "numeric": _numeric,
             "sections": _sections, "check": _check}


def requests(workload, seed, pass_index=0):
    """The request list of one pass, in the order the seed and pass give."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    reqs = _BUILDERS[workload]()
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# execution

@dataclass
class Outcome:
    """What a request returned: a library object, or a CLI exit and output."""

    value: object = None
    exit_code: int | None = None
    stderr: str = ""
    out_path: str | None = None


def _model(ill, model_id, params=()):
    return ill.gallery.make(model_id, **dict(params))


def _reweight_inputs(ill, model_id):
    """The README densities and grid of ``illposed reweight``."""
    model = _model(ill, model_id)
    if model_id == "hausdorff":
        kappa = lambda w: 0.5 * math.exp(math.pi * w)
    else:
        t_bar = model.parameters["t_bar"]
        kappa = lambda k: math.exp(t_bar * float(k) ** 2)
    grid = ill.core.geometric_grid(model.eps_max, model.eps_max * 1e-8, 60)
    return model, kappa, grid


def execute(ill, req, out_path):
    """Send one request through the public API; exceptions propagate."""
    if req.kind.startswith("cli_"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = ill.cli.main(list(req.args) + ["--out", out_path])
        return Outcome(exit_code=code, stderr=err.getvalue(), out_path=out_path)
    if req.kind == "analyze":
        model_id, params, trim = req.args
        grid = None
        if trim is not None:
            # criterion 9: the trimmed curve needs a deeper grid
            grid = ill.core.geometric_grid(0.99, 1e-12, 60)
        return Outcome(ill.gallery.analyze(_model(ill, model_id, params), grid=grid,
                                           method="numeric", trim=trim,
                                           run_essinf=False))
    if req.kind == "round_trip":
        model = _model(ill, req.args[0])
        grid = ill.core.geometric_grid(model.eps_max, 1e-8, 60)
        phi = ill.distribution.phi_curve(model.multiplier, model.measure, grid)
        star, halfline = ill.distribution.rearrangement_multiplier(phi)
        return Outcome(ill.distribution.phi_curve(star, halfline, grid,
                                                  method="numeric"))
    if req.kind == "reweight":
        model, kappa, grid = _reweight_inputs(ill, req.args[0])
        return Outcome(ill.distribution.reweight(model.multiplier, model.measure,
                                                 kappa, grid))
    if req.kind == "criterion":
        return Outcome(ill.acceptance.run_all(only={req.args[0]}))
    raise ValueError(f"unknown request kind {req.kind!r}")


# ---------------------------------------------------------------------------
# truth

def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def _tag_mismatch(expected, classification, degree, essinf_verdict=None):
    """Difference from a model's expected tag, or None when it matches."""
    if classification != expected.classification:
        return f"classified {classification}, truth {expected.classification}"
    if expected.degree is not None:
        if degree is None or abs(degree - expected.degree) > DEGREE_TOL:
            return f"degree {degree}, truth {expected.degree} +/- {DEGREE_TOL}"
    if essinf_verdict is not None and expected.essinf_verdict is not None \
            and essinf_verdict != expected.essinf_verdict:
        return f"essinf {essinf_verdict}, truth {expected.essinf_verdict}"
    return None


def _curve_mismatch(eps_grid, log_phi, truth, tol):
    """Compare exp(log_phi) with the closed-form Phi(eps) at every sample."""
    worst = 0.0
    for eps, lp in zip(eps_grid, log_phi):
        lp = float(lp)
        want = truth(float(eps))
        got = math.exp(lp) if math.isfinite(lp) else (0.0 if lp < 0 else math.inf)
        dev = _rel(got, want) if want > 0 else abs(got)
        worst = max(worst, dev)
    return None if worst <= tol else f"max rel dev {worst:.3e} > {tol:g}"


def _hausdorff_phi(eps):
    # closed form declared by the model: boundary log(2 pi / eps) / pi
    return max(0.0, math.log(2.0 * math.pi / eps) / math.pi)


_CLOSED_PHI = {
    "hausdorff": _hausdorff_phi,
    "multiplier_a1": lambda eps: 2.0 * math.sqrt(1.0 / eps - 1.0),
    "multiplier_b": lambda eps: 2.0 * math.log(1.0 / eps),
}


def _hausdorff_reweighted(eps):
    # int_0^x 0.5 exp(pi w) dw with x = log(2 pi / eps) / pi
    return 1.0 / eps - 1.0 / (2.0 * math.pi)


def _heat_reweighted(eps, t_bar=1.0):
    # sum of exp(t k^2) over the integers k with exp(-t k^2) > eps
    total = 0.0
    k = 0
    while math.exp(-t_bar * k * k) > eps:
        total += math.exp(t_bar * k * k) * (1 if k == 0 else 2)
        k += 1
    return total


REWEIGHT_TRUTH = {"hausdorff": (_hausdorff_reweighted, 1e-6),
                  "backward_heat": (_heat_reweighted, 1e-9)}


def _fft_truth(kernel):
    if kernel == "gaussian":
        # |F exp(-x^2)|^2 = pi exp(-w^2 / 2); criterion 6a's tolerance
        return (lambda w: math.pi * math.exp(-0.5 * w * w)), 1e-6
    # |F exp(-|x|)|^2 = 4 / (1 + w^2)^2; the kink at 0 leaves an O(dx^2)
    # quadrature error, 2.6e-4 at |w| = 5 for L = 64, N = 16384
    return (lambda w: 4.0 / (1.0 + w * w) ** 2), 1e-3


def _read(path):
    with open(path) as fh:
        return fh.read()


def _cli_mismatch(ill, req, text):
    cmd = req.args[0]
    if cmd == "analyze":
        args = req.args
        model_id = args[args.index("--model") + 1]
        params = {}
        if "--param" in args:
            key, raw = args[args.index("--param") + 1].split("=")
            params[key] = float(raw) if "." in raw else int(raw)
        payload = json.loads(text)
        return _tag_mismatch(_model(ill, model_id, tuple(params.items())).expected,
                             payload["classification"], payload["degree"],
                             payload["diagnostics"].get("essinf_verdict"))
    if cmd == "rearrange":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        worst = 0.0
        for t, value in rows:
            # lambda*(t) for lambda = pi / cosh(pi w) under its closed form
            want = 2.0 * math.pi * math.exp(-math.pi * float(t))
            worst = max(worst, _rel(float(value), want))
        return None if worst <= 1e-3 else f"max rel dev {worst:.3e} > 1e-3"
    if cmd == "reweight":
        model_id = req.args[req.args.index("--model") + 1]
        truth, tol = REWEIGHT_TRUTH[model_id]
        if "json" in req.args:
            payload = json.loads(text)
            eps, lp = payload["eps_grid"], payload["log_phi"]
        else:
            rows = list(csv.reader(io.StringIO(text)))[1:]
            eps, lp = [r[0] for r in rows], [r[1] for r in rows]
        # non-finite values arrive as the strings "inf" and "-inf"
        return _curve_mismatch(eps, lp, truth, tol)
    if cmd == "fft-multiplier":
        kernel = req.args[req.args.index("--kernel") + 1]
        truth, tol = _fft_truth(kernel)
        if "json" in req.args:
            payload = json.loads(text)
            pairs = zip(payload["omega"], payload["lambda"])
        else:
            pairs = [(float(w), float(v))
                     for w, v in list(csv.reader(io.StringIO(text)))[1:]]
        worst = max(_rel(v, truth(w)) for w, v in pairs if abs(w) <= 5.0)
        return None if worst <= tol else f"max rel dev {worst:.3e} > {tol:g}"
    if cmd == "discretize":
        payload = json.loads(text)
        op, alpha = payload["operator"], payload["alpha"]
        cls, degree = payload["classification"], payload["degree"]
        if op == "hilbert":
            ok = cls == "severe" and \
                "discretization_artifact" in payload["diagnostics"]
            return None if ok else f"{cls}, artifact note missing or wrong class"
        # criteria 4b and 4c: 1.0 +/- 0.05 at alpha = 1, 0.5 +/- 0.1 at 0.5
        tol = 0.05 if alpha == 1.0 else 0.1
        if cls != "moderate" or degree is None or abs(degree - alpha) > tol:
            return f"{cls} degree {degree}, truth moderate {alpha} +/- {tol}"
        return None
    raise ValueError(f"no truth for command {cmd!r}")


def _criterion_mismatch(results):
    wrong = []
    for res in results:
        should_pass = not res.criterion.startswith(EXPECTED_FAILING_CHECKS)
        if res.passed != should_pass:
            wrong.append(f"{res.criterion.split()[0]} "
                         f"{'PASS' if res.passed else 'FAIL'}")
    return "; ".join(wrong) or None


def verify(ill, req, outcome):
    """(failed, mismatch, bytes_out) for one request's outcome.

    ``failed`` means the call raised or the CLI exited nonzero; ``mismatch``
    is a description of how the answer differs from the truth, or None.
    """
    if outcome.exit_code is not None:
        if outcome.exit_code != 0:
            return True, None, 0
        text = _read(outcome.out_path)
        return False, _cli_mismatch(ill, req, text), len(text.encode())
    value = outcome.value
    if req.kind == "analyze":
        model_id, params, _ = req.args
        return False, _tag_mismatch(_model(ill, model_id, params).expected,
                                    value.classification, value.degree), 0
    if req.kind == "round_trip":
        # criterion 10's tolerance against the closed form it started from
        return False, _curve_mismatch(value.eps_grid, value.log_phi,
                                      _CLOSED_PHI[req.args[0]], 1e-6), 0
    if req.kind == "reweight":
        truth, tol = REWEIGHT_TRUTH[req.args[0]]
        return False, _curve_mismatch(value.eps_grid, value.log_phi, truth, tol), 0
    if req.kind == "criterion":
        return False, _criterion_mismatch(value), 0
    raise ValueError(f"unknown request kind {req.kind!r}")


def check_pass(workload, outcomes):
    """Pass-level truth: the whole acceptance suite gives 35 PASS and 3 FAIL."""
    if workload != "check":
        return None
    results = [r for o in outcomes if o is not None and o.value
               for r in o.value]
    passed = sum(r.passed for r in results)
    failing = sorted(r.criterion.split()[0] for r in results if not r.passed)
    if passed != EXPECTED_PASSING_CHECKS or \
            tuple(failing) != EXPECTED_FAILING_CHECKS:
        return f"{passed} PASS, FAIL set {failing}"
    return None


def out_path(tmp_dir, index, req):
    ext = "csv" if "csv" in req.args else "json"
    return os.path.join(tmp_dir, f"out-{index}.{ext}")
