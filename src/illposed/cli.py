"""Command-line front end emitting machine-readable curves and reports.

Numbers are serialized as decimal with 17 significant digits and non-finite
values as the quoted strings "inf", "-inf" and "nan", so identical flags
produce byte-identical output.  Exit codes: 0 success, 1 numerical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import acceptance, counting, discretize, distribution, gallery
from .core import (IllPosednessInterval, InsufficientDataError, Thresholds,
                   UnsupportedMeasureError, geometric_grid,
                   LEBESGUE_UNIT_INTERVAL)
from . import estimate

DENSITIES = ("exp-pi", "exp-t-k2")


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


def to_json(obj):
    """Minimal deterministic JSON with fixed float formatting."""
    if isinstance(obj, dict):
        items = ",".join(f"{to_json(str(k))}:{to_json(v)}"
                         for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    return _fmt(obj)


def _sanitize(obj):
    """Make diagnostics JSON-safe (tuples -> lists, numpy -> python)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _curve_csv(phi, ratios):
    by_eps = dict(ratios)
    lines = ["eps,log_phi,ratio"]
    for eps, lp in zip(phi.eps_grid, phi.log_phi):
        r = by_eps.get(float(eps), math.nan)
        lines.append(f"{_fmt(float(eps))},{_fmt(float(lp))},{_fmt(float(r))}")
    return "\n".join(lines) + "\n"


def _report_json(report):
    iv = report.interval
    payload = {
        "model": report.model,
        "params": _sanitize(report.params),
        "eps_grid": [float(v) for v in report.phi.eps_grid],
        "log_phi": [float(v) for v in report.phi.log_phi],
        "ratios": [[e, r] for e, r in report.ratios],
        "interval": {"A": float(iv.lower), "B": float(iv.upper)},
        "classification": report.classification,
        "degree": report.degree,
        "expected": {"classification": report.expected.classification,
                     "degree": report.expected.degree},
        "matches_expected": report.matches_expected,
        "finiteness": report.phi.finiteness,
        "diagnostics": _sanitize(report.diagnostics),
    }
    return to_json(payload) + "\n"


# ---------------------------------------------------------------------------
# shared helpers

def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param expects k=v, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = int(raw)
        except ValueError:
            value = float(raw)
        params[key] = value
    return params


def _thresholds(args):
    overrides = {}
    if getattr(args, "config", None):
        allowed = {"tau_mild", "tau_severe", "tau_collapse",
                   "window_fraction", "drift_tol", "residual_tol"}
        with open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in allowed:
                    raise ValueError(f"unknown config key {key!r}")
                overrides[key] = float(raw.strip())
    return Thresholds(**overrides)


def _grid_for(model, args):
    eps_max = args.eps_max if args.eps_max is not None else model.eps_max
    eps_min = args.eps_min if args.eps_min is not None else eps_max * 2.0 ** -59
    return geometric_grid(eps_max, eps_min, args.points)


def _default_curve(model, grid, thresholds, n_terms):
    """A distribution curve for any model kind (for rearrange/reweight)."""
    report = gallery.analyze(model, grid=grid, thresholds=thresholds,
                             n_terms=n_terms, run_essinf=False)
    return report.phi


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gallery(args):
    if args.action != "list":
        raise ValueError(f"unknown gallery action {args.action!r}")
    rows = gallery.available_models()
    widths = [max(len(r[i]) for r in rows + [("model", "parameters",
                                              "expected", "notes")])
              for i in range(4)]
    header = ("model".ljust(widths[0]), "parameters".ljust(widths[1]),
              "expected".ljust(widths[2]), "notes")
    print("  ".join(header).rstrip())
    for row in rows:
        print("  ".join((row[0].ljust(widths[0]), row[1].ljust(widths[1]),
                         row[2].ljust(widths[2]), row[3])).rstrip())
    return 0


def _cmd_analyze(args):
    thresholds = _thresholds(args)
    model = gallery.make(args.model, **_parse_params(args.param))
    grid = _grid_for(model, args)
    report = gallery.analyze(model, grid=grid, thresholds=thresholds,
                             n_terms=args.sigma_terms, method=args.method,
                             trim=args.trim)
    if args.emit == "json":
        _write(_report_json(report), args.out)
    else:
        _write(_curve_csv(report.phi, report.ratios), args.out)
    return 0


def _cmd_rearrange(args):
    thresholds = _thresholds(args)
    model = gallery.make(args.model, **_parse_params(args.param))
    if args.mode == "increasing":
        if model.measure is None or model.measure.kind != LEBESGUE_UNIT_INTERVAL:
            raise UnsupportedMeasureError(
                f"model {model.id!r} does not live on the unit interval; "
                "the increasing rearrangement is only defined there")
        ts = np.linspace(0.0, 1.0, args.points)
        vals = [distribution.increasing_rearrangement(model.multiplier,
                                                      model.measure, float(t))
                for t in ts]
    else:
        # the curve is inverted by interpolation, so sample it densely
        # regardless of how many output points were requested
        eps_max = args.eps_max if args.eps_max is not None else model.eps_max
        eps_min = (args.eps_min if args.eps_min is not None
                   else eps_max * 2.0 ** -59)
        grid = geometric_grid(eps_max, eps_min, max(args.points, 400))
        phi = _default_curve(model, grid, thresholds, args.sigma_terms)
        ts = np.geomspace(args.t_min, args.t_max, args.points)
        vals = [distribution.decreasing_rearrangement(phi, float(t))
                for t in ts]
    if args.emit == "json":
        payload = {"model": model.id, "mode": args.mode,
                   "t": [float(t) for t in ts],
                   "lambda_star": [float(v) for v in vals]}
        _write(to_json(payload) + "\n", args.out)
    else:
        lines = ["t,lambda_star"]
        lines += [f"{_fmt(float(t))},{_fmt(float(v))}"
                  for t, v in zip(ts, vals)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _named_density(name, model):
    if name == "exp-pi":
        if model.id != "hausdorff":
            raise ValueError("density exp-pi belongs to the hausdorff model")
        return lambda w: 0.5 * math.exp(math.pi * w)
    if name == "exp-t-k2":
        if model.id != "backward_heat":
            raise ValueError("density exp-t-k2 belongs to the backward_heat model")
        t_bar = model.parameters["t_bar"]
        return lambda k: math.exp(t_bar * float(k) ** 2)
    raise ValueError(f"unknown density {name!r}; choose from {DENSITIES}")


def _cmd_reweight(args):
    thresholds = _thresholds(args)
    model = gallery.make(args.model, **_parse_params(args.param))
    if model.multiplier is None:
        raise ValueError("reweighting needs a multiplier model")
    kappa = _named_density(args.density, model)
    eps_max = args.eps_max if args.eps_max is not None else model.eps_max
    eps_min = args.eps_min if args.eps_min is not None else eps_max * 1e-8
    grid = geometric_grid(eps_max, eps_min, args.points)
    curve = distribution.reweight(model.multiplier, model.measure, kappa, grid)
    ratios = estimate.ratio_samples(curve)
    if args.emit == "json":
        try:
            iv = counting.interval_from_counting(curve, thresholds)
        except InsufficientDataError:
            iv = IllPosednessInterval(0.0, math.inf, "indeterminate")
        payload = {"model": model.id, "density": args.density,
                   "eps_grid": [float(v) for v in curve.eps_grid],
                   "log_phi": [float(v) for v in curve.log_phi],
                   "ratios": [[e, r] for e, r in ratios],
                   "interval": {"A": float(iv.lower), "B": float(iv.upper)},
                   "classification": iv.classification,
                   "finiteness": curve.finiteness}
        _write(to_json(payload) + "\n", args.out)
    else:
        _write(_curve_csv(curve, ratios), args.out)
    return 0


def _cmd_discretize(args):
    thresholds = _thresholds(args)
    if args.operator == "hilbert":
        section = discretize.hilbert_section(args.n)
    else:
        section = discretize.riemann_liouville_section(args.alpha, args.n)
    report = discretize.pipeline_from_matrix(section, operator=args.operator,
                                             thresholds=thresholds)
    sigma = [float(v) for v in report.sigma.values]
    if args.emit == "json":
        payload = {"operator": args.operator, "n": args.n,
                   "alpha": args.alpha if args.operator == "j_alpha" else None,
                   "sigma": sigma,
                   "interval": {"A": float(report.interval.lower),
                                "B": float(report.interval.upper)},
                   "classification": report.classification,
                   "degree": report.degree,
                   "diagnostics": _sanitize(report.diagnostics)}
        _write(to_json(payload) + "\n", args.out)
    else:
        lines = ["n,sigma"]
        lines += [f"{i + 1},{_fmt(v)}" for i, v in enumerate(sigma)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_fft_multiplier(args):
    if args.kernel == "gaussian":
        fn = lambda x: math.exp(-x * x)
        decay = fn
    else:
        a, b = args.a, args.b
        fn = lambda x: a * math.exp(-abs(x) / b)
        decay = fn
    sampled = discretize.fft_multiplier(
        discretize.KernelSampler(fn=fn, decay=decay, L=args.L, N=args.N))
    if args.emit == "json":
        payload = {"kernel": args.kernel,
                   "L": args.L, "N": args.N,
                   "omega": [float(v) for v in sampled.omega],
                   "lambda": [float(v) for v in sampled.values],
                   "truncation_bound": sampled.truncation_bound,
                   "aliasing_bound": sampled.aliasing_bound}
        _write(to_json(payload) + "\n", args.out)
    else:
        lines = ["omega,lambda"]
        lines += [f"{_fmt(float(w))},{_fmt(float(v))}"
                  for w, v in zip(sampled.omega, sampled.values)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args):
    only = set(args.only.split(",")) if args.only else None
    results = acceptance.run_all(only=only)
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------

def _add_common(parser, grid=True):
    parser.add_argument("--config", default=None,
                        help="key=value file overriding thresholds")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--emit", choices=("csv", "json"), default="json")
    if grid:
        parser.add_argument("--eps-min", type=float, default=None)
        parser.add_argument("--eps-max", type=float, default=None)
        parser.add_argument("--points", type=int, default=60)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="degree-of-ill-posedness diagnostics from spectral data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gallery", help="inspect the model gallery")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("analyze", help="distribution curve and classification")
    p.add_argument("--model", required=True, choices=gallery.MODEL_IDS)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--sigma-terms", type=int, default=4096)
    p.add_argument("--method", choices=("auto", "closed", "numeric"),
                   default="auto")
    p.add_argument("--trim", type=float, default=None,
                   help="exclude a ball of this radius around the origin")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("rearrange", help="rearrangement samples (t, lambda*(t))")
    p.add_argument("--model", required=True, choices=gallery.MODEL_IDS)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--mode", choices=("decreasing", "increasing"),
                   default="decreasing")
    p.add_argument("--sigma-terms", type=int, default=4096)
    p.add_argument("--t-min", type=float, default=1e-2)
    p.add_argument("--t-max", type=float, default=1e3)
    _add_common(p)
    p.set_defaults(fn=_cmd_rearrange)

    p = sub.add_parser("reweight", help="distribution curve under kappa * mu")
    p.add_argument("--model", required=True, choices=gallery.MODEL_IDS)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--density", required=True, choices=DENSITIES)
    _add_common(p)
    p.set_defaults(fn=_cmd_reweight)

    p = sub.add_parser("discretize", help="finite sections and their spectra")
    p.add_argument("--operator", required=True, choices=("hilbert", "j_alpha"))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, grid=False)
    p.set_defaults(fn=_cmd_discretize)

    p = sub.add_parser("fft-multiplier", help="sampled |Fh|^2 from a kernel")
    p.add_argument("--kernel", required=True, choices=("gaussian", "laplace"))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p, grid=False)
    p.set_defaults(fn=_cmd_fft_multiplier)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers")
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, UnsupportedMeasureError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
