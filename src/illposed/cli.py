"""Command-line front end emitting machine-readable curves and reports.

Numbers are serialized as decimal with 17 significant digits and non-finite
values as the quoted strings "inf", "-inf" and "nan", so identical flags
produce byte-identical output.  Exit codes: 0 success, 1 numerical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import acceptance, counting, discretize, distribution, gallery
from .core import (InsufficientDataError, Report, Thresholds,
                   UnsupportedMeasureError, geometric_grid)

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
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    return _fmt(obj)


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(args, payload, header, rows):
    """Write ``payload`` as JSON, or with ``--emit csv`` the header line and
    one line per row, every cell formatted by ``_fmt``."""
    if args.emit == "json":
        text = to_json(payload) + "\n"
    else:
        text = "\n".join([header] + [",".join(map(_fmt, row))
                                     for row in rows]) + "\n"
    _write(text, args.out)
    return 0


def _curve_rows(report):
    by_eps = dict(report.ratios)
    return [(float(eps), float(lp), float(by_eps.get(float(eps), math.nan)))
            for eps, lp in zip(report.phi.eps_grid, report.phi.log_phi)]


def _payload(report):
    """The JSON payload of a ``Report``: its header, then the same keys in
    the same order for every command."""
    iv, tag = report.interval, report.expected
    return {
        **report.header,
        "eps_grid": report.phi.eps_grid,
        "log_phi": report.phi.log_phi,
        "ratios": [[e, r] for e, r in report.ratios],
        "interval": {"A": float(iv.lower), "B": float(iv.upper)},
        "classification": report.classification,
        "degree": report.degree,
        "expected": None if tag is None else {
            "classification": tag.classification, "degree": tag.degree},
        "matches_expected": report.matches_expected,
        "finiteness": report.phi.finiteness,
        "diagnostics": report.diagnostics,
    }


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
    if args.config:
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
                try:
                    overrides[key] = float(raw)
                except ValueError:
                    raise ValueError(f"{key} needs a number") from None
    return Thresholds(**overrides)


def _grid_for(model, args, points=None, depth=2.0 ** -59):
    """The eps grid from the flags; eps_min defaults to depth * eps_max."""
    eps_max = args.eps_max if args.eps_max is not None else model.eps_max
    eps_min = (args.eps_min if args.eps_min is not None
               else gallery._default_eps_min(eps_max, depth))
    return geometric_grid(eps_max, eps_min, points or args.points)


def _at_least_one(flag, value):
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


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
    _at_least_one("--sigma-terms", args.sigma_terms)
    grid = _grid_for(model, args)
    report = gallery.analyze(model, grid=grid, thresholds=thresholds,
                             n_terms=args.sigma_terms, method=args.method,
                             trim=args.trim)
    return _emit(args, _payload(report), "eps,log_phi,ratio",
                 _curve_rows(report))


def _cmd_rearrange(args):
    model = gallery.make(args.model, **_parse_params(args.param))
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)
            and 0 < args.t_min <= args.t_max):
        raise ValueError(f"--t-min and --t-max must be finite with "
                         f"0 < --t-min <= --t-max, got --t-min "
                         f"{args.t_min!r}, --t-max {args.t_max!r}")
    _at_least_one("--points", args.points)
    _at_least_one("--sigma-terms", args.sigma_terms)
    # the curve is inverted by interpolation, so sample it densely
    # regardless of how many output points were requested
    grid = _grid_for(model, args, points=max(args.points, 400))
    phi = gallery.curve(model, grid, n_terms=args.sigma_terms)
    with np.errstate(over="ignore"):  # geomspace sets the endpoints exactly
        ts = np.geomspace(args.t_min, args.t_max, args.points)
    vals = distribution.decreasing_rearrangement(phi, ts)
    payload = {"model": model.id, "mode": args.mode, "t": ts,
               "lambda_star": vals}
    return _emit(args, payload, "t,lambda_star", zip(ts, vals))


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
    grid = _grid_for(model, args, depth=1e-8)
    curve = distribution.reweight(model.multiplier, model.measure, kappa, grid)
    report = Report({"model": model.id, "density": args.density}, curve,
                    *counting.estimate_curve(curve, thresholds))
    return _emit(args, _payload(report), "eps,log_phi,ratio",
                 _curve_rows(report))


def _cmd_discretize(args):
    thresholds = _thresholds(args)
    if args.operator == "hilbert":
        section = discretize.hilbert_section(args.n)
    else:
        section = discretize.riemann_liouville_section(args.alpha, args.n)
    report = discretize.pipeline_from_matrix(section, operator=args.operator,
                                             thresholds=thresholds)
    sigma = report.sigma.values
    report.header.update(
        n=args.n, alpha=args.alpha if args.operator == "j_alpha" else None,
        sigma=sigma)
    return _emit(args, _payload(report), "n,sigma", enumerate(sigma, 1))


def _cmd_fft_multiplier(args):
    if not (math.isfinite(args.a) and math.isfinite(args.b) and args.b > 0):
        raise ValueError(f"--a must be finite and --b finite and positive, "
                         f"got a = {args.a!r}, b = {args.b!r}")
    if args.kernel == "gaussian":
        fn = lambda x: np.exp(-x * x)
    else:
        a, b = args.a, args.b
        fn = lambda x: a * np.exp(-np.abs(x) / b)
    sampled = discretize.fft_multiplier(
        discretize.KernelSampler(fn=fn, L=args.L, N=args.N))
    omega, lam = sampled.omega, sampled.values
    payload = {"kernel": args.kernel, "L": args.L, "N": args.N,
               "omega": omega, "lambda": lam,
               "truncation_bound": sampled.truncation_bound,
               "aliasing_bound": sampled.aliasing_bound}
    return _emit(args, payload, "omega,lambda", zip(omega, lam))


def _cmd_check(args):
    only = set(args.only.split(",")) if args.only else None
    unknown = sorted(only - set(acceptance.CRITERIA)) if only else []
    if unknown:
        raise ValueError(f"unknown criteria {', '.join(unknown)}; choose from "
                         f"{', '.join(acceptance.CRITERIA)}")
    results = acceptance.run_all(only=only)
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------

def _add_common(parser, grid=True):
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--emit", choices=("csv", "json"), default="json")
    if grid:
        parser.add_argument("--eps-min", type=float, default=None)
        parser.add_argument("--eps-max", type=float, default=None)
        parser.add_argument("--points", type=int, default=60)


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing keeps no
    state in it, and ``--param``'s default is None, so no list is shared."""
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
    p.add_argument("--mode", choices=("decreasing",), default="decreasing")
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

    for name in ("analyze", "reweight", "discretize"):  # they read thresholds
        sub.choices[name].add_argument(
            "--config", default=None,
            help="key=value file overriding thresholds")

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
    except InsufficientDataError as exc:  # a ValueError, but numerical
        failure = exc
    # an OSError comes from a path the user named (--config or --out)
    except (ValueError, UnsupportedMeasureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures
        failure = exc
    print(f"numerical failure: {type(failure).__name__}: {failure}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
