"""Span recording from outside the program, and the per-layer metrics built from it.

Tracing never edits ``src/``: ``Tracer.instrument`` temporarily replaces
public attributes of the illposed modules with wrappers that record a span
per call, and wraps each gallery model's multiplier callbacks (through
``dataclasses.replace`` on what ``gallery.make`` returns) to count calls.
Every replaced attribute is restored when the ``with`` block ends.

A span is ``[id, name, start, end, parent, request, fn_calls, attr]``.
Spans stay in memory; the caller writes them out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import Counter

ID, NAME, START, END, PARENT, REQUEST, FN_CALLS, ATTR = range(8)

# (module, attribute, span name) for every wrapped public function
SPANNED = (
    ("cli", "main", "cli.main"),
    ("gallery", "analyze", "gallery.analyze"),
    ("distribution", "phi_curve", "distribution.phi_curve"),
    ("distribution", "reweight", "distribution.reweight"),
    ("distribution", "essinf_estimate", "distribution.essinf"),
    ("distribution", "decreasing_rearrangement", "distribution.rearrange"),
    ("distribution", "increasing_rearrangement", "distribution.rearrange"),
    ("distribution", "rearrangement_multiplier", "distribution.rearrange"),
    ("counting", "counting_curve", "counting.curve"),
    ("counting", "interval_from_counting", "counting.interval"),
    ("counting", "interval_from_sigma", "counting.interval"),
    ("estimate", "ratio_samples", "estimate.ratio"),
    ("estimate", "regression_report", "estimate.regression"),
    ("estimate", "regression_estimate", "estimate.regression"),
    ("discretize", "hilbert_matrix", "discretize.build"),
    ("discretize", "riemann_liouville_matrix", "discretize.build"),
    ("discretize", "singular_values", "discretize.svd"),
    ("discretize", "pipeline_from_matrix", "discretize.pipeline"),
    ("discretize", "fft_multiplier", "discretize.fft"),
)
# public functions that are counted, not spanned: one call per eps sample
MEASURES = (("distribution", "superlevel_measure"),
            ("distribution", "log_superlevel_measure"))
CLOSED_HOOKS = ("superlevel", "log_superlevel", "boundary")
SHAPES = {"monotone_tail": "monotone_tail", "radial_monotone_tail": "radial",
          "piecewise_monotone": "piecewise", "discrete": "discrete",
          "generic_sampled": "sampled"}
SVD_SIZES = (512, 1024, 2048)
CRITERIA = tuple(str(k) for k in range(1, 11))

# per-layer metrics, (name, unit, better); every *_s metric is self time,
# except acceptance.criterion_<k>_s, which is the criterion's whole duration
PER_LAYER = (
    [("discretize.svd_s", "s", "lower")]
    + [(f"discretize.svd_s.n{n}", "s", "lower") for n in SVD_SIZES]
    + [("discretize.svd_calls", "count", "lower"),
       ("discretize.build_s", "s", "lower"),
       ("discretize.pipeline_self_s", "s", "lower"),
       ("discretize.dense_bytes", "bytes_computed", "lower"),
       ("discretize.fft_s", "s", "lower"),
       ("distribution.phi_curve_s", "s", "lower")]
    + [(f"distribution.phi_curve_s.{s}", "s", "lower")
       for s in dict.fromkeys(SHAPES.values())]
    + [("distribution.measure_calls", "count", "lower"),
       ("distribution.closed_hook_calls", "count", "higher"),
       ("distribution.closed_share", "share", "higher"),
       ("distribution.phi_curve.fn_calls", "count", "lower"),
       ("distribution.essinf_s", "s", "lower"),
       ("distribution.essinf.fn_calls", "count", "lower"),
       ("distribution.reweight_s", "s", "lower"),
       ("distribution.rearrange_s", "s", "lower"),
       ("distribution.divergent_samples", "count", "lower"),
       ("counting.curve_s", "s", "lower"),
       ("counting.interval_s", "s", "lower"),
       ("estimate.ratio_s", "s", "lower"),
       ("estimate.regression_s", "s", "lower"),
       ("gallery.analyze_self_s", "s", "lower"),
       ("cli.self_s", "s", "lower"),
       ("cli.bytes_out", "bytes", "lower")]
    + [(f"acceptance.criterion_{k}_s", "s", "lower") for k in CRITERIA]
    + [("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """In-memory spans and counters for one pass."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._request = -1

    def _open(self, name, attr):
        stack = self._stack
        rec = [len(self.spans), name, 0.0, 0.0, stack[-1][ID] if stack else -1,
               self._request, 0, attr]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id):
        """Root span of one request; spans opened inside it carry its id."""
        self._request = request_id
        rec = self._open("request", None)
        try:
            yield
        finally:
            self._close(rec)
            self._request = -1

    def spanned(self, name, fn, attr=None, after=None):
        """``fn`` recording one span per call; ``after`` sees each result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, attr(*args, **kwargs) if attr else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after:
                after(result)
            return result
        return wrapper

    def counted(self, key, fn):
        """``fn`` adding one to ``counters[key]`` per call."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def fn_counted(self, fn):
        """A multiplier callback charging each call to the innermost span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(x):
            if stack:
                stack[-1][FN_CALLS] += 1
            return fn(x)
        return wrapper

    def _counted_model(self, model):
        mult = model.multiplier
        if mult is None:
            return model
        hooks = {h: self.counted("distribution.closed_hook_calls", getattr(mult, h))
                 for h in CLOSED_HOOKS if getattr(mult, h) is not None}
        return dataclasses.replace(
            model, multiplier=dataclasses.replace(mult, fn=self.fn_counted(mult.fn),
                                                  **hooks))

    def _divergent(self, curve):
        self.counters["distribution.divergent_samples"] += int(
            sum(1 for v in curve.log_phi if v == float("inf")))

    def _dense(self, matrix):
        n = len(matrix)
        self.counters["discretize.dense_bytes"] += 8 * n * n

    def replacements(self, ill):
        """(owner, attribute, replacement) for everything ``instrument`` swaps."""
        special = {
            "distribution.phi_curve": dict(attr=lambda lam, *a, **k: lam.shape,
                                           after=self._divergent),
            "distribution.reweight": dict(after=self._divergent),
            "discretize.build": dict(after=self._dense),
            "discretize.svd": dict(attr=lambda m, *a, **k: len(m)),
        }
        out = []
        for module, attr, name in SPANNED:
            owner = getattr(ill, module)
            out.append((owner, attr, self.spanned(name, getattr(owner, attr),
                                                  **special.get(name, {}))))
        for module, attr in MEASURES:
            owner = getattr(ill, module)
            out.append((owner, attr, self.counted("distribution.measure_calls",
                                                  getattr(owner, attr))))
        make = ill.gallery.make
        out.append((ill.gallery, "make",
                    functools.wraps(make)(lambda *a, **k:
                                          self._counted_model(make(*a, **k)))))
        criteria = ill.acceptance.CRITERIA
        out.append((ill.acceptance, "CRITERIA",
                    {k: self.spanned(f"acceptance.criterion_{k}", fn)
                     for k, fn in criteria.items()}))
        return out

    @contextlib.contextmanager
    def instrument(self, ill):
        """Swap in the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, replacement in self.replacements(ill):
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def layer_metrics(spans, counters, bytes_out=0):
    """Per-layer values of one traced pass, keyed by PER_LAYER name."""
    selfs = self_times(spans)
    time_by = Counter()
    fn_by = Counter()
    count_by = Counter()
    for rec, own in zip(spans, selfs):
        name = rec[NAME]
        count_by[name] += 1
        fn_by[name] += rec[FN_CALLS]
        if name.startswith("acceptance."):
            time_by[name] += rec[END] - rec[START]
            continue
        time_by[name] += own
        if name == "discretize.svd" and rec[ATTR] in SVD_SIZES:
            time_by[f"discretize.svd.n{rec[ATTR]}"] += own
        elif name == "distribution.phi_curve":
            time_by[f"distribution.phi_curve.{SHAPES[rec[ATTR]]}"] += own
    measures = counters["distribution.measure_calls"]
    closed = counters["distribution.closed_hook_calls"]
    values = {
        "discretize.svd_s": time_by["discretize.svd"],
        "discretize.svd_calls": count_by["discretize.svd"],
        "discretize.build_s": time_by["discretize.build"],
        "discretize.pipeline_self_s": time_by["discretize.pipeline"],
        "discretize.dense_bytes": counters["discretize.dense_bytes"],
        "discretize.fft_s": time_by["discretize.fft"],
        "distribution.phi_curve_s": time_by["distribution.phi_curve"],
        "distribution.measure_calls": measures,
        "distribution.closed_hook_calls": closed,
        "distribution.closed_share": closed / measures if measures else 0.0,
        "distribution.phi_curve.fn_calls": fn_by["distribution.phi_curve"],
        "distribution.essinf_s": time_by["distribution.essinf"],
        "distribution.essinf.fn_calls": fn_by["distribution.essinf"],
        "distribution.reweight_s": time_by["distribution.reweight"],
        "distribution.rearrange_s": time_by["distribution.rearrange"],
        "distribution.divergent_samples": counters["distribution.divergent_samples"],
        "counting.curve_s": time_by["counting.curve"],
        "counting.interval_s": time_by["counting.interval"],
        "estimate.ratio_s": time_by["estimate.ratio"],
        "estimate.regression_s": time_by["estimate.regression"],
        "gallery.analyze_self_s": time_by["gallery.analyze"],
        "cli.self_s": time_by["cli.main"],
        "cli.bytes_out": bytes_out,
        "trace.spans": len(spans),
    }
    for n in SVD_SIZES:
        values[f"discretize.svd_s.n{n}"] = time_by[f"discretize.svd.n{n}"]
    for shape in dict.fromkeys(SHAPES.values()):
        values[f"distribution.phi_curve_s.{shape}"] = \
            time_by[f"distribution.phi_curve.{shape}"]
    for k in CRITERIA:
        values[f"acceptance.criterion_{k}_s"] = time_by[f"acceptance.criterion_{k}"]
    return values
