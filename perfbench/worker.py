"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS TRACE OUT_DIR, from
the root of a checkout.  The worker imports illposed from ``./src``, builds
the pass's request list, prints ``ready`` (the parent times set-up up to
that line), sends the requests one at a time, then checks every answer
against the truth and prints one JSON line with the pass's figures.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
import types

import spans
import workloads


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)  # every thread, BLAS's too
    return ru.ru_utime + ru.ru_stime


def load_illposed(root):
    """The illposed modules of the checkout at ``root``, never an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import illposed
    from illposed import (acceptance, cli, core, counting, discretize,
                          distribution, estimate, gallery)
    if os.path.dirname(os.path.dirname(os.path.abspath(illposed.__file__))) \
            != os.path.abspath(src):
        raise ImportError(f"illposed imported from {illposed.__file__}, not {src}")
    return types.SimpleNamespace(
        acceptance=acceptance, cli=cli, core=core, counting=counting,
        discretize=discretize, distribution=distribution, estimate=estimate,
        gallery=gallery)


def _read_text(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment():
    """Machine and library facts that the figures depend on."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    nproc = len(os.sched_getaffinity(0))
    model = next((line.split(":", 1)[1].strip()
                  for line in _read_text("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        base = os.path.join(cache_dir, index)
        level = _read_text(os.path.join(base, "level")).strip()
        kind = _read_text(os.path.join(base, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read_text(os.path.join(base, "size")).strip()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": threads or f"unset: library default, at most nproc = {nproc}",
        "cpu": model,
        "caches": caches,
        "dense_matrix_bytes_computed": {str(n): 8 * n * n
                                        for n in workloads.SECTION_SIZES},
    }


def run_pass(ill, workload, reqs, traced, tmp_dir):
    """Serve ``reqs`` in a closed loop; returns the pass's figures."""
    tracer = spans.Tracer() if traced else None
    outcomes, errors, latencies = [], [], []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    with tracer.instrument(ill) if tracer else contextlib.nullcontext():
        for i, req in enumerate(reqs):
            path = workloads.out_path(tmp_dir, i, req)
            start = time.perf_counter()
            try:
                with tracer.request(i) if tracer else contextlib.nullcontext():
                    outcome = workloads.execute(ill, req, path)
                error = None
            except Exception as exc:  # a failed request is data, not a crash
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            outcomes.append(outcome)
            errors.append(error)
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, mismatched, bytes_out = {}, {}, 0
    for req, outcome, error in zip(reqs, outcomes, errors):
        if error is not None:
            failed[req.name] = error
            continue
        did_fail, mismatch, nbytes = workloads.verify(ill, req, outcome)
        bytes_out += nbytes
        if did_fail:
            failed[req.name] = f"exit {outcome.exit_code}: {outcome.stderr.strip()}"
        elif mismatch is not None:
            mismatched[req.name] = mismatch
    result = {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
        "latencies_ms": [1e3 * v for v in latencies],
        "failed": failed, "mismatched": mismatched,
        "pass_mismatch": workloads.check_pass(workload, outcomes),
        "bytes_out": bytes_out,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counters,
                                               bytes_out)
        result["spans"] = tracer.spans
    return result


def main(argv):
    workload, seed, pass_index, trace, out_dir = argv[1:6]
    root = os.getcwd()
    ill = load_illposed(root)
    reqs = workloads.requests(workload, int(seed), int(pass_index))
    tmp_dir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    print("ready", flush=True)
    try:
        result = run_pass(ill, workload, reqs, trace == "1", tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    result["requests"] = [r.name for r in reqs]
    if pass_index == "0":
        result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
