"""Benchmark of illposed: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 55 --trace 0

Each pass is one fresh worker process with a single caller that sends the
next request only after the previous one returns.  Passes run one after
another until the next would end past ``--seconds`` (at least three run).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object; earlier lines start with ``#``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0
# (name, unit) of the end-to-end metrics in the result line
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# printed on "#" lines only: request latencies are steady on none of the
# workloads in BENCHMARK.json (see README.md)
LATENCY = (("p50_ms", "ms"), ("tail_ms", "ms"))


def percentile(sorted_values, p):
    """Linear-interpolated percentile of an ascending list."""
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def tail_percentile(workload):
    """The percentile reported as tail_ms (see TAIL_TYPES_BEYOND)."""
    per_pass = len(workloads.requests(workload, 0))
    return 100.0 * (1.0 - workloads.TAIL_TYPES_BEYOND[workload] / per_pass)


def min_passes(workload):
    """Enough passes for ten latencies beyond the tail percentile."""
    return max(MIN_PASSES, math.ceil(10 / workloads.TAIL_TYPES_BEYOND[workload]))


def run_pass(root, out_dir, workload, seed, index, traced):
    """One worker process; its figures plus the set-up time seen from here."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(index), "1" if traced else "0", out_dir]
    err_path = os.path.join(out_dir, f"worker-{workload}.err")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                                stderr=err, bufsize=0)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)
            first = proc.stdout.readline() if readable else b""
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"{workload} pass {index} exited {proc.returncode}:\n{tail}")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    result["setup_s"] = setup
    result["elapsed_s"] = time.perf_counter() - start
    result["traced"] = traced
    return result


def run_passes(root, out_dir, workload, seed, seconds, trace):
    """Passes until the next one would end past ``seconds``."""
    passes = []
    least = min_passes(workload)
    start = time.perf_counter()
    while len(passes) < least or (
            time.perf_counter() - start
            + statistics.median(p["elapsed_s"] for p in passes) <= seconds):
        # traced runs alternate, starting traced, to measure the overhead
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(root, out_dir, workload, seed, len(passes), traced))
    return passes


def verdict(workload, passes):
    """Counts of the run and the differences from the truth."""
    known_mis = workloads.KNOWN_MISMATCHES.get(workload, set())
    known_fail = workloads.KNOWN_FAILURES.get(workload, set())
    attempted = sum(len(p["requests"]) for p in passes)
    failed, mismatched, unexpected = {}, {}, []
    for p in passes:
        for name, detail in p["failed"].items():
            failed.setdefault(name, [0, detail])[0] += 1
            if name not in known_fail:
                unexpected.append(f"failure {name}: {detail}")
        for name, detail in p["mismatched"].items():
            mismatched.setdefault(name, [0, detail])[0] += 1
            if name not in known_mis:
                unexpected.append(f"mismatch {name}: {detail}")
        if p["pass_mismatch"]:
            unexpected.append(f"pass mismatch: {p['pass_mismatch']}")
    return attempted, failed, mismatched, unexpected


def end_to_end(workload, passes):
    lat = sorted(v for p in passes for v in p["latencies_ms"])
    tail_p = tail_percentile(workload)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "p50_ms": statistics.median(statistics.median(p["latencies_ms"])
                                    for p in passes),
        "tail_ms": percentile(lat, tail_p),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(passes)} process starts",
        "wall_s": f"median of {len(passes)} passes",
        "p50_ms": f"median over {len(passes)} passes of each pass's median latency",
        "tail_ms": f"p{tail_p:.4g} of {len(lat)} request latencies, "
                   f"{len(lat) * (100 - tail_p) / 100:.4g} beyond",
        "cpu_s": "median per pass, user + system, BLAS threads included",
        "peak_rss_mb": "median over passes of the worker's peak RSS",
    }
    return values, notes


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name, _, _ in spans.PER_LAYER if name != "trace.overhead_s"}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    note = (f"wall_s traced {traced_wall:.4f} s over {len(traced)} passes, "
            f"untraced {plain_wall:.4f} s over {len(plain)} passes")
    return values, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "illposed", "__init__.py")):
        print(f"error: no illposed sources under {root}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    try:
        passes = run_passes(root, out_dir, args.workload, args.seed,
                            args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, mismatched, unexpected = verdict(args.workload, passes)
    n_failed = sum(c for c, _ in failed.values())
    n_mismatched = sum(c for c, _ in mismatched.values())
    print("# env " + json.dumps(passes[0]["env"], sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0]['requests'])} requests")
    print(f"# fail_frac {n_failed / attempted:.6g} share "
          f"({n_failed} of {attempted} requests raised or exited nonzero)")
    print(f"# mismatch_frac {n_mismatched / attempted:.6g} share "
          f"({n_mismatched} of {attempted} answers differ from the truth)")
    for name, (count, detail) in sorted(failed.items()):
        print(f"#   failed {count}x {name}: {detail}")
    for name, (count, detail) in sorted(mismatched.items()):
        print(f"#   mismatch {count}x {name}: {detail}")
    for line in unexpected:
        print(f"# UNEXPECTED {line}")

    if args.trace:
        values, note = per_layer(passes)
        print(f"# trace overhead: {note}")
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([p["spans"] for p in passes if p["traced"]], fh)
        print(f"# spans written to {os.path.relpath(spans_path, root)}")
        for name, unit in units.items():
            print(f"# {name} {values[name]:.6g} {unit}")
    else:
        values, notes = end_to_end(args.workload, passes)
        units = dict(END_TO_END)
        for name, unit in END_TO_END + LATENCY:
            print(f"# {name} {values[name]:.6g} {unit} ({notes[name]})")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
