"""End-to-end and per-layer benchmark of gsg.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; gsg is imported from ``src/`` of that
checkout and nowhere else.  One process, one caller, a closed loop: each
operation starts when the previous one has returned.  The seed fixes a
pool of operation groups (see workloads.py); the run goes through the pool
in order, group by group, and stops at the first group boundary after
``--seconds``.  Every output is checked; only the gsg calls are timed.

--trace 0 prints the end-to-end metrics:

  setup_s          process start (measured in a fresh interpreter that
                   imports gsg) plus seeded input generation and one warm-up
                   operation; median of SETUP_REPEATS set-ups
  checks_per_s     operations completed / timed wall time
  latency_p50_ms   median operation latency
  latency_tail_ms  latency of the highest percentile with at least 10
                   samples beyond it (percentile and count in the detail line)
  peak_rss_mb      peak resident memory of the process

The times are taken at a nominal host speed.  On a shared virtual machine
the speed of the same code swings by up to 2x within minutes, because of
other tenants; a fixed interpreter-bound reference kernel slows down with
it.  The kernel is timed before and after every operation (and set-up), and
each time is scaled by REF_NOMINAL_S over the mean of the two readings.
Raw wall-clock values and the host speed factor are in the detail line.

--trace 1 replays the first groups of the pool untraced and then traced,
repeatedly until ``--seconds``, and prints the per-layer metrics of
tracing.Tracer with the tracing overhead (traced minus untraced time).

The line before the result is a JSON detail record: environment (Python,
numpy, nproc), sample counts, the tail percentile, fail_share,
budget_stop_share (equality) and per-kind medians.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.0007     # reference kernel time on a quiet host of this kind
TAIL_BEYOND = 10
# groups replayed per traced round: enough work for stable self times
TRACE_GROUPS = {"tables": 1, "embedding": 2, "equality": 8, "cli": 2}


def _import_gsg():
    if not (SRC / "gsg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gsg sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import gsg
    import gsg.cli  # noqa: F401  (cli is not imported by the package)
    if Path(gsg.__file__).resolve().parent != (SRC / "gsg").resolve():
        sys.exit(f"perfbench: imported gsg from {gsg.__file__}, not from {SRC}")
    return gsg


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports gsg and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gsg, gsg.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def _reference_seconds() -> float:
    """Time of a fixed kernel that stresses the interpreter the way gsg's
    searches and parsers do: tuples built and stored in a dict."""
    start = time.perf_counter()
    seen = {}
    state = (0, 1, 2)
    for i in range(3000):
        state = (state[1], state[2], (state[0] * 31 + i) % 997)
        seen[state] = i
    return time.perf_counter() - start


def _at_nominal_speed(measure):
    """(seconds scaled to the nominal host speed, raw seconds) of measure()."""
    before = _reference_seconds()
    raw = measure()
    speed = 2 * REF_NOMINAL_S / (before + _reference_seconds())
    return raw * speed, raw


def _run_op(op, tally: Counter, failures: list, span=None) -> float:
    """Time one operation and check its output; returns the latency."""
    start = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as e:    # a raising operation counts as failed, the run goes on
        out, error = None, f"{op.kind} raised {type(e).__name__}: {e}"
    latency = time.perf_counter() - start
    if error is None:
        error = span(op.check)(out, tally) if span else op.check(out, tally)
    if error is not None:
        failures.append(error)
    return latency


def _groups(pool):
    while True:
        yield from pool


def _tail(latencies):
    """(value, percentile, samples beyond) for the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum for short runs."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _setup(generate, seed: int, workdir: str):
    """Generate the pool and run one warm-up operation, SETUP_REPEATS times;
    returns the pool, (nominal, raw) set-up seconds and generation seconds."""
    pool, gen_s = None, 0.0

    def build():
        nonlocal pool, gen_s
        start = time.perf_counter()
        pool = generate(np.random.default_rng(seed), workdir)
        gen_s = time.perf_counter() - start
        _run_op(pool[0][0], Counter(), [])
        return time.perf_counter() - start

    imports = [_at_nominal_speed(_import_seconds) for _ in range(SETUP_REPEATS)]
    builds = [_at_nominal_speed(build) for _ in range(SETUP_REPEATS)]
    setup = [statistics.median(x[i] for x in imports) + statistics.median(x[i] for x in builds)
             for i in (0, 1)]
    return pool, setup, gen_s


def _measure(pool, seconds: float):
    """Latencies at nominal speed, raw latencies, nominal latencies by kind,
    failures and the tally of the checks."""
    latencies, raw, kinds, failures, tally = [], [], defaultdict(list), [], Counter()
    start = time.perf_counter()
    ref = _reference_seconds()
    for group in _groups(pool):
        for op in group:
            lat = _run_op(op, tally, failures)
            after = _reference_seconds()
            latencies.append(lat * 2 * REF_NOMINAL_S / (ref + after))
            raw.append(lat)
            kinds[op.kind].append(latencies[-1])
            ref = after
        if time.perf_counter() - start >= seconds:
            break
    return latencies, raw, kinds, failures, tally


def _measure_traced(gsg, tracing, pool, groups: int, seconds: float):
    tracer = tracing.Tracer()
    harness = lambda check: tracer.span("harness", check, "harness.check")  # noqa: E731
    head = [op for group in pool[:groups] for op in group]
    plain_s = traced_s = 0.0
    failures, tally, ops, start = [], Counter(), 0, time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        plain_s += sum(_run_op(op, tally, failures) for op in head)
        tracer.install(gsg)
        try:
            traced_s += sum(_run_op(op, tally, failures, harness) for op in head)
        finally:
            tracer.uninstall()
        ops += len(head)
    return tracer, ops, 100.0 * (traced_s - plain_s) / plain_s, failures, tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    gsg = _import_gsg()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        pool, setup_s, gen_s = _setup(workloads.WORKLOADS[args.workload], args.seed, workdir)
        pool_ops = sum(len(g) for g in pool)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": {"python": platform.python_version(), "numpy": np.__version__,
                          "nproc": os.cpu_count(), "machine": platform.machine()},
                  "pool": {"groups": len(pool), "ops": pool_ops}}
        if args.trace:
            groups = TRACE_GROUPS[args.workload]
            tracer, ops, overhead, failures, tally = _measure_traced(
                gsg, tracing, pool, groups, args.seconds)
            attempted = 2 * ops
            metrics = tracer.layer_metrics(ops, gen_s / pool_ops, overhead)
            detail["traced_ops"] = ops
        else:
            latencies, raw, kinds, failures, tally = _measure(pool, args.seconds)
            attempted = len(latencies)
            tail, pct, beyond = _tail(latencies)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s[0], "unit": "s"},
                "checks_per_s": {"value": attempted / sum(latencies), "unit": "1/s"},
                "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
                "latency_tail_ms": {"value": 1000 * tail, "unit": "ms"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            detail["raw"] = {"setup_s": setup_s[1], "checks_per_s": attempted / sum(raw),
                             "latency_p50_ms": 1000 * statistics.median(raw),
                             "latency_tail_ms": 1000 * _tail(raw)[0],
                             "host_slowdown": sum(raw) / sum(latencies)}
            detail["samples"] = {"setup_s": SETUP_REPEATS, "checks_per_s": attempted,
                                 "latency_p50_ms": attempted, "latency_tail_ms": attempted,
                                 "peak_rss_mb": 1}
            detail["tail"] = {"percentile": round(pct, 2), "beyond": beyond}
            detail["per_kind_p50_ms"] = {k: round(1000 * statistics.median(v), 3)
                                         for k, v in kinds.items()}
        detail["fail_share"] = len(failures) / attempted
        if tally["queries"]:
            detail["budget_stop_share"] = tally["budget_stops"] / tally["queries"]
            detail["equal_share"] = tally["equal"] / tally["queries"]
        detail["failures"] = failures[:5]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures[:5]:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
