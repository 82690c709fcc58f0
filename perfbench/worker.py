"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Prints `ready` once grobasin is imported (the parent times set-up up to
that line), then runs the pass and prints one JSON line: the pass wall
time, peak RSS, the calibration loop's time before and after the pass,
one record per operation, oracle failures and, when traced, the span
statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports grobasin: part of set-up)
import tracer as tracing  # noqa: E402


def calibrate():
    """Seconds a fixed pure-Python loop takes (about 0.1 s).

    It runs no grobasin code, so its time shows how fast the machine is
    at the moment; timed next to each pass, it tells the machine's drift
    apart from a change in the package."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 20001):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        key = (i % 31, i % 29)
        table[key] = table.get(key, 0) + acc.numerator % 97
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("ready", flush=True)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracing.install(tracer)
    before = calibrate()
    start = time.perf_counter()
    ops = workload.run_pass(inputs, span)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = calibrate()
    if tracer:
        tracer.uninstall()

    failures = {op.op_id: op.error for op in ops if op.error}
    for op_id, reason in workload.check(inputs, ops).items():
        failures.setdefault(op_id, reason)
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "calibration_s": [before, after],
        "ops": [[op.op_id, op.seconds, op.digest, op.latency] for op in ops],
        "failures": failures,
    }
    if tracer:
        result["trace"] = {
            "spans": tracer.spans(),
            "counts": dict(tracer.counts),
            "max_coeff_bits": tracer.max_coeff_bits,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
