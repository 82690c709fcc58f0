"""grobasin benchmark: one workload, fresh interpreter per pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/grobasin`).  Each
pass is a new `python3 perfbench/worker.py` process, one at a time, so
the lru_caches in grobasin.orders start cold in every pass as they do
for every CLI call.  Passes repeat the same inputs until --seconds is
used up, with at least three untraced passes (--trace 0) or one
untraced and one traced pass (--trace 1).

Every result is checked: oracle failures, exceptions, digests that
differ from perfbench/reference.json or between passes all count as
failed operations.  The output is a human-readable detail line per pass,
one JSON detail line (environment, per-suite times, every span), and as
the last line the result object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer  # noqa: E402

WORKLOADS = ("verify-defaults", "points-large", "orders-exhaustive")
MIN_PASSES = 3
# set-ups timed per run, counting those of the passes; workers beyond the
# passes are stopped once they are ready
MIN_SETUPS = 11
# a run must end well inside the 180 s a benchmark run may take
HARD_LIMIT_S = 170.0
# suites reported on their own; the rest take under 0.7 s each
VERIFY_OWN = ("prop1", "prop2", "punc", "calibration", "divisibility")

# per-layer metric prefixes; each gets <prefix>.calls and <prefix>.self_s
LAYERS = (
    "groebner.rgb",
    "groebner.normal_form",
    "groebner.intersect",
    "groebner.vanishing",
    "groebner.torus_limit.weight",
    "groebner.torus_limit.punctual",
    "poly.arith.mul",
    "poly.arith.add",
    "poly.arith.sub",
    "poly.arith.term_multiple",
    "poly.compose",
    "orders.leq",
    "orders.build_poset",
    "orders.find_certificate",
    "staircase.enumerate",
    "staircase.sum",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values, p):
    """Nearest-rank p-th percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / samples))) if samples > 10 else 0


def environment():
    """Python version, core count and the source revision of this run."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
        "src_sha256": src.hexdigest()[:16],
    }


def git_commit(root):
    """HEAD of root/.git read from its files, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_pass(workload, seed, trace, deadline, setup_only=False):
    """Spawn one worker; return (set-up seconds, its result).

    With setup_only the worker is stopped as soon as it is ready and the
    result is None."""
    env = {k: v for k, v in os.environ.items() if k != "GROBASIN_SEED"}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() == "ready" and setup_only:
            return setup, None
        remaining = deadline - time.perf_counter()
        out, _ = proc.communicate(timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup, json.loads(out.strip().splitlines()[-1])


def load_reference(workload, seed):
    path = HERE / "reference.json"
    table = json.loads(path.read_text()).get(workload, {})
    if "seeds" in table:
        return table["seeds"].get(str(seed))
    return table.get("digests")


def run_workload(workload, seed, seconds, trace):
    """All passes of one run: (passes, setups, attempted, failures, referenced)."""
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    plan = [0, 1] if trace else [0] * MIN_PASSES
    passes = []
    while True:
        mode = plan[len(passes)] if len(passes) < len(plan) else len(passes) % 2 * trace
        setup, result = run_pass(workload, seed, mode, deadline)
        result["setup_s"] = setup
        result["traced"] = bool(mode)
        passes.append(result)
        elapsed = time.perf_counter() - started
        longest = max(p["wall_s"] + p["setup_s"] for p in passes)
        if elapsed + longest > (seconds if len(passes) >= len(plan) else HARD_LIMIT_S):
            break
    if trace and not any(p["traced"] for p in passes):
        raise BenchError("no time was left for a traced pass")
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(workload, seed, 0, deadline, setup_only=True)[0])

    reference = load_reference(workload, seed)
    first = {op_id: dig for op_id, _, dig, _ in passes[0]["ops"]}
    failures = {}
    attempted = 0
    for k, result in enumerate(passes):
        for op_id, _, dig, _ in result["ops"]:
            attempted += 1
            reason = result["failures"].get(op_id)
            if reason is None and dig != first[op_id]:
                reason = "digest differs from the first pass"
            if reason is None and reference is not None and reference.get(op_id) != dig:
                reason = "digest differs from the reference"
            if reason is not None:
                failures[f"pass{k}:{op_id}"] = reason
    return passes, setups, attempted, failures, reference is not None


def calibration(result):
    """Mean seconds of the worker's calibration loop around its pass."""
    return statistics.mean(result["calibration_s"])


def end_to_end(workload, passes, setups, attempted, failed):
    """The end-to-end metrics plus the per-workload detail."""
    ops_per_pass = sum(1 for op in passes[0]["ops"] if op[3])
    latencies = [op[1] * 1000 for p in passes for op in p["ops"] if op[3]]
    tail = tail_percentile(ops_per_pass * MIN_PASSES)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (percentile(latencies, tail), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "pass_ratio": (1 - failed / attempted, "ratio"),
    }
    detail = {
        "op_tail_percentile": tail,
        "op_samples": len(latencies),
        "failed_ratio": failed / attempted,
        "wall_over_calibration": statistics.median(
            p["wall_s"] / calibration(p) for p in passes
        ),
    }
    if workload == "verify-defaults":
        per_suite = {}
        for p in passes:
            for op_id, sec, _, _ in p["ops"]:
                per_suite.setdefault(op_id, []).append(sec)
        for name in VERIFY_OWN:
            detail[f"suite.{name}_s"] = statistics.median(per_suite[name])
        detail["suite.rest_s"] = statistics.median(
            sum(p_sec[k] for name, p_sec in per_suite.items() if name not in VERIFY_OWN)
            for k in range(len(passes))
        )
    return metrics, detail


def per_layer(passes):
    """Per-layer metrics from the traced passes; overhead against untraced."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    trace = traced[0]["trace"]
    spans, counts = trace["spans"], trace["counts"]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {}
    for prefix in LAYERS:
        calls, _ = layer(spans, prefix)
        self_s = statistics.median(layer(p["trace"]["spans"], prefix)[1] for p in traced)
        metrics[f"{prefix}.calls"] = (calls, "count")
        metrics[f"{prefix}.self_s"] = (self_s, "s")
    rgb_calls = layer(spans, "groebner.rgb")[0]
    metrics["groebner.rgb.input_reduced_ratio"] = (
        counts.get("groebner.rgb.input_reduced", 0) / rgb_calls if rgb_calls else 0.0,
        "ratio",
    )
    metrics["poly.max_coeff_bits"] = (trace["max_coeff_bits"], "bits")
    cases = counts.get("basinlab.cases", 0)
    metrics["basinlab.rgb_per_trial"] = (
        counts.get("basinlab.rgb_in_suites", 0) / cases if cases else 0.0,
        "calls/trial",
    )
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(p["wall_s"] for p in plain), "s"
    )
    return metrics, {"spans": spans, "counts": counts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grobasin" / "__init__.py").is_file():
        print(f"error: no grobasin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes, setups, attempted, failures, referenced = run_workload(
            args.workload, args.seed, args.seconds, args.trace
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for k, p in enumerate(passes):
        print(
            f"pass {k} {'traced' if p['traced'] else 'untraced'}: "
            f"setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s, "
            f"peak rss {p['peak_rss_mb']:.1f} MB, calibration "
            + "/".join(f"{c:.3f}" for c in p["calibration_s"]) + " s"
        )
    plain = [p for p in passes if not p["traced"]]
    metrics, detail = end_to_end(args.workload, plain, setups, attempted, len(failures))
    if args.trace:
        layer_metrics, trace_detail = per_layer(passes)
        detail.update(trace_detail)
        detail["end_to_end"] = {k: v[0] for k, v in metrics.items()}
        metrics = layer_metrics
    detail.update(
        workload=args.workload,
        seed=args.seed,
        passes=len(passes),
        reference_digests=referenced,
        calibration_s=statistics.median(calibration(p) for p in passes),
        failures=dict(list(failures.items())[:20]),
        environment=environment(),
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
