"""Fast tests of the benchmark itself (not of grobasin).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def no_span(name):
    return contextlib.nullcontext()


def tiny_points(seed):
    rng = random.Random(seed)
    return [workloads.point_set(rng, rows) for rows in ((2, 2), (4, 1), (3, 2, 1))]


def tiny_orders(seed):
    pairs = [(i, j) for i in range(5) for j in range(5)]  # 5 staircases of 4
    random.Random(seed).shuffle(pairs)
    posets = tuple((5, o) for o in ("et", "punc", "dominance"))
    return workloads.OrdersInput(posets, 4, pairs)


TINY = {
    "verify-defaults": lambda seed: ["duality", "refinement", "alg"],
    "points-large": tiny_points,
    "orders-exhaustive": tiny_orders,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_oracles_at_a_tiny_size(name):
    workload = workloads.WORKLOADS[name]
    inputs = TINY[name](0)
    ops = workload.run_pass(inputs, no_span)
    assert ops and all(not op.error and op.digest for op in ops)
    assert workload.check(inputs, ops) == {}


@pytest.mark.parametrize("name", ["points-large", "orders-exhaustive"])
def test_digests_repeat_per_seed(name):
    workload = workloads.WORKLOADS[name]
    runs = {}
    for seed in (0, 1):
        first = workload.run_pass(TINY[name](seed), no_span)
        again = workload.run_pass(TINY[name](seed), no_span)
        runs[seed] = {op.op_id: op.digest for op in first}
        assert runs[seed] == {op.op_id: op.digest for op in again}
    assert runs[0].keys() == runs[1].keys()
    if name == "points-large":
        assert runs[0] != runs[1]


def test_full_inputs_are_a_function_of_the_seed():
    for name, workload in workloads.WORKLOADS.items():
        assert workload.inputs(3) == workload.inputs(3), name
    assert workloads.points_inputs(0) != workloads.points_inputs(1)
    assert workloads.orders_inputs(0).pairs != workloads.orders_inputs(1).pairs


def test_points_oracle_catches_wrong_answers():
    sets = tiny_points(0)
    ops = workloads.points_pass(sets, no_span)
    ops[0].data["rows"] = list(reversed(ops[0].data["rows"])) + [1]
    first, *rest = ops[1].data["basis"]
    ops[1].data["basis"] = [tuple((e, 2 * c) for e, c in first)] + rest
    basis = ops[2].data["basis"]
    (lead, one), *tail = basis[-1]
    ops[2].data["basis"] = basis[:-1] + [((lead, one),) + tuple((e, c + 1) for e, c in tail)]
    assert sorted(workloads.points_check(sets, ops)) == ["set0", "set1", "set2"]


def test_corners_of_rows():
    # rows 3, 1 bottom to top: complement generated by x1^3, x1*x2, x2^2
    assert workloads.corners_of_rows([3, 1]) == [(0, 2), (1, 1), (3, 0)]
    assert workloads.corners_of_rows([2, 2]) == [(0, 2), (2, 0)]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    with t.span("outer"):  # 0 .. 10
        clock.now = 1
        with t.span("a"):  # 1 .. 4
            clock.now = 4
        clock.now = 5
        with t.span("b"):  # 5 .. 9
            clock.now = 6
            with t.span("c"):  # 6 .. 7
                clock.now = 7
            clock.now = 9
        clock.now = 10
    spans = t.spans()
    assert spans["outer"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert spans["a"]["self_s"] == 3
    assert spans["b"] == {"calls": 1, "total_s": 4, "self_s": 3}
    assert spans["c"]["self_s"] == 1
    assert sum(s["self_s"] for s in spans.values()) == 10
    assert tracing.layer(spans, "outer") == (1, 3)


def test_nested_same_name_spans_count_total_once():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    with t.span("f"):
        clock.now = 2
        with t.span("f"):
            clock.now = 5
        clock.now = 6
    assert t.spans()["f"] == {"calls": 2, "total_s": 6, "self_s": 6}


def test_on_return_hook_runs_outside_the_span():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def work():
        clock.now += 2
        return "done"

    def hook(args, kwargs, result):
        assert result == "done"
        clock.now += 5  # bookkeeping, charged to no span

    traced = t.wrap(work, "f", hook)
    with t.span("outer"):
        assert traced() == "done"
    spans = t.spans()
    assert spans["f"]["self_s"] == 2
    assert spans["outer"] == {"calls": 1, "total_s": 7, "self_s": 5}


def test_install_rebinds_every_importer_and_uninstall_restores():
    from grobasin import basinlab, cli, groebner, orders
    from grobasin.poly import X1, X2, Polynomial

    before = (groebner.reduced_groebner_basis, orders._ORDERS["et"], Polynomial.__mul__)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert basinlab.reduced_groebner_basis is groebner.reduced_groebner_basis
        assert cli.reduced_groebner_basis is groebner.reduced_groebner_basis
        assert groebner.reduced_groebner_basis.__wrapped__ is before[0]
        assert orders._ORDERS["et"] is orders.leq_et is basinlab.leq_et
        ideal = groebner.point_ideal((1, 0))
        groebner.torus_limit(ideal, (-2, -1))
        origin = groebner.Ideal((X1, X2 * X2))
        groebner.torus_limit(origin, (1, 3))
        orders.build_poset(4, "et")
    finally:
        t.uninstall()
    assert (groebner.reduced_groebner_basis, orders._ORDERS["et"], Polynomial.__mul__) == before
    assert cli.reduced_groebner_basis is before[0]
    spans = t.spans()
    assert spans["groebner.torus_limit.weight"]["calls"] == 1
    assert spans["groebner.torus_limit.punctual"]["calls"] == 1
    assert spans["orders.leq.leq_et"]["calls"] == 25  # 5 staircases of 4, squared
    assert spans["poly.arith.mul"]["calls"] >= 1
    assert t.counts["groebner.rgb.input_reduced"] >= 1


def test_percentiles():
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(48) == 79
    assert run.tail_percentile(1452) == 99
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    # ten samples lie beyond the tail percentile of 30
    assert sum(v > run.percentile(list(range(30)), 66) for v in range(30)) >= 10


def _fake_pass(traced, wall):
    spans = {"groebner.rgb": {"calls": 4, "total_s": 2.0, "self_s": wall / 2}}
    result = {
        "wall_s": wall,
        "setup_s": 0.1,
        "peak_rss_mb": 20.0,
        "traced": traced,
        "ops": [[f"op{k}", 0.01 * (k + 1), "d", True] for k in range(20)],
        "failures": {},
        "calibration_s": [0.1, 0.1],
    }
    if traced:
        result["trace"] = {
            "spans": spans,
            "counts": {"groebner.rgb.input_reduced": 1},
            "max_coeff_bits": 7,
        }
    return result


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = [_fake_pass(False, 2.0) for _ in range(3)]
    e2e, _ = run.end_to_end("points-large", plain, [0.1, 0.3, 0.2], 60, 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()
    }
    layers, _ = run.per_layer([_fake_pass(False, 2.0), _fake_pass(True, 2.5)])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert e2e["setup_s"][0] == pytest.approx(0.2)
    assert e2e["op_p50_ms"][0] == pytest.approx(105)  # between 10 and 11 of 20
    assert layers["groebner.rgb.self_s"][0] == pytest.approx(1.25)
    assert layers["groebner.rgb.input_reduced_ratio"][0] == pytest.approx(0.25)
    assert layers["trace.overhead_s"][0] == pytest.approx(0.5)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points-large",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_git_commit_reads_head(tmp_path):
    assert run.git_commit(tmp_path) is None
    (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "refs" / "heads" / "main").write_text("abc123\n")
    assert run.git_commit(tmp_path) == "abc123"


def test_sympy_cross_check_rejects_a_wrong_basis():
    pytest.importorskip("sympy")
    import record

    ops = workloads.points_pass(tiny_points(0), no_span)
    basis = ops[2].data["basis"]
    assert record.sympy_agrees(basis)
    (exp, c), *rest = basis[-1]
    assert not record.sympy_agrees(basis[:-1] + [((exp, c), *rest[:-1])])
