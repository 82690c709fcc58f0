"""The three benchmark workloads: inputs, one timed pass, and oracles.

A pass is the unit of work one fresh interpreter runs.  It returns one
record per operation: an id, the seconds it took, a digest of its result
and whatever the oracles need.  Oracles run after the pass, outside the
timed region; the point-set oracles share no code with grobasin.groebner.

Every call into the package goes through a module attribute looked up at
call time, so a tracer installed before the pass sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import grobasin.cli as cli
import grobasin.groebner as groebner
import grobasin.orders as orders
import grobasin.staircase as staircase


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One timed operation of a pass."""

    op_id: str
    seconds: float
    digest: str
    latency: bool = True  # counts toward op_p50_ms / op_tail_ms
    error: str = ""
    data: dict = field(default_factory=dict)


def _timed(op_id, fn, latency=True):
    start = time.perf_counter()
    try:
        text, data = fn()
    except Exception as exc:  # a failed op is counted, not fatal
        return Op(op_id, time.perf_counter() - start, "", latency,
                  f"{type(exc).__name__}: {exc}")
    return Op(op_id, time.perf_counter() - start, digest(text), latency, "", data)


# ---------------------------------------------------------------------------
# verify-defaults: every suite as `grobasin verify --json <suite>` runs it


# the CLI's own list, copied so that a suite added later changes the
# package but not this workload
VERIFY_SUITES = (
    "prop1",
    "prop2",
    "divisibility",
    "calibration",
    "punc",
    "et-closure",
    "single-column",
    "duality",
    "refinement",
    "alg",
)


def verify_inputs(seed):
    # the suites run at the CLI defaults (100 trials, seed 0, default
    # n_max) in the CLI's order; the benchmark seed does not change them
    return list(VERIFY_SUITES)


def _verify_call(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--json", name])
    text = out.getvalue()
    return text, {"exit": code, "report": text}


def verify_pass(suites, span):
    ops = []
    for name in suites:
        with span(f"suite.{name}"):
            ops.append(_timed(name, lambda: _verify_call(name)))
    return ops


def verify_check(suites, ops):
    bad = {}
    for op in ops:
        if op.error:
            continue
        report = json.loads(op.data["report"])
        if op.data["exit"] != 0 or report["cases_passed"] < report["cases_run"]:
            bad[op.op_id] = (
                f"exit {op.data['exit']}, {report['cases_passed']} of "
                f"{report['cases_run']} cases passed"
            )
    return bad


# ---------------------------------------------------------------------------
# points-large: vanishing ideal, lex basis, staircase, calibration limit

# (number of points, number of horizontal lines), 2 <= lines <= points / 2
POINT_SHAPES = (
    (10, 2), (10, 5), (11, 3), (12, 4), (12, 6), (13, 5), (14, 2), (14, 7),
    (15, 3), (15, 6), (16, 4), (16, 8), (17, 5), (17, 8), (18, 3), (18, 6),
    (11, 2), (11, 5), (13, 3), (13, 6), (15, 4), (15, 7), (16, 2), (17, 3),
    (18, 4), (18, 9),
)


def point_rows(n, lines, index):
    """Points per line: even at even indices, one long row otherwise.

    Row lengths set the staircase and most of the cost, so they are fixed;
    the seed moves only the coordinates.  Drawing them at random made the
    pass time spread by a fifth across seeds."""
    if index % 2 == 0:
        return [n // lines + (1 if j < n % lines else 0) for j in range(lines)]
    return [n - lines + 1] + [1] * (lines - 1)


def _rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 10))


def _distinct(rng, count):
    out = []
    while len(out) < count:
        f = _rational(rng)
        if f not in out:
            out.append(f)
    return out


def point_set(rng, rows):
    """Distinct rational points, rows[i] of them on the i-th of len(rows)
    distinct horizontal lines."""
    points = []
    for count, level in zip(rows, _distinct(rng, len(rows))):
        points.extend((x, level) for x in _distinct(rng, count))
    return points


def points_inputs(seed):
    rng = random.Random(f"points-large:{seed}")
    return [
        point_set(rng, point_rows(n, k, index))
        for index, (n, k) in enumerate(POINT_SHAPES)
    ]


def _points_call(points):
    ideal = groebner.vanishing_ideal(points)
    gb = groebner.reduced_groebner_basis(ideal)
    stairs = gb.staircase
    n = len(points)
    limit = groebner.torus_limit(ideal, (-(n + 1), -1))
    basis_text = groebner.format_ideal(gb.elements)
    limit_text = groebner.format_ideal(limit.generators)
    data = {
        "basis": [p.terms for p in gb.elements],
        "rows": list(stairs.rows()) if stairs is not None else None,
        "limit": [p.terms for p in limit.generators],
    }
    return basis_text + "--\n" + limit_text, data


def points_pass(sets, span):
    ops = []
    for k, points in enumerate(sets):
        with span("point_set"):
            ops.append(_timed(f"set{k}", lambda: _points_call(points)))
    return ops


def _evaluate(terms, point):
    x, y = point
    return sum(c * x ** a * y ** b for (a, b), c in terms)


def expected_rows(points):
    """Rows of the lex staircase of distinct points: the point counts per
    x2 level, largest first (bivariate Cerlienco-Mureddu)."""
    per_level = {}
    for _, level in points:
        per_level[level] = per_level.get(level, 0) + 1
    return sorted(per_level.values(), reverse=True)


def corners_of_rows(rows):
    """Outer corners (x1 exponent, x2 exponent) of the staircase whose row
    widths, bottom to top, are `rows`."""
    corners = [(0, len(rows))]
    for i, width in enumerate(rows):
        if i == 0 or width < rows[i - 1]:
            corners.append((width, i))
    return sorted(corners)


def _is_reduced_basis(basis, corners):
    """Monic, leading exponents exactly `corners`, and no other term
    divisible by a leading exponent."""
    leads = []
    for terms in basis:
        lead, coeff = max(terms)
        if coeff != 1:
            return False
        leads.append(lead)
    if sorted(leads) != corners:
        return False
    return not any(
        e != own and any(e[0] >= a and e[1] >= b for a, b in leads)
        for terms, own in zip(basis, leads)
        for e, _ in terms
    )


def points_check(sets, ops):
    """Proves each basis is the reduced lex basis of the points' ideal.

    It vanishes on the N points and its leading exponents are the corners
    of a staircase with N boxes, so it is a Groebner basis of that ideal;
    monic and reduced, it is the unique reduced one."""
    bad = {}
    for points, op in zip(sets, ops):
        if op.error:
            continue
        rows = expected_rows(points)
        corners = corners_of_rows(rows)
        if op.data["rows"] != rows:
            bad[op.op_id] = f"staircase rows {op.data['rows']} != {rows}"
        elif not _is_reduced_basis(op.data["basis"], corners):
            bad[op.op_id] = "basis is not reduced on the expected staircase"
        elif any(_evaluate(g, p) != 0 for g in op.data["basis"] for p in points):
            bad[op.op_id] = "a basis element does not vanish on the points"
        elif sorted(op.data["limit"]) != [((corner, 1),) for corner in corners]:
            bad[op.op_id] = "calibration limit is not the staircase's monomial ideal"
    return bad


# ---------------------------------------------------------------------------
# orders-exhaustive: posets at n = 14, 16 and certificates at n = 8

POSETS = tuple((n, o) for n in (14, 16) for o in ("et", "punc", "dominance"))
CERT_N = 8


@dataclass(frozen=True)
class OrdersInput:
    posets: tuple  # (n, order) pairs
    cert_n: int
    pairs: list  # (i, j) indices into enumerate_staircases(cert_n)


def orders_inputs(seed):
    # the posets are fixed; the seed orders the certificate queries, which
    # decides which lru_cache entries in orders are cold when reached
    count = len(staircase.enumerate_staircases(CERT_N))
    pairs = [(i, j) for i in range(count) for j in range(count)]
    random.Random(f"orders-exhaustive:{seed}").shuffle(pairs)
    return OrdersInput(POSETS, CERT_N, pairs)


def _label(s):
    return ",".join(str(h) for h in s.cols())


def _poset_call(n, order):
    poset = orders.build_poset(n, order)
    labels = [_label(s) for s in poset.elements]
    covers = sorted((labels[i], labels[j]) for i, j in poset.covers)
    text = "\n".join(f"{a} -> {b}" for a, b in covers)
    return text, {"labels": labels, "relation": poset.relation}


def _certificate_call(a, b):
    cert = orders.find_certificate(a, b)
    if cert is None:
        return "none", {"found": False}
    held = orders.check_certificate(cert, a, b)
    text = repr((
        _label(cert.lambda_shape),
        _label(cert.lambda_prime_shape),
        sorted(cert.box_map.items()),
        sorted((k, _label(v)) for k, v in cert.per_box.items()),
        sorted((k, _label(v)) for k, v in cert.per_box_prime.items()),
    ))
    return text, {"found": True, "held": held}


def orders_pass(inp, span):
    ops = []
    for n, order in inp.posets:
        with span("poset"):
            ops.append(_timed(f"poset-{order}-{n}", lambda: _poset_call(n, order), False))
    elements = staircase.enumerate_staircases(inp.cert_n)
    for i, j in inp.pairs:
        a, b = elements[i], elements[j]
        with span("certificate"):
            ops.append(_timed(f"pair-{i}-{j}", lambda: _certificate_call(a, b)))
    return ops


def _dominates(ca, cb):
    sa = sb = 0
    for k in range(max(len(ca), len(cb))):
        sa += ca[k] if k < len(ca) else 0
        sb += cb[k] if k < len(cb) else 0
        if sa < sb:
            return False
    return True


def orders_check(inp, ops):
    bad = {}
    posets = {op.op_id: op.data for op in ops if op.op_id.startswith("poset-")}
    for n in sorted({n for n, _ in inp.posets}):
        names = [f"poset-{o}-{n}" for o in ("dominance", "et", "punc")]
        if any(not posets[name] for name in names):
            continue  # the failed build is already counted
        dom = posets[f"poset-dominance-{n}"]
        cols = [tuple(int(h) for h in lab.split(",")) for lab in dom["labels"]]
        for i, ci in enumerate(cols):
            for j, cj in enumerate(cols):
                if dom["relation"][i][j] != _dominates(ci, cj):
                    bad[f"poset-dominance-{n}"] = f"relation wrong at {ci} <= {cj}"
        et = posets[f"poset-et-{n}"]
        punc = posets[f"poset-punc-{n}"]
        where = {lab: k for k, lab in enumerate(et["labels"])}

        def transpose(label):
            c = [int(h) for h in label.split(",")]
            return ",".join(str(sum(1 for h in c if h > r)) for r in range(c[0]))

        tr = [where[transpose(lab)] for lab in punc["labels"]]
        for i in range(len(tr)):
            for j in range(len(tr)):
                # a <=punc b  iff  b^T <=et a^T
                if punc["relation"][i][j] != et["relation"][tr[j]][tr[i]]:
                    bad[f"poset-punc-{n}"] = "punc is not the transpose dual of et"
    for op in ops:
        if op.op_id.startswith("pair-") and op.data.get("found") and not op.data["held"]:
            bad[op.op_id] = "check_certificate rejects the found certificate"
    return bad


@dataclass(frozen=True)
class Workload:
    inputs: object
    run_pass: object
    check: object


WORKLOADS = {
    "verify-defaults": Workload(verify_inputs, verify_pass, verify_check),
    "points-large": Workload(points_inputs, points_pass, points_check),
    "orders-exhaustive": Workload(orders_inputs, orders_pass, orders_check),
}
