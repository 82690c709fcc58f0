"""Record the reference digests the benchmark checks results against.

    python3 perfbench/record.py

Run from the root of a source checkout whose answers are trusted.  One
pass of each workload runs in this process; every oracle must hold, and
each points-large basis is cross-checked against sympy's lex Groebner
basis over QQ (with the benchmark's own oracles this proves the basis is
the vanishing ideal's: it vanishes on the N points, it is a reduced
Groebner basis, and its staircase has N boxes).  The verify and orders
digests do not depend on the seed; the points digests are recorded for
seeds 0 .. POINT_SEEDS - 1.  Writes perfbench/reference.json.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

POINT_SEEDS = 20


def _no_span(name):
    return contextlib.nullcontext()


def one_pass(name, seed):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    ops = workload.run_pass(inputs, _no_span)
    failures = {op.op_id: op.error for op in ops if op.error}
    failures.update(workload.check(inputs, ops))
    if failures:
        raise SystemExit(f"{name} seed {seed}: {failures}")
    return ops


def sympy_agrees(basis_terms):
    """True iff sympy's reduced lex basis of these polynomials is them."""
    import sympy

    x1, x2 = sympy.symbols("x1 x2")

    def to_poly(terms):
        return sympy.Poly.from_dict(
            {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in terms},
            x1, x2, domain="QQ",
        )

    ours = [to_poly(t) for t in basis_terms]
    theirs = sympy.groebner(ours, x1, x2, order="lex", domain="QQ")
    return set(theirs.polys) == set(ours)


def main():
    reference = {}
    for name in ("verify-defaults", "orders-exhaustive"):
        ops = one_pass(name, 0)
        reference[name] = {"digests": {op.op_id: op.digest for op in ops}}
        print(f"{name}: {len(ops)} digests", flush=True)
    seeds = {}
    for seed in range(POINT_SEEDS):
        ops = one_pass("points-large", seed)
        for op in ops:
            if not sympy_agrees(op.data["basis"]):
                raise SystemExit(f"points-large seed {seed} {op.op_id}: sympy disagrees")
        seeds[str(seed)] = {op.op_id: op.digest for op in ops}
        print(f"points-large seed {seed}: {len(ops)} digests, sympy agrees", flush=True)
    reference["points-large"] = {"seeds": seeds}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
