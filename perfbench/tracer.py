"""Outside-in tracer: times calls into grobasin's public functions.

The package is not edited.  Installing a Tracer rebinds each traced
function in every grobasin module that imported it (and in the
`orders._ORDERS` table that `build_poset` reads), and replaces the traced
`Polynomial` methods at class level, so calls made inside the package
are seen too.  Spans are aggregated per name as they close: calls, total
time, and self time, which is the span's duration minus the time covered
by its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.open = Counter()
        self.max_coeff_bits = 0
        # one entry per open span: time covered by its closed children
        self._children = []
        self._undo = []

    def span(self, name):
        """Context manager for a span around the benchmark's own code."""
        return _Span(self, name)

    def _enter(self, name):
        self.open[name] += 1
        self._children.append(0.0)
        return self.clock()

    def _exit(self, name, start):
        elapsed = self.clock() - start
        covered = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.open[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += elapsed - covered
        if not self.open[name]:
            # only the outermost of nested same-name spans adds to total
            self.total[name] += elapsed

    def wrap(self, fn, name, on_return=None):
        """fn timed under `name`; a callable name picks it from the args.

        on_return(args, kwargs, result) runs after the span has closed, so
        the tracer's own bookkeeping is charged to no layer."""

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            start = self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(label, start)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def note_coefficients(self, polys):
        """Raise max_coeff_bits to the largest numerator or denominator."""
        best = self.max_coeff_bits
        for p in polys:
            for _, c in p.terms:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > best:
                    best = bits
        self.max_coeff_bits = best

    # -- installation -------------------------------------------------------

    def rebind_function(self, module, attr, name, on_return=None):
        """Replace module.attr everywhere grobasin refers to it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, on_return)
        for mod in _grobasin_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))
            table = vars(mod).get("_ORDERS")
            if isinstance(table, dict):
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = traced
                        self._undo.append((table, key, original))

    def rebind_method(self, cls, attr, name, on_return=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, on_return))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- summaries -----------------------------------------------------------

    def spans(self):
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }


def layer(spans, prefix):
    """(calls, self seconds) summed over spans named prefix or prefix.*"""
    calls = self_s = 0
    for name, stats in spans.items():
        if name == prefix or name.startswith(prefix + "."):
            calls += stats["calls"]
            self_s += stats["self_s"]
    return calls, self_s


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.name, self.start)
        return False


def _grobasin_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "grobasin" or key.startswith("grobasin."))
    ]


def _torus_branch(args, kwargs):
    v = kwargs["v"] if "v" in kwargs else args[1]
    if int(v[0]) <= 0 and int(v[1]) <= 0:
        return "groebner.torus_limit.weight"
    return "groebner.torus_limit.punctual"


def install(tracer):
    """Trace the public functions of every grobasin module layer."""
    from grobasin import basinlab, groebner, orders, staircase
    from grobasin.poly import Polynomial

    def rgb_returned(args, kwargs, result):
        ideal = kwargs["ideal"] if "ideal" in kwargs else args[0]
        if tuple(ideal.generators) == tuple(result.elements):
            tracer.counts["groebner.rgb.input_reduced"] += 1
        if tracer.open["basinlab.suite"]:
            tracer.counts["basinlab.rgb_in_suites"] += 1
        tracer.note_coefficients(ideal.generators)
        tracer.note_coefficients(result.elements)

    def nf_returned(args, kwargs, result):
        tracer.note_coefficients((result,))

    def suite_returned(args, kwargs, report):
        tracer.counts["basinlab.cases"] += report.cases_run

    tracer.rebind_function(
        groebner, "reduced_groebner_basis", "groebner.rgb", rgb_returned
    )
    tracer.rebind_function(
        groebner, "normal_form", "groebner.normal_form", nf_returned
    )
    tracer.rebind_function(groebner, "intersect_comaximal", "groebner.intersect")
    tracer.rebind_function(groebner, "vanishing_ideal", "groebner.vanishing")
    tracer.rebind_function(groebner, "torus_limit", _torus_branch)
    for attr, op in (
        ("__mul__", "mul"),
        ("__add__", "add"),
        ("__sub__", "sub"),
        ("term_multiple", "term_multiple"),
    ):
        tracer.rebind_method(Polynomial, attr, f"poly.arith.{op}")
    tracer.rebind_method(Polynomial, "compose", "poly.compose")
    for attr in ("leq_et", "leq_punc", "dominance"):
        tracer.rebind_function(orders, attr, f"orders.leq.{attr}")
    tracer.rebind_function(orders, "build_poset", "orders.build_poset")
    tracer.rebind_function(orders, "find_certificate", "orders.find_certificate")
    tracer.rebind_function(orders, "check_certificate", "orders.check_certificate")
    tracer.rebind_function(staircase, "enumerate_staircases", "staircase.enumerate")
    for attr in ("sum1", "sum2", "c4_sum"):
        tracer.rebind_function(staircase, attr, f"staircase.sum.{attr}")
    for attr in (
        "run_prop1",
        "run_prop2",
        "run_divisibility",
        "run_torus_calibration",
        "run_punc_consistency",
        "run_et_closure_covers",
        "run_single_column_density",
    ):
        tracer.rebind_function(basinlab, attr, "basinlab.suite", suite_returned)
