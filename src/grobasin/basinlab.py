"""Randomized experiments against the structural claims of the package.

Samplers produce exact rational ideals inside a prescribed lex basin and
re-check their own output; experiment runners aggregate seeded trials
into reports.  Identical seeds reproduce identical reports, including
the exact failure strings.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .groebner import (
    Ideal,
    intersect_comaximal,
    monomial_ideal,
    reduced_groebner_basis,
    staircase_of,
    substitute,
    supported_at_origin,
    supported_on_line,
    tall_point_ideal,
    torus_limit,
    vanishing_ideal,
)
from .orders import (
    SplitQuadruple,
    build_poset,
    dominance,
    figure_alg,
    leq_et,
    leq_punc,
)
from .poly import Polynomial, exact
from .staircase import StandardSet, enumerate_staircases, sum1, sum2


class SamplingError(RuntimeError):
    """A sampler ran out of rejection budget or left its basin."""


# candidates the origin sampler may reject before it gives up
MAX_REJECTIONS = 50


@dataclass(frozen=True)
class BasinSampleSpec:
    """What to sample: a target staircase plus a support constraint.

    support_constraint is 'origin', 'x1_axis', 'horizontal_line' (with
    `line` set to the exact rational x2 level) or 'free'."""

    target: StandardSet
    support_constraint: str = "origin"
    line: object = None
    seed: int = 0

    def __post_init__(self):
        if self.support_constraint not in ("origin", "x1_axis", "horizontal_line", "free"):
            raise ValueError(f"unknown support constraint {self.support_constraint!r}")
        if (self.line is not None) != (self.support_constraint == "horizontal_line"):
            raise ValueError("`line` is set exactly for horizontal_line support")
        if self.line is not None:
            exact(self.line, "line")
        if self.target.cardinality == 0:
            raise ValueError("target must be nonempty")


def _rand_fraction(rng, nonzero=False):
    while True:
        f = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        if f or not nonzero:
            return f


def _distinct_fractions(rng, count):
    out = []
    guard = 0
    while len(out) < count:
        f = _rand_fraction(rng)
        if f not in out:
            out.append(f)
        guard += 1
        if guard > 100 * count + 100:
            raise SamplingError("could not draw distinct rationals")
    return out


def _rand_shift_poly(rng, variable, max_degree):
    # a small nonzero polynomial in the given variable, with no constant term
    degree = rng.randint(1, max_degree)
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        b = rng.randint(1, degree)
        coeffs[b] = _rand_fraction(rng, nonzero=True)
    exp = (lambda b: (0, b)) if variable == 2 else (lambda b: (b, 0))
    return Polynomial({exp(b): c for b, c in coeffs.items()})


def _origin_sample(target, rng):
    # walk through the basin with origin-preserving triangular substitutions
    ideal = monomial_ideal(target)
    rejections = 0
    wanted = rng.randint(2, 4)
    done = 0
    h = max(2, target.height)
    while done < wanted:
        if rng.random() < 0.6:
            candidate = substitute(ideal, 1, _rand_shift_poly(rng, 2, min(h, 3)))
        else:
            candidate = substitute(ideal, 2, _rand_shift_poly(rng, 1, 2))
        if staircase_of(candidate) == target:
            ideal = candidate
            done += 1
        else:
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise SamplingError(
                    f"no basin sample for cols{target.cols()} within budget"
                )
    return ideal


def _spread(index, sampler, targets, rng):
    # one sample per target, each translated along x_index to its own
    # distinct place, intersected once every sample has been drawn
    places = _distinct_fractions(rng, len(targets))
    samples = [
        substitute(sampler(t, rng), index, Polynomial.constant(-z))
        for t, z in zip(targets, places)
    ]
    return intersect_comaximal(samples)


def _axis_sample(target, rng):
    # several tall or fat points at distinct abscissas on the x1-axis; by
    # prop1 their spread lands in the target's basin, so one draw is checked
    # and not retried
    cols = list(target.cols())
    rng.shuffle(cols)
    k = rng.randint(1, len(cols))
    cuts = sorted(rng.sample(range(1, len(cols)), k - 1))
    groups = [cols[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(cols)])]
    parts = [StandardSet.from_columns(group) for group in groups]
    ideal = _spread(1, _origin_sample, parts, rng)
    if staircase_of(ideal) != target:
        raise SamplingError(f"axis sample for cols{target.cols()} left its basin")
    return ideal


def _free_sample(target, rng):
    # the etale configuration: |row_i| points at distinct abscissas on a
    # private horizontal line.  By Cerlienco-Mureddu the lex staircase of
    # distinct points has the per-line counts, sorted, as its rows, so every
    # draw lands in target.
    points = []
    for width, level in zip(target.rows(), _distinct_fractions(rng, target.height)):
        points.extend((x, level) for x in _distinct_fractions(rng, width))
    return vanishing_ideal(points)


def _sample(constraint, target, rng):
    # horizontal_line samples on the x1-axis, and the caller moves it; the
    # names are looked up per call, so a rebound sampler is the one called
    if constraint == "origin":
        return _origin_sample(target, rng)
    if constraint == "free":
        return _free_sample(target, rng)
    return _axis_sample(target, rng)


def sample_basin_ideal(spec: BasinSampleSpec) -> Ideal:
    """Draw an exact ideal whose staircase is spec.target and whose support
    satisfies the constraint.  Raises SamplingError when a sampler gives
    up or its output fails a recheck."""
    rng = random.Random(f"sample:{spec.seed}")
    target = spec.target
    ideal = _sample(spec.support_constraint, target, rng)
    if spec.line is not None:
        ideal = substitute(ideal, 2, Polynomial.constant(-Fraction(spec.line)))
    gb = reduced_groebner_basis(ideal)
    # a substitution may hand over its input's staircase unwalked; reading
    # the elements walks them and raises unless the walk finds it too, so
    # the recheck below compares a walked staircase
    gb.elements
    if gb.staircase != target:
        raise SamplingError("sampler output fails its own staircase recheck")
    if spec.support_constraint == "origin" and not supported_at_origin(gb):
        raise SamplingError("sampler output fails the origin support recheck")
    if spec.support_constraint == "x1_axis" and not supported_on_line(gb, 0):
        raise SamplingError("sampler output fails the axis support recheck")
    if spec.line is not None and not supported_on_line(gb, Fraction(spec.line)):
        raise SamplingError("sampler output fails the line support recheck")
    return ideal


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of a seeded experiment suite."""

    experiment_name: str
    seed: int
    cases_run: int
    cases_passed: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment_name": self.experiment_name,
                "seed": self.seed,
                "cases_run": self.cases_run,
                "cases_passed": self.cases_passed,
                "failures": [
                    {"case": c, "expected": e, "observed": o}
                    for c, e, o in self.failures
                ],
            },
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [
            f"experiment: {self.experiment_name}",
            f"seed:       {self.seed}",
            f"cases:      {self.cases_run} run, {self.cases_passed} passed, "
            f"{self.cases_run - self.cases_passed} failed",
        ]
        if self.failures:
            width_c = max(len(c) for c, _, _ in self.failures)
            width_e = max(len(e) for _, e, _ in self.failures)
            for c, e, o in self.failures:
                lines.append(
                    f"  FAIL {c.ljust(width_c)}  expected {e.ljust(width_e)}"
                    f"  observed {o}"
                )
        return "\n".join(lines) + "\n"


def _report(experiment, seed, cases):
    # runs each (case, attempt) in order; attempt() returns (ok, expected,
    # observed), and a SamplingError is recorded as a failed case
    run = passed = 0
    failures = []
    for case, attempt in cases:
        run += 1
        try:
            ok, expected, observed = attempt()
        except SamplingError as exc:
            failures.append((case, "a sample", f"SamplingError: {exc}"))
            continue
        if ok:
            passed += 1
        else:
            failures.append((case, expected, observed))
    return ExperimentReport(experiment, seed, run, passed, tuple(failures))


def _trial_rng(experiment, seed, trial):
    return random.Random(f"{experiment}:{seed}:{trial}")


def _label(s: StandardSet) -> str:
    return "cols(" + ",".join(str(h) for h in s.cols()) + ")"


@lru_cache(maxsize=None)
def _partition_counts(n):
    # counts[m][j]: the partitions of m with no part above j, for m, j <= n
    counts = [[1] * (n + 1)]
    for m in range(1, n + 1):
        row = [0]
        for j in range(1, n + 1):
            row.append(row[-1] + (counts[m - j][j] if j <= m else 0))
        counts.append(row)
    return counts


def _random_staircase(rng, n):
    # the k-th of enumerate_staircases(n) for k = rng.randrange(p(n)), which
    # consumes the rng as rng.choice on that list does: taken column by
    # column, largest first, by the counts of staircases under each choice
    counts = _partition_counts(n)
    k = rng.randrange(counts[n][n])
    heights, rest = [], n
    while rest:
        part = min(rest, heights[-1] if heights else n)
        while k >= counts[rest - part][part]:
            k -= counts[rest - part][part]
            part -= 1
        heights.append(part)
        rest -= part
    return StandardSet(heights)


def _split_total(rng, n, max_parts):
    k = rng.randint(2, min(n, max_parts))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]


# ---------------------------------------------------------------------------
# experiment suites


def _trial_loop(experiment, stream, trials, seed, trial):
    """The seeded loop of every sampler suite.

    trial(index, rng) draws the trial's parameters from its own rng, seeded
    from the stream name, and returns (case, attempt); attempt() samples
    with the same rng and returns (ok, expected, observed).  A
    SamplingError is recorded as a failed case."""
    return _report(
        experiment,
        seed,
        (trial(index, _trial_rng(stream, seed, index)) for index in range(trials)),
    )


def _merge_suite(experiment, index, sampler, max_parts, merge, trials, n_max, seed):
    # factors sampled by `sampler`, spread to distinct places along x_index
    # and intersected, must have the merged staircase
    def trial(i, rng):
        n = rng.randint(2, n_max)
        targets = [_random_staircase(rng, p) for p in _split_total(rng, n, max_parts)]
        expected = merge(targets)

        def attempt():
            observed = staircase_of(_spread(index, sampler, targets, rng))
            return observed == expected, _label(expected), _label(observed)

        return f"trial={i} factors=" + "+".join(_label(t) for t in targets), attempt

    return _trial_loop(experiment, experiment, trials, seed, trial)


def run_prop1(trials: int, n_max: int = 8, seed: int = 0) -> ExperimentReport:
    """Intersections across distinct points of the x1-axis merge columns.

    Each trial intersects independently sampled one-point ideals sitting
    at distinct abscissas and compares the staircase of the intersection
    with the direction-1 sum of the factor staircases."""
    return _merge_suite("prop1", 1, _origin_sample, 4, sum1, trials, n_max, seed)


def run_prop2(trials: int, n_max: int = 8, seed: int = 0) -> ExperimentReport:
    """Intersections across distinct horizontal lines merge rows."""
    return _merge_suite("prop2", 2, _axis_sample, 3, sum2, trials, n_max, seed)


def run_divisibility(trials: int, n_max: int = 8, seed: int = 0) -> ExperimentReport:
    """Basis elements of axis-supported ideals are divisible by the x2
    power of their own leading term."""

    def trial(i, rng):
        target = _random_staircase(rng, rng.randint(2, n_max))

        def attempt():
            basis = reduced_groebner_basis(_axis_sample(target, rng)).elements
            ok = all(
                min(e[1] for e, _ in g.terms) >= g.leading_exponent()[1]
                for g in basis
            )
            return (
                ok,
                "every term divisible by the leading x2 power",
                "ok" if ok else "violated by a basis element",
            )

        return f"trial={i} basin={_label(target)}", attempt

    return _trial_loop("divisibility", "divisibility", trials, seed, trial)


def _et_closure_case(a, b, seed):
    """(ok, expected, observed) for one free sample of b, which must land
    in the basin of b; the sample realises a -> b as run_et_closure says."""
    if not leq_et(a, b):
        raise ValueError("run_et_closure needs leq_et(a, b) to hold")
    observed = staircase_of(_free_sample(b, _trial_rng("et_closure", seed, 0)))
    return observed == b, _label(b), _label(observed)


def run_et_closure(a: StandardSet, b: StandardSet, seed: int = 0) -> ExperimentReport:
    """Merge the lines of a point configuration for a onto fewer lines, as
    leq_et(a, b) allows; the merged configuration must land in the basin
    of b.

    The merged configuration is one free sample of b: b.rows()[k] points
    at distinct abscissas on line k.  It is a merge of lines of a: the
    rows of a group into blocks, one per row of b and summing to it, so
    each line's abscissas split into consecutive groups of its block's
    widths, each group on a line of its own, a configuration for a.
    Moving the lines of a block together onto their shared line is a
    family whose points never meet, as they keep distinct abscissas, so
    its flat limit is the merged set.  That set lands in b by
    Cerlienco-Mureddu: the lex staircase of distinct points has the
    per-line counts, sorted, as its rows."""
    case = f"{_label(a)}->{_label(b)}"
    return _report("et_closure", seed, [(case, partial(_et_closure_case, a, b, seed))])


def run_et_closure_covers(n_max: int = 6, seed: int = 0) -> ExperimentReport:
    """run_et_closure across every cover of the row merging poset up to
    n_max, one case per cover: one free sample of b per cover a -> b, the
    flat limit of configurations for a whose lines merge as the cover
    does, must land in b.

    This realises each leq_et cover by merging lines, and no other
    degeneration exists.  Inside the scheme of n distinct points, a limit
    L that is again n distinct points is reached along a curve; after a
    finite base change the points can be labelled, and each moves
    continuously.  Two points that share a horizontal line for t != 0
    share one at t = 0, so each line of L is a union of a's lines and
    leq_et(a, L) holds.  When L != a the number of lines drops, and with
    it the stratum dimension n + height.  Limits that leave distinct
    points are outside the scheme the paper stratifies."""

    def cases():
        for n in range(2, n_max + 1):
            poset = build_poset(n, "et")
            for i, j in poset.covers:
                a, b = poset.elements[i], poset.elements[j]
                sub_seed = seed + 7919 * n + i * 101 + j
                yield (
                    f"n={n} {_label(a)}->{_label(b)}",
                    partial(_et_closure_case, a, b, sub_seed),
                )

    return _report("et_closure_covers", seed, cases())


def run_punc_consistency(trials: int, n_max: int = 6, seed: int = 0) -> ExperimentReport:
    """Torus limits of origin-supported basin ideals under weights with
    0 < n*v1 <= v2 land in basins above the source in the column
    breaking order.

    This is a calibration: every one of its seed-0 limits is the monomial
    ideal of its source's own staircase, so no limit moves strictly up the
    order."""

    def trial(i, rng):
        n = rng.randint(2, n_max)
        target = _random_staircase(rng, n)
        v1 = rng.randint(1, 3)
        v2 = n * v1 + rng.randint(0, 4)

        def attempt():
            limit = torus_limit(_origin_sample(target, rng), (v1, v2))
            monomial = all(len(g.terms) == 1 for g in limit.generators)
            observed = staircase_of(limit)
            return (
                monomial and leq_punc(target, observed),
                f"a monomial ideal above {_label(target)}",
                _label(observed) + ("" if monomial else ", not monomial"),
            )

        return f"trial={i} basin={_label(target)} v=({v1},{v2})", attempt

    return _trial_loop("punc_consistency", "punc", trials, seed, trial)


def run_torus_calibration(trials: int, n_max: int = 6, seed: int = 0) -> ExperimentReport:
    """Weights (-(n+1), -1) must send every sampled ideal back to the
    monomial ideal of its own staircase."""

    def trial(i, rng):
        n = rng.randint(2, n_max)
        target = _random_staircase(rng, n)
        mode = rng.choice(["origin", "x1_axis", "free"])

        def attempt():
            limit = torus_limit(_sample(mode, target, rng), (-(n + 1), -1))
            expected = reduced_groebner_basis(monomial_ideal(target)).elements
            observed = reduced_groebner_basis(limit).elements
            monomial = all(len(g.terms) == 1 for g in limit.generators)
            return (
                observed == expected,
                f"the monomial ideal of {_label(target)}",
                _label(staircase_of(limit)) + ("" if monomial else ", not monomial"),
            )

        return f"trial={i} basin={_label(target)} mode={mode}", attempt

    return _trial_loop("torus_calibration", "calibration", trials, seed, trial)


def run_single_column_density(n: int, trials: int, seed: int = 0) -> ExperimentReport:
    """Ideals generated by x1 plus a constant-free polynomial in x2 and by
    x2^n all sit in the single-column basin at the origin.

    Both checks hold by construction, and the suite re-checks only what
    substitute carried: tall_point_ideal applies x1 -> x1 + p(x2) to
    (x1, x2^n), so its basis carries the staircase [n] without a walk,
    and as p(0) = 0 both multiplication matrices are nilpotent.  The
    tests walk these ideals."""
    if n < 1:
        raise ValueError("n must be positive")
    column = StandardSet([n])

    def trial(i, rng):
        def attempt():
            coeffs = [Fraction(0)] + [_rand_fraction(rng) for _ in range(n - 1)]
            gb = reduced_groebner_basis(tall_point_ideal(n, coeffs))
            return (
                gb.staircase == column and supported_at_origin(gb),
                f"{_label(column)} at the origin",
                _label(gb.staircase) if gb.staircase else "infinite",
            )

        return f"trial={i}", attempt

    return _trial_loop("single_column_density", "single_column", trials, seed, trial)


# ---------------------------------------------------------------------------
# exhaustive suites: every same-size ordered pair of staircases


def _all_pairs(experiment, n_max, probe):
    # probe(a, b) -> (ok, expected, observed); these reports ignore the seed
    return _report(
        experiment,
        0,
        (
            (f"a={_label(a)} b={_label(b)}", partial(probe, a, b))
            for n in range(1, n_max + 1)
            for a, b in itertools.product(enumerate_staircases(n), repeat=2)
        ),
    )


@lru_cache(maxsize=None)
def _row_merge_closure(n):
    # the row-merge poset of size n as (index of each staircase, relation)
    poset = build_poset(n, "et")
    return {s: i for i, s in enumerate(poset.elements)}, poset.relation


def _duality_probe(a, b):
    """leq_punc(a, b) against the closure of single row merges at
    (b^T, a^T), read off build_poset's relation.  leq_punc is a block
    search, and the closure shares no code with it, so this cross-checks
    the search through the transpose; it is not a duality between closure
    orders."""
    index, relation = _row_merge_closure(a.cardinality)
    direct = leq_punc(a, b)
    mirrored = relation[index[b.transpose()]][index[a.transpose()]]
    return direct == mirrored, str(direct), str(mirrored)


def _refinement_probe(a, b):
    """Both orders imply dominance.  This holds by construction: leq_et
    and leq_punc each begin with dominance and answer no when it fails."""
    if (leq_et(a, b) or leq_punc(a, b)) and not dominance(a, b):
        return False, "dominance to follow", "dominance fails"
    return True, "", ""


def _splitting_game_probe(a, b):
    """What this tests is that the game decides leq_punc; its conservation
    check holds by construction, as c1 + c2 is each column's height."""
    # one exploration of the game serves both the order and the terminals
    quads = figure_alg(a, b)
    via_alg = SplitQuadruple(a.cols(), (), b.cols(), ()) in quads
    direct = leq_punc(a, b)
    if via_alg != direct:
        return False, str(direct), str(via_alg)
    n = a.cardinality
    for quad in quads:
        if sum(quad.c1) + sum(quad.c2) != n or sum(quad.c1p) + sum(quad.c2p) != n:
            return False, "terminals conserving total size", str(quad)
    return True, "", ""


# name -> (runner(trials, seed, n_max), default n_max, smallest n_max).  The
# lambdas look the runners up when called, so a rebound runner is seen.
SUITES = {
    "prop1": (lambda t, s, n: run_prop1(t, n_max=n, seed=s), 8, 2),
    "prop2": (lambda t, s, n: run_prop2(t, n_max=n, seed=s), 8, 2),
    "divisibility": (lambda t, s, n: run_divisibility(t, n_max=n, seed=s), 8, 2),
    "calibration": (lambda t, s, n: run_torus_calibration(t, n_max=n, seed=s), 6, 2),
    "punc": (lambda t, s, n: run_punc_consistency(t, n_max=n, seed=s), 6, 2),
    "et-closure": (lambda t, s, n: run_et_closure_covers(n_max=n, seed=s), 6, 2),
    "single-column": (lambda t, s, n: run_single_column_density(n, t, seed=s), 6, 1),
    "duality": (lambda t, s, n: _all_pairs("duality", n, _duality_probe), 6, 1),
    "refinement": (lambda t, s, n: _all_pairs("refinement", n, _refinement_probe), 6, 1),
    "alg": (lambda t, s, n: _all_pairs("splitting_game", n, _splitting_game_probe), 6, 1),
}
