"""Oracles that share no code with grobasin.groebner.

sympy's lex and grlex Groebner bases over QQ are compared with
reduced_groebner_basis, intersect_comaximal and torus_limit on seeded
random ideals, and torus_limit against a saturation by t in sympy of
the weight-scaled family, and the walk at a weight order against sympy's
reduced basis under that order.  vanishing_ideal and the free sampler are
checked against the closed form of the lex staircase of a point set.  The
quotient matrices behind substitute and the samplers are checked against
Polynomial.compose plus Buchberger and for commuting; substitute is also
checked against sympy's own substitution and lex basis.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from grobasin.basinlab import BasinSampleSpec, _free_sample, sample_basin_ideal
from grobasin.groebner import (
    Ideal,
    NotZeroDimensional,
    _monic,
    _quotient,
    _walk,
    intersect_comaximal,
    monomial_ideal,
    point_ideal,
    reduced_groebner_basis,
    substitute,
    tall_point_ideal,
    torus_limit,
    vanishing_ideal,
)
from grobasin.poly import X1, X2, Polynomial
from grobasin.staircase import StandardSet, enumerate_staircases

from definitions import ideal_product


def _rat(rng, bound=5):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def _line_through(rng, point):
    # a*(x1 - p1) + b*(x2 - p2) with (a, b) != (0, 0)
    a, b = _rat(rng), _rat(rng)
    if a == 0 and b == 0:
        a = Fraction(1)
    return Polynomial(
        {(1, 0): a, (0, 1): b, (0, 0): -a * point[0] - b * point[1]}
    )


def _product(polys):
    out = Polynomial.constant(1)
    for p in polys:
        out = out * p
    return out


def _random_poly(rng, degree, terms):
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return Polynomial({e: _rat(rng) for e in rng.sample(exps, terms)})


def _random_ideal(seed):
    """Generators of one of five shapes, picked by the seed."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 0:
        # two dense quadrics: a generic zero-dimensional ideal
        return [_random_poly(rng, 2, 6) for _ in range(2)]
    if kind in (1, 2):
        # 3-4 products of lines through the points of P; with a repeated
        # point (kind 2) the ideal is not radical and not a product of
        # comaximal factors
        pts = [(_rat(rng), _rat(rng)) for _ in range(rng.randint(2, 3))]
        if kind == 2:
            pts.append(pts[0])
        return [
            _product(_line_through(rng, p) for p in pts)
            for _ in range(rng.randint(3, 4))
        ]
    if kind == 3:
        # a common linear factor: not zero-dimensional
        h = _random_poly(rng, 1, 2)
        return [h * _random_poly(rng, 2, 3) for _ in range(rng.randint(3, 4))]
    # sparse binomials and trinomials, often monomial-heavy
    return [
        _random_poly(rng, 3, rng.randint(1, 3))
        for _ in range(rng.randint(3, 4))
    ]


def _sympy_expr(g):
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    return sum(
        sympy.Rational(c.numerator, c.denominator) * x1**e[0] * x2**e[1]
        for e, c in g.terms
    )


def _sympy_groebner(exprs, order="lex"):
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    return sympy.groebner(exprs, x1, x2, order=order, domain="QQ")


def _sympy_terms(basis):
    return {
        tuple(
            sorted(
                (
                    (tuple(e), Fraction(int(c.numerator), int(c.denominator)))
                    for e, c in p.terms()
                ),
                reverse=True,
            )
        )
        for p in basis.polys
    }


def _sympy_basis(gens, order="lex"):
    return _sympy_terms(_sympy_groebner([_sympy_expr(g) for g in gens], order))


@pytest.mark.parametrize("seed", range(50))
def test_lex_basis_matches_sympy(seed):
    gens = _random_ideal(seed)
    ours = reduced_groebner_basis(Ideal(gens)).elements
    assert {g.terms for g in ours} == _sympy_basis(gens)


@pytest.mark.parametrize("seed", range(16))
def test_vanishing_ideal_staircase_rows_are_level_counts(seed):
    # bivariate Cerlienco-Mureddu: under lex with x1 > x2 the rows of the
    # staircase of distinct points are their counts per x2-level, sorted.
    # Seeds 0-7 draw 2-9 points on at most 4 levels, in sorted order; seeds
    # 8-15 draw 10-18 points on 2-9 levels (at most half the points), the
    # sizes of the points-large benchmark, in drawn order
    rng = random.Random(1000 + seed)
    if seed < 8:
        levels = [_rat(rng) for _ in range(rng.randint(1, 4))]
        size = rng.randint(2, 9)
        points = set()
        while len(points) < size:
            points.add((_rat(rng, 9), rng.choice(levels)))
        points = sorted(points)
    else:
        size = rng.randint(10, 18)
        lines = rng.randint(2, min(9, size // 2))
        levels = []
        while len(levels) < lines:
            if (c := _rat(rng, 9)) not in levels:
                levels.append(c)
        # every level gets a point, the rest fall anywhere
        points = [(_rat(rng, 9), c) for c in levels]
        while len(points) < size:
            point = (_rat(rng, 9), rng.choice(levels))
            if point not in points:
                points.append(point)
    counts = Counter(p[1] for p in points)
    gb = reduced_groebner_basis(vanishing_ideal(points))
    assert list(gb.staircase.rows()) == sorted(counts.values(), reverse=True)
    assert all(g.evaluate(p) == 0 for g in gb.elements for p in points)


def _translate(gens, point):
    # move the support by `point`: x1 -> x1 - a, x2 -> x2 - b
    a, b = point
    return [
        g.compose(X1 - Polynomial.constant(a), X2 - Polynomial.constant(b))
        for g in gens
    ]


def _origin_factor(rng):
    """Generators of a tall or fat point at the origin, 1-4 boxes."""
    if rng.random() < 0.5:
        height = rng.randint(1, 3)
        coeffs = [0] + [_rat(rng) for _ in range(height - 1)]
        return list(tall_point_ideal(height, coeffs).generators)
    # a monomial staircase bent by x1 -> x1 + c*x2^k
    cols = rng.choice([[1, 1], [2, 1], [2], [1, 1, 1], [3, 1]])
    corners = StandardSet.from_columns(cols).outer_corners()
    bend = X1 + Polynomial.monomial((0, rng.randint(1, 2)), _rat(rng))
    return [Polynomial.monomial(e).compose(bend, X2) for e in corners]


def _comaximal_factors(seed):
    # prop1 style: points at distinct abscissas on the x1-axis (columns
    # merge); prop2 style: points on distinct horizontal lines (rows merge)
    rng = random.Random(3000 + seed)
    spots = set()
    count = rng.randint(2, 4)
    while len(spots) < count:
        spots.add(_rat(rng))
    places = [(z, 0) if seed % 2 else (0, z) for z in sorted(spots)]
    return [_translate(_origin_factor(rng), p) for p in places]


@pytest.mark.parametrize("seed", range(30))
def test_intersect_matches_product_and_sympy(seed):
    factors = _comaximal_factors(seed)
    ours = intersect_comaximal(Ideal(f) for f in factors)
    product = Ideal(factors[0])
    for f in factors[1:]:
        product = Ideal(
            reduced_groebner_basis(ideal_product(product, Ideal(f))).elements
        )
    expected = reduced_groebner_basis(product).elements
    assert ours.generators == expected
    # sympy's own iterated product, compacted by its lex basis each step
    basis = _sympy_groebner([_sympy_expr(g) for g in factors[0]])
    for f in factors[1:]:
        basis = _sympy_groebner(
            [a * _sympy_expr(h) for a in basis.exprs for h in f]
        )
    assert {g.terms for g in ours.generators} == _sympy_terms(basis)


def _grlex_differs(seed):
    # (x1 - p(x2), q(x2)) with deg p >= 2: x2^deg(p) leads x1 - p(x2)
    # under grlex, so the lex basis is not the weight basis
    rng = random.Random(4000 + seed)
    deg_q = rng.randint(3, 5)
    p = Polynomial({(0, b): _rat(rng) for b in range(deg_q)})
    p = p + Polynomial.monomial((0, rng.randint(2, deg_q - 1)))
    roots = set()
    while len(roots) < deg_q:
        roots.add(_rat(rng))
    q = Polynomial.constant(1)
    for r in roots:
        q = q * (X2 - Polynomial.constant(r))
    return [X1 - p, q]


# seeds of _random_ideal whose ideal is zero-dimensional
_ZERO_DIMENSIONAL = [
    s for s in range(50) if s not in (3, 4, 8, 13, 23, 28, 33, 38, 48)
]


@pytest.mark.parametrize(
    "gens",
    [_grlex_differs(s) for s in range(12)]
    + [_random_ideal(s) for s in _ZERO_DIMENSIONAL],
)
def test_weight_limit_is_top_degree_of_sympy_grlex(gens):
    # the weight (-1, -1) refined by lex is grlex with x1 > x2; the
    # limit is generated by the top-degree parts of the grlex basis
    limit = torus_limit(Ideal(gens), (-1, -1))
    expected = set()
    for terms in _sympy_basis(gens, order="grlex"):
        top = max(e[0] + e[1] for e, _ in terms)
        expected.add(tuple(t for t in terms if sum(t[0]) == top))
    assert {g.terms for g in limit.generators} == expected


def test_weight_limit_cases_exercise_the_walk():
    # some lex lead is not the grlex lead, so the lex basis is not reused
    for gens in map(_grlex_differs, range(12)):
        lex = reduced_groebner_basis(Ideal(gens)).elements
        assert any(
            g.leading_under(lambda e: (e[0] + e[1], e))[0] != g.terms[0][0]
            for g in lex
        )


def _saturation_start(kind, arg):
    # four seeded distinct points; an origin sample of the columns arg; that
    # sample joined by its translate to (0, 1), supported on x1 = 0; or an
    # x1_axis sample of arg, supported on x2 = 0
    if kind in ("origin", "x2=0"):
        target = StandardSet.from_columns(arg)
        mode = "origin" if kind == "origin" else "x1_axis"
        return sample_basin_ideal(BasinSampleSpec(target, mode, seed=sum(arg)))
    if kind == "x1=0":
        sample = _saturation_start("origin", arg)
        return intersect_comaximal([sample, substitute(sample, 2, Polynomial.constant(-1))])
    rng = random.Random(f"saturation:{arg}")
    points = set()
    while len(points) < 4:
        points.add((_small(rng), rng.randint(-2, 2)))
    return vanishing_ideal(sorted(points))


# nonpositive weights on points; every sign on the origin; a positive
# entry on a line through the origin where that coordinate vanishes
_SATURATION_CASES = [
    (("points", seed), v)
    for seed in range(6)
    for v in [(-1, -2), (-2, -1), (-3, -1), (0, -1), (-1, 0)]
] + [
    (("origin", cols), v)
    for cols in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]
    for v in [(1, 1), (1, 3), (2, 1), (1, -1), (-1, 2), (-1, -1)]
] + [
    (("x1=0", cols), v) for cols in [(2, 1), (2, 2)] for v in [(1, 0), (2, -1)]
] + [
    (("x2=0", cols), v) for cols in [(2, 1), (3, 1)] for v in [(-1, 2), (0, 1)]
]


def _weight(v, e):
    return v[0] * e[0] + v[1] * e[1]


@pytest.mark.parametrize("start,v", _SATURATION_CASES, ids=str)
def test_torus_limit_matches_sympy_saturation(start, v):
    # the flat limit from sympy alone: scale each term by t^<v,e> and clear
    # the lowest power of t, saturate by t through 1 - s*t in a lex basis
    # over (s, t, x1, x2), keep the elements free of s and set t = 0
    sympy = pytest.importorskip("sympy")
    s, t, x1, x2 = sympy.symbols("s t x1 x2")
    ideal = _saturation_start(*start)
    family = [1 - s * t]
    for g in ideal.generators:
        low = min(_weight(v, e) for e, _ in g.terms)
        family.append(
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * t ** (_weight(v, e) - low) * x1 ** e[0] * x2 ** e[1]
                for e, c in g.terms
            )
        )
    saturated = sympy.groebner(family, s, t, x1, x2, order="lex", domain="QQ")
    fibre = [p.subs(t, 0) for p in saturated.exprs if not p.has(s)]
    expected = _sympy_terms(_sympy_groebner([p for p in fibre if p != 0]))
    limit = torus_limit(ideal, v)
    assert {g.terms for g in limit.generators} == expected


def test_saturation_cases_exercise_the_walk():
    # at a nonpositive weight, at two positive ones and at one positive
    # entry, some lex lead is not the weight lead, so torus_limit walks
    # instead of reusing the lex basis
    walked = Counter()
    for start, v in _SATURATION_CASES:
        lex = reduced_groebner_basis(_saturation_start(*start)).elements
        walked[sum(w > 0 for w in v)] += any(
            g.leading_under(lambda e: (-_weight(v, e), e))[0] != g.terms[0][0]
            for g in lex
        )
    assert min(walked[0], walked[1], walked[2]) > 0, walked


def _walk_start(kind, arg):
    # four to six seeded distinct points, or an origin sample of the columns arg
    if kind == "origin":
        return _saturation_start(kind, arg)
    rng = random.Random(f"weight-walk:{arg}")
    points, count = set(), rng.randint(4, 6)
    while len(points) < count:
        points.add((_small(rng), rng.randint(-2, 2)))
    return vanishing_ideal(sorted(points))


_WALK_WEIGHTS = [(-1, -3), (-3, -1), (0, -1), (-1, 0), (-2, -5)]
_WALK_CASES = [
    (("points", seed), v) for seed in range(6) for v in _WALK_WEIGHTS
] + [
    (("origin", cols), v)
    for cols in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]
    for v in _WALK_WEIGHTS
]


def _sympy_weight_order(v):
    # the weight v refined by lex, the key (-<v, e>, e) of _weight_key; one
    # class per call, as sympy caches rings by their order and a
    # MonomialOrder compares and hashes by its class alone
    orderings = pytest.importorskip("sympy.polys.orderings")

    class WeightOrder(orderings.MonomialOrder):
        is_global = True  # v is nonpositive

        def __call__(self, e):
            return (-_weight(v, e), e)

    return WeightOrder()


@pytest.mark.parametrize("start,v", _WALK_CASES, ids=str)
def test_weight_walk_matches_sympy(start, v):
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    gb = reduced_groebner_basis(_walk_start(*start))
    ours = map(_monic, *_walk(_quotient(gb), v))
    basis = sympy.groebner(
        [_sympy_expr(g) for g in gb.elements],
        x1, x2, order=_sympy_weight_order(v), domain="QQ",
    )
    # read the expressions: printing the basis calls the order's key on
    # tuples shorter than two
    theirs = {
        tuple(
            sorted(
                (
                    (e, Fraction(int(c.numerator), int(c.denominator)))
                    for e, c in sympy.Poly(g, x1, x2).terms()
                ),
                reverse=True,
            )
        )
        for g in basis.exprs
    }
    assert {g.terms for g in ours} == theirs


def test_weight_walk_cases_leave_lex():
    # in some case the weight leads are not the lex leads
    assert any(
        set(_walk(_quotient(gb), v)[0])
        != {g.terms[0][0] for g in gb.elements}
        for start, v in _WALK_CASES
        for gb in [reduced_groebner_basis(_walk_start(*start))]
    )


@pytest.mark.parametrize(
    "factors",
    [
        [point_ideal((0, 0)), point_ideal((0, 0))],
        [point_ideal((1, 2)), vanishing_ideal([(1, 2), (3, 4)])],
        [tall_point_ideal(2, [0, 1]), point_ideal((0, 0))],
        [
            Ideal(_translate([X1**2, X2], (1, 1))),
            Ideal(_translate([X1, X2**2], (1, 1))),
        ],
    ],
)
def test_intersect_overlapping_supports_raise(factors):
    with pytest.raises(ValueError, match="supports not disjoint"):
        intersect_comaximal(factors)


@pytest.mark.parametrize(
    "factors",
    [
        [point_ideal((0, 0)), Ideal((X1 - Polynomial.constant(1),))],
        [Ideal((X1 * X2, X2**2)), point_ideal((1, 1))],
    ],
)
def test_intersect_not_zero_dimensional_raises(factors):
    with pytest.raises(NotZeroDimensional):
        intersect_comaximal(factors)


@pytest.mark.parametrize(
    "cols,seed",
    [
        (t.cols(), seed)
        for n in range(1, 7)
        for t in enumerate_staircases(n)
        for seed in range(3)
    ],
    ids=str,
)
def test_free_sample_lands_in_target_first_time(cols, seed):
    # Cerlienco-Mureddu: |row_i| points on the i-th of distinct lines have
    # exactly the rows of target as their lex staircase
    target = StandardSet.from_columns(cols)
    ideal = _free_sample(target, random.Random(f"free:{seed}"))
    assert reduced_groebner_basis(Ideal(list(ideal.generators))).staircase == target


def _small(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def _substitution_start(rng):
    """A zero-dimensional ideal of one of three kinds: the corners of a
    monomial ideal, colength <= 10 (no carried quotient); up to 6 integer
    points (a block-diagonal quotient); or monomial bent by x1 -> x1 + c*x2
    (a carried quotient)."""
    kind = rng.randrange(3)
    if kind == 1:
        points = set()
        n = rng.randint(1, 6)
        while len(points) < n:
            points.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        return vanishing_ideal(sorted(points))
    ideal = monomial_ideal(rng.choice(enumerate_staircases(rng.randint(1, 10))))
    if kind == 2:
        return substitute(ideal, 1, Polynomial.monomial((0, 1), _small(rng)))
    return Ideal(list(ideal.generators))


def _shift(rng, index, constant):
    # a constant, or 1-2 terms of degree 1-3 in the variable other than x_index
    if constant:
        return Polynomial.constant(_small(rng))
    exps = [(0, b) if index == 1 else (b, 0) for b in range(1, 4)]
    return Polynomial({e: _small(rng) for e in rng.sample(exps, rng.randint(1, 2))})


@pytest.mark.parametrize("seed", range(60))
def test_substitute_matches_compose_then_buchberger(seed):
    rng = random.Random(5000 + seed)
    ideal = _substitution_start(rng)
    index = 1 + seed % 2
    p = _shift(rng, index, constant=seed % 4 >= 2)
    image1, image2 = (X1 + p, X2) if index == 1 else (X1, X2 + p)
    expected = reduced_groebner_basis(
        Ideal([g.compose(image1, image2) for g in ideal.generators])
    )
    ours = substitute(ideal, index, p)
    assert ours.basis == expected
    assert ours.generators == expected.elements


def _oracle_start(rng, kind):
    """A monomial ideal, an origin or axis sample, or distinct points, with
    colength at most 6."""
    target = rng.choice(enumerate_staircases(rng.randint(1, 6)))
    if kind == "monomial":
        return monomial_ideal(target)
    if kind in ("origin", "x1_axis"):
        return sample_basin_ideal(BasinSampleSpec(target, kind, seed=rng.randrange(10**6)))
    points = set()
    while len(points) < target.cardinality:
        points.add((_small(rng), rng.randint(-2, 2)))
    return vanishing_ideal(sorted(points))


@pytest.mark.parametrize("draw", range(3))
@pytest.mark.parametrize(
    "index,constant",
    [(1, False), (1, True), (2, True), (2, False)],
    # the first three hand the staircase on unwalked; the last walks at once
    ids=["x1-in-x2", "x1-constant", "x2-constant", "x2-in-x1"],
)
@pytest.mark.parametrize("kind", ["monomial", "origin", "x1_axis", "points"])
def test_substitute_matches_sympy(kind, index, constant, draw):
    # the composed generators go to sympy as expressions: the substitution
    # is sympy's own, and no grobasin code builds the expected basis
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    rng = random.Random(f"substitute:{kind}:{index}:{constant}:{draw}")
    ideal = _oracle_start(rng, kind)
    p = _shift(rng, index, constant)
    var = (x1, x2)[index - 1]
    composed = [
        sympy.expand(_sympy_expr(g).subs(var, var + _sympy_expr(p)))
        for g in ideal.generators
    ]
    ours = substitute(ideal, index, p)
    assert {g.terms for g in ours.generators} == _sympy_terms(_sympy_groebner(composed))
    if index == 1 or constant:
        assert ours.basis.staircase == reduced_groebner_basis(ideal).staircase


def test_substitute_rejects_the_substituted_variable():
    with pytest.raises(ValueError, match="must not involve x1"):
        substitute(point_ideal((0, 0)), 1, X1)
    with pytest.raises(NotZeroDimensional):
        substitute(Ideal((X1,)), 2, X1)


def _matvec(matrix, vec):
    out = {}
    for j, c in vec.items():
        for i, a in matrix[j].items():
            out[i] = out.get(i, 0) + c * a
    return {i: c for i, c in out.items() if c}


def _evaluate(g, m1, m2, one):
    # g(M1, M2) applied to one
    total = {}
    for (a, b), c in g.terms:
        vec = one
        for _ in range(a):
            vec = _matvec(m1, vec)
        for _ in range(b):
            vec = _matvec(m2, vec)
        for i, x in vec.items():
            total[i] = total.get(i, 0) + c * x
    return {i: x for i, x in total.items() if x}


_SPECS = [
    (t.cols(), constraint)
    for n in range(1, 8)
    for t in enumerate_staircases(n)
    for constraint in ("origin", "x1_axis", "horizontal_line", "free")
]


@pytest.mark.parametrize("cols,constraint", _SPECS, ids=str)
def test_sampled_quotients_commute_and_annihilate_the_basis(cols, constraint):
    target = StandardSet.from_columns(cols)
    spec = BasinSampleSpec(
        target,
        constraint,
        line=Fraction(-3, 2) if constraint == "horizontal_line" else None,
        seed=sum(cols),
    )
    gb = reduced_groebner_basis(sample_basin_ideal(spec))
    # the carried quotient keeps integer entries over one denominator
    (cols1, den1), (cols2, den2), (one_entries, one_den) = _quotient(gb)
    assert min(den1, den2, one_den) > 0
    assert gcd(one_den, *one_entries.values()) == 1
    m1 = [{i: Fraction(c, den1) for i, c in col.items()} for col in cols1]
    m2 = [{i: Fraction(c, den2) for i, c in col.items()} for col in cols2]
    one = {i: Fraction(c, one_den) for i, c in one_entries.items()}
    assert len(m1) == len(m2) == target.cardinality
    for j in range(len(m1)):
        unit = {j: Fraction(1)}
        assert _matvec(m1, _matvec(m2, unit)) == _matvec(m2, _matvec(m1, unit))
    for g in gb.elements:
        assert _evaluate(g, m1, m2, one) == {}
