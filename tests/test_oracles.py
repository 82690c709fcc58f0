"""Oracles that share no code with grobasin.groebner.

sympy's lex Groebner basis over QQ is compared with
reduced_groebner_basis on seeded random ideals, and vanishing_ideal is
checked against the closed form of the lex staircase of a point set.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from grobasin.groebner import Ideal, reduced_groebner_basis, vanishing_ideal
from grobasin.poly import Polynomial


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


def _sympy_basis(gens):
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator) * x1**e[0] * x2**e[1]
            for e, c in g.terms
        )
        for g in gens
    ]
    basis = sympy.groebner(exprs, x1, x2, order="lex", domain="QQ")
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


@pytest.mark.parametrize("seed", range(50))
def test_lex_basis_matches_sympy(seed):
    gens = _random_ideal(seed)
    ours = reduced_groebner_basis(Ideal(gens)).elements
    assert {g.terms for g in ours} == _sympy_basis(gens)


@pytest.mark.parametrize("seed", range(8))
def test_vanishing_ideal_staircase_rows_are_level_counts(seed):
    # bivariate Cerlienco-Mureddu: under lex with x1 > x2 the rows of the
    # staircase of distinct points are their counts per x2-level, sorted
    rng = random.Random(1000 + seed)
    levels = [_rat(rng) for _ in range(rng.randint(1, 4))]
    size = rng.randint(2, 9)
    points = set()
    while len(points) < size:
        points.add((_rat(rng, 9), rng.choice(levels)))
    counts = Counter(p[1] for p in points)
    gb = reduced_groebner_basis(vanishing_ideal(sorted(points)))
    assert list(gb.staircase.rows()) == sorted(counts.values(), reverse=True)
