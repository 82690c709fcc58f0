"""Hypothesis properties of the integer quotient core.

vanishing_ideal draws points with numerators and denominators up to 10^6
and must return the monic, reduced basis of the points with the
Cerlienco-Mureddu staircase; torus_limit must keep the colength of sampled
ideals supported at the origin, and return a v-homogeneous basis, at the
calibration weight and at weights with a positive entry.  Polynomial
must satisfy the ring axioms, and format_polynomial must read back through
parse_polynomial.
"""

from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from grobasin.basinlab import BasinSampleSpec, sample_basin_ideal
from grobasin.groebner import reduced_groebner_basis, staircase_of, torus_limit, vanishing_ideal
from grobasin.poly import ONE, Polynomial, format_polynomial, parse_polynomial
from grobasin.staircase import enumerate_staircases

BOUND = 10**6
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-BOUND, BOUND), st.integers(1, BOUND))


@st.composite
def point_sets(draw):
    # a few horizontal lines, so that rows of several points occur
    levels = draw(st.lists(rationals, min_size=1, max_size=4, unique=True))
    return draw(
        st.lists(
            st.tuples(rationals, st.sampled_from(levels)),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


@PROPERTY
@given(point_sets())
def test_vanishing_ideal_is_the_reduced_basis_of_its_points(points):
    gb = reduced_groebner_basis(vanishing_ideal(points))
    leads = [g.leading_exponent() for g in gb.elements]
    for g in gb.elements:
        assert g.leading_coefficient() == 1
        assert all(g.evaluate(p) == 0 for p in points)
        # reduced: no term of g is divisible by another element's lead
        # (lex tails lie below the lead, so their own lead cannot divide them)
        others = [l for l in leads if l != g.leading_exponent()]
        assert not any(_divides(l, e) for e, _ in g.terms for l in others)
    # Cerlienco-Mureddu: the lex rows are the per-line counts, sorted
    counts = Counter(p[1] for p in points)
    assert list(gb.staircase.rows()) == sorted(counts.values(), reverse=True)


_TARGETS = [t for n in range(1, 8) for t in enumerate_staircases(n)]


@PROPERTY
@given(
    st.sampled_from(_TARGETS),
    st.integers(0, 10**6),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda v: max(v) > 0),
)
def test_torus_limit_of_origin_samples_keeps_colength_and_is_homogeneous(target, seed, weight):
    ideal = sample_basin_ideal(BasinSampleSpec(target, "origin", seed=seed))
    n = target.cardinality
    for v in ((-(n + 1), -1), weight):
        limit = torus_limit(ideal, v)
        assert staircase_of(limit).cardinality == n
        # the limit is fixed by the flow, so its reduced basis is v-homogeneous
        for g in limit.generators:
            assert len({e[0] * v[0] + e[1] * v[1] for e, _ in g.terms}) == 1


# a few terms of low degree with small coefficients keep products cheap
polynomials = st.builds(
    Polynomial,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
        max_size=5,
    ),
)


@PROPERTY
@given(polynomials, polynomials, polynomials)
def test_polynomial_ring_axioms(p, q, r):
    zero = Polynomial.zero()
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + zero == p and p * zero == zero
    assert p * ONE == p
    assert p - p == zero and p + (-p) == zero


@PROPERTY
@given(polynomials)
def test_format_parse_round_trip(p):
    text = format_polynomial(p)
    assert parse_polynomial(text) == p
    assert format_polynomial(parse_polynomial(text)) == text
