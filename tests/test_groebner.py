import copy
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from grobasin import groebner
from grobasin.groebner import (
    Ideal,
    LimitDoesNotExist,
    NotZeroDimensional,
    ReducedGroebnerBasis,
    format_ideal,
    intersect_comaximal,
    monomial_ideal,
    normal_form,
    parse_ideal_text,
    point_ideal,
    reduced_groebner_basis,
    staircase_of,
    substitute,
    supported_at_origin,
    supported_on_line,
    tall_point_ideal,
    torus_limit,
    vanishing_ideal,
)
from grobasin.groebner import _quotient, _substituted, _unwalked
from grobasin.basinlab import BasinSampleSpec, sample_basin_ideal
from grobasin.poly import Polynomial, X1, X2, parse_polynomial
from grobasin.staircase import EMPTY, StandardSet, cell_dimensions, enumerate_staircases

from definitions import (
    ideal_product,
    leading_under,
    punctual_limit_by_grid,
    torus_scale,
)


def P(text):
    return parse_polynomial(text)


class TestIdeal:
    def test_drops_zero_generators(self):
        ideal = Ideal((P("x1"), Polynomial.zero()))
        assert ideal.generators == (P("x1"),)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Ideal((Polynomial.zero(),))

    def test_built_from_basis_carries_it(self):
        gb = reduced_groebner_basis(Ideal((P("x1^2 - x2"), P("x2^2"))))
        ideal = Ideal(gb)
        assert ideal.basis is gb
        assert reduced_groebner_basis(ideal) is gb
        assert ideal == Ideal(gb.elements)
        assert hash(ideal) == hash(Ideal(gb.elements))
        assert Ideal(gb.elements).basis is None

    def test_ideal_and_basis_are_immutable(self):
        ideal = Ideal((P("x1"), P("x2")))
        gb = reduced_groebner_basis(ideal)
        for obj in (ideal, Ideal(gb), gb):
            for name in ("_generators", "basis", "_elements", "staircase", "quotient", "other"):
                with pytest.raises(AttributeError, match="is immutable$"):
                    setattr(obj, name, None)
        assert ideal.generators == (P("x1"), P("x2"))
        assert gb.elements == (P("x2"), P("x1"))


class TestCarriedBasis:
    def _fresh(self, ideal):
        return reduced_groebner_basis(Ideal(list(ideal.generators)))

    def test_intersection_carries_its_basis(self):
        ideal = intersect_comaximal(
            [tall_point_ideal(2, [0, 1]), point_ideal((1, 0)), point_ideal((0, 5))]
        )
        gb = reduced_groebner_basis(ideal)
        assert gb is ideal.basis
        assert gb == self._fresh(ideal)
        assert ideal.generators == gb.elements

    @pytest.mark.parametrize(
        "gens",
        [
            ("x1^7 - 1", "x2"),
            ("x1 + 2*x2 - x2^2", "x2^3"),
            ("x1^2 - x2", "x2^2 - 1", "x1*x2 + x1 - 1"),
        ],
    )
    def test_single_factor_is_its_own_intersection(self, gens):
        factor = Ideal(tuple(P(g) for g in gens))
        gb = self._fresh(factor)
        ideal = intersect_comaximal([factor])
        assert reduced_groebner_basis(ideal) is ideal.basis
        assert ideal.basis == gb
        # no walk: a factor that carries its basis hands that object on
        assert intersect_comaximal([Ideal(gb)]).basis is gb

    def test_vanishing_ideal_carries_its_basis(self):
        ideal = vanishing_ideal([(0, 0), (1, 2), (Fraction(-1, 3), 1), (2, 2)])
        assert reduced_groebner_basis(ideal) is ideal.basis
        assert ideal.basis == self._fresh(ideal)

    @pytest.mark.parametrize("v", [(-1, -1), (-3, -1), (0, -1), (1, 4)])
    def test_torus_limit_carries_its_basis(self, v):
        ideal = Ideal((P("x1 + x2 + x2^2"), P("x2^3")))
        limit = torus_limit(ideal, v)
        assert reduced_groebner_basis(limit) is limit.basis
        assert limit.basis == self._fresh(limit)


class TestDeferredSubstitution:
    """x1 -> x1 + p(x2) and translations keep every lex leading term, so
    substitute hands the staircase on and walks the basis only when read."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = groebner._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(groebner, "_walk", counted)
        return calls

    @pytest.mark.parametrize("read", ["generators", "elements"])
    @pytest.mark.parametrize(
        "index,p",
        [(1, P("-2/3")), (1, P("x2 - 3*x2^2")), (2, P("5"))],
        ids=["x1-constant", "x1-in-x2", "x2-constant"],
    )
    def test_no_walk_until_the_basis_is_read(self, walks, read, index, p):
        start = monomial_ideal(StandardSet([3, 1]))
        image1, image2 = (X1 + p, X2) if index == 1 else (X1, X2 + p)
        expected = reduced_groebner_basis(
            Ideal([g.compose(image1, image2) for g in start.generators])
        )
        walks.clear()
        ideal = substitute(start, index, p)
        gb = reduced_groebner_basis(ideal)
        assert staircase_of(ideal) == StandardSet([3, 1])
        # the readers of the quotient and the staircase walk nothing
        supported_at_origin(gb)
        supported_on_line(gb, 1)
        again = substitute(ideal, 1, Polynomial.constant(1))
        assert staircase_of(again) == StandardSet([3, 1])
        assert walks == []
        if read == "generators":
            assert ideal.generators == expected.elements
        else:
            assert gb.elements == expected.elements
        assert len(walks) == 1
        # the elements are kept: equality, hashing and repr walk no more
        assert gb == expected and hash(ideal) == hash(Ideal(expected))
        assert repr(ideal) == repr(Ideal(expected.elements))
        assert len(walks) == 1

    def test_x2_by_x1_walks_at_once(self, walks):
        ideal = substitute(monomial_ideal(StandardSet([1, 1])), 2, X1)
        assert len(walks) == 1
        assert staircase_of(ideal) == StandardSet([2])
        assert ideal.generators == (X2**2, X1 + X2)
        assert len(walks) == 1

    def test_a_substitution_that_moves_nothing_walks_nothing(self, walks):
        # for the columns (2, 1, 1), M1^3 = 0 and M2^2 = 0, so x2 -> x2 + x1^3
        # and x1 -> x1 + x2^2 leave every matrix as it was
        start = reduced_groebner_basis(monomial_ideal(StandardSet([2, 1, 1])))
        for index, p in [(2, P("x1^3")), (2, P("x1^4 - 2*x1^3")), (1, P("x2^2"))]:
            assert substitute(Ideal(start), index, p).basis is start
        assert walks == []
        # from generators alone the result still carries its basis
        plain = Ideal(start.elements)
        assert substitute(plain, 2, P("x1^3")).basis == start
        # on (x2 - x1, x1^2), M2 = M1: x2 -> x2 + x1 cancels every entry of
        # M2, and is still a move
        line = Ideal((X2 - X1, X1**2))
        moved = substitute(line, 2, X1)
        assert staircase_of(moved) == StandardSet([1, 1])
        assert moved.generators == (X2, X1**2)
        assert len(walks) == 1

    @pytest.mark.parametrize("index", [1, 2])
    def test_the_zero_shift_is_gated_and_carries_its_basis(self, walks, index):
        # p = 0 takes the gate every other p takes, then moves nothing
        zero, other = Polynomial.zero(), (X2 if index == 1 else X1)
        line = Ideal((X1,)) if index == 1 else Ideal((X2,))
        for p in (zero, other):
            with pytest.raises(NotZeroDimensional):
                substitute(line, index, p)
        plain = Ideal((X1 + X2, X2**2))
        shifted = substitute(plain, index, zero)
        assert shifted.basis is not None
        assert shifted.basis == reduced_groebner_basis(plain)
        assert shifted == Ideal((X2**2, X1 + X2))
        assert walks == []

    # the index is checked first, before p and before the ideal is read
    TWO_POINTS = vanishing_ideal([(1, 2), (3, 4)])

    def test_index_3_with_zero_p_is_rejected(self):
        with pytest.raises(ValueError, match="^index must be 1 or 2$"):
            substitute(self.TWO_POINTS, 3, Polynomial.zero())

    def test_index_0_with_x2_is_rejected(self):
        with pytest.raises(ValueError, match="^index must be 1 or 2$"):
            substitute(self.TWO_POINTS, 0, X2)

    @pytest.mark.parametrize("index", [0, 3])
    def test_index_out_of_range_with_x1_is_rejected(self, index):
        with pytest.raises(ValueError, match="^index must be 1 or 2$"):
            substitute(self.TWO_POINTS, index, X1)

    def test_float_index_is_rejected(self):
        with pytest.raises(ValueError, match="^index must be 1 or 2$"):
            substitute(self.TWO_POINTS, 1.0, X2)
        # the int index still moves the points (1, 2), (3, 4) by -x2
        assert substitute(self.TWO_POINTS, 1, X2) == vanishing_ideal([(-1, 2), (-1, 4)])

    def test_bool_index_is_rejected(self):
        # True == 1, but only the ints 1 and 2 are indices
        with pytest.raises(ValueError, match="^index must be 1 or 2$"):
            substitute(self.TWO_POINTS, True, X2)

    def test_a_wrong_carried_staircase_raises_when_walked(self):
        quotient = _quotient(reduced_groebner_basis(monomial_ideal(StandardSet([2, 1]))))
        claim = Ideal(_unwalked(StandardSet([3]), quotient))
        assert staircase_of(claim) == StandardSet([3])
        with pytest.raises(RuntimeError, match="walked staircase"):
            claim.generators


def _dense(matrix, size):
    cols, den = matrix
    return [[Fraction(cols[j].get(i, 0), den) for j in range(size)] for i in range(size)]


def _times(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b))]
        for i in range(len(a))
    ]


class TestSubstitutedMatrices:
    """_substituted against M_index - p(M_other) in exact dense Fractions."""

    @staticmethod
    def _quotients():
        square = _quotient(reduced_groebner_basis(monomial_ideal(StandardSet([4, 3, 1]))))
        # after an x2 substitution the matrices are dense, with denominators
        dense = _quotient(
            reduced_groebner_basis(
                substitute(monomial_ideal(StandardSet([3, 2, 1])), 2, P("2/3*x1 - 5/4*x1^2"))
            )
        )
        return [square, dense]

    @pytest.mark.parametrize("index", [1, 2])
    def test_matches_the_dense_oracle(self, index):
        rng = random.Random(index)
        for quotient in self._quotients():
            size = len(quotient[0][0])
            other = _dense(quotient[2 - index], size)
            for degree in range(6):
                for _ in range(3):
                    exps = {degree} | {rng.randint(0, degree) for _ in range(2)}
                    coeffs = {
                        b: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
                        for b in exps
                    }
                    p = Polynomial(
                        {((0, b) if index == 1 else (b, 0)): c for b, c in coeffs.items()}
                    )
                    expected = _dense(quotient[index - 1], size)
                    power = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
                    for b in range(degree + 1):
                        if b:
                            power = _times(other, power)
                        for i in range(size):
                            for j in range(size):
                                expected[i][j] -= coeffs.get(b, 0) * power[i][j]
                    moved = _substituted(quotient, index, p)
                    assert _dense(moved[index - 1], size) == expected
                    cols, den = moved[index - 1]
                    # over the least common denominator, with no zero entries
                    assert den > 0
                    assert gcd(den, *(c for col in cols for c in col.values())) == 1
                    assert all(c for col in cols for c in col.values())
                    assert moved[2 - index] is quotient[2 - index]
                    assert moved[2] is quotient[2]

    def test_zero_shift_returns_the_input(self):
        # for the columns (3, 1), M1^2 = 0 and M2^3 = 0
        quotient = _quotient(reduced_groebner_basis(monomial_ideal(StandardSet([3, 1]))))
        assert _substituted(quotient, 2, P("x1^2 - 1/2*x1^5")) is quotient
        assert _substituted(quotient, 1, P("3*x2^3")) is quotient
        assert _substituted(quotient, 2, P("x1")) is not quotient
        assert _substituted(quotient, 1, P("x2^2")) is not quotient


class TestElementsBuiltWhenRead:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = Polynomial.__init__

        def counted(self, coeffs=None):
            calls.append(coeffs)
            init(self, coeffs)

        monkeypatch.setattr(Polynomial, "__init__", counted)
        return calls

    @pytest.mark.parametrize("case", ["intersection", "x2-substitution"])
    def test_no_polynomial_until_read(self, built, case):
        shift, again = P("x1 - 2*x1^2"), P("x2")
        if case == "intersection":
            factors = [tall_point_ideal(2, [0, 1]), point_ideal((1, 0)), point_ideal((0, 5))]
            fresh = reduced_groebner_basis(
                ideal_product(ideal_product(*factors[:2]), factors[2])
            )
        else:
            start = monomial_ideal(StandardSet([3, 1]))
            fresh = reduced_groebner_basis(
                Ideal([g.compose(X1, X2 + shift) for g in start.generators])
            )
        built.clear()
        if case == "intersection":
            ideal = intersect_comaximal(factors)
        else:
            ideal = substitute(start, 2, shift)
        gb = reduced_groebner_basis(ideal)
        # the readers of the staircase and the quotient build nothing
        assert gb.staircase == fresh.staircase
        supported_at_origin(gb)
        supported_on_line(gb, 0)
        substitute(ideal, 1, again)
        assert built == []
        assert gb == fresh
        assert built
        assert hash(gb) == hash(fresh) and hash(ideal) == hash(Ideal(fresh))
        assert repr(gb) == repr(fresh)
        assert repr(ideal) == repr(Ideal(fresh.elements))
        assert ideal.generators is gb.elements


class TestNormalForm:
    def test_frozen_example(self):
        basis = [P("x2"), P("x1^2 - x1")]
        assert normal_form(P("x1^2"), basis) == P("x1")

    def test_accepts_reduced_basis_object(self):
        gb = reduced_groebner_basis(vanishing_ideal([(0, 0), (1, 0)]))
        assert normal_form(P("x1^2"), gb) == P("x1")
        assert normal_form(gb.elements[0], gb).is_zero()

    def test_members_reduce_to_zero(self):
        basis = [P("x2"), P("x1^2 - x1")]
        f = P("x1^2 - x1") * P("x1 + 3") + P("x2") * P("x2^5 - x1")
        assert normal_form(f, basis).is_zero()

    def test_remainder_supported_on_staircase(self):
        basis = reduced_groebner_basis(
            vanishing_ideal([(0, 0), (1, 0), (0, 1)])
        ).elements
        stairs = staircase_of(Ideal(basis)).points()
        rng = random.Random(3)
        for _ in range(20):
            f = Polynomial(
                {
                    (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                        rng.randint(-5, 5)
                    )
                    for _ in range(4)
                }
            )
            rem = normal_form(f, list(basis))
            assert all(e in stairs for e, _ in rem.terms)

    def test_idempotent(self):
        basis = [P("x2^2 - x2"), P("x1^2 - x1")]
        f = P("x1^3*x2^2 + x1")
        once = normal_form(f, basis)
        assert normal_form(once, basis) == once


class TestReducedBasis:
    def test_two_points_frozen(self):
        gb = reduced_groebner_basis(vanishing_ideal([(0, 0), (1, 0)]))
        assert gb.elements == (P("x2"), P("x1^2 - x1"))
        assert gb.staircase == StandardSet([1, 1])

    def test_three_points_frozen(self):
        gb = reduced_groebner_basis(
            vanishing_ideal([(0, 0), (1, 0), (0, 1)])
        )
        assert gb.elements == (
            P("x2^2 - x2"),
            P("x1*x2"),
            P("x1^2 - x1"),
        )
        assert gb.staircase == StandardSet([2, 1])

    def test_pair_frozen(self):
        gb = reduced_groebner_basis(Ideal((P("x1^2 - x2"), P("x2^2 - 1"))))
        assert gb.elements == (P("x2^2 - 1"), P("x1^2 - x2"))
        assert gb.staircase == StandardSet([2, 2])

    def test_generator_presentation_invariance(self):
        base = [P("x1^2 - x2"), P("x2^2 - 1"), P("x1*x2 + x1 - 1")]
        expected = reduced_groebner_basis(Ideal(tuple(base))).elements
        for seed in range(30):
            rng = random.Random(seed)
            gens = list(base)
            for _ in range(3):
                i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
                factor = Polynomial(
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                            rng.randint(-3, 3)
                        )
                    }
                )
                gens.append(gens[i] + gens[j] * factor)
            rng.shuffle(gens)
            got = reduced_groebner_basis(Ideal(tuple(gens))).elements
            assert got == expected

    def test_elements_are_monic_and_sorted(self):
        gb = reduced_groebner_basis(Ideal((P("3*x2 + x1"), P("2*x1^2"))))
        exps = [g.leading_exponent() for g in gb.elements]
        assert all(g.leading_coefficient() == 1 for g in gb.elements)
        assert exps == sorted(exps)

    def test_unit_ideal(self):
        gb = reduced_groebner_basis(Ideal((P("x1"), P("x1 - 1"))))
        assert gb.elements == (P("1"),)
        assert gb.staircase == EMPTY

    def test_principal_not_zero_dimensional(self):
        gb = reduced_groebner_basis(Ideal((P("x1 - x2"),)))
        assert gb.staircase is None
        assert not gb.is_zero_dimensional
        with pytest.raises(NotZeroDimensional):
            staircase_of(Ideal((P("x1 - x2"),)))


class TestMonomialIdeals:
    def test_round_trip_all_small(self):
        for n in range(6):
            for s in enumerate_staircases(n):
                assert staircase_of(monomial_ideal(s)) == s

    def test_generators_are_corners(self):
        s = StandardSet([3, 1])
        gb = reduced_groebner_basis(monomial_ideal(s))
        assert set(gb.elements) == {
            Polynomial.monomial(e) for e in s.outer_corners()
        }

    def test_empty_staircase(self):
        gb = reduced_groebner_basis(monomial_ideal(EMPTY))
        assert gb.elements == (P("1"),)
        assert gb.staircase == EMPTY
        assert _quotient(gb) == (([], 1), ([], 1), ({}, 1))

    def test_carried_basis_and_quotient_match_buchberger(self):
        # the shift matrices on the staircase against Buchberger on the
        # corners and the quotient built from that fresh basis
        for n in range(9):
            for s in enumerate_staircases(n):
                ideal = monomial_ideal(s)
                fresh = reduced_groebner_basis(Ideal(list(ideal.generators)))
                assert fresh.quotient is None
                assert ideal.basis == fresh
                assert ideal.generators == fresh.elements
                assert ideal.basis.quotient == _quotient(fresh)


    def test_one_basis_per_staircase_left_unchanged_by_its_users(self):
        s = StandardSet([3, 2, 2])
        first, second = monomial_ideal(s), monomial_ideal(StandardSet([3, 2, 2]))
        assert first.basis is second.basis
        before = copy.deepcopy(first.basis.quotient)
        substitute(first, 1, P("2*x2 - x2^2"))
        substitute(first, 1, P("-3"))
        substitute(first, 2, P("x1 + 1/2*x1^2"))
        substitute(first, 2, P("5/7"))
        intersect_comaximal([first, point_ideal((1, 1)), substitute(second, 1, P("4"))])
        assert first.basis.quotient == before
        assert monomial_ideal(s).basis is first.basis


class TestPointsAndIntersections:
    def test_point_ideal(self):
        gb = reduced_groebner_basis(point_ideal((Fraction(1, 2), -3)))
        assert gb.elements == (P("x2 + 3"), P("x1 - 1/2"))
        assert gb.staircase == StandardSet([1])

    def test_point_ideal_rejects_floats(self):
        with pytest.raises(ValueError, match="coordinates must be exact"):
            point_ideal((0, 0.5))
        assert point_ideal(("1/2", Fraction(3))) == point_ideal((Fraction(1, 2), 3))

    def test_vanishing_ideal_rejects_floats(self):
        # 0.1 would be taken as 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="coordinates must be exact"):
            vanishing_ideal([(0, 0), (0.1, 0)])
        exact = vanishing_ideal([(0, 0), ("1/10", 0)])
        assert exact.generators == (P("x2"), P("x1^2 - 1/10*x1"))

    # a point is a tuple or list of exactly two coordinates; a string is
    # not read character by character, and no coordinate is dropped
    def test_vanishing_ideal_rejects_string_points(self):
        with pytest.raises(ValueError, match="^coordinates must be two numbers .* not '12'$"):
            vanishing_ideal(["12", "34"])
        assert vanishing_ideal([[1, 2], (3, 4)]) == vanishing_ideal([(1, 2), (3, 4)])

    def test_point_ideal_rejects_a_triple(self):
        with pytest.raises(ValueError, match=r"^coordinates must be .* not \(1, 2, 3\)$"):
            point_ideal((1, 2, 3))

    def test_vanishing_ideal_rejects_a_single_coordinate(self):
        with pytest.raises(ValueError, match=r"^coordinates must be two numbers .* not \(1,\)$"):
            vanishing_ideal([(1,)])

    def test_vanishing_ideal_rejects_duplicates(self):
        with pytest.raises(ValueError):
            vanishing_ideal([(0, 0), (0, 0)])
        # points are compared by value, whatever type wrote them
        same = [(1, 2), ("2/2", "2"), (Fraction(1), Fraction(4, 2))]
        for a, b in itertools.combinations(same, 2):
            with pytest.raises(ValueError, match="^points must be distinct$"):
                vanishing_ideal([a, (0, 0), b])
        # a sign is part of the value
        halves = [(Fraction(1, 2), 0), (Fraction(-1, 2), 0)]
        assert staircase_of(vanishing_ideal(halves)).cardinality == 2

    def test_vanishing_ideal_vanishes(self):
        pts = [(0, 0), (1, 2), (Fraction(-1, 3), 1)]
        ideal = vanishing_ideal(pts)
        for g in reduced_groebner_basis(ideal).elements:
            for p in pts:
                assert g.evaluate(p) == 0
        assert staircase_of(ideal).cardinality == 3

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError, match="^need at least one ideal$"):
            intersect_comaximal([])
        with pytest.raises(ValueError, match="^need at least one point$"):
            vanishing_ideal([])

    def test_intersect_same_point_raises(self):
        with pytest.raises(ValueError):
            intersect_comaximal([point_ideal((0, 0)), point_ideal((0, 0))])

    def test_intersect_cardinality_adds(self):
        ideal = intersect_comaximal(
            [point_ideal((0, 0)), tall_point_ideal(2, [-1, 0])]
        )
        assert staircase_of(ideal).cardinality == 3

    def test_tall_points_at_distinct_abscissas(self):
        # heights 2 and 1 sitting at x1 = 0 and x1 = 1
        ideal = intersect_comaximal(
            [tall_point_ideal(2, [0, 1]), tall_point_ideal(1, [-1])]
        )
        assert staircase_of(ideal) == StandardSet([2, 1])

    def test_intersect_merges_images_of_one_without_content(self):
        # scaling a factor's image of 1 keeps its ideal; scaled by fractions
        # of different denominators, the merged image of 1 still has no
        # common content with its denominator
        def scaled(vec, factor):
            entries, den = vec
            values = {i: Fraction(c, den) * factor for i, c in entries.items()}
            common = lcm(*(v.denominator for v in values.values()))
            return {i: int(v * common) for i, v in values.items()}, common

        rng = random.Random("merged-one")
        dens = set()
        for _ in range(20):
            plain, factors = [], []
            for x in rng.sample(range(-6, 7), 3):
                ys = rng.sample(range(-3, 4), rng.randint(1, 3))
                plain.append(vanishing_ideal([(x, y) for y in ys]))
                gb = reduced_groebner_basis(plain[-1])
                m1, m2, one = _quotient(gb)
                factor = Fraction(rng.choice([1, 2, 5]), rng.choice([2, 3, 4, 6, 9]))
                one = scaled(one, factor)
                dens.add(one[1])
                factors.append(Ideal(_unwalked(gb.staircase, (m1, m2, one))))
            ideal = intersect_comaximal(factors)
            entries, den = _quotient(ideal.basis)[2]
            assert den > 0 and gcd(den, *entries.values()) == 1
            assert ideal == intersect_comaximal(plain)
        assert len(dens) > 1

    def test_product_with_unit_keeps_staircase(self):
        ideal = vanishing_ideal([(0, 0), (1, 2)])
        unit = Ideal((P("1"),))
        assert staircase_of(ideal_product(ideal, unit)) == staircase_of(ideal)

    def test_product_of_maximal_at_origin(self):
        m = point_ideal((0, 0))
        sq = ideal_product(m, m)
        assert staircase_of(sq) == StandardSet([2, 1])

    def test_three_points_on_distinct_lines_stack_a_column(self):
        ideal = vanishing_ideal([(0, 0), (1, 1), (2, 3)])
        assert staircase_of(ideal) == StandardSet([3])

    def test_three_points_on_one_line_fill_a_row(self):
        ideal = vanishing_ideal([(0, 0), (1, 0), (2, 0)])
        assert staircase_of(ideal) == StandardSet([1, 1, 1])


def _diagonal_basis(points):
    # the walk over point evaluations: the k-th point's coordinates on the
    # diagonals of M1 and M2, and one = (1, ..., 1)
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    m1, m2 = (
        groebner._matrix([groebner._vector({k: p[i]}) for k, p in enumerate(pts)])
        for i in (0, 1)
    )
    return groebner._lex_basis((m1, m2, (dict.fromkeys(range(len(pts)), 1), 1)))


def _coordinate(rng):
    # zero, integers and fractions of either sign
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))


def _distinct_coordinates(rng, count):
    out = []
    while len(out) < count:
        c = _coordinate(rng)
        if c not in out:
            out.append(c)
    return out


def _on_lines(rng, counts):
    # counts[i] points on the i-th of len(counts) distinct horizontal lines
    levels = _distinct_coordinates(rng, len(counts))
    return [(x, c) for count, c in zip(counts, levels) for x in _distinct_coordinates(rng, count)]


def _shared_abscissas(rng):
    # three lines, each through the first 1-4 of the same four abscissas
    xs = _distinct_coordinates(rng, 4)
    return [(x, c) for c in _distinct_coordinates(rng, 3) for x in xs[: rng.randint(1, 4)]]


_POINT_CONFIGURATIONS = {
    "one-point": lambda rng: _on_lines(rng, [1]),
    "one-line": lambda rng: _on_lines(rng, [rng.randint(2, 7)]),
    "one-point-per-line": lambda rng: _on_lines(rng, [1] * rng.randint(3, 7)),
    "shared-abscissas": _shared_abscissas,
    "zero-and-negative-fractions": lambda rng: [
        (0, 0), (0, Fraction(-5, 3)), (Fraction(-7, 2), 0), (Fraction(-1, 9), Fraction(-1, 9))
    ] + _on_lines(rng, [2, 1]),
    "equal-lines": lambda rng: _on_lines(rng, [3] * rng.randint(2, 4)),
    "mixed-lines": lambda rng: _on_lines(rng, [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]),
}


class TestNewtonQuotient:
    """vanishing_ideal, whose quotient is in per-line Newton coordinates,
    against the walk over point evaluations and Buchberger on its own
    elements, and downstream against the same calls on Ideal(elements),
    whose quotient is derived from the basis."""

    @staticmethod
    def _points(name, seed):
        rng = random.Random(f"{name}:{seed}")
        # distinct, in order of first appearance
        return list(dict.fromkeys(_POINT_CONFIGURATIONS[name](rng))), rng

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(_POINT_CONFIGURATIONS))
    def test_matches_the_diagonal_walk_and_buchberger(self, name, seed):
        points, rng = self._points(name, seed)
        gb = reduced_groebner_basis(vanishing_ideal(points))
        assert gb == _diagonal_basis(points)
        assert gb == reduced_groebner_basis(Ideal(gb.elements))
        assert all(g.evaluate(p) == 0 for g in gb.elements for p in points)
        # the quotient places the lines and their points in input order;
        # the basis does not depend on it
        for _ in range(3):
            rng.shuffle(points)
            assert reduced_groebner_basis(vanishing_ideal(points)) == gb

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(_POINT_CONFIGURATIONS))
    def test_downstream_calls_match_the_derived_quotient(self, name, seed):
        points, rng = self._points(name, seed)
        ideal = vanishing_ideal(points)
        plain = Ideal(reduced_groebner_basis(ideal).elements)
        assert plain.basis is None
        for v in [(0, 0), (-1, 0), (0, -1), (-1, -1), (-2, -1), (-(len(points) + 1), -1)]:
            assert torus_limit(ideal, v) == torus_limit(plain, v)
        if name == "one-point-per-line":
            # x1 - f(x2) with deg f >= 2 leads with a power of x2 at
            # (-1, -1), so that limit ran the walk
            key = groebner._weight_key((-1, -1))
            assert any(leading_under(g, key)[0] != g.terms[0][0] for g in ideal.generators)
        assert substitute(ideal, 2, X1) == substitute(plain, 2, X1)
        levels = {c for _, c in points}
        for level in levels | {max(levels) + 1}:
            assert supported_on_line(ideal.basis, level) == supported_on_line(
                reduced_groebner_basis(plain), level
            )
        other = [(x + 100, c) for x, c in _on_lines(rng, [2, 1])]
        both = intersect_comaximal([ideal, vanishing_ideal(other)])
        assert both == intersect_comaximal([plain, vanishing_ideal(other)])
        assert both == vanishing_ideal(points + other)


class TestTallPoints:
    def test_validation(self):
        with pytest.raises(ValueError):
            tall_point_ideal(0, [])
        with pytest.raises(ValueError):
            tall_point_ideal(2, [1])

    def test_coefficients_must_be_exact(self):
        with pytest.raises(ValueError, match="coefficients must be exact"):
            tall_point_ideal(2, [0, 0.1])
        assert tall_point_ideal(2, [0, "1/10"]).generators == (P("x2^2"), P("x1 + 1/10*x2"))

    def test_column_staircase(self):
        rng = random.Random(9)
        for n in range(1, 7):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            ideal = tall_point_ideal(n, coeffs)
            assert staircase_of(ideal) == StandardSet([n])
            for g in ideal.generators:
                assert g.evaluate((-coeffs[0], 0)) == 0

    def test_matches_buchberger_on_the_textbook_generators(self):
        rng = random.Random(41)
        for n in range(1, 8):
            for _ in range(3):
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                first = X1 + Polynomial({(0, b): c for b, c in enumerate(coeffs)})
                textbook = Ideal((first, Polynomial.monomial((0, n))))
                ideal = tall_point_ideal(n, coeffs)
                assert ideal.basis == reduced_groebner_basis(textbook)
                # the reduced basis, in lead order: x2^n comes first
                assert ideal.generators == (Polynomial.monomial((0, n)), first)


class TestTorusScale:
    def test_frozen(self):
        f = P("x1^2 + x2")
        assert torus_scale(f, 2, (1, 3)) == P("4*x1^2 + 8*x2")

    def test_identity_and_zero(self):
        f = P("x1*x2 - 5")
        assert torus_scale(f, 1, (7, -2)) == f
        with pytest.raises(ValueError):
            torus_scale(f, 0, (1, 1))

    def test_group_action(self):
        f = P("x1^3 - 1/2*x2^2 + x1*x2")
        v = (-2, 1)
        two_steps = torus_scale(torus_scale(f, 2, v), 3, v)
        assert two_steps == torus_scale(f, 6, v)

    def test_negative_weights_give_fractions(self):
        f = P("x1")
        assert torus_scale(f, 2, (-1, 0)) == P("1/2*x1")

    def test_weights_must_be_integers(self):
        f = P("x1 + x2")
        for v in [(0.5, 0), (Fraction(1, 2), 0), (0, Fraction(-3, 2))]:
            with pytest.raises(ValueError, match="weights must be integers"):
                torus_scale(f, 2, v)
        assert torus_scale(f, 2, (Fraction(2), 0)) == P("4*x1 + x2")

    def test_t_must_be_exact(self):
        with pytest.raises(ValueError, match="t must be exact, not the float 0.1"):
            torus_scale(X1, 0.1, (1, 0))
        assert torus_scale(X1, "1/10", (1, 0)) == P("1/10*x1")
        assert torus_scale(X1, Fraction(1, 10), (2, 0)) == P("1/100*x1")


class TestTorusLimit:
    def test_weights_must_be_integers(self):
        # truncating the positive weight 1/2 to 0 would walk to the
        # (0, -1) limit of points off the origin
        ideal = vanishing_ideal([(1, 2), (3, 5), (4, 7)])
        with pytest.raises(ValueError, match="weights must be integers") as exc:
            torus_limit(ideal, (Fraction(1, 2), -1))
        assert type(exc.value) is ValueError
        with pytest.raises(LimitDoesNotExist):
            torus_limit(ideal, (Fraction(2), -1))
        origin = Ideal((P("x1 + x2"), P("x2^2")))
        assert torus_limit(origin, (Fraction(2), -1)) == torus_limit(origin, (2, -1))

    def test_weights_are_two_entries(self):
        # a third entry must not be dropped: (0, 0, 5) is no weight at all
        ideal = vanishing_ideal([(0, 1), (0, 2)])
        for v in [(), (1,), (1, 2, 3), (0, 0, 5)]:
            with pytest.raises(ValueError, match="values to unpack"):
                torus_limit(ideal, v)

    def test_killing_rule_global_route(self):
        ideal = Ideal((P("x1 + x2"), P("x2^2")))
        limit = torus_limit(ideal, (-1, 0))
        gb = reduced_groebner_basis(limit)
        assert gb.elements == (P("x2^2"), P("x1"))

    def test_killing_rule_punctual_route(self):
        ideal = Ideal((P("x1 + x2"), P("x2^2")))
        limit = torus_limit(ideal, (1, 3))
        gb = reduced_groebner_basis(limit)
        assert gb.elements == (P("x2^2"), P("x1"))

    def test_zero_weight_is_identity(self):
        ideal = vanishing_ideal([(0, 0), (1, 1)])
        limit = torus_limit(ideal, (0, 0))
        assert (
            reduced_groebner_basis(limit).elements
            == reduced_groebner_basis(ideal).elements
        )

    def test_routes_agree_on_punctual_inputs(self):
        # the walk against the grid of monomials of degree < n, at every
        # weight in [-3, 4]^2 with a positive entry
        ideals = [
            Ideal((P("x1 + x2"), P("x2^2"))),
            tall_point_ideal(3, [0, 1, Fraction(1, 2)]),
            ideal_product(point_ideal((0, 0)), point_ideal((0, 0))),
        ] + [
            sample_basin_ideal(BasinSampleSpec(target, "origin", seed=n))
            for n in range(1, 7)
            for target in enumerate_staircases(n)
        ]
        weights = [v for v in itertools.product(range(-3, 5), repeat=2) if max(v) > 0]
        moved = 0
        for k, ideal in enumerate(ideals):
            gb = reduced_groebner_basis(ideal)
            for v in weights:
                walked = reduced_groebner_basis(torus_limit(ideal, v)).elements
                assert walked == punctual_limit_by_grid(_quotient(gb), v).elements
                moved += walked != gb.elements
                if k < 3:
                    # the walk's output is a reduced basis
                    assert reduced_groebner_basis(Ideal(list(walked))).elements == walked
        assert len(ideals) * len(weights) == 32 * 48
        assert moved > len(ideals) * len(weights) // 2

    def test_every_limit_is_a_fixed_point_of_n_boxes(self):
        # every sampler mode at every weight in [-2, 3]^2: a limit that
        # exists is v-homogeneous, fixed by the flow and of colength n
        answered = Counter()
        for n in range(1, 6):
            for target in enumerate_staircases(n):
                for mode in ("origin", "x1_axis", "free"):
                    ideal = sample_basin_ideal(BasinSampleSpec(target, mode, seed=n))
                    for v in itertools.product(range(-2, 4), repeat=2):
                        try:
                            limit = torus_limit(ideal, v)
                        except LimitDoesNotExist:
                            answered[mode, False] += 1
                            continue
                        answered[mode, True] += 1
                        for g in limit.generators:
                            assert len({e[0] * v[0] + e[1] * v[1] for e, _ in g.terms}) == 1
                        assert torus_limit(limit, v) == limit
                        assert staircase_of(limit).cardinality == n
        # 18 staircases: origin samples answer at all 36 weights, x1_axis
        # samples at the 18 with v1 <= 0, free samples at the 9 with v <= 0
        assert answered == {
            ("origin", True): 18 * 36,
            ("x1_axis", True): 18 * 18,
            ("x1_axis", False): 18 * 18,
            ("free", True): 18 * 9,
            ("free", False): 18 * 27,
        }

    def test_calibration_weight_recovers_staircase(self):
        ideal = vanishing_ideal([(0, 0), (1, 0), (0, 1)])
        limit = torus_limit(ideal, (-4, -1))
        gb = reduced_groebner_basis(limit)
        assert gb.elements == (P("x2^2"), P("x1*x2"), P("x1^2"))

    def test_limit_is_monomial_in_decomposition_regime(self):
        ideal = Ideal((P("x1 + x2 + x2^2"), P("x2^3")))
        n = staircase_of(ideal).cardinality
        limit = torus_limit(ideal, (1, n))
        assert all(len(g.terms) == 1 for g in limit.generators)

    @pytest.mark.parametrize(
        "source,limit,columns,dim",
        [
            # n = 4: two lines of two points against three points on one
            # line plus one more point, both lex cells of dimension 6
            ("x2^2\nx1^2 + x1*x2", "x2^2\nx1*x2\nx1^3", ([2, 2], [2, 1, 1]), ("lex_dim", 6)),
            # n = 5, at the origin: both punctual cells of dimension 3
            ("x2^4\nx1*x2 + x2^3\nx1^2", "x2^3\nx1*x2^2\nx1^2", ([4, 1], [3, 2]), ("punc_dim", 3)),
        ],
        ids=["affine-n4", "punctual-n5"],
    )
    def test_limits_into_another_cell_of_the_same_dimension(self, source, limit, columns, dim):
        # the family is the source with the x1*x2 coefficient sent to
        # infinity; the limit lands in another lex cell of equal dimension.
        # The affine-n4 source (x2^2, x1^2 + x1*x2) is a non-reduced ideal
        # at the origin, not n distinct points: in Hilb^4_0 its cells (2,2)
        # and (2,1,1) have punc_dim 2 and 1, so the case is outside the
        # distinct-point scheme the paper stratifies and breaks nothing
        ideal = parse_ideal_text(source)
        flowed = torus_limit(ideal, (1, 0))
        assert flowed.generators == parse_ideal_text(limit).generators
        before, after = staircase_of(ideal), staircase_of(flowed)
        assert (before, after) == tuple(map(StandardSet, columns))
        name, value = dim
        assert getattr(cell_dimensions(before), name) == value
        assert getattr(cell_dimensions(after), name) == value

    def test_single_point_off_origin(self):
        # supported away from the origin: fine for nonpositive weights
        ideal = point_ideal((2, 3))
        limit = torus_limit(ideal, (-1, -1))
        assert staircase_of(limit).cardinality == 1

    def test_positive_weight_needs_origin_support(self):
        ideal = vanishing_ideal([(1, 0), (0, 1)])
        with pytest.raises(LimitDoesNotExist):
            torus_limit(ideal, (1, 1))

    def test_positive_weight_keeps_a_limit_off_the_origin(self):
        # the flow at (1, 0) fixes the points (0, 1) and (0, 2)
        ideal = vanishing_ideal([(0, 1), (0, 2)])
        limit = torus_limit(ideal, (1, 0))
        assert limit.generators == (P("x2^2 - 3*x2 + 2"), P("x1"))

    def test_one_positive_weight_names_the_line(self):
        # the points (1, 1) and (1, 2) flow off to x1 = infinity
        ideal = vanishing_ideal([(1, 1), (1, 2)])
        with pytest.raises(
            LimitDoesNotExist,
            match="^limit does not exist in the Hilbert scheme: "
            "ideal is not supported on the line x1 = 0$",
        ):
            torus_limit(ideal, (1, 0))
        with pytest.raises(LimitDoesNotExist, match="on the line x2 = 0$"):
            torus_limit(vanishing_ideal([(0, 1), (0, 2)]), (-1, 2))

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensional):
            torus_limit(Ideal((P("x1"),)), (-1, -1))

    def test_weight_preserves_cardinality(self):
        rng = random.Random(4)
        for _ in range(10):
            pts = set()
            while len(pts) < 3:
                pts.add((rng.randint(-3, 3), rng.randint(-3, 3)))
            ideal = vanishing_ideal(sorted(pts))
            limit = torus_limit(ideal, (-2, -1))
            assert staircase_of(limit).cardinality == 3

    @pytest.fixture
    def buchberger_runs(self, monkeypatch):
        runs = []
        buchberger = groebner._buchberger

        def counted(gens):
            runs.append(gens)
            return buchberger(gens)

        monkeypatch.setattr(groebner, "_buchberger", counted)
        return runs

    @pytest.mark.parametrize("v", [(-1, -1), (-3, -1), (1, 3)])
    def test_one_buchberger_run_per_parsed_ideal(self, buchberger_runs, v):
        limit = torus_limit(parse_ideal_text("x1 + x2^2\nx2^3\n"), v)
        assert len(buchberger_runs) == 1
        assert staircase_of(limit).cardinality == 3

    def test_one_buchberger_run_when_not_zero_dimensional(self, buchberger_runs):
        with pytest.raises(NotZeroDimensional, match="^ideal is not zero-dimensional$"):
            torus_limit(parse_ideal_text("x1*x2\nx2^2\n"), (-1, -1))
        assert len(buchberger_runs) == 1


class TestIdealText:
    def test_round_trip(self):
        text = "x1^2 - x2\nx2^2 - 1\n"
        ideal = parse_ideal_text(text)
        assert format_ideal(ideal.generators) == text

    def test_blank_lines_skipped(self):
        ideal = parse_ideal_text("\nx1\n\nx2\n\n")
        assert ideal.generators == (P("x1"), P("x2"))

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_ideal_text("x1\nx2 + oops\n")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no generators"):
            parse_ideal_text("\n\n")


def _holds_degree_n_monomials(gb):
    # the normal-form criterion: every monomial of degree n = colength
    # reduces to zero, i.e. (x1, x2)^n lies in the ideal
    n = gb.staircase.cardinality
    return all(
        normal_form(Polynomial.monomial((i, n - i)), gb).is_zero()
        for i in range(n + 1)
    )


def _support_cases():
    # sampled colength-n ideals, their translates off the origin, and
    # unions with one more point
    rng = random.Random(17)
    for n in range(1, 7):
        for target in enumerate_staircases(n):
            for constraint in ("origin", "x1_axis", "free"):
                ideal = sample_basin_ideal(BasinSampleSpec(target, constraint, seed=n))
                yield ideal
                shift = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                yield substitute(ideal, 1, Polynomial.constant(shift))
                yield substitute(ideal, 2, Polynomial.constant(-shift))
                if constraint == "origin":
                    yield intersect_comaximal([ideal, point_ideal((shift, 0))])


class TestSupportedAtOrigin:
    def test_agrees_with_the_normal_form_criterion(self):
        seen = Counter()
        for ideal in _support_cases():
            gb = reduced_groebner_basis(ideal)
            expected = _holds_degree_n_monomials(gb)
            assert supported_at_origin(gb) == expected, ideal.generators
            # the same basis without a quotient builds its own
            bare = ReducedGroebnerBasis(gb.elements, gb.staircase)
            assert supported_at_origin(bare) == expected, ideal.generators
            seen[expected] += 1
        assert min(seen[True], seen[False]) >= 25, seen

    def test_parsed_ideals(self):
        assert supported_at_origin(reduced_groebner_basis(Ideal((P("x1 + x2"), P("x2^2")))))
        assert not supported_at_origin(
            reduced_groebner_basis(Ideal((P("x1^2 - x1"), P("x2"))))
        )
        with pytest.raises(NotZeroDimensional):
            supported_at_origin(reduced_groebner_basis(Ideal((P("x1"),))))


class TestScalingBudgets:
    # the weight walk costs grow with the colength; these inputs have a
    # small generating set but a large or dense quotient

    def test_weight_limit_of_a_long_row_within_budget(self):
        # every lex lead is already the weight lead, so no walk runs
        ideal = Ideal((P("x1^20000 - 1"), P("x2")))
        start = time.perf_counter()
        limit = torus_limit(ideal, (-1, -1))
        elapsed = time.perf_counter() - start
        assert limit.generators == (P("x2"), P("x1^20000"))
        assert elapsed < 5, f"took {elapsed:.1f}s, budget 5s"

    def test_punctual_limit_off_the_origin_fails_fast(self):
        # support is checked on x1^n and x2^n before any walk: x1 is not
        # nilpotent, so the walk's power chain of x1 would never end
        ideal = Ideal((P("x1^20000 - 1"), P("x2")))
        start = time.perf_counter()
        with pytest.raises(
            LimitDoesNotExist,
            match="^limit does not exist in the Hilbert scheme: "
            "ideal is not supported at the origin$",
        ):
            torus_limit(ideal, (1, 1))
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.1f}s, budget 5s"

    def test_vanishing_ideal_of_32_points_within_budget(self):
        rng = random.Random(32)
        levels = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
        points = set()
        while len(points) < 32:
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
            points.add((x, rng.choice(levels)))
        start = time.perf_counter()
        ideal = vanishing_ideal(sorted(points))
        elapsed = time.perf_counter() - start
        counts = Counter(p[1] for p in points)
        rows = reduced_groebner_basis(ideal).staircase.rows()
        assert list(rows) == sorted(counts.values(), reverse=True)
        assert elapsed < 3, f"took {elapsed:.1f}s, budget 3s"

    def test_vanishing_ideal_of_64_wide_points_within_budget(self):
        # numerators up to 10^4 over denominators up to 10^3 on 16 lines:
        # the walk's vectors carry denominators of hundreds of bits
        rng = random.Random(64)
        levels = [Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)) for _ in range(16)]
        points = set()
        while len(points) < 64:
            x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
            points.add((x, rng.choice(levels)))
        start = time.perf_counter()
        ideal = vanishing_ideal(sorted(points))
        elapsed = time.perf_counter() - start
        counts = Counter(p[1] for p in points)
        rows = reduced_groebner_basis(ideal).staircase.rows()
        assert list(rows) == sorted(counts.values(), reverse=True)
        assert elapsed < 2, f"took {elapsed:.1f}s, budget 2s"
