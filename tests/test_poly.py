import random
from fractions import Fraction

import pytest

from grobasin.poly import (
    MAX_EXPONENT,
    ONE,
    Polynomial,
    X1,
    X2,
    format_polynomial,
    parse_polynomial,
)

from definitions import lex_compare


class TestLexCompare:
    def test_x1_beats_x2(self):
        assert lex_compare((1, 0), (0, 5)) == 1
        assert lex_compare((0, 5), (1, 0)) == -1

    def test_ties_fall_to_x2(self):
        assert lex_compare((2, 3), (2, 1)) == 1
        assert lex_compare((2, 1), (2, 3)) == -1
        assert lex_compare((2, 3), (2, 3)) == 0

    def test_total_on_a_box(self):
        exps = [(a, b) for a in range(4) for b in range(4)]
        ordered = sorted(exps, key=lambda e: (e[0], e[1]))
        for i, alpha in enumerate(ordered):
            for j, beta in enumerate(ordered):
                expected = (i > j) - (i < j)
                assert lex_compare(alpha, beta) == expected


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial({(1, 0): 0, (0, 1): 2})
        assert p.terms == (((0, 1), Fraction(2)),)

    def test_zero(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial({}).is_zero()

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1, 0): 1})

    def test_terms_sorted_descending(self):
        p = parse_polynomial("x2 + x1^2 + x1*x2")
        assert [e for e, _ in p.terms] == [(2, 0), (1, 1), (0, 1)]

    def test_leading_data(self):
        p = parse_polynomial("3*x1^2 - x2")
        assert p.leading_exponent() == (2, 0)
        assert p.leading_coefficient() == 3

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            Polynomial.zero().leading_exponent()

    def test_leading_under_custom_key(self):
        p = parse_polynomial("x1 + x2^3")
        # weight (1, 1): pick the heavier exponent
        exp, coeff = p.leading_under(lambda e: (e[0] + e[1], e))
        assert exp == (0, 3)
        assert coeff == 1


class TestArithmetic:
    def test_add_sub(self):
        p = parse_polynomial("x1 + x2")
        q = parse_polynomial("x1 - x2")
        assert p + q == parse_polynomial("2*x1")
        assert p - q == parse_polynomial("2*x2")
        assert (p - p).is_zero()

    def test_product(self):
        p = parse_polynomial("x1 + x2")
        assert p * p == parse_polynomial("x1^2 + 2*x1*x2 + x2^2")

    def test_pow(self):
        p = parse_polynomial("x1 - 1")
        assert p**3 == parse_polynomial("x1^3 - 3*x1^2 + 3*x1 - 1")
        assert p**0 == ONE
        with pytest.raises(ValueError):
            p ** (-1)

    def test_scale_and_monic(self):
        p = parse_polynomial("2*x1 + 4")
        assert p.scale(Fraction(1, 2)) == parse_polynomial("x1 + 2")
        assert p.monic() == parse_polynomial("x1 + 2")

    def test_term_multiple(self):
        p = parse_polynomial("x1 + 1")
        assert p.term_multiple((1, 2), Fraction(3)) == parse_polynomial(
            "3*x1^2*x2^2 + 3*x1*x2^2"
        )

    def test_coefficient_lookup(self):
        p = parse_polynomial("5*x1*x2 - 1/3")
        assert p.coefficient((1, 1)) == 5
        assert p.coefficient((0, 0)) == Fraction(-1, 3)
        assert p.coefficient((2, 2)) == 0

    def test_compose(self):
        p = parse_polynomial("x1^2 + x2")
        image1 = parse_polynomial("x1 + x2")
        image2 = parse_polynomial("x2^2")
        assert p.compose(image1, image2) == parse_polynomial(
            "x1^2 + 2*x1*x2 + x2^2 + x2^2"
        )

    def test_compose_is_evaluation_compatible(self):
        rng = random.Random(5)
        for _ in range(25):
            p = _random_poly(rng)
            image1 = _random_poly(rng)
            image2 = _random_poly(rng)
            point = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            direct = p.compose(image1, image2).evaluate(point)
            via = p.evaluate((image1.evaluate(point), image2.evaluate(point)))
            assert direct == via

    def test_evaluate(self):
        p = parse_polynomial("x1^2*x2 - 1/2")
        assert p.evaluate((2, 3)) == 12 - Fraction(1, 2)


def _random_poly(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        exp = (rng.randint(0, 3), rng.randint(0, 3))
        coeffs[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(coeffs)


class TestTextFormat:
    def test_examples(self):
        cases = [
            "3/4*x1^2*x2 - x2^3 + 1",
            "x1",
            "-x1 + 2",
            "x2^2",
            "1",
            "-1/2",
            "x1*x2",
        ]
        for text in cases:
            assert format_polynomial(parse_polynomial(text)) == text

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            p = _random_poly(rng)
            if p.is_zero():
                continue
            assert parse_polynomial(format_polynomial(p)) == p

    def test_parse_whitespace_insensitive(self):
        assert parse_polynomial("x1+x2") == parse_polynomial(" x1  +  x2 ")

    def test_parse_fraction_coefficients(self):
        p = parse_polynomial("2/3*x2")
        assert p.coefficient((0, 1)) == Fraction(2, 3)

    def test_parse_repeated_variable_factors(self):
        assert parse_polynomial("x1*x1") == parse_polynomial("x1^2")

    def test_parse_rejects_garbage(self):
        for bad in ["", "x3", "x1^", "4x1", "x1**2", "+", "x1 + ", "y"]:
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    def test_parse_bounds_each_exponent(self):
        assert parse_polynomial(f"x1^{MAX_EXPONENT}*x2^{MAX_EXPONENT}").terms == (
            ((MAX_EXPONENT, MAX_EXPONENT), 1),
        )
        for bad in [f"x2^{MAX_EXPONENT + 1}", f"x1^{MAX_EXPONENT}*x1", "x1^100000000 + 1"]:
            with pytest.raises(ValueError, match="above"):
                parse_polynomial(bad)

    def test_format_zero(self):
        assert format_polynomial(Polynomial.zero()) == "0"


class TestExactInputs:
    """An outside number becomes a Fraction only when it is exact: a float
    raises ValueError naming the argument, an int, Fraction or string is
    taken as before."""

    def test_constructor_rejects_floats(self):
        with pytest.raises(ValueError, match="^coeffs must be exact, not the float 0.1$"):
            Polynomial({(1, 0): 0.1})
        assert Polynomial({(1, 0): "1/10"}) == Polynomial({(1, 0): Fraction(1, 10)})

    def test_constructor_rejects_non_integer_exponents(self):
        # int() would truncate x1^1.5 to x1
        for exp in [(1.5, 0), (0, Fraction(3, 2)), (None, 0)]:
            with pytest.raises(ValueError, match=r"^exponents must be integers, not "):
                Polynomial({exp: 1})
            with pytest.raises(ValueError, match=r"^exponents must be integers, not "):
                Polynomial.monomial(exp)
        assert Polynomial({(Fraction(1), 2.0): 1}) == X1 * X2**2

    def test_constant_rejects_floats(self):
        with pytest.raises(ValueError, match="^c must be exact, not the float 0.1$"):
            Polynomial.constant(0.1)
        assert Polynomial.constant("1/10").terms == (((0, 0), Fraction(1, 10)),)

    def test_monomial_rejects_floats(self):
        with pytest.raises(ValueError, match="^coeff must be exact, not the float 0.5$"):
            Polynomial.monomial((1, 1), 0.5)
        assert Polynomial.monomial((1, 1), 2) == parse_polynomial("2*x1*x2")

    def test_scale_rejects_floats(self):
        with pytest.raises(ValueError, match="^c must be exact, not the float 0.1$"):
            X1.scale(0.1)
        assert X1.scale("3/2") == parse_polynomial("3/2*x1")

    def test_evaluate_rejects_floats(self):
        p = parse_polynomial("x1*x2 + 1")
        for point in [(0.5, 1), (1, 0.5)]:
            with pytest.raises(ValueError, match="^point must be exact, not the float 0.5$"):
                p.evaluate(point)
        assert p.evaluate(("1/2", 3)) == Fraction(5, 2)

    def test_evaluate_rejects_a_triple(self):
        with pytest.raises(ValueError, match=r"^point must be two numbers .* not \(2, 3, 99\)$"):
            X1.evaluate((2, 3, 99))
        assert X1.evaluate([2, 3]) == 2


class TestConstants:
    def test_generators(self):
        assert X1 == Polynomial.variable(1)
        assert X2 == Polynomial.variable(2)
        assert ONE == Polynomial.constant(1)
        with pytest.raises(ValueError):
            Polynomial.variable(3)

    @pytest.mark.parametrize("index", [True, 1.0, 2.0])
    def test_variable_takes_only_the_ints_1_and_2(self, index):
        # True == 1 and 1.0 == 1, but only the ints 1 and 2 are indices
        with pytest.raises(ValueError, match="^variable index must be 1 or 2$"):
            Polynomial.variable(index)
