"""Exact bivariate polynomials over the rationals.

Terms are kept sorted strictly decreasing in the lexicographic order with
x1 > x2, coefficients are Fractions, and zero coefficients never appear.
The text format is the one the command line tools speak:

    3/4*x1^2*x2 - x2^3 + 1

Whitespace is ignored on input; output is canonical and round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction


def exact(value, name) -> Fraction:
    """value (an int, Fraction or string like "3/4") as a Fraction; a float,
    a binary expansion and not the decimal it was written as, raises."""
    if isinstance(value, float):
        raise ValueError(f"{name} must be exact, not the float {value!r}")
    return Fraction(value)


def coordinates(point, name) -> tuple:
    """point, a tuple or list of two exact coordinates, as two Fractions."""
    if not isinstance(point, (tuple, list)) or len(point) != 2:
        raise ValueError(f"{name} must be two numbers in a tuple or list, not {point!r}")
    return exact(point[0], name), exact(point[1], name)


def integer(value, name) -> int:
    """value as an int; anything else, such as 2.7 (which int() would
    truncate), "2" or None, raises ValueError naming the argument."""
    try:
        n = int(value)
        if n == value:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be integers, not {value!r}")


def one_or_two(value, name) -> int:
    """value, which must be the int 1 or 2; a bool or a float such as 1.0,
    though equal to one of them, raises ValueError naming the argument."""
    if type(value) is int and value in (1, 2):
        return value
    raise ValueError(f"{name} must be 1 or 2")


class Polynomial:
    __slots__ = ("terms",)

    def __init__(self, coeffs=None):
        # coeffs: mapping exponent pair -> exact coefficient
        items = []
        for exp, c in (coeffs or {}).items():
            if type(c) is not Fraction:
                c = exact(c, "coeffs")
            if c == 0:
                continue
            e1, e2 = exp
            if type(e1) is not int or type(e2) is not int:
                e1, e2 = integer(e1, "exponents"), integer(e2, "exponents")
            if e1 < 0 or e2 < 0:
                raise ValueError("exponents must be non-negative")
            items.append(((e1, e2), c))
        items.sort(reverse=True)
        object.__setattr__(self, "terms", tuple(items))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): exact(c, "c")})

    @classmethod
    def variable(cls, index: int):
        if one_or_two(index, "variable index") == 1:
            return cls({(1, 0): 1})
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: exact(coeff, "coeff")})

    def is_zero(self) -> bool:
        return not self.terms

    def leading_exponent(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][1]

    def leading_under(self, key):
        """Leading (exponent, coefficient) for an arbitrary order key."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=lambda t: key(t[0]))

    def coefficient(self, exp) -> Fraction:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return Polynomial(acc)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) - c
        return Polynomial(acc)

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.terms})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = (e1[0] + e2[0], e1[1] + e2[1])
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return Polynomial(acc)

    def scale(self, c) -> "Polynomial":
        c = exact(c, "c")
        return Polynomial({e: c * coeff for e, coeff in self.terms})

    def term_multiple(self, exp, coeff) -> "Polynomial":
        """Multiply by coeff * x^exp in one pass."""
        d1, d2 = exp
        return Polynomial(
            {(e[0] + d1, e[1] + d2): c * coeff for e, c in self.terms}
        )

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(1 / self.leading_coefficient())

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def compose(self, image1: "Polynomial", image2: "Polynomial"):
        """Substitute x1 -> image1 and x2 -> image2."""
        powers1 = {0: Polynomial.constant(1)}
        powers2 = {0: Polynomial.constant(1)}

        def power(cache, base, k):
            if k not in cache:
                cache[k] = power(cache, base, k - 1) * base
            return cache[k]

        out = Polynomial.zero()
        for (a, b), c in self.terms:
            out = out + (
                power(powers1, image1, a) * power(powers2, image2, b)
            ).scale(c)
        return out

    def evaluate(self, point) -> Fraction:
        p1, p2 = coordinates(point, "point")
        total = Fraction(0)
        for (a, b), c in self.terms:
            total += c * p1**a * p2**b
        return total

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")


X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
ONE = Polynomial.constant(1)


def _format_term(exp, coeff, first: bool) -> str:
    e1, e2 = exp
    mag = abs(coeff)
    factors = []
    if mag != 1 or (e1 == 0 and e2 == 0):
        factors.append(str(mag))
    if e1 > 0:
        factors.append("x1" if e1 == 1 else f"x1^{e1}")
    if e2 > 0:
        factors.append("x2" if e2 == 1 else f"x2^{e2}")
    body = "*".join(factors)
    if first:
        return body if coeff > 0 else "-" + body
    return (" + " if coeff > 0 else " - ") + body


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form, terms in decreasing lex order."""
    if p.is_zero():
        return "0"
    out = []
    for k, (exp, coeff) in enumerate(p.terms):
        out.append(_format_term(exp, coeff, first=(k == 0)))
    return "".join(out)


# far above any degree the package's experiments reach; a parsed term past
# it would make the staircase or the quotient of a file's ideal that wide
MAX_EXPONENT = 100_000

_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")
_VAR_RE = re.compile(r"^x([12])(?:\^(\d+))?$")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the canonical text form; raises ValueError on bad input."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty polynomial text")
    chunks = re.split(r"(?=[+-])", compact)
    acc = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] in "+-":
            if chunk[0] == "-":
                sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign in polynomial text")
        coeff = sign
        e1 = e2 = 0
        for factor in chunk.split("*"):
            if _COEFF_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            k = int(m.group(2)) if m.group(2) else 1
            if m.group(1) == "1":
                e1 += k
            else:
                e2 += k
        if max(e1, e2) > MAX_EXPONENT:
            raise ValueError(
                f"exponent {max(e1, e2)} in {chunk!r} is above {MAX_EXPONENT}"
            )
        exp = (e1, e2)
        acc[exp] = acc.get(exp, Fraction(0)) + coeff
    return Polynomial(acc)
