"""Reduced Groebner bases for bivariate ideals over the rationals.

Everything is exact.  The default order is lexicographic with x1 > x2;
torus limits additionally use weight orders refined by lex.  Zero
dimensional ideals hand back the staircase under their leading terms,
which is how ideals meet the combinatorics in the rest of the package.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .poly import (
    Polynomial,
    coordinates,
    exact,
    format_polynomial,
    integer,
    one_or_two,
    parse_polynomial,
)
from .staircase import StandardSet


class NotZeroDimensional(ValueError):
    """The staircase of the ideal is infinite."""


class LimitDoesNotExist(ValueError):
    """The requested torus limit leaves the Hilbert scheme."""


def _weight_key(v):
    v1, v2 = v

    def key(exp):
        return (-(exp[0] * v1 + exp[1] * v2), exp)

    return key


class Ideal:
    """A finite generating set; zero generators are dropped on entry.

    Built from a ReducedGroebnerBasis, it carries that as `basis`, and its
    generators are that basis's elements, read (and so walked, when the
    basis defers them) only when asked for.  Equality and hashing read the
    generators and ignore the basis."""

    __slots__ = ("_generators", "basis")

    def __init__(self, generators):
        if isinstance(generators, ReducedGroebnerBasis):
            object.__setattr__(self, "_generators", None)
            object.__setattr__(self, "basis", generators)
            return
        gens = tuple(g for g in generators if not g.is_zero())
        if not gens:
            raise ValueError("ideal needs at least one nonzero generator")
        object.__setattr__(self, "_generators", gens)
        object.__setattr__(self, "basis", None)

    @property
    def generators(self) -> tuple:
        if self._generators is None:
            return self.basis.elements
        return self._generators

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.generators == other.generators

    def __hash__(self):
        return hash((self.generators,))

    def __repr__(self):
        return f"Ideal(generators={self.generators!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")


class ReducedGroebnerBasis:
    """Monic, tail-reduced, lex-sorted basis plus its staircase.

    staircase is None exactly when the leading terms leave infinitely
    many monomials under the stairs.  A basis walked from a quotient
    carries it, and any other gets it when first asked (see _quotient).
    The elements are given as a tuple, or as a function of no arguments
    that returns that tuple and runs when they are first read: a walk
    builds its elements only then, and a substitution that keeps the
    staircase walks only then (see substitute).  Equality, hashing and
    repr read the elements and the staircase, and ignore the quotient."""

    __slots__ = ("_elements", "staircase", "quotient")

    def __init__(self, elements, staircase, quotient=None):
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "staircase", staircase)
        object.__setattr__(self, "quotient", quotient)

    @property
    def elements(self) -> tuple:
        elements = self._elements
        if callable(elements):
            elements = elements()
            object.__setattr__(self, "_elements", elements)
        return elements

    @property
    def is_zero_dimensional(self) -> bool:
        return self.staircase is not None

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGroebnerBasis)
            and self.elements == other.elements
            and self.staircase == other.staircase
        )

    def __hash__(self):
        return hash((self.elements, self.staircase))

    def __repr__(self):
        return (
            f"ReducedGroebnerBasis(elements={self.elements!r}, "
            f"staircase={self.staircase!r})"
        )

    def __setattr__(self, name, value):
        raise AttributeError("ReducedGroebnerBasis is immutable")


def _nf_terms(terms, basis_data):
    # terms: dict exponent -> coefficient; returns the lex remainder dict
    work = dict(terms)
    remainder = {}
    while work:
        exp = max(work)
        coeff = work.pop(exp)
        if coeff == 0:
            continue
        for lt, lc, gterms in basis_data:
            if exp[0] >= lt[0] and exp[1] >= lt[1]:
                shift = (exp[0] - lt[0], exp[1] - lt[1])
                factor = coeff / lc
                for e, c in gterms:
                    ne = (e[0] + shift[0], e[1] + shift[1])
                    if ne == exp:
                        continue
                    val = work.get(ne, Fraction(0)) - factor * c
                    if val:
                        work[ne] = val
                    else:
                        work.pop(ne, None)
                break
        else:
            remainder[exp] = coeff
    return remainder


def _basis_data(polys):
    # terms are kept lex-sorted, so the lex lead is the first term
    return [(*g.terms[0], g.terms) for g in polys]


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Lex remainder of f on division by a reduced basis.

    Accepts a ReducedGroebnerBasis or any iterable of nonzero
    polynomials."""
    if hasattr(basis, "elements"):
        basis = basis.elements
    return Polynomial(_nf_terms(dict(f.terms), _basis_data(basis)))


def _spoly(a, b, lcm):
    # a, b: (lt, lc, terms) entries; the S-polynomial as a term dict
    out = {}
    for (lt, lc, terms), sign in ((a, 1), (b, -1)):
        d1, d2 = lcm[0] - lt[0], lcm[1] - lt[1]
        factor = sign / lc
        for e, c in terms:
            ne = (e[0] + d1, e[1] + d2)
            out[ne] = out.get(ne, 0) + factor * c
    return out


def _buchberger(gens):
    """Buchberger's algorithm in lex, normal selection strategy.

    Each element's leading (exponent, coefficient) is computed once and
    kept in `data`, the list _nf_terms divides by.  Pending pairs sit in a
    heap keyed by (lcm, pair).  Pairs with coprime leads never enter
    it and count as treated (product criterion).  A popped pair (i, j) is
    skipped when some k has lt_k | lcm(i, j) and neither (i, k) nor (j, k)
    is pending (chain criterion, as in the improved Buchberger algorithm
    of Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, 2.10).
    """
    basis, data, heap, pending = [], [], [], set()

    def add(g):
        lt, lc = g.terms[0]
        i = len(data)
        for j, (lj, _, _) in enumerate(data):
            lcm = (max(lt[0], lj[0]), max(lt[1], lj[1]))
            if lcm != (lt[0] + lj[0], lt[1] + lj[1]):
                heapq.heappush(heap, (lcm, (i, j)))
                pending.add((i, j))
        basis.append(g)
        data.append((lt, lc, g.terms))

    for g in gens:
        add(g)
    while heap:
        lcm, (i, j) = heapq.heappop(heap)
        pending.remove((i, j))
        if any(
            k != i and k != j
            and lt[0] <= lcm[0] and lt[1] <= lcm[1]
            and (max(i, k), min(i, k)) not in pending
            and (max(j, k), min(j, k)) not in pending
            for k, (lt, _, _) in enumerate(data)
        ):
            continue
        h = _nf_terms(_spoly(data[i], data[j], lcm), data)
        if h:
            add(Polynomial(h))
    return _interreduce(basis)


def _interreduce(basis):
    leads = sorted(((g.terms[0][0], g) for g in basis), key=lambda e: e[0])
    minimal = []
    for lt, g in leads:
        if not any(m[0] <= lt[0] and m[1] <= lt[1] for m, _ in minimal):
            minimal.append((lt, g))
    data = _basis_data([g for _, g in minimal])
    reduced = []
    for k, (_, g) in enumerate(minimal):
        others = data[:k] + data[k + 1:]
        h = Polynomial(_nf_terms(dict(g.terms), others)) if others else g
        reduced.append(h.monic())
    return reduced


def _reduced(entries, den):
    # the vector entries / den with a positive denominator and no content
    g = gcd(den, *entries.values())
    if den < 0:
        g = -g
    if g == 1:
        return entries, den
    return {i: c // g for i, c in entries.items()}, den // g


def _vector(coeffs):
    # a dict of Fractions as integer entries over their least common
    # denominator; this is already free of content
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {i: c.numerator * (den // c.denominator) for i, c in coeffs.items() if c}, den


def _matrix(columns):
    # columns (entries, den) as integer columns over one common denominator
    den = lcm(*(d for _, d in columns))
    return [{i: c * (den // d) for i, c in col.items()} for col, d in columns], den


def _apply(matrix, vec):
    # (integer columns, den) times (integer entries, den); one content
    # division per product
    cols, mden = matrix
    entries, vden = vec
    out = {}
    for j, c in entries.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + c * a
    return _reduced({i: c for i, c in out.items() if c}, mden * vden)


def _eliminate(vec, tag, rows):
    # row-reduce the vector plus a column tag < 0 holding its denominator
    # against primitive integer rows keyed by their pivot, the largest
    # column, fraction-free: each step cross-multiplies with the pivot, and
    # the content is divided out once at the end (measured faster than
    # once per step, whose big-integer gcds cost more than they save).
    # Store the new row, or return a relation
    entries, den = vec
    work = {**entries, tag: den}
    while (col := max(work)) in rows:
        row = rows[col]
        a, p = work.pop(col), row[col]
        g = gcd(a, p)
        a, p = a // g, p // g
        if p != 1:
            work = {c: val * p for c, val in work.items()}
        for c, val in row.items():
            if c != col:
                val = work.get(c, 0) - a * val
                if val:
                    work[c] = val
                else:
                    del work[c]
    g = gcd(*work.values())
    if g != 1:
        work = {c: val // g for c, val in work.items()}
    if col < 0:
        return work
    rows[col] = work
    return None


def _walk(quotient, v):
    """Leads and integer relations of the reduced basis, in the order
    _weight_key(v), of the ideal of all f with f(M1, M2) one = 0, for a
    quotient (M1, M2, one) whose M_i is nilpotent wherever v_i > 0.

    FGLM (Faugere, Gianni, Lazard and Mora 1993), in the form of Marinari,
    Moeller and Mora (1993).  Monomials m are visited upward in the order,
    past multiples of the leads found.  Where v_i > 0, multiplying by x_i
    lowers a monomial, so the walk starts from every product of powers of
    those variables, each power chain ending at its first zero vector, and
    steps only along the other variables: the vector of m is a visited
    predecessor's times M1 or M2.  For v <= 0 the one start is 1.  With a
    column -1 - k for the k-th standard monomial the vector is row-reduced
    against the earlier ones: a new row, or with only negative columns
    left, a lead, kept with a relation {monomial: integer} over m and the
    standard monomials before it (see _monic).  A lead visited before one
    of its divisors is dropped at the end.
    """
    key = _weight_key(v)
    starts = {(0, 0): quotient[2]}
    for k in (0, 1):
        if v[k] > 0:
            for m, vec in list(starts.items()):
                while vec[0]:
                    m = (m[0] + 1 - k, m[1] + k)
                    vec = starts[m] = _apply(quotient[k], vec)
    steps = [k for k in (0, 1) if v[k] <= 0]
    heap = [(key(m), m, None, 0) for m in starts]
    heapq.heapify(heap)
    rows, vectors, standard, leads, relations = {}, {}, [], [], []
    while heap:
        _, m, pred, k = heapq.heappop(heap)
        if m in vectors or any(l[0] <= m[0] and l[1] <= m[1] for l in leads):
            continue
        vec = starts[m] if pred is None else _apply(quotient[k], vectors[pred])
        tag = -1 - len(standard)
        relation = _eliminate(vec, tag, rows)
        if relation is None:
            vectors[m] = vec
            standard.append(m)
            for k in steps:
                nxt = (m[0] + 1 - k, m[1] + k)
                heapq.heappush(heap, (key(nxt), nxt, m, k))
        else:
            leads.append(m)
            relations.append(
                {(standard[-1 - t] if t > tag else m): c for t, c in relation.items()}
            )
    minimal = [
        j for j, m in enumerate(leads)
        if not any(l != m and l[0] <= m[0] and l[1] <= m[1] for l in leads)
    ]
    return [leads[j] for j in minimal], [relations[j] for j in minimal]


def _monic(lead, relation):
    # the basis element of a walk's relation, monic on its lead
    scale = relation[lead]
    return Polynomial({e: Fraction(c, scale) for e, c in relation.items()})


def _lex_basis(quotient):
    # the zero weight refined by lex is lex, so the leads come sorted; the
    # elements are built when first read
    leads, relations = _walk(quotient, (0, 0))
    return ReducedGroebnerBasis(
        lambda: tuple(map(_monic, leads, relations)),
        _staircase_from_corners(leads),
        quotient,
    )


def _unwalked(staircase, quotient):
    # a basis held as a staircase and a quotient; reading its elements walks
    # the quotient and raises unless the walk finds that staircase too
    def walked():
        basis = _lex_basis(quotient)
        if basis.staircase != staircase:
            raise RuntimeError(
                f"walked staircase {basis.staircase!r} differs from the "
                f"carried {staircase!r}"
            )
        return basis.elements

    return ReducedGroebnerBasis(walked, staircase, quotient)


def _on_monomials(standard, normal_form):
    # the quotient on a basis of standard monomials, given the normal form
    # (a vector over them) of every other monomial
    index = {e: k for k, e in enumerate(standard)}

    def vector(e):
        if e in index:
            return {index[e]: 1}, 1
        entries, den = normal_form(e)
        return {index[f]: c for f, c in entries.items()}, den

    m1 = _matrix([vector((e[0] + 1, e[1])) for e in standard])
    m2 = _matrix([vector((e[0], e[1] + 1)) for e in standard])
    return m1, m2, vector((0, 0))


def _quotient(gb):
    """The quotient as (M1, M2, one): the matrices of x1 and x2 and the
    image of 1, the carried one or the one on the lex standard monomials
    of a zero-dimensional ideal, which the basis then carries.  A vector
    is (entries, den), a sparse dict {row: integer} over one positive
    denominator with no common content; a matrix is (columns, den), sparse
    integer columns over one positive denominator."""
    if gb.quotient is None:
        data = _basis_data(gb.elements)
        quotient = _on_monomials(
            sorted(gb.staircase.points()),
            lambda e: _vector(_nf_terms({e: Fraction(1)}, data)),
        )
        object.__setattr__(gb, "quotient", quotient)
    return gb.quotient


def _as_basis(elements):
    # reduced lex basis elements, in any order
    elements = sorted(elements, key=Polynomial.leading_exponent)
    corners = [g.leading_exponent() for g in elements]
    return ReducedGroebnerBasis(tuple(elements), _staircase_from_corners(corners))


def _staircase_from_corners(corners):
    pure1 = [e for e in corners if e[1] == 0]
    pure2 = [e for e in corners if e[0] == 0]
    if not pure1 or not pure2:
        return None
    width = min(e[0] for e in pure1)
    heights = [
        min(e[1] for e in corners if e[0] <= j) for j in range(width)
    ]
    return StandardSet(heights)


def reduced_groebner_basis(ideal: Ideal) -> ReducedGroebnerBasis:
    """The unique reduced lex Groebner basis of the ideal."""
    if ideal.basis is not None:
        return ideal.basis
    return _as_basis(_buchberger(ideal.generators))


def _zero_dimensional(gb):
    # the basis, once its staircase is known to be finite
    if gb.staircase is None:
        raise NotZeroDimensional("ideal is not zero-dimensional")
    return gb


def staircase_of(ideal: Ideal) -> StandardSet:
    """Staircase under the lex leading terms; requires finite complement."""
    return _zero_dimensional(reduced_groebner_basis(ideal)).staircase


def monomial_ideal(s: StandardSet) -> Ideal:
    """The monomial ideal whose staircase is s, carrying its basis (the
    corners) and its quotient: x1 and x2 shift the boxes, off s to 0.
    Every call with the same staircase carries the same basis object."""
    return Ideal(_monomial_basis(s))


@lru_cache(maxsize=None)
def _monomial_basis(s):
    # immutable, so one per staircase serves every caller
    corners = tuple(Polynomial.monomial(e) for e in sorted(s.outer_corners()))
    quotient = _on_monomials(sorted(s.points()), lambda e: ({}, 1))
    return ReducedGroebnerBasis(corners, s, quotient)


def intersect_comaximal(ideals) -> Ideal:
    """Intersection of pairwise comaximal zero-dimensional ideals.

    One lex walk over the block-diagonal sum of the factors' quotients
    (Chinese remainder) gives the reduced basis the result carries; a
    single factor is its own intersection.  A staircase cardinality other
    than the factors' sum means the supports were not disjoint and raises
    ValueError.
    """
    bases = [_zero_dimensional(reduced_groebner_basis(i)) for i in ideals]
    if not bases:
        raise ValueError("need at least one ideal")
    if len(bases) == 1:
        return Ideal(bases[0])
    blocks, shift = ([], [], []), 0
    for gb in bases:
        f1, f2, (f_one, den_one) = _quotient(gb)
        for block, (cols, den) in zip(blocks, (f1, f2, ([f_one], den_one))):
            block += [({i + shift: c for i, c in col.items()}, den) for col in cols]
        shift += len(f1[0])
    m1, m2, (ones, den) = map(_matrix, blocks)
    # the merged one has no content: the blocks have disjoint supports, and
    # each prime p | den divides some block's own denominator as often as
    # den, so p misses an entry of that block, which the scaling keeps
    one = {i: c for block in ones for i, c in block.items()}
    result = _lex_basis((m1, m2, (one, den)))
    if result.staircase.cardinality != sum(gb.staircase.cardinality for gb in bases):
        raise ValueError("supports not disjoint")
    return Ideal(result)


def point_ideal(point) -> Ideal:
    """The ideal of one rational point."""
    return vanishing_ideal([point])


def vanishing_ideal(points) -> Ideal:
    """Ideal of a finite set of distinct rational points.

    One lex walk over the quotient in per-line Newton coordinates.  For
    the points on the line x2 = c, with abscissas x_0, ..., x_{r-1} in
    input order, the products N_a = (x1 - x_0) ... (x1 - x_{a-1}), a < r,
    are a basis of their quotient: x1 N_a = N_{a+1} + x_a N_a with
    N_r = 0, so M1 is bidiagonal per line, x2 N_a = c N_a, and the image
    of 1 is N_0 of every line.  A monomial x1^i x2^j then has a vector on
    N_0..N_i of each line, where point evaluations would fill every entry,
    so the walk eliminates sparse vectors.  The lines go by ascending
    point count (ties in order of first appearance): the walk pivots on
    the largest index, and the long lines, whose N_a the high powers of x1
    reach, come last.  A point is a tuple or list of two ints, Fractions or
    strings; anything else, a float too, raises ValueError."""
    pts = [coordinates(p, "coordinates") for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    if not pts:
        raise ValueError("need at least one point")
    lines = {}
    for x, c in pts:
        lines.setdefault(c, []).append(x)
    # sorted is stable: equal counts keep the order of first appearance
    lines = sorted(lines.items(), key=lambda line: len(line[1]))
    den1 = lcm(*(x.denominator for x, _ in pts))
    den2 = lcm(*(c.denominator for c, _ in lines))
    m1, m2, one = [], [], {}
    for c, xs in lines:
        one[len(m1)] = 1
        end = len(m1) + len(xs)
        c = c.numerator * (den2 // c.denominator)
        for a, x in enumerate(xs, start=len(m1)):
            col = {a: x.numerator * (den1 // x.denominator)} if x else {}
            if a + 1 < end:
                col[a + 1] = den1
            m1.append(col)
            m2.append({a: c} if c else {})
    return Ideal(_lex_basis(((m1, den1), (m2, den2), (one, 1))))


def tall_point_ideal(height: int, coefficients) -> Ideal:
    """A point of multiplicity `height` squeezed onto the x1-axis.

    Generated by x1 + sum of c_b x2^b for b below height, and x2^height,
    the image of (x1, x2^height) under x1 -> x1 + sum of c_b x2^b, which
    are its reduced basis (x2^height first).  The support is (-c_0, 0).
    A float coefficient raises ValueError."""
    coeffs = [exact(c, "coefficients") for c in coefficients]
    if height < 1:
        raise ValueError("height must be positive")
    if len(coeffs) != height:
        raise ValueError("need exactly `height` coefficients")
    shift = Polynomial({(0, b): c for b, c in enumerate(coeffs)})
    return substitute(monomial_ideal(StandardSet([height])), 1, shift)


def _integral(v):
    # the weight as two ints; any other entry would make a power of t inexact
    v1, v2 = v
    return integer(v1, "weights"), integer(v2, "weights")


def _initial_form(terms, v):
    v1, v2 = v
    w0 = min(e[0] * v1 + e[1] * v2 for e in terms)
    return Polynomial(
        {e: c for e, c in terms.items() if e[0] * v1 + e[1] * v2 == w0}
    )


def _nilpotent(quotient, index):
    # whether M_index^n one = 0, n the colength (the columns of M1)
    vec = quotient[2]
    for _ in range(len(quotient[0][0])):
        vec = _apply(quotient[index - 1], vec)
    return not vec[0]


def supported_at_origin(gb: ReducedGroebnerBasis) -> bool:
    """Whether a zero-dimensional ideal is supported at the origin alone.

    With colength n that holds iff x1^n and x2^n lie in the ideal (its
    local algebra at the origin then has length n, so (x1, x2)^n is in
    it): 2n sparse mat-vecs on the quotient."""
    quotient = _quotient(_zero_dimensional(gb))
    return _nilpotent(quotient, 1) and _nilpotent(quotient, 2)


def supported_on_line(gb: ReducedGroebnerBasis, level) -> bool:
    """Whether a zero-dimensional ideal of colength n is supported on the
    line x2 = level: whether (x2 - level)^n is in it, M2 - level nilpotent."""
    quotient = _quotient(_zero_dimensional(gb))
    if level:
        quotient = _substituted(quotient, 2, Polynomial.constant(level))
    return _nilpotent(quotient, 2)


def torus_limit(ideal: Ideal, v) -> Ideal:
    """Flat limit of the weight-v torus flow at t = 0.

    The Hilbert-Chow map is proper, so the limit exists exactly when every
    support point has x_i = 0 wherever v_i > 0, that is when M_i is
    nilpotent on the quotient; otherwise LimitDoesNotExist is raised,
    naming the line x_i = 0 or the origin.  The limit is generated by the
    v-minimal parts of the reduced basis for the order "v-weight
    ascending, ties by lex" (see _walk), which form its reduced lex basis;
    the lex basis serves as that basis when every element has the same
    lead in both orders.  The result carries it.  The weights must be
    integers.
    """
    v = _integral(v)
    gb = _zero_dimensional(reduced_groebner_basis(ideal))
    positive = [i for i in (1, 2) if v[i - 1] > 0]
    if not all(_nilpotent(_quotient(gb), i) for i in positive):
        where = "at the origin" if len(positive) == 2 else f"on the line x{positive[0]} = 0"
        raise LimitDoesNotExist(
            f"limit does not exist in the Hilbert scheme: ideal is not supported {where}"
        )
    key = _weight_key(v)
    weighted = gb.elements
    if any(g.leading_under(key)[0] != g.terms[0][0] for g in weighted):
        weighted = map(_monic, *_walk(_quotient(gb), v))
    return Ideal(_as_basis(_initial_form(dict(g.terms), v) for g in weighted))


def substitute(ideal: Ideal, index: int, p: Polynomial) -> Ideal:
    """The ideal of all g(x1 + p(x2), x2), or for index 2 of all
    g(x1, x2 + p(x1)), with g in a zero-dimensional ideal.

    p must not involve x_index; a constant p translates the support by -p.
    The inverse substitution x_index -> x_index - p makes M_index - p(M_other)
    the new matrix.  For index 1, and for a constant p, every lex leading
    term stays where it was, so the result carries the input's staircase
    and its basis elements are walked only when first read; otherwise one
    lex walk gives the basis the result carries.  When p(M_other) is zero
    nothing moves, and the result carries the input's basis unwalked.
    """
    one_or_two(index, "index")
    if any(e[index - 1] for e, _ in p.terms):
        raise ValueError(f"p must not involve x{index}")
    gb = _zero_dimensional(reduced_groebner_basis(ideal))
    if p.is_zero():
        return Ideal(gb)
    original = _quotient(gb)
    quotient = _substituted(original, index, p)
    if quotient is original:
        return Ideal(gb)
    if index == 1 or p.leading_exponent() == (0, 0):
        return Ideal(_unwalked(gb.staircase, quotient))
    return Ideal(_lex_basis(quotient))


def _substituted(quotient, index, p):
    # the quotient with M_index replaced by M_index - p(M_other); p nonzero.
    # When p(M_other) is zero (p without constant term on a nilpotent
    # M_other, say), the input itself comes back.
    # With p = sum a_b x^b / cden of degree d and M_other = C / oden, the
    # columns of p(M_other) are those of sum a_b oden^(d - b) C^b over
    # cden * oden^d, one Horner pass each on integers; the new matrix goes
    # over the lcm of that and M_index's denominator, and its content is
    # divided out once
    cols, den = quotient[index - 1]
    other, oden = quotient[2 - index]
    coeffs, cden = _vector({e[2 - index]: c for e, c in p.terms})
    d = max(coeffs)
    pden = cden * oden**d
    common = lcm(den, pden)
    scale, keep = common // pden, common // den
    horner = [-coeffs.get(b, 0) * scale * oden ** (d - b) for b in range(d, -1, -1)]
    moved, shifted = [], False
    for j, col in enumerate(cols):
        acc = {j: horner[0]}
        for h in horner[1:]:
            nxt = {}
            for k, c in acc.items():
                for i, a in other[k].items():
                    nxt[i] = nxt.get(i, 0) + c * a
            if h:
                nxt[j] = nxt.get(j, 0) + h
            acc = nxt
        # tested before the column is added: an entry the shift cancels
        # to zero is still a move
        shifted = shifted or any(acc.values())
        for i, c in col.items():
            acc[i] = acc.get(i, 0) + c * keep
        moved.append({i: c for i, c in acc.items() if c})
    if not shifted:
        return quotient
    g = gcd(common, *(c for col in moved for c in col.values()))
    if g != 1:
        moved = [{i: c // g for i, c in col.items()} for col in moved]
    quotient = list(quotient)
    quotient[index - 1] = (moved, common // g)
    return tuple(quotient)


def parse_ideal_text(text: str) -> Ideal:
    """One generator per line; blank lines are skipped."""
    gens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            gens.append(parse_polynomial(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not gens:
        raise ValueError("no generators found")
    return Ideal(tuple(gens))


def format_ideal(polys) -> str:
    """One canonical generator per line."""
    return "\n".join(format_polynomial(g) for g in polys) + "\n"
