"""Reduced Groebner bases for bivariate ideals over the rationals.

Everything is exact.  The default order is lexicographic with x1 > x2;
torus limits additionally use weight orders refined by lex.  Zero
dimensional ideals hand back the staircase under their leading terms,
which is how ideals meet the combinatorics in the rest of the package.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import Polynomial, format_polynomial, parse_polynomial
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


@dataclass(frozen=True)
class Ideal:
    """A finite generating set; zero generators are dropped on entry.

    Built from a ReducedGroebnerBasis, it carries that as `basis`, which
    equality and hashing ignore."""

    generators: tuple
    basis: object = field(default=None, compare=False, repr=False)

    def __init__(self, generators):
        basis = None
        if isinstance(generators, ReducedGroebnerBasis):
            basis, generators = generators, generators.elements
        gens = tuple(g for g in generators if not g.is_zero())
        if not gens:
            raise ValueError("ideal needs at least one nonzero generator")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True)
class ReducedGroebnerBasis:
    """Monic, tail-reduced, lex-sorted basis plus its staircase.

    staircase is None exactly when the leading terms leave infinitely
    many monomials under the stairs."""

    elements: tuple
    staircase: object

    @property
    def is_zero_dimensional(self) -> bool:
        return self.staircase is not None


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
        if not g.is_zero():
            add(g)
    if not basis:
        raise ValueError("ideal needs at least one nonzero generator")
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


def _walk(bases, key):
    """Reduced basis elements, in the order `key`, of the intersection of
    the zero-dimensional ideals with the given reduced lex bases.

    FGLM (Faugere, Gianni, Lazard and Mora 1993), in the form of Marinari,
    Moeller and Mora (1993) for several ideals.  Monomials m are visited
    upward in `key` from 1, past multiples of the leads found.  The normal
    forms of m, a visited predecessor's times x1 or x2, are concatenated
    with a column (-1, m) below them and row-reduced against the earlier
    standard monomials: a new row, or with only (-1, .) columns left, the
    next monic element.
    """
    datas = [_basis_data(b) for b in bases]
    # normal forms of the standard monomials; 1 comes from the unreduced
    # forms of a predecessor None, and a monomial already in forms was
    # reached before from its other predecessor
    forms = {None: [{(0, 0): Fraction(1)}] * len(datas)}
    heap = [(key((0, 0)), (0, 0), None, (0, 0))]
    rows, leads, elements = {}, [], []
    while heap:
        _, m, pred, var = heapq.heappop(heap)
        if m in forms or any(l[0] <= m[0] and l[1] <= m[1] for l in leads):
            continue
        nfs = [
            _nf_terms({(e[0] + var[0], e[1] + var[1]): c for e, c in f.items()}, d)
            for f, d in zip(forms[pred], datas)
        ]
        work = {(k, e): c for k, f in enumerate(nfs) for e, c in f.items()}
        work[(-1, m)] = Fraction(1)
        col = max(work)
        while col in rows:
            factor = work[col] / rows[col][col]
            for c, val in rows[col].items():
                work[c] = work.get(c, 0) - factor * val
            work = {c: val for c, val in work.items() if val}
            col = max(work)
        if col[0] < 0:
            leads.append(m)
            elements.append(Polynomial({e: c for (_, e), c in work.items()}))
            continue
        rows[col], forms[m] = work, nfs
        for var in ((1, 0), (0, 1)):
            nxt = (m[0] + var[0], m[1] + var[1])
            heapq.heappush(heap, (key(nxt), nxt, m, var))
    return elements


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


def staircase_of(ideal: Ideal) -> StandardSet:
    """Staircase under the lex leading terms; requires finite complement."""
    gb = reduced_groebner_basis(ideal)
    if gb.staircase is None:
        raise NotZeroDimensional("ideal is not zero-dimensional")
    return gb.staircase


def monomial_ideal(s: StandardSet) -> Ideal:
    """The monomial ideal whose staircase is s."""
    return Ideal(
        tuple(Polynomial.monomial(e) for e in sorted(s.outer_corners()))
    )


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Generated by all pairwise products of generators."""
    return Ideal(tuple(f * g for f in a.generators for g in b.generators))


def intersect_comaximal(ideals) -> Ideal:
    """Intersection of pairwise comaximal zero-dimensional ideals.

    Computed by one lex walk over the factors' reduced bases (a single
    factor is its own intersection and needs none); the result carries its
    reduced basis.  The staircase cardinality of the result
    must equal the sum over the factors; a mismatch means the supports
    were not disjoint and raises ValueError.
    """
    bases = [reduced_groebner_basis(i) for i in ideals]
    if not bases:
        raise ValueError("need at least one ideal")
    if any(gb.staircase is None for gb in bases):
        raise NotZeroDimensional("ideal is not zero-dimensional")
    if len(bases) == 1:
        return Ideal(bases[0])
    # the zero weight refined by lex is lex
    result = _as_basis(_walk([gb.elements for gb in bases], _weight_key((0, 0))))
    if result.staircase.cardinality != sum(gb.staircase.cardinality for gb in bases):
        raise ValueError("supports not disjoint")
    return Ideal(result)


def point_ideal(point) -> Ideal:
    a, b = Fraction(point[0]), Fraction(point[1])
    return Ideal(
        (
            Polynomial({(1, 0): 1, (0, 0): -a}),
            Polynomial({(0, 1): 1, (0, 0): -b}),
        )
    )


def vanishing_ideal(points) -> Ideal:
    """Ideal of a finite set of distinct rational points."""
    pts = [(Fraction(p[0]), Fraction(p[1])) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    if not pts:
        raise ValueError("need at least one point")
    return intersect_comaximal(point_ideal(p) for p in pts)


def tall_point_ideal(height: int, coefficients) -> Ideal:
    """A point of multiplicity `height` squeezed onto the x1-axis.

    Generated by x1 + sum of c_b x2^b for b below height, and x2^height.
    The support is the single point (-c_0, 0)."""
    coeffs = [Fraction(c) for c in coefficients]
    if height < 1:
        raise ValueError("height must be positive")
    if len(coeffs) != height:
        raise ValueError("need exactly `height` coefficients")
    first = {(1, 0): Fraction(1)}
    for b, c in enumerate(coeffs):
        if c:
            first[(0, b)] = c
    return Ideal((Polynomial(first), Polynomial.monomial((0, height))))


def torus_scale(f: Polynomial, t, v) -> Polynomial:
    """Scale each term by t to the power of its v-weight; t must be nonzero."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    v1, v2 = v
    return Polynomial(
        {e: c * t ** (e[0] * v1 + e[1] * v2) for e, c in f.terms}
    )


def _initial_form(terms, v):
    v1, v2 = v
    w0 = min(e[0] * v1 + e[1] * v2 for e in terms)
    return Polynomial(
        {e: c for e, c in terms.items() if e[0] * v1 + e[1] * v2 == w0}
    )


def _nullspace(matrix, ncols):
    # matrix: list of rows (lists of Fractions); basis of the null space
    m = [row[:] for row in matrix]
    pivots = {}
    r = 0
    for c in range(ncols):
        hit = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                factor = m[k][c]
                m[k] = [x - factor * y for x, y in zip(m[k], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -m[pr][c]
        basis.append(vec)
    return basis


def _echelon_initial_forms(vectors, v):
    # vectors: list of dicts exponent -> Fraction; echelonize with pivots
    # minimal in (v-weight, lex) and return the v-minimal parts
    v1, v2 = v

    def tau(e):
        return (e[0] * v1 + e[1] * v2, e)

    basis = []
    for vec in vectors:
        vec = {e: c for e, c in vec.items() if c}
        while vec:
            pivot = min(vec, key=tau)
            hit = next((b for b in basis if b[0] == pivot), None)
            if hit is None:
                break
            factor = vec[pivot] / hit[1][pivot]
            for e, c in hit[1].items():
                val = vec.get(e, Fraction(0)) - factor * c
                if val:
                    vec[e] = val
                else:
                    vec.pop(e, None)
        if vec:
            basis.append((min(vec, key=tau), vec))
    return [_initial_form(vec, v) for _, vec in basis]


def _punctual_limit(gb: ReducedGroebnerBasis, v) -> Ideal:
    n = gb.staircase.cardinality
    data = _basis_data(gb.elements)
    stairs = sorted(gb.staircase.points())
    index = {e: k for k, e in enumerate(stairs)}

    def nf_vector(exp):
        rem = _nf_terms({exp: Fraction(1)}, data)
        vec = [Fraction(0)] * n
        for e, c in rem.items():
            vec[index[e]] = c
        return vec

    for i in range(n + 1):
        rem = _nf_terms({(i, n - i): Fraction(1)}, data)
        if rem:
            raise LimitDoesNotExist(
                "limit does not exist in the Hilbert scheme: "
                "ideal is not supported at the origin"
            )
    monos = [(i, j) for i in range(n) for j in range(n - i)]
    columns = [nf_vector(mexp) for mexp in monos]
    rows = [[col[s] for col in columns] for s in range(n)]
    kernel = _nullspace(rows, len(monos))
    vectors = [
        {monos[k]: c for k, c in enumerate(vec) if c} for vec in kernel
    ]
    forms = _echelon_initial_forms(vectors, v)
    gens = forms + [
        Polynomial.monomial((i, n - i)) for i in range(n + 1)
    ]
    return Ideal(tuple(gens))


def torus_limit(ideal: Ideal, v) -> Ideal:
    """Flat limit of the weight-v torus flow at t = 0.

    Generated by the v-minimal parts of a Groebner basis for the order
    "v-weight ascending, ties by lex".  Weights with both entries <= 0
    work for any zero-dimensional ideal; other weights require support at
    the origin.  The result carries its reduced lex basis; if its
    staircase cardinality differs from the input's, the limit left the
    Hilbert scheme and LimitDoesNotExist is raised.
    """
    v1, v2 = int(v[0]), int(v[1])
    gb = reduced_groebner_basis(ideal)
    if gb.staircase is None:
        raise NotZeroDimensional("ideal is not zero-dimensional")
    n = gb.staircase.cardinality
    if v1 <= 0 and v2 <= 0:
        # the v-minimal parts of the reduced weight basis are the reduced
        # lex basis of the limit; equal leads make the lex basis that basis
        key = _weight_key((v1, v2))
        weighted = gb.elements
        if any(g.leading_under(key)[0] != g.terms[0][0] for g in weighted):
            weighted = _walk([weighted], key)
        limit_gb = _as_basis(_initial_form(dict(g.terms), (v1, v2)) for g in weighted)
    else:
        limit_gb = reduced_groebner_basis(_punctual_limit(gb, (v1, v2)))
    if limit_gb.staircase is None or limit_gb.staircase.cardinality != n:
        raise LimitDoesNotExist("limit does not exist in the Hilbert scheme")
    return Ideal(limit_gb)


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
