"""Independent statements of definitions that the tests check the fast code
against.  The package never calls these; each one writes its object out
directly rather than by the package's own route."""

import itertools
from functools import lru_cache

from grobasin.groebner import (
    Ideal,
    _apply,
    _eliminate,
    _integral,
    _lex_basis,
    _on_monomials,
    _reduced,
)
from grobasin.orders import SplitQuadruple, figure_alg
from grobasin.poly import Polynomial, exact
from grobasin.staircase import StandardSet


# ---------------------------------------------------------------------------
# lexicographic filters on staircases


def _padded(t, length):
    return t + (0,) * (length - len(t))


def lex_rows_leq(a: StandardSet, b: StandardSet) -> bool:
    """Row tuples compared lexicographically after zero padding."""
    length = max(a.height, b.height)
    return _padded(a.rows(), length) <= _padded(b.rows(), length)


def lex_cols_geq(a: StandardSet, b: StandardSet) -> bool:
    """Column tuples compared lexicographically after zero padding."""
    length = max(a.width, b.width)
    return _padded(a.cols(), length) >= _padded(b.cols(), length)


# ---------------------------------------------------------------------------
# a witness of the row merging order, by plain backtracking


def et_row_partition(a: StandardSet, b: StandardSet):
    """A witness that b arises from a by merging rows: per row of b, the
    rows of a merged into it, as a tuple aligned with b.rows(), or None
    when there is none.  Each row of a, widest first, goes into the first
    row of b with room for it from which the remaining rows still fit."""
    if a.cardinality != b.cardinality:
        return None
    pieces, room = a.rows(), list(b.rows())
    blocks = [[] for _ in room]

    def place(i):
        # the cardinalities agree, so once every piece is placed no room
        # is left
        if i == len(pieces):
            return True
        for k, left in enumerate(room):
            if left >= pieces[i]:
                room[k] -= pieces[i]
                blocks[k].append(pieces[i])
                if place(i + 1):
                    return True
                room[k] += pieces[i]
                blocks[k].pop()
        return False

    return tuple(map(tuple, blocks)) if place(0) else None


# ---------------------------------------------------------------------------
# the column breaking order by a search on columns


def _sub_removals(avail, need):
    # avail: tuple of (height, count) with heights desc; yields the avail
    # tuples left over after removing a sub-multiset summing exactly to need
    def go(i, left, acc):
        if left == 0:
            yield tuple((h, c) for (h, c) in acc + list(avail[i:]) if c > 0)
            return
        if i == len(avail):
            return
        h, c = avail[i]
        for take in range(min(c, left // h), -1, -1):
            yield from go(i + 1, left - take * h, acc + [(h, c - take)])

    return go(0, need, [])


@lru_cache(maxsize=None)
def _break_columns(targets, avail):
    # targets: desc tuple of column heights still to break; avail: tuple of
    # (height, count) pairs, heights desc, of pieces not yet used
    if not targets:
        return not avail
    for rest in _sub_removals(avail, targets[0]):
        if _break_columns(targets[1:], rest):
            return True
    return False


def leq_punc_by_columns(a: StandardSet, b: StandardSet) -> bool:
    """Column breaking order decided on columns, with no transposition:
    each column of a, tallest first, takes out a sub-multiset of the
    columns of b that sums to it, until none of b is left."""
    counts = tuple(
        (h, sum(1 for _ in run)) for h, run in itertools.groupby(b.cols())
    )
    return _break_columns(a.cols(), counts)


# ---------------------------------------------------------------------------
# the column breaking order from the splitting game alone


def leq_punc_via_alg(a: StandardSet, b: StandardSet) -> bool:
    """Column breaking order decided by the splitting game alone."""
    if a.cardinality != b.cardinality:
        return False
    target = SplitQuadruple(a.cols(), (), b.cols(), ())
    return target in figure_alg(a, b)


# ---------------------------------------------------------------------------
# ideals, the torus action and the monomial order, term by term


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Generated by all pairwise products of generators."""
    return Ideal(tuple(f * g for f in a.generators for g in b.generators))


def torus_scale(f: Polynomial, t, v) -> Polynomial:
    """Scale each term by t to the power of its v-weight; t must be nonzero
    and exact (not a float), and the weights integers."""
    t = exact(t, "t")
    if t == 0:
        raise ValueError("t must be nonzero")
    v1, v2 = _integral(v)
    return Polynomial(
        {e: c * t ** (e[0] * v1 + e[1] * v2) for e, c in f.terms}
    )


# ---------------------------------------------------------------------------
# torus limits at the origin, on the monomials of degree < n


def punctual_limit_by_grid(quotient, v):
    """Reduced lex basis of the weight-v limit of the colength n ideal with
    this quotient, for any integer weight v.

    The ideal must be supported at the origin: then it holds (x1, x2)^n,
    and the monomials of degree < n span its quotient.  Row-reduced in
    descending (v-weight, lex), each dependent m gives m - (standard
    monomials before it) in the ideal; their v-minimal parts and
    (x1, x2)^n span the limit."""
    m1, m2, one = quotient
    n = len(m1[0])
    vectors = {(0, 0): one}
    for d in range(1, n):
        vectors[(0, d)] = _apply(m2, vectors[(0, d - 1)])
        for i in range(1, d + 1):
            vectors[(i, d - i)] = _apply(m1, vectors[(i - 1, d - i)])

    def weight(e):
        return e[0] * v[0] + e[1] * v[1]

    rows, standard, forms = {}, [], {}
    for m in sorted(vectors, key=lambda e: (weight(e), e), reverse=True):
        relation = _eliminate(vectors[m], -1 - len(standard), rows)
        if relation is None:
            standard.append(m)
            continue
        lead = relation.pop(-1 - len(standard))
        forms[m] = _reduced(
            {
                standard[-1 - t]: -c
                for t, c in relation.items()
                if weight(standard[-1 - t]) == weight(m)
            },
            lead,
        )
    return _lex_basis(_on_monomials(standard, lambda e: forms.get(e, ({}, 1))))


def leading_under(p: Polynomial, key):
    """Leading (exponent, coefficient) of p for an arbitrary order key."""
    if not p.terms:
        raise ValueError("the zero polynomial has no leading term")
    return max(p.terms, key=lambda t: key(t[0]))


def lex_compare(alpha, beta) -> int:
    """-1, 0 or 1 as the exponent alpha is below, equal to or above beta."""
    if alpha == beta:
        return 0
    return 1 if alpha > beta else -1
