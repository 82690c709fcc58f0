"""Partial orders on staircases of a fixed size, and incidence machinery.

Two orders drive everything here: one merges rows (horizontal collisions),
the other breaks columns into vertical pieces.  They are exchanged by
transposition, so one memoised block search, after one cancellation
(_unshared), decides both: leq_et fills b's rows with a's, and leq_punc
fills a's columns with b's.  The duality suite of basinlab checks the
search against the closure of single row merges that build_poset takes,
and the tests check both orders against oracles that share no code with
the search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .staircase import StandardSet, enumerate_staircases, sum1, sum2


def _unshared(x, y):
    # what is left of the descending tuples x and y once each value they
    # share cancels, one merge walk giving two descending tuples
    left_x, left_y = [], []
    i = j = 0
    while i < len(x) and j < len(y):
        if x[i] == y[j]:
            i += 1
            j += 1
        elif x[i] > y[j]:
            left_x.append(x[i])
            i += 1
        else:
            left_y.append(y[j])
            j += 1
    return tuple(left_x) + x[i:], tuple(left_y) + y[j:]


# ---------------------------------------------------------------------------
# the block search, and the two orders it decides


@lru_cache(maxsize=None)
def _fill_blocks(pieces, caps):
    # pieces: desc tuple still to place; caps: desc tuple of open capacities
    if not pieces:
        return all(c == 0 for c in caps)
    p = pieces[0]
    # equal caps are adjacent, and only the first of each is tried
    for k, c in enumerate(caps):
        if c < p or k and c == caps[k - 1]:
            continue
        rest = tuple(sorted([*caps[:k], c - p, *caps[k + 1:]], reverse=True))
        if _fill_blocks(pieces[1:], rest):
            return True
    return False


def leq_et(a: StandardSet, b: StandardSet) -> bool:
    """True iff b arises from a by merging rows.

    Equivalently, the row multiset of a can be partitioned into blocks
    whose sums form the row multiset of b.  Staircases of different
    cardinality are never comparable.

    A row width that a and b share cancels before the search.  In any
    witness, say a's row r lies in the block B of b's row s, and b's row
    of r's width is made from the block C.  Then C together with B - {r}
    fills s, and {r} alone fills the row of its width: another witness,
    in which r merges into itself.  So the memoised search sees only the
    rows left over, an instance that many pairs share.

    The search recurses once per row of a left over; about 500 of them,
    such as a column of 500 boxes against a row, end in a RecursionError.
    """
    # the k widest rows of a lie in at most k blocks, so the k widest rows
    # of b hold at least their sum: merging can only raise the row partial
    # sums, which by conjugation is dominance(a, b)
    return dominance(a, b) and _fill_blocks(*_unshared(a.rows(), b.rows()))


def leq_punc(a: StandardSet, b: StandardSet) -> bool:
    """True iff each column of a breaks into vertical pieces such that the
    multiset of all pieces equals the columns of b.

    Transposition turns columns into rows, so this is leq_et(b^T, a^T):
    the columns of b group into blocks whose sums are the columns of a.
    The search is the one leq_et runs there, b's columns the pieces and
    a's the caps, so both orders share one memo.

    A column height that a and b share cancels before the search.  In any
    witness, say a's column c of height h breaks into the pieces P, while
    b's column of height h is a piece of a's column c'.  Let c yield that
    piece whole and c' yield P in its place; P sums to h, so this is
    another witness, in which c stays unbroken.  So the memoised search
    sees only the columns left over, an instance that many pairs share.

    The search recurses once per column of b left over; as for leq_et,
    about 500 of them, such as a column of 500 boxes against a row, end
    in a RecursionError.
    """
    # the k tallest columns of b are pieces of at most k columns of a, so
    # breaking can only lower the column partial sums: dominance(a, b)
    return dominance(a, b) and _fill_blocks(*_unshared(b.cols(), a.cols()))


# ---------------------------------------------------------------------------
# dominance


def dominance(a: StandardSet, b: StandardSet) -> bool:
    """Column partial sums of a stay >= those of b (equal cardinality)."""
    if a.cardinality != b.cardinality:
        return False
    # zip suffices, as equal totals expose a longer ca at cb's end
    sa = sb = 0
    for ha, hb in zip(a.cols(), b.cols()):
        sa += ha
        sb += hb
        if sa < sb:
            return False
    return True


# ---------------------------------------------------------------------------
# the splitting game


@dataclass(frozen=True)
class SplitQuadruple:
    """Terminal state of the splitting game, all four parts as multisets of
    column heights (tuples sorted descending).

    c1 holds, per source column that lost pieces, the merged total carved
    off; c2 the uncarved remainders; c1p the consumed target columns; c2p
    the target columns never matched.
    """

    c1: tuple
    c2: tuple
    c1p: tuple
    c2p: tuple


def _desc(values):
    return tuple(sorted((v for v in values if v > 0), reverse=True))


def figure_alg(a: StandardSet, b: StandardSet):
    """Every end state of the column splitting game from a toward b.

    Returns the set of distinct terminal SplitQuadruples.  A run carves
    columns of b off the columns of a, one at a time, each from a
    remainder at least as tall, until no open column of b fits into any
    remainder.  Where a run ends does not depend on the order of its
    carvings: any plan of which column of a gives each carved column, none
    giving more than its height, is carried out in any order, as a
    column's remainder always covers what is still to be carved from it.
    So the end states are the terminal partial fills, and one memoised
    pass finds them: it takes b's columns tallest first, and carves each
    from one remainder with room for it or leaves it open.  Equal
    (original, remainder) pairs are tried once, and among equal columns
    the open ones come last.  With nothing left open this is the fill
    leq_punc searches, b's columns the pieces and a's the caps, so the
    full carving is an end state exactly when leq_punc(a, b).
    """
    if a.cardinality != b.cardinality:
        raise ValueError("staircases must have equal cardinality")
    cols_b = b.cols()
    results = set()

    @lru_cache(maxsize=None)
    def place(k, rem, left_open):
        # runs once per state.  b's columns before k are placed; rem: sorted
        # tuple of (original, remainder) heights; left_open: desc tuple
        if k == len(cols_b):
            if not left_open or all(left < left_open[-1] for _, left in rem):
                c1 = _desc(orig - left for orig, left in rem)
                c2 = _desc(left for _, left in rem)
                c1p = _unshared(cols_b, left_open)[0]
                results.add(SplitQuadruple(c1, c2, c1p, left_open))
            return
        d = cols_b[k]
        # equal pairs are adjacent in rem, and only the first is tried; once
        # a column of height d stays open, so do the rest of that height
        if left_open[-1:] != (d,):
            for i, (orig, left) in enumerate(rem):
                if left < d or i and rem[i - 1] == rem[i]:
                    continue
                nxt = (*rem[:i], (orig, left - d), *rem[i + 1 :])
                place(k + 1, tuple(sorted(nxt)), left_open)
        place(k + 1, rem, left_open + (d,))

    place(0, tuple(sorted((h, h) for h in a.cols())), ())
    return results


# ---------------------------------------------------------------------------
# posets


_ORDERS = {"et": leq_et, "punc": leq_punc, "dominance": dominance}


def _named(table, name):
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown order {name!r}") from None


def order_function(name: str):
    return _named(_ORDERS, name)


@dataclass
class PosetData:
    """A finite poset on staircases with its full relation and cover edges."""

    elements: tuple
    relation: tuple
    covers: tuple


# one-step moves on a weakly decreasing tuple of parts, each tried once per
# choice of part values


def _moved(parts, taken, added):
    # parts with the values taken out and added put in, as a weakly
    # decreasing tuple without zeros
    rest = list(parts)
    for x in taken:
        rest.remove(x)
    return tuple(sorted((x for x in rest + list(added) if x), reverse=True))


def _row_merges(rows):
    # merge two rows into one
    values = sorted(set(rows), reverse=True)
    for a, u in enumerate(values):
        for v in values[a:]:
            if u != v or rows.count(u) > 1:
                yield _moved(rows, (u, v), (u + v,))


def _column_splits(cols):
    # split one column into two pieces
    for h in set(cols):
        for piece in range(1, h // 2 + 1):
            yield _moved(cols, (h,), (h - piece, piece))


def _unit_transfers(cols):
    # move one box from a column of height h to one of height g <= h - 2,
    # a new column when g = 0
    padded = cols + (0,)
    for h in set(cols):
        for g in set(padded):
            if h - g >= 2:
                yield _moved(padded, (h, g), (h - 1, g + 1))


# per order, the reading its moves act on and the moves
_MOVES = {
    "et": (StandardSet.rows, _row_merges),
    "punc": (StandardSet.cols, _column_splits),
    "dominance": (StandardSet.cols, _unit_transfers),
}


def build_poset(n: int, order: str) -> PosetData:
    """Poset of all staircases of cardinality n under the named order.

    order is 'et', 'punc' or 'dominance'.  Covers are the transitive
    reduction of the relation.

    Each order is the reflexive-transitive closure of a one-step move:

    - et: merge two rows.  A run of merges joins the rows of a into
      blocks, and each partition of the rows into blocks is reached by
      merging the rows of each block one at a time.
    - punc: split one column into two pieces.  A run of splits breaks
      each column of a into pieces, and each such breaking is reached by
      cutting its pieces off one at a time.
    - dominance: a unit transfer, one box from a column to a column at
      least two shorter (Brylawski 1973).  A transfer from column c to a
      later column d lowers the partial sums at c..d-1 by one and keeps
      the rest.  Conversely let a > b, let i be the first index where the
      partial sums of a and b differ and j the first index after i where
      they agree again.  Then a_i > b_i >= b_j > a_j, so the last column
      of height a_i and the first of height a_j lie in i..j, at least two
      apart in height, and the transfer between them lowers only partial
      sums that exceed those of b: a > a' >= b, and induction on the
      total excess reaches b.

    The staircases are listed lex-descending on columns, which extends
    dominance, and every move lowers dominance (each order refines it),
    so each move from element i lands at some j > i, and one backward
    pass sets up[i], the elements above i, to i and the up[j] of its
    moves.  A cover is a single move, as a longer chain has an element
    strictly between; a move i -> j is a cover unless j also lies above
    another move from i, that is two or more moves above i.
    """
    reading, moves = _named(_MOVES, order)
    elements = tuple(enumerate_staircases(n))
    k = len(elements)
    index = {reading(s): i for i, s in enumerate(elements)}
    succ = [sorted({index[t] for t in moves(reading(s))}) for s in elements]
    # bit m of up[i] is relation[i][m]
    up = [0] * k
    for i in reversed(range(k)):
        bits = 1 << i
        for j in succ[i]:
            bits |= up[j]
        up[i] = bits
    # a move i -> j is a cover unless j lies two or more moves above i
    covers = []
    for i, js in enumerate(succ):
        beyond = 0
        for j in js:
            beyond |= up[j] & ~(1 << j)
        covers.extend((i, j) for j in js if not beyond >> j & 1)
    # bit m is the m-th character from the right of the padded binary form
    relation = tuple(
        tuple(map("1".__eq__, format(bits, f"0{k}b")[::-1])) for bits in up
    )
    return PosetData(elements, relation, tuple(covers))


def _node_label(s: StandardSet) -> str:
    return ",".join(str(h) for h in s.cols()) or "empty"


def to_dot(poset: PosetData, name: str = "poset") -> str:
    """DOT digraph with nodes labeled by column tuples, edges small to
    large."""
    lines = [f"digraph {name} {{"]
    for s in poset.elements:
        lines.append(f'  "{_node_label(s)}";')
    for i, j in sorted(poset.covers):
        src = _node_label(poset.elements[i])
        dst = _node_label(poset.elements[j])
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# incidence certificates


@dataclass
class IncidenceCertificate:
    """Factors of a and b on horizontal lines, matched one to one.

    lambda_shape has one row per line and one box per factor of a
    (per_box); lambda_prime_shape and per_box_prime do the same for b.
    check_certificate verifies all that a certificate shows: each
    staircase is the direction-2 sum over its lines of the direction-1
    sum of their factors; box_map is a bijection sending each line of a
    into one line of b, so the lines merge as in leq_et; and each factor
    breaks columns into its image's factor (leq_punc).  That implies
    dominance(a, b), but is not necessary for closure: eight points on
    lines of 4, 2 and 2, staircase (3,3,1,1), have a torus limit at
    (-1, -3) in (2,2,2,1,1), a pair with no certificate.  Whether a
    certificate suffices for closure is untested."""

    lambda_shape: StandardSet
    lambda_prime_shape: StandardSet
    box_map: dict
    per_box: dict
    per_box_prime: dict


def _row_boxes(shape: StandardSet):
    # boxes grouped by row index, each row left to right
    rows = shape.rows()
    return [
        [(j, i) for j in range(width)] for i, width in enumerate(rows)
    ]


def check_certificate(
    cert: IncidenceCertificate, a: StandardSet, b: StandardSet
) -> bool:
    """Verify an incidence certificate for the ordered pair (a, b).

    Malformed data (box_map not a row-compatible bijection between the
    boxes of the two shapes, or factor maps keyed off the wrong boxes)
    raises ValueError; a well-formed certificate that fails a condition
    returns False.
    """
    boxes = set(cert.lambda_shape.points())
    boxes_p = set(cert.lambda_prime_shape.points())
    if set(cert.per_box) != boxes or set(cert.per_box_prime) != boxes_p:
        raise ValueError("factor maps must be keyed by the shape boxes")
    if set(cert.box_map) != boxes:
        raise ValueError("box_map domain must be the boxes of lambda_shape")
    images = list(cert.box_map.values())
    if set(images) != boxes_p or len(images) != len(boxes_p):
        raise ValueError(
            "box_map must biject onto the boxes of lambda_prime_shape"
        )
    for row in _row_boxes(cert.lambda_shape):
        target_rows = {cert.box_map[box][1] for box in row}
        if len(target_rows) > 1:
            raise ValueError("box_map must send each row into a single row")

    def assembled(shape, factors):
        per_row = [
            sum1(factors[box] for box in row) for row in _row_boxes(shape)
        ]
        return sum2(per_row)

    if assembled(cert.lambda_shape, cert.per_box) != a:
        return False
    if assembled(cert.lambda_prime_shape, cert.per_box_prime) != b:
        return False
    # no leq_et check is needed: a bijection that keeps each row of
    # lambda_shape inside one row of lambda_prime_shape makes the rows of
    # lambda_prime_shape sums of blocks of the rows of lambda_shape
    for box in boxes:
        left = cert.per_box[box]
        right = cert.per_box_prime[cert.box_map[box]]
        if not leq_punc(left, right):
            return False
    return True


@lru_cache(maxsize=None)
def _height_counts(cols):
    # columns are weakly decreasing, so equal heights are adjacent
    return tuple(
        (h, sum(1 for _ in run)) for h, run in itertools.groupby(cols)
    )


@lru_cache(maxsize=None)
def _multiset_partitions(values):
    # values: desc tuple; returns canonical partitions, each a desc-sorted
    # tuple of desc-sorted blocks.  The largest block holds values[0] and
    # one distinct sub-multiset of the rest; the partitions of what is left
    # follow it when their own largest block is no larger
    if not values:
        return ((),)
    out = []
    counts = _height_counts(values[1:])
    for takes in itertools.product(*(range(c + 1) for _, c in counts)):
        head = sum(((v,) * t for (v, _), t in zip(counts, takes)), values[:1])
        left = sum(((v,) * (c - t) for (v, c), t in zip(counts, takes)), ())
        out.extend(
            (head,) + part for part in _multiset_partitions(left) if part[:1] <= (head,)
        )
    return tuple(sorted(out, reverse=True))


# in the search a factor is its column tuple and a line a tuple of factors,
# sorted once when the cached decompositions are built
def _factor_key(f):
    return (sum(f),) + f


def _line_key(line):
    return (len(line),) + tuple(_factor_key(f) for f in line)


@lru_cache(maxsize=None)
def _block_lines(block):
    # the lines one block of rows can become: per partition of its columns,
    # the factors, canonically sorted, each line paired with its _line_key
    lines = (
        tuple(sorted(g, key=_factor_key, reverse=True))
        for g in _multiset_partitions(StandardSet.from_rows(block).cols())
    )
    return tuple((_line_key(line), line) for line in lines)


@lru_cache(maxsize=None)
def _signed_decompositions(cols):
    # every way to write the staircase as a direction-2 sum over lines of
    # direction-1 sums of nonempty factors; a decomposition is a tuple of
    # lines, each line a tuple of factors, everything canonically sorted.
    # Returns the decompositions in order, each with its signature (the
    # sorted factor cardinalities), and the same grouped by signature.
    # _line_key is injective, so (key, line) pairs sort as their keys
    out = set()
    for row_partition in _multiset_partitions(StandardSet(cols).rows()):
        for combo in itertools.product(*map(_block_lines, row_partition)):
            out.add(tuple(sorted(combo, reverse=True)))
    decs = (tuple(line for _, line in keyed) for keyed in sorted(out, reverse=True))
    signed = tuple(
        (tuple(sorted(sum(f) for line in dec for f in line)), dec) for dec in decs
    )
    grouped = {}
    for signature, dec in signed:
        grouped.setdefault(signature, []).append(dec)
    return signed, {sig: tuple(decs) for sig, decs in grouped.items()}


@lru_cache(maxsize=None)
def _leq_punc_cols(ca, cb):
    return leq_punc(StandardSet(ca), StandardSet(cb))


@lru_cache(maxsize=None)
def _perfect_match(left, right):
    # bijection left -> right along _leq_punc_cols edges, as a tuple of
    # right indices, or None; both are tuples of factors of one length
    k = len(left)
    adj = [[j for j in range(k) if _leq_punc_cols(f, right[j])] for f in left]
    order = sorted(range(k), key=lambda i: len(adj[i]))
    match = [None] * k

    def extend(pos, used):
        if pos == k:
            return True
        i = order[pos]
        for j in adj[i]:
            if not used & (1 << j):
                match[i] = j
                if extend(pos + 1, used | (1 << j)):
                    return True
        return False

    return tuple(match) if extend(0, 0) else None


def _match_lines(lines_a, lines_b):
    # group the lines of a onto the lines of b, both in canonical order;
    # returns the box map {(pos, a-line): (bpos, b-line)}, or None.
    # remaining is an ascending tuple of a-line indices, so equal a-lines
    # are adjacent in it and only the first of a run is tried

    def groups(remaining, need, start):
        # ascending index tuples of remaining a-lines with need factors
        if need == 0:
            yield ()
            return
        prev = None
        for t in range(start, len(remaining)):
            line = lines_a[remaining[t]]
            if line == prev or len(line) > need:
                continue
            for rest in groups(remaining, need - len(line), t + 1):
                yield (remaining[t],) + rest
            prev = line

    def assign(j, remaining):
        # (box, (bpos, b-line)) pairs for b-lines j onwards, or None
        if j == len(lines_b):
            return None if remaining else []
        for chosen in groups(remaining, len(lines_b[j]), 0):
            left = tuple(f for i in chosen for f in lines_a[i])
            bij = _perfect_match(left, lines_b[j])
            if bij is None:
                continue
            rest = assign(j + 1, tuple(i for i in remaining if i not in chosen))
            if rest is not None:
                boxes = [(pos, i) for i in chosen for pos in range(len(lines_a[i]))]
                return [(box, (bpos, j)) for box, bpos in zip(boxes, bij)] + rest
        return None

    pairs = assign(0, tuple(range(len(lines_a))))
    return None if pairs is None else dict(pairs)


def find_certificate(a: StandardSet, b: StandardSet):
    """Exhaustive search for an incidence certificate for (a, b).

    Returns a certificate that check_certificate accepts, or None when no
    certificate exists.

    A certificate implies dominance(a, b), so pairs failing it return None
    before any search.  Write lam >= mu when the column partial sums of lam
    stay >= those of mu, lam | mu for sum1 (the union of the columns) and
    lam + mu for sum2 (the column vectors added).  Then:

    - each matched factor pair has leq_punc(f, f'), so f >= f';
    - | keeps >=: the top-k partial sum of lam | mu is the best split of k
      between the top partial sums of lam and of mu;
    - + keeps >=, as partial sums add;
    - lam + mu >= lam | mu, since each such split is bounded by the two
      top-k partial sums together.

    A b-line L' receives whole a-lines L1..Lr, and its factors are matched
    one to one with theirs, so L' <= L1 | ... | Lr <= L1 + ... + Lr.
    Adding over the b-lines gives b <= a.
    """
    if not dominance(a, b):
        return None
    # a certificate pairs every factor of dec_a with one of dec_b along
    # leq_punc, which needs equal cardinality, so only decompositions with
    # the same factor cardinalities can match
    by_signature = _signed_decompositions(b.cols())[1]
    for signature, dec_a in _signed_decompositions(a.cols())[0]:
        for dec_b in by_signature.get(signature, ()):
            if len(dec_b) > len(dec_a):
                continue
            box_map = _match_lines(dec_a, dec_b)
            if box_map is not None:
                return _build_certificate(dec_a, dec_b, box_map)
    return None


def _shape_and_factors(dec):
    # decompositions are already sorted the way rows of the shapes are
    shape = StandardSet.from_rows(len(line) for line in dec)
    factors = {
        (j, i): StandardSet(f) for i, line in enumerate(dec) for j, f in enumerate(line)
    }
    return shape, factors


def _build_certificate(dec_a, dec_b, box_map):
    (shape, per_box), (shape_p, per_box_p) = map(_shape_and_factors, (dec_a, dec_b))
    return IncidenceCertificate(shape, shape_p, box_map, per_box, per_box_p)
