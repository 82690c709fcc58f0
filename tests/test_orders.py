import hashlib
import itertools
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from grobasin.groebner import reduced_groebner_basis, staircase_of, torus_limit, vanishing_ideal
from grobasin.orders import (
    IncidenceCertificate,
    SplitQuadruple,
    _MOVES,
    _block_lines,
    _build_certificate,
    _height_counts,
    _leq_punc_cols,
    _fill_blocks,
    _match_lines,
    _multiset_partitions,
    _perfect_match,
    _signed_decompositions,
    _unshared,
    build_poset,
    check_certificate,
    dominance,
    figure_alg,
    find_certificate,
    leq_et,
    leq_punc,
    order_function,
    to_dot,
)
from grobasin.poly import parse_polynomial
from grobasin.staircase import EMPTY, StandardSet, enumerate_staircases

from definitions import (
    et_row_partition,
    leq_punc_by_columns,
    leq_punc_via_alg,
    lex_cols_geq,
    lex_rows_leq,
)

# the memoised search of both orders, and the height grouping the
# certificate search caches
_SEARCHES = (_fill_blocks, _height_counts)


def index_partitions(k):
    # all set partitions of range(k), grown one element at a time
    parts = [[]]
    for i in range(k):
        grown = []
        for part in parts:
            for j in range(len(part)):
                grown.append(part[:j] + [part[j] + [i]] + part[j + 1:])
            grown.append(part + [[i]])
        parts = grown
    return parts


def brute_leq_et(a, b):
    # rows of a, partitioned into blocks whose sums give the rows of b
    if a.cardinality != b.cardinality:
        return False
    ra = list(a.rows())
    rb = sorted(b.rows())
    for part in index_partitions(len(ra)):
        sums = sorted(sum(ra[i] for i in block) for block in part)
        if sums == rb:
            return True
    return False


def brute_leq_punc(a, b):
    # vertical column breaking is horizontal row merging of the mirrors
    return brute_leq_et(b.transpose(), a.transpose())


def naive_covers(relation):
    # pairs i != j related with no third element between them
    k = len(relation)
    return [
        (i, j)
        for i, j in itertools.product(range(k), range(k))
        if i != j
        and relation[i][j]
        and not any(
            relation[i][m] and relation[m][j]
            for m in range(k)
            if m not in (i, j)
        )
    ]


NONEX_A = StandardSet.from_columns([3, 2, 1])
NONEX_B = StandardSet.from_columns([3, 1, 1, 1])


class TestAgainstBruteForce:
    def test_leq_et(self):
        for n in range(7):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                assert leq_et(a, b) == brute_leq_et(a, b)

    def test_leq_punc(self):
        for n in range(7):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                assert leq_punc(a, b) == brute_leq_punc(a, b)


class TestOrderAxioms:
    @pytest.mark.parametrize("name", ["et", "punc", "dominance"])
    def test_partial_order(self, name):
        leq = order_function(name)
        for n in range(1, 8):
            sts = enumerate_staircases(n)
            rel = {
                (i, j): leq(a, b)
                for i, a in enumerate(sts)
                for j, b in enumerate(sts)
            }
            k = len(sts)
            for i in range(k):
                assert rel[i, i]
            for i, j in itertools.product(range(k), range(k)):
                if i != j:
                    assert not (rel[i, j] and rel[j, i])
            for i, j, l in itertools.product(range(k), repeat=3):
                if rel[i, j] and rel[j, l]:
                    assert rel[i, l]

    @pytest.mark.parametrize("name", ["et", "punc", "dominance"])
    def test_column_is_bottom_row_is_top(self, name):
        leq = order_function(name)
        for n in range(1, 8):
            col = StandardSet([n])
            row = StandardSet.from_rows([n])
            for s in enumerate_staircases(n):
                assert leq(col, s)
                assert leq(s, row)

    @pytest.mark.parametrize("name", ["et", "punc", "dominance"])
    def test_cross_size_is_never_related(self, name):
        leq = order_function(name)
        a = StandardSet([2, 1])
        b = StandardSet([2, 2])
        assert not leq(a, b)
        assert not leq(b, a)

    def test_unknown_order_name(self):
        with pytest.raises(ValueError, match="unknown order 'colex'"):
            order_function("colex")
        with pytest.raises(ValueError, match="unknown order 'colex'"):
            build_poset(3, "colex")


class TestRefinementAndDuality:
    def test_both_orders_refine_dominance(self):
        for n in range(1, 8):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                if leq_et(a, b) or leq_punc(a, b):
                    assert dominance(a, b)

    def test_both_orders_refine_the_full_filter(self):
        for n in range(1, 8):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                if leq_et(a, b) or leq_punc(a, b):
                    assert dominance(a, b) and lex_rows_leq(a, b) and lex_cols_geq(a, b)

    def test_filter_is_dominance_up_to_16(self):
        # The incidence filter (`check filter`) is dominance, because
        # dominance implies both lex filters.  At the first column where a
        # and b differ the partial sums agree before it, so a's column is
        # the taller one, and lex_cols_geq holds.  Conjugation reverses
        # dominance, so the rows of b dominate those of a and, by the same
        # argument, lex_rows_leq holds.  So the full conjunction and
        # dominance agree on every same-size pair
        pairs = 0
        for n in range(17):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                old = dominance(a, b) and lex_rows_leq(a, b) and lex_cols_geq(a, b)
                assert dominance(a, b) == old, (a.cols(), b.cols())
                pairs += 1
        assert pairs == 125411

    def test_dominance_incomparable_pair(self):
        a = StandardSet.from_rows([4, 1, 1])
        b = StandardSet.from_rows([3, 3])
        assert not dominance(a, b)
        assert not dominance(b, a)

    def test_transpose_duality(self):
        # leq_punc(a, b) against the closure of single row merges at
        # (b^T, a^T), which shares no code with leq_punc's block search;
        # leq_et(b^T, a^T) would run that very search
        for n in range(1, 11):
            poset = build_poset(n, "et")
            index = {s: i for i, s in enumerate(poset.elements)}
            for a, b in itertools.product(poset.elements, repeat=2):
                mirrored = poset.relation[index[b.transpose()]][index[a.transpose()]]
                assert leq_punc(a, b) == mirrored, (a, b)

    def test_orders_differ(self):
        # the two orders disagree somewhere by n = 6
        assert leq_punc(NONEX_A, NONEX_B)
        assert not leq_et(NONEX_A, NONEX_B)


class TestNonExample:
    def test_frozen_quadruple(self):
        assert leq_punc(NONEX_A, NONEX_B) is True
        assert leq_et(NONEX_A, NONEX_B) is False
        assert dominance(NONEX_A, NONEX_B) is True
        assert dominance(NONEX_B, NONEX_A) is False

    def test_lex_components(self):
        assert lex_rows_leq(NONEX_A, NONEX_B)
        assert lex_cols_geq(NONEX_A, NONEX_B)
        assert dominance(NONEX_A, NONEX_B)
        assert not dominance(NONEX_B, NONEX_A)


class TestRowPartitionWitness:
    # et_row_partition is the backtracking search of tests/definitions.py,
    # which shares no code with leq_et; up to n = 12 so that a search that
    # only ever fills the widest open row, first wrong at n = 10, shows
    def test_witness_exists_iff_related(self):
        for n in range(1, 13):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                witness = et_row_partition(a, b)
                assert (witness is not None) == leq_et(a, b)

    def test_witness_blocks_reassemble(self):
        for n in range(1, 13):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                witness = et_row_partition(a, b)
                if witness is None:
                    continue
                assert len(witness) == len(b.rows())
                for block, target in zip(witness, b.rows()):
                    assert sum(block) == target
                pooled = sorted(w for block in witness for w in block)
                assert pooled == sorted(a.rows())

    def test_simple_witness(self):
        a = StandardSet.from_columns([2, 2, 1])  # rows (3, 2)
        whole = StandardSet.from_rows([5])
        assert et_row_partition(a, whole) == ((3, 2),)
        assert et_row_partition(a, a) == ((3,), (2,))

    def test_witness_that_filling_the_widest_row_misses(self):
        # rows (3,3,2,2) merge into (6,4) only as 3+3 and 2+2
        a, b = StandardSet.from_rows([3, 3, 2, 2]), StandardSet.from_rows([6, 4])
        assert leq_et(a, b)
        assert et_row_partition(a, b) == ((3, 3), (2, 2))


class TestSplittingGame:
    def test_equal_inputs_succeed_immediately(self):
        s = StandardSet([2])
        assert figure_alg(s, s) == {SplitQuadruple((2,), (), (2,), ())}

    def test_frozen_failure(self):
        ones = StandardSet([1, 1])
        two = StandardSet([2])
        assert figure_alg(ones, two) == {
            SplitQuadruple((), (1, 1), (), (2,))
        }

    def test_frozen_success_by_splitting(self):
        ones = StandardSet([1, 1])
        two = StandardSet([2])
        assert figure_alg(two, ones) == {
            SplitQuadruple((2,), (), (1, 1), ())
        }

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            figure_alg(StandardSet([1]), StandardSet([1, 1]))

    def test_via_alg_matches_direct_order(self):
        for n in range(1, 7):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                assert leq_punc_via_alg(a, b) == leq_punc(a, b)

    def test_via_alg_cross_size_false(self):
        assert not leq_punc_via_alg(StandardSet([1]), StandardSet([1, 1]))

    def test_terminals_conserve_size(self):
        for n in range(1, 6):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                for quad in figure_alg(a, b):
                    assert sum(quad.c1) + sum(quad.c2) == n
                    assert sum(quad.c1p) + sum(quad.c2p) == n
                    # leftovers on both sides weigh the same
                    assert sum(quad.c2) == sum(quad.c2p)


class TestPosets:
    def test_n4_et_covers(self):
        poset = build_poset(4, "et")
        edges = {
            (poset.elements[i].cols(), poset.elements[j].cols())
            for i, j in poset.covers
        }
        assert edges == {
            ((4,), (3, 1)),
            ((3, 1), (2, 2)),
            ((3, 1), (2, 1, 1)),
            ((2, 2), (1, 1, 1, 1)),
            ((2, 1, 1), (1, 1, 1, 1)),
        }

    def test_n4_punc_covers(self):
        poset = build_poset(4, "punc")
        edges = {
            (poset.elements[i].cols(), poset.elements[j].cols())
            for i, j in poset.covers
        }
        assert edges == {
            ((4,), (3, 1)),
            ((4,), (2, 2)),
            ((3, 1), (2, 1, 1)),
            ((2, 2), (2, 1, 1)),
            ((2, 1, 1), (1, 1, 1, 1)),
        }

    def test_relation_matrix_matches_order(self):
        # the closure of the moves against the point queries, every pair
        for name in ("et", "punc", "dominance"):
            leq = order_function(name)
            for n in range(13):
                poset = build_poset(n, name)
                for i, a in enumerate(poset.elements):
                    for j, b in enumerate(poset.elements):
                        assert poset.relation[i][j] == leq(a, b), (name, i, j)

    def test_listing_extends_every_move(self):
        # build_poset's backward pass needs the listing strictly
        # lex-descending on columns and every move to land later in it
        for n in range(21):
            elements = enumerate_staircases(n)
            cols = [s.cols() for s in elements]
            assert all(x > y for x, y in zip(cols, cols[1:]))
            for name, (reading, moves) in _MOVES.items():
                index = {reading(s): i for i, s in enumerate(elements)}
                for i, s in enumerate(elements):
                    for t in moves(reading(s)):
                        assert index[t] > i, (name, s.cols(), t)

    def test_covers_are_transitive_reduction(self):
        # the covers, in their order, against the O(k^3) definition
        for name in ("et", "punc", "dominance"):
            for n in range(10):
                poset = build_poset(n, name)
                assert list(poset.covers) == naive_covers(poset.relation)

    def test_punc_covers_are_transposed_et_covers(self):
        # a <=punc b iff b^T <=et a^T, so the Hasse diagrams are mirrors
        et, punc = build_poset(10, "et"), build_poset(10, "punc")
        where = {s: k for k, s in enumerate(et.elements)}
        tr = [where[s.transpose()] for s in punc.elements]
        k = len(tr)
        for i, j in itertools.product(range(k), range(k)):
            assert punc.relation[i][j] == et.relation[tr[j]][tr[i]]
        assert {(tr[j], tr[i]) for i, j in punc.covers} == set(et.covers)

    def test_to_dot_frozen(self):
        poset = build_poset(3, "punc")
        assert to_dot(poset, name="punc_3") == (
            'digraph punc_3 {\n'
            '  "3";\n'
            '  "2,1";\n'
            '  "1,1,1";\n'
            '  "3" -> "2,1";\n'
            '  "2,1" -> "1,1,1";\n'
            "}\n"
        )


def single_box_certificate(a, b):
    box = StandardSet([1])
    return IncidenceCertificate(
        lambda_shape=box,
        lambda_prime_shape=box,
        box_map={(0, 0): (0, 0)},
        per_box={(0, 0): a},
        per_box_prime={(0, 0): b},
    )


class TestCertificates:
    def test_single_box_accepts(self):
        a = StandardSet([2, 1])
        b = StandardSet.from_rows([3])
        assert check_certificate(single_box_certificate(a, b), a, b)

    def test_two_box_row_certificate(self):
        # both shapes a single row of two boxes, factors matched in place
        flat = StandardSet([1, 1])
        cert = IncidenceCertificate(
            lambda_shape=flat,
            lambda_prime_shape=flat,
            box_map={(0, 0): (0, 0), (1, 0): (1, 0)},
            per_box={(0, 0): StandardSet([2]), (1, 0): StandardSet([1])},
            per_box_prime={
                (0, 0): StandardSet([1, 1]),
                (1, 0): StandardSet([1]),
            },
        )
        assert check_certificate(cert, StandardSet([2, 1]), StandardSet([1, 1, 1]))

    def test_two_box_row_certificate_reversed_factors_fail(self):
        # same skeleton, but now one factor would need to merge columns
        flat = StandardSet([1, 1])
        cert = IncidenceCertificate(
            lambda_shape=flat,
            lambda_prime_shape=flat,
            box_map={(0, 0): (0, 0), (1, 0): (1, 0)},
            per_box={(0, 0): StandardSet([1, 1]), (1, 0): StandardSet([1])},
            per_box_prime={
                (0, 0): StandardSet([2]),
                (1, 0): StandardSet([1]),
            },
        )
        assert not check_certificate(
            cert, StandardSet([1, 1, 1]), StandardSet([2, 1])
        )

    def test_reconstruction_mismatch_is_false(self):
        a = StandardSet([2])
        b = StandardSet([1, 1])
        cert = single_box_certificate(StandardSet([1, 1]), b)
        assert not check_certificate(cert, a, b)

    def test_per_box_order_failure_is_false(self):
        a = StandardSet([1, 1])
        b = StandardSet([2])
        assert not check_certificate(single_box_certificate(a, b), a, b)

    def test_wrong_factor_keys_raise(self):
        a = StandardSet([2])
        cert = IncidenceCertificate(
            lambda_shape=StandardSet([1]),
            lambda_prime_shape=StandardSet([1]),
            box_map={(0, 0): (0, 0)},
            per_box={(1, 1): a},
            per_box_prime={(0, 0): a},
        )
        with pytest.raises(ValueError):
            check_certificate(cert, a, a)

    def test_non_bijective_map_raises(self):
        flat = StandardSet([1, 1])
        one = StandardSet([1])
        cert = IncidenceCertificate(
            lambda_shape=flat,
            lambda_prime_shape=flat,
            box_map={(0, 0): (0, 0), (1, 0): (0, 0)},
            per_box={(0, 0): one, (1, 0): one},
            per_box_prime={(0, 0): one, (1, 0): one},
        )
        with pytest.raises(ValueError):
            check_certificate(cert, StandardSet([1, 1]), StandardSet([1, 1]))

    def test_row_splitting_map_raises(self):
        one = StandardSet([1])
        cert = IncidenceCertificate(
            lambda_shape=StandardSet([1, 1]),
            lambda_prime_shape=StandardSet([2]),
            box_map={(0, 0): (0, 0), (1, 0): (0, 1)},
            per_box={(0, 0): one, (1, 0): one},
            per_box_prime={(0, 0): one, (0, 1): one},
        )
        with pytest.raises(ValueError):
            check_certificate(cert, StandardSet([1, 1]), StandardSet([2]))

    def test_search_validates_and_implies_filter(self):
        for n in range(1, 6):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                cert = find_certificate(a, b)
                if cert is not None:
                    assert check_certificate(cert, a, b)
                    assert dominance(a, b)

    def test_search_none_on_size_mismatch(self):
        assert find_certificate(StandardSet([1]), StandardSet([2])) is None

    def test_search_empty_pair(self):
        cert = find_certificate(EMPTY, EMPTY)
        assert cert is not None
        assert check_certificate(cert, EMPTY, EMPTY)

    def test_worked_pair_has_certificate(self):
        a = StandardSet([2, 1])
        b = StandardSet.from_rows([3])
        cert = find_certificate(a, b)
        assert cert is not None
        assert check_certificate(cert, a, b)

    def test_nonexample_reverse_has_no_certificate(self):
        assert find_certificate(NONEX_B, NONEX_A) is None

    def test_box_map_off_the_left_boxes_raises(self):
        a, b = StandardSet([2, 1]), StandardSet([1, 1, 1])
        cert = find_certificate(a, b)
        del cert.box_map[(1, 0)]
        with pytest.raises(ValueError, match="^box_map domain must be the boxes of lambda_shape$"):
            check_certificate(cert, a, b)

    def test_right_assembly_other_than_b_is_false(self):
        # the edited factors assemble (2,1) on the right, not b
        a, b = StandardSet([2, 1]), StandardSet([1, 1, 1])
        cert = find_certificate(a, b)
        cert.per_box_prime[(0, 0)] = StandardSet([2])
        assert not check_certificate(cert, a, b)
        assert check_certificate(cert, a, StandardSet([2, 1]))

    def test_shapes_not_leq_et_related_raise_before_any_order_check(self):
        # unit factors on every box make the shapes themselves a and b, so
        # check_certificate accepts exactly the bijections that keep rows
        # inside rows; shapes not leq_et-related have none, and every
        # bijection between them raises
        one = StandardSet([1])
        for n in range(1, 6):
            sts = enumerate_staircases(n)
            for lam, lam_p in itertools.product(sts, sts):
                boxes, boxes_p = sorted(lam.points()), sorted(lam_p.points())
                accepted = 0
                for images in itertools.permutations(boxes_p):
                    cert = IncidenceCertificate(
                        lam,
                        lam_p,
                        dict(zip(boxes, images)),
                        dict.fromkeys(boxes, one),
                        dict.fromkeys(boxes_p, one),
                    )
                    try:
                        accepted += check_certificate(cert, lam, lam_p)
                    except ValueError as exc:
                        assert str(exc) == "box_map must send each row into a single row"
                assert (accepted > 0) == leq_et(lam, lam_p), (lam, lam_p)

    def test_limit_without_certificate(self):
        # eight points on three lines of 4, 2 and 2 flow at v = (-1, -3)
        # into a cell that dominance allows and neither order nor any
        # certificate reaches: a certificate is not necessary for closure
        points = [
            (Fraction(-13, 9), 5), (Fraction(-2, 3), 5), (Fraction(-8, 5), 5), (-7, 5),
            (6, Fraction(-9, 5)), (Fraction(-3, 7), Fraction(-9, 5)),
            (Fraction(13, 8), Fraction(1, 2)), (Fraction(-4, 3), Fraction(1, 2)),
        ]
        ideal = vanishing_ideal(points)
        limit = torus_limit(ideal, (-1, -3))
        a, b = staircase_of(ideal), staircase_of(limit)
        assert (a, b) == (StandardSet([3, 3, 1, 1]), StandardSet([2, 2, 2, 1, 1]))
        assert reduced_groebner_basis(limit).elements == tuple(
            map(
                parse_polynomial,
                ("x2^2", "x1^3*x2", "x1^5 - 28843319527519951/512311373497980*x1^2*x2"),
            )
        )
        assert dominance(a, b)
        assert not leq_et(a, b) and not leq_punc(a, b)
        assert find_certificate(a, b) is None

    def test_certificates_up_to_10_unchanged(self):
        # which certificate the search returns, pinned for every pair
        digest = hashlib.sha256()
        found = 0
        for n in range(11):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                cert = find_certificate(a, b)
                found += cert is not None
                digest.update(repr(cert).encode())
        assert (found, digest.hexdigest()[:16]) == (1698, "e904514a49192401")


def uncut_certificate(a, b):
    # find_certificate's search for a nonempty pair without its dominance
    # cut: every signature-matched pair of decompositions, in order
    by_signature = _signed_decompositions(b.cols())[1]
    for signature, dec_a in _signed_decompositions(a.cols())[0]:
        for dec_b in by_signature.get(signature, ()):
            if len(dec_b) > len(dec_a):
                continue
            assignment = _match_lines(dec_a, dec_b)
            if assignment is not None:
                return _build_certificate(dec_a, dec_b, assignment)
    return None


class TestFastRejections:
    # the partial-sum pre-tests of the orders and the dominance cut of
    # find_certificate may only skip searches whose answer is no

    def test_et_pre_test_keeps_every_answer(self):
        for n in range(13):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                assert leq_et(a, b) == _fill_blocks(a.rows(), b.rows())

    def test_punc_pre_test_keeps_every_answer(self):
        for n in range(13):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                assert leq_punc(a, b) == leq_punc_by_columns(a, b)

    def test_dominance_cut_against_uncut_search(self):
        for n in range(1, 9):
            sts = enumerate_staircases(n)
            cut = found = 0  # counted per size; pinned at n = 8
            for a, b in itertools.product(sts, sts):
                uncut = uncut_certificate(a, b)
                if not dominance(a, b):
                    cut += 1
                    assert uncut is None, (a.cols(), b.cols())
                if uncut is not None:
                    found += 1
                    assert dominance(a, b)
                assert find_certificate(a, b) == uncut
        assert (found, cut) == (235, 246)


@lru_cache(maxsize=None)
def brute_multiset_partitions(values):
    # every set partition of the indices, each block and then the blocks
    # sorted descending, duplicates dropped: B(k) partitions for k values
    canonical = {
        tuple(
            sorted(
                (tuple(sorted((values[i] for i in blk), reverse=True)) for blk in part),
                reverse=True,
            )
        )
        for part in index_partitions(len(values))
    }
    return tuple(sorted(canonical, reverse=True))


def brute_line_key(line):
    # factors are column tuples, keyed by (cardinality, columns)
    return (len(line),) + tuple((sum(f),) + f for f in line)


def brute_signed_decompositions(cols):
    # every row partition, and per block every column partition of the
    # staircase its rows make, each rebuilt for every row partition
    decs = set()
    for row_partition in brute_multiset_partitions(StandardSet(cols).rows()):
        per_block = [
            [
                tuple(sorted(g, key=lambda f: (sum(f),) + f, reverse=True))
                for g in brute_multiset_partitions(StandardSet.from_rows(block).cols())
            ]
            for block in row_partition
        ]
        for combo in itertools.product(*per_block):
            decs.add(tuple(sorted(combo, key=brute_line_key, reverse=True)))
    ordered = sorted(decs, key=lambda dec: tuple(map(brute_line_key, dec)), reverse=True)
    signed = tuple(
        (tuple(sorted(sum(f) for line in dec for f in line)), dec) for dec in ordered
    )
    grouped = {}
    for signature, dec in signed:
        grouped.setdefault(signature, []).append(dec)
    return signed, {sig: tuple(group) for sig, group in grouped.items()}


class TestDecompositions:
    # partitions are built from distinct sub-multisets, never from set
    # partitions of the indices; the answers must be those of the latter

    def test_multiset_partitions_against_set_partitions(self):
        checked = set()
        for n in range(10):
            for s in enumerate_staircases(n):
                for values in (s.rows(), s.cols()):
                    assert _multiset_partitions(values) == brute_multiset_partitions(values)
                    checked.add(values)
        assert len(checked) == 97 and (1,) * 9 in checked

    def test_signed_decompositions_against_rebuilt_lines(self):
        for n in range(9):
            for s in enumerate_staircases(n):
                assert _signed_decompositions(s.cols()) == brute_signed_decompositions(s.cols())

    def test_many_equal_values_within_budget(self):
        # B(14) is about 1.9 * 10^8 set partitions; p(14) = 135
        _multiset_partitions.cache_clear()
        start = time.perf_counter()
        parts = _multiset_partitions((1,) * 14)
        elapsed = time.perf_counter() - start
        assert len(parts) == 135
        assert sorted(parts) == sorted(
            tuple((1,) * k for k in p.cols()) for p in enumerate_staircases(14)
        )
        assert elapsed < 2, f"took {elapsed:.1f}s, budget 2s"


class TestPerfectMatch:
    def test_against_every_permutation(self):
        # the lines of every decomposition at n <= 7 with at most 6 factors,
        # grouped by signature (the only lines a certificate compares), and
        # each left side also reversed, as groups of a-lines come unsorted
        by_signature = {}
        for n in range(1, 8):
            for s in enumerate_staircases(n):
                for _, dec in _signed_decompositions(s.cols())[0]:
                    for line in dec:
                        if len(line) <= 6:
                            key = tuple(sorted(map(sum, line)))
                            by_signature.setdefault(key, set()).add(line)
        leq = lru_cache(maxsize=None)(
            lambda f, g: brute_leq_punc(StandardSet(f), StandardSet(g))
        )
        found = missing = 0
        for lines in by_signature.values():
            for line, right in itertools.product(lines, lines):
                for left in (line, line[::-1]):
                    k = len(left)
                    valid = {
                        p
                        for p in itertools.permutations(range(k))
                        if all(leq(left[i], right[p[i]]) for i in range(k))
                    }
                    match = _perfect_match(left, right)
                    if match is None:
                        missing += 1
                        assert not valid, (left, right)
                    else:
                        found += 1
                        assert match in valid, (left, right, match)
        assert found > 0 and missing > 0


def padded_partial_sums_dominate(ca, cb):
    # dominance straight from its definition: equal totals, and every
    # column partial sum of a, zero padded to a common length, >= b's
    length = max(len(ca), len(cb))
    ca = list(ca) + [0] * (length - len(ca))
    cb = list(cb) + [0] * (length - len(cb))
    if sum(ca) != sum(cb):
        return False
    return all(sum(ca[:k]) >= sum(cb[:k]) for k in range(1, length + 1))


class TestDominanceOracle:
    def test_every_pair_up_to_12(self):
        sts = [s for n in range(13) for s in enumerate_staircases(n)]
        unequal_length = unequal_size = 0
        for a, b in itertools.product(sts, sts):
            expected = padded_partial_sums_dominate(a.cols(), b.cols())
            assert dominance(a, b) == expected, (a.cols(), b.cols())
            unequal_length += a.cardinality == b.cardinality and a.width != b.width
            unequal_size += a.cardinality != b.cardinality
        assert unequal_length > 0 and unequal_size > 0


class TestScalingBudgets:
    # the exhaustive checks at the sizes the benchmark runs; the answers
    # are pinned so a fast wrong search cannot pass

    def test_all_certificates_at_n8_within_budget(self):
        sts = enumerate_staircases(8)
        start = time.perf_counter()
        found = 0
        for a, b in itertools.product(sts, sts):
            cert = find_certificate(a, b)
            if cert is not None:
                found += 1
                assert check_certificate(cert, a, b)
        elapsed = time.perf_counter() - start
        assert len(sts) ** 2 == 484 and found == 235
        assert elapsed < 4, f"took {elapsed:.1f}s, budget 4s"

    def test_all_certificates_at_n10_within_budget(self):
        # from cold caches: every decomposition at n = 10 is built here
        for cache in (_multiset_partitions, _block_lines, _signed_decompositions):
            cache.cache_clear()
        sts = enumerate_staircases(10)
        start = time.perf_counter()
        found = 0
        for a, b in itertools.product(sts, sts):
            cert = find_certificate(a, b)
            if cert is not None:
                found += 1
                assert check_certificate(cert, a, b)
        elapsed = time.perf_counter() - start
        assert len(sts) ** 2 == 1764 and found == 805
        assert elapsed < 6, f"took {elapsed:.1f}s, budget 6s"

    def test_all_certificates_at_n12_within_budget(self):
        # from cold caches, and which certificate the search returns pinned
        # for every pair, as test_certificates_up_to_10_unchanged does
        for cache in (
            _multiset_partitions,
            _block_lines,
            _signed_decompositions,
            _leq_punc_cols,
            _perfect_match,
        ):
            cache.cache_clear()
        sts = enumerate_staircases(12)
        digest = hashlib.sha256()
        start = time.perf_counter()
        found = 0
        for a, b in itertools.product(sts, sts):
            cert = find_certificate(a, b)
            if cert is not None:
                found += 1
                assert check_certificate(cert, a, b)
            digest.update(repr(cert).encode())
        elapsed = time.perf_counter() - start
        assert len(sts) ** 2 == 5929
        assert (found, digest.hexdigest()[:16]) == (2574, "87a5b83df06f646c")
        assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"

    def test_posets_at_n14_within_budget(self):
        start = time.perf_counter()
        sizes = {}
        for name in ("et", "punc", "dominance"):
            poset = build_poset(14, name)
            sizes[name] = (len(poset.elements), len(poset.covers))
        elapsed = time.perf_counter() - start
        assert sizes == {
            "et": (135, 525), "punc": (135, 525), "dominance": (135, 247)
        }
        assert elapsed < 3, f"took {elapsed:.1f}s, budget 3s"

    def test_posets_at_n16_within_budget(self):
        start = time.perf_counter()
        sizes = {}
        for name in ("et", "punc", "dominance"):
            poset = build_poset(16, name)
            sizes[name] = (len(poset.elements), len(poset.covers))
        elapsed = time.perf_counter() - start
        assert sizes == {
            "et": (231, 1033), "punc": (231, 1033), "dominance": (231, 459)
        }
        assert elapsed < 3, f"took {elapsed:.1f}s, budget 3s"

    def test_posets_at_n18_unchanged_within_budget(self):
        # relation and covers of each order hashed as recorded before the
        # searches ran on cancelled instances, from cold search caches
        for cache in _SEARCHES:
            cache.cache_clear()
        start = time.perf_counter()
        digests = {}
        for name in ("et", "punc", "dominance"):
            poset = build_poset(18, name)
            digest = hashlib.sha256()
            digest.update(repr(poset.relation).encode())
            digest.update(repr(poset.covers).encode())
            digests[name] = (len(poset.elements), len(poset.covers), digest.hexdigest()[:16])
        elapsed = time.perf_counter() - start
        assert digests == {
            "et": (385, 1948, "0078126de90f3a16"),
            "punc": (385, 1948, "544b8349aaf3c7b5"),
            "dominance": (385, 824, "ef3419dff211fea3"),
        }
        assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"

    def test_posets_at_n20_unchanged_within_budget(self):
        # relation and covers of each order hashed as recorded when every
        # pair was an order search, from cold search caches
        for cache in _SEARCHES:
            cache.cache_clear()
        start = time.perf_counter()
        digests = {}
        for name in ("et", "punc", "dominance"):
            poset = build_poset(20, name)
            digest = hashlib.sha256()
            digest.update(repr(poset.relation).encode())
            digest.update(repr(poset.covers).encode())
            digests[name] = (len(poset.elements), len(poset.covers), digest.hexdigest()[:16])
        elapsed = time.perf_counter() - start
        assert digests == {
            "et": (627, 3545, "3f0546fc12698f66"),
            "punc": (627, 3545, "dcbe2652ed66585e"),
            "dominance": (627, 1430, "e8467cc8e9dc4634"),
        }
        assert elapsed < 3, f"took {elapsed:.1f}s, budget 3s"

    def test_punc_sweep_at_n20_within_budget(self):
        # leq_punc on all 393129 ordered pairs from cold search caches;
        # the count of true answers as recorded before the removal search
        # lost its memo
        for search in _SEARCHES:
            search.cache_clear()
        sts = enumerate_staircases(20)
        start = time.perf_counter()
        held = sum(leq_punc(a, b) for a, b in itertools.product(sts, sts))
        elapsed = time.perf_counter() - start
        assert held == 93294
        assert elapsed < 3, f"took {elapsed:.1f}s, budget 3s"


class TestCancelledSearchMemo:
    # leq_et and leq_punc cancel the parts a and b share before the
    # memoized search, so pairs meet shared sub-instances; searching every
    # query whole left 37445 entries in _fill_blocks after leq_et on every
    # ordered pair at n = 16, and leq_punc searches the transposed pairs

    @pytest.mark.parametrize(
        "order,cache,whole", [("et", _fill_blocks, 37445), ("punc", _fill_blocks, 37445)]
    )
    def test_sweep_at_16_leaves_at_most_half_the_entries(self, order, cache, whole):
        for search in _SEARCHES:
            search.cache_clear()
        leq = order_function(order)
        sts = enumerate_staircases(16)
        for a, b in itertools.product(sts, sts):
            leq(a, b)
        assert 0 < cache.cache_info().currsize <= whole // 2

    @pytest.mark.parametrize("order", ["et", "punc", "dominance"])
    def test_poset_runs_no_search(self, order):
        for search in _SEARCHES:
            search.cache_clear()
        build_poset(16, order)
        assert [search.cache_info().currsize for search in _SEARCHES] == [0, 0]

    @pytest.mark.parametrize("reading", [StandardSet.rows, StandardSet.cols])
    def test_unshared_leaves_no_common_value(self, reading):
        # for every ordered pair with n <= 12 the leftovers are descending,
        # share no value, and give back the inputs with the shared part
        for n in range(13):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                x, y = reading(a), reading(b)
                left_x, left_y = _unshared(x, y)
                assert not set(left_x) & set(left_y)
                shared = Counter(x) & Counter(y)
                assert Counter(left_x) + shared == Counter(x)
                assert Counter(left_y) + shared == Counter(y)
                for left in (left_x, left_y):
                    assert list(left) == sorted(left, reverse=True)
