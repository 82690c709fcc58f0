import itertools
import json
import re
import time
from fractions import Fraction

import pytest

from grobasin.staircase import (
    EMPTY,
    CellDimensions,
    StandardSet,
    c4_sum,
    cell_dimensions,
    dimension_polynomial,
    enumerate_staircases,
    sum1,
    sum2,
)


def partition_counts(limit):
    # Euler's pentagonal recurrence; independent of the enumerator.
    p = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


class TestConstruction:
    def test_basic(self):
        s = StandardSet([3, 1])
        assert s.cols() == (3, 1)
        assert s.rows() == (2, 1, 1)
        assert s.cardinality == 4
        assert s.width == 2
        assert s.height == 3

    def test_zero_columns_dropped(self):
        assert StandardSet([3, 1, 0, 0]).cols() == (3, 1)
        assert StandardSet([0]).cols() == ()

    def test_must_be_weakly_decreasing(self):
        with pytest.raises(ValueError):
            StandardSet([1, 3])

    def test_negative_heights_rejected(self):
        with pytest.raises(ValueError):
            StandardSet([2, -1])

    def test_from_columns_sorts(self):
        assert StandardSet.from_columns([1, 3, 2]).cols() == (3, 2, 1)

    def test_from_rows_is_conjugate(self):
        s = StandardSet.from_rows([3, 1])
        assert s.rows() == (3, 1)
        assert s.cols() == (2, 1, 1)

    @pytest.mark.parametrize(
        "build, name",
        [
            (StandardSet, "column_heights"),
            (StandardSet.from_columns, "heights"),
            (StandardSet.from_rows, "widths"),
        ],
    )
    def test_non_integers_rejected(self, build, name):
        # int() would truncate 2.7 to 2 and Fraction(5, 2) to 2
        for bad in [2.7, Fraction(5, 2), "2", "x", None, float("inf")]:
            with pytest.raises(
                ValueError, match=f"^{name} must be integers, not {re.escape(repr(bad))}$"
            ):
                build([bad, 1])
        assert build([2.0, Fraction(1)]) == build([2, 1])

    def test_empty(self):
        assert EMPTY.cols() == ()
        assert EMPTY.cardinality == 0
        assert EMPTY.width == 0
        assert EMPTY.height == 0
        assert EMPTY == StandardSet()

    def test_immutable(self):
        s = StandardSet([2])
        with pytest.raises(AttributeError):
            s.column_heights = (1,)

    def test_equality_and_hash(self):
        assert StandardSet([2, 1]) == StandardSet.from_columns([1, 2])
        assert hash(StandardSet([2, 1])) == hash(StandardSet([2, 1]))
        assert StandardSet([2, 1]) != StandardSet([3])
        assert len({StandardSet([2, 1]), StandardSet([2, 1])}) == 1


class TestCachedRows:
    def test_same_tuple_on_every_call(self):
        for n in range(7):
            for s in enumerate_staircases(n):
                rows = s.rows()
                assert s.rows() is rows
                flipped = s.transpose()
                assert s.rows() is rows
                assert flipped.rows() == s.cols()
                assert flipped.transpose().rows() == rows

    def test_conjugate_readings(self):
        for n in range(7):
            for s in enumerate_staircases(n):
                assert StandardSet.from_rows(s.rows()) == s
                assert StandardSet.from_columns(s.rows()) == s.transpose()

    def test_cardinality_is_counted_once(self):
        for n in range(7):
            for s in enumerate_staircases(n):
                assert not hasattr(s, "_cardinality")
                assert s.cardinality == n == sum(s.cols())
                assert s._cardinality == n
                assert s.transpose().cardinality == n

    # read_rows also reads the cardinality, so both lazy slots are filled
    @pytest.mark.parametrize("read_rows", [False, True])
    @pytest.mark.parametrize("name", ["column_heights", "_rows", "_cardinality", "other"])
    def test_still_immutable(self, read_rows, name):
        s = StandardSet([3, 1, 1])
        if read_rows:
            s.rows()
            s.cardinality
        with pytest.raises(AttributeError):
            setattr(s, name, (1,))
        assert s.cols() == (3, 1, 1) and s.rows() == (3, 1, 1)
        assert s.cardinality == 5

    def test_reading_rows_changes_no_identity(self):
        a, b = StandardSet([4, 2, 1]), StandardSet([4, 2, 1])
        a.rows()
        assert a.cardinality == 7
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.to_json() == b.to_json() == '{"columns": [4, 2, 1]}'
        assert repr(a) == repr(b)


class TestGeometry:
    def test_points_small(self):
        assert sorted(StandardSet([3, 1]).points()) == [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
        ]

    def test_contains(self):
        s = StandardSet([3, 1])
        assert s.contains((0, 2))
        assert not s.contains((1, 1))
        assert not s.contains((5, 0))

    def test_points_count_everywhere(self):
        for n in range(7):
            for s in enumerate_staircases(n):
                assert len(s.points()) == s.cardinality

    def test_transpose_is_reflection(self):
        for n in range(7):
            for s in enumerate_staircases(n):
                flipped = {(i, j) for (j, i) in s.points()}
                assert flipped == set(s.transpose().points())
                assert s.transpose().transpose() == s

    def test_rows_cols_conjugate(self):
        for n in range(7):
            for s in enumerate_staircases(n):
                assert s.rows() == s.transpose().cols()

    def test_outer_corners_small(self):
        assert sorted(StandardSet([3, 1]).outer_corners()) == [
            (0, 3),
            (1, 1),
            (2, 0),
        ]
        assert sorted(EMPTY.outer_corners()) == [(0, 0)]

    def test_outer_corners_are_minimal_complement_points(self):
        # brute force: minimal points of the complement inside a box that
        # provably contains every corner
        for n in range(8):
            for s in enumerate_staircases(n):
                pts = set(s.points())
                box = [
                    (x, y)
                    for x in range(s.width + 1)
                    for y in range(s.height + 1)
                    if (x, y) not in pts
                ]
                minimal = {
                    (x, y)
                    for (x, y) in box
                    if not any(
                        (u, v) != (x, y) and u <= x and v <= y
                        for (u, v) in box
                    )
                }
                assert s.outer_corners() == minimal

    def test_ascii_diagram(self):
        assert StandardSet([3, 1]).ascii_diagram() == "#\n#\n##"
        assert EMPTY.ascii_diagram() == "(empty)"


class TestJson:
    def test_round_trip(self):
        for n in range(6):
            for s in enumerate_staircases(n):
                assert StandardSet.from_json(s.to_json()) == s

    def test_to_json_shape(self):
        assert json.loads(StandardSet([2, 1]).to_json()) == {"columns": [2, 1]}

    def test_rejects_wrong_key(self):
        with pytest.raises(ValueError):
            StandardSet.from_json('{"rows": [1]}')

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            StandardSet.from_json('{"columns": [1.5]}')
        with pytest.raises(ValueError):
            StandardSet.from_json('{"columns": [true]}')

    def test_rejects_non_list(self):
        with pytest.raises(ValueError):
            StandardSet.from_json('{"columns": 3}')

    def test_accepts_unsorted_columns(self):
        assert StandardSet.from_json('{"columns": [1, 3, 2]}') == StandardSet(
            [3, 2, 1]
        )


class TestSums:
    def test_direction_one_merges_columns(self):
        a = StandardSet.from_columns([4, 3, 3, 3, 3, 1])
        b = StandardSet.from_columns([5, 5, 3, 3])
        assert c4_sum(a, b, 1).cols() == (5, 5, 4, 3, 3, 3, 3, 3, 3, 1)

    def test_direction_two_merges_rows(self):
        a = StandardSet.from_columns([4, 3, 3, 3, 3, 1])
        b = StandardSet.from_columns([5, 5, 3, 3])
        assert c4_sum(a, b, 2).rows() == (6, 5, 5, 4, 4, 4, 2, 2, 1)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            c4_sum(EMPTY, EMPTY, 3)

    @pytest.mark.parametrize("direction", [True, 1.0, 2.0])
    def test_direction_takes_only_the_ints_1_and_2(self, direction):
        # True == 1 and 2.0 == 2, but only the ints 1 and 2 are directions
        with pytest.raises(ValueError, match="^direction must be 1 or 2$"):
            c4_sum(StandardSet([1]), StandardSet([1]), direction)

    def test_identity_and_commutativity(self):
        for n in range(6):
            for s in enumerate_staircases(n):
                assert c4_sum(s, EMPTY, 1) == s
                assert c4_sum(s, EMPTY, 2) == s
        xs = enumerate_staircases(4)
        for a, b in itertools.product(xs, xs):
            assert c4_sum(a, b, 1) == c4_sum(b, a, 1)
            assert c4_sum(a, b, 2) == c4_sum(b, a, 2)

    def test_associativity(self):
        xs = enumerate_staircases(3)
        for a, b, c in itertools.product(xs, xs, xs):
            for d in (1, 2):
                assert c4_sum(c4_sum(a, b, d), c, d) == c4_sum(
                    a, c4_sum(b, c, d), d
                )

    def test_direction_two_adds_column_heights(self):
        # the oracle merges the rows themselves
        xs = [s for n in range(11) for s in enumerate_staircases(n)]
        for a, b in itertools.product(xs, xs):
            merged = StandardSet.from_rows(a.rows() + b.rows())
            assert sum2((a, b)) == merged
            assert c4_sum(a, b, 2) == merged

    def test_direction_two_lists_no_rows(self):
        start = time.perf_counter()
        tall = sum2((StandardSet([10**9]), StandardSet([1])))
        assert time.perf_counter() - start < 1
        assert tall.cols() == (10**9 + 1,)

    def test_cardinality_adds(self):
        a = StandardSet([2, 2])
        b = StandardSet([3])
        assert c4_sum(a, b, 1).cardinality == 7
        assert c4_sum(a, b, 2).cardinality == 7

    def test_transpose_swaps_directions(self):
        xs = enumerate_staircases(4)
        for a, b in itertools.product(xs, xs):
            lhs = c4_sum(a, b, 1).transpose()
            rhs = c4_sum(a.transpose(), b.transpose(), 2)
            assert lhs == rhs

    def test_folds(self):
        parts = [StandardSet([2]), StandardSet([1, 1]), StandardSet([3])]
        assert sum1(parts).cols() == (3, 2, 1, 1)
        assert sum2(parts).rows() == (2, 1, 1, 1, 1, 1)
        assert sum1([]) == EMPTY
        assert sum2([]) == EMPTY

    def test_folds_reconstruct_from_slices(self):
        # a staircase is the sum of its own columns, and of its own rows
        for n in range(8):
            for s in enumerate_staircases(n):
                assert sum1(StandardSet([h]) for h in s.cols()) == s
                assert sum2(StandardSet([1] * w) for w in s.rows()) == s


class TestEnumeration:
    def test_counts_match_partition_recurrence(self):
        expected = partition_counts(12)
        for n in range(13):
            assert len(enumerate_staircases(n)) == expected[n]

    def test_first_ten_counts(self):
        counts = [len(enumerate_staircases(n)) for n in range(1, 11)]
        assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_zero(self):
        assert enumerate_staircases(0) == [EMPTY]

    def test_all_distinct_and_right_size(self):
        for n in range(9):
            sts = enumerate_staircases(n)
            assert len(set(sts)) == len(sts)
            assert all(s.cardinality == n for s in sts)

    def test_lexicographic_descending_order(self):
        cols4 = [s.cols() for s in enumerate_staircases(4)]
        assert cols4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        for n in range(8):
            cols = [s.cols() for s in enumerate_staircases(n)]
            assert cols == sorted(cols, reverse=True)


class TestCellDimensions:
    def test_spot_values(self):
        row6 = StandardSet.from_rows([6])
        col6 = StandardSet([6])
        assert cell_dimensions(row6) == CellDimensions(7, 6, 0)
        assert cell_dimensions(col6) == CellDimensions(12, 6, 5)
        assert cell_dimensions(StandardSet([2, 1])) == CellDimensions(5, 3, 1)

    def test_strict_chain_for_nonempty(self):
        for n in range(1, 11):
            for s in enumerate_staircases(n):
                d = cell_dimensions(s)
                assert d.lex_dim > d.lin_dim > d.punc_dim

    def test_punc_collapses_exactly_on_single_rows(self):
        for n in range(1, 9):
            for s in enumerate_staircases(n):
                d = cell_dimensions(s)
                assert d.punc_dim >= 0
                flat = d.punc_dim == 0
                assert flat == (s.width == s.cardinality)
                assert flat == (s.height <= 1)

    def test_polynomial_lin(self):
        assert dimension_polynomial(5, "lin") == {5: 7}

    def test_polynomial_punc_two(self):
        assert dimension_polynomial(2, "punc") == {1: 1, 0: 1}

    def test_polynomial_lex_six(self):
        assert dimension_polynomial(6, "lex") == {
            12: 1,
            11: 1,
            10: 2,
            9: 3,
            8: 3,
            7: 1,
        }

    def test_polynomial_total_is_partition_count(self):
        for n in range(1, 9):
            for flavor in ("lex", "lin", "punc"):
                assert sum(dimension_polynomial(n, flavor).values()) == len(
                    enumerate_staircases(n)
                )

    def test_polynomial_bad_flavor(self):
        with pytest.raises(ValueError):
            dimension_polynomial(3, "nope")
