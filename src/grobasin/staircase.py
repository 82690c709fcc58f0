"""Finite staircases in the first quadrant.

A staircase is a finite subset of N^2 closed under moving down or left,
stored as its weakly decreasing tuple of column heights.  Column heights
and row widths are the two conjugate partition readings of the same set
of boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest

from .poly import integer, one_or_two


class StandardSet:
    """A staircase, identified by its column heights (a partition).

    Row widths and the number of boxes are computed on first use and kept
    in the `_rows` and `_cardinality` slots; equality and hashing read only
    the column heights."""

    __slots__ = ("column_heights", "_rows", "_cardinality")

    def __init__(self, column_heights=()):
        heights = tuple(
            h if type(h) is int else integer(h, "column_heights")
            for h in column_heights
        )
        if any(h < 0 for h in heights):
            raise ValueError("column heights must be non-negative")
        heights = tuple(h for h in heights if h > 0)
        if any(heights[i] < heights[i + 1] for i in range(len(heights) - 1)):
            raise ValueError("column heights must be weakly decreasing")
        object.__setattr__(self, "column_heights", heights)

    @classmethod
    def from_columns(cls, heights):
        """Build from column heights given in any order; zeros are dropped."""
        return cls(sorted((integer(h, "heights") for h in heights), reverse=True))

    @classmethod
    def from_rows(cls, widths):
        """Build from row widths given in any order (conjugate reading)."""
        widths = sorted((integer(w, "widths") for w in widths), reverse=True)
        return cls(widths).transpose()

    @property
    def cardinality(self) -> int:
        try:
            return self._cardinality
        except AttributeError:
            pass
        n = sum(self.column_heights)
        object.__setattr__(self, "_cardinality", n)
        return n

    @property
    def width(self) -> int:
        """Number of nonempty columns."""
        return len(self.column_heights)

    @property
    def height(self) -> int:
        """Number of nonempty rows."""
        return self.column_heights[0] if self.column_heights else 0

    def cols(self):
        """Column heights, left to right (weakly decreasing)."""
        return self.column_heights

    def rows(self):
        """Row widths, bottom to top (weakly decreasing)."""
        try:
            return self._rows
        except AttributeError:
            pass
        cols = self.column_heights
        rows = tuple(
            sum(1 for h in cols if h > i) for i in range(self.height)
        )
        object.__setattr__(self, "_rows", rows)
        return rows

    def transpose(self) -> "StandardSet":
        """The staircase reflected across the main diagonal."""
        flipped = StandardSet(self.rows())
        object.__setattr__(flipped, "_rows", self.column_heights)
        return flipped

    def points(self):
        """All boxes as (column, row) pairs."""
        return frozenset(
            (j, i) for j, h in enumerate(self.column_heights) for i in range(h)
        )

    def contains(self, point) -> bool:
        j, i = point
        if j < 0 or i < 0:
            return False
        return j < self.width and i < self.column_heights[j]

    def outer_corners(self):
        """Minimal lattice points of the complement N^2 minus the staircase.

        Every point outside the staircase is one of these plus a member of
        N^2.  The empty staircase has the single corner (0, 0).
        """
        cols = self.column_heights
        corners = {(self.width, 0)}
        for j, h in enumerate(cols):
            if j == 0 or h < cols[j - 1]:
                corners.add((j, h))
        return frozenset(corners)

    def to_json(self) -> str:
        return json.dumps({"columns": list(self.column_heights)})

    @classmethod
    def from_json(cls, text: str) -> "StandardSet":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(data, dict) or set(data) != {"columns"}:
            raise ValueError("expected an object with a single 'columns' key")
        cols = data["columns"]
        if not isinstance(cols, list) or not all(
            isinstance(h, int) and not isinstance(h, bool) for h in cols
        ):
            raise ValueError("'columns' must be a list of integers")
        return cls.from_columns(cols)

    def ascii_diagram(self) -> str:
        """Box drawing, top row first."""
        if not self.column_heights:
            return "(empty)"
        return "\n".join("#" * r for r in reversed(self.rows()))

    def __eq__(self, other):
        return (
            isinstance(other, StandardSet)
            and self.column_heights == other.column_heights
        )

    def __hash__(self):
        return hash(self.column_heights)

    def __repr__(self):
        return f"StandardSet({list(self.column_heights)})"

    def __setattr__(self, name, value):
        raise AttributeError("StandardSet is immutable")


EMPTY = StandardSet()


def c4_sum(a: StandardSet, b: StandardSet, direction: int) -> StandardSet:
    """Connect-Four sum: merge columns (direction 1) or rows (direction 2).

    Direction 1 drops the columns of both staircases into one board and
    re-sorts; direction 2 does the same with rows.
    """
    if one_or_two(direction, "direction") == 1:
        return sum1((a, b))
    return sum2((a, b))


def sum1(staircases) -> StandardSet:
    """Fold of c4_sum in direction 1 over an iterable."""
    cols = []
    for s in staircases:
        cols.extend(s.cols())
    return StandardSet.from_columns(cols)


def sum2(staircases) -> StandardSet:
    """Fold of c4_sum in direction 2 over an iterable.

    Merging rows adds column heights: column j of the result counts the
    rows wider than j, and each summand counts its own such rows in its
    column j."""
    return StandardSet(
        map(sum, zip_longest(*(s.cols() for s in staircases), fillvalue=0))
    )


def enumerate_staircases(n: int):
    """All staircases with n boxes, largest column profile first.

    The order is lexicographic on column heights, descending, so the
    single column of n comes first and the single row comes last.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    result = []

    def extend(remaining, max_part, prefix):
        if remaining == 0:
            result.append(StandardSet(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            extend(remaining - part, part, prefix + [part])

    extend(n, n, [])
    return result


@dataclass(frozen=True)
class CellDimensions:
    """Dimensions of the three affine cells attached to one staircase."""

    lex_dim: int
    lin_dim: int
    punc_dim: int


def cell_dimensions(s: StandardSet) -> CellDimensions:
    """Cell dimensions: n plus height, n, and n minus width."""
    n = s.cardinality
    return CellDimensions(
        lex_dim=n + s.height, lin_dim=n, punc_dim=n - s.width
    )


def dimension_polynomial(n: int, flavor: str) -> dict:
    """Coefficients {degree: count} of sum of q^dim over staircases of n.

    flavor is one of 'lex', 'lin', 'punc'.
    """
    if flavor not in ("lex", "lin", "punc"):
        raise ValueError("flavor must be 'lex', 'lin' or 'punc'")
    coeffs: dict = {}
    for s in enumerate_staircases(n):
        dims = cell_dimensions(s)
        d = getattr(dims, flavor + "_dim")
        coeffs[d] = coeffs.get(d, 0) + 1
    return coeffs
