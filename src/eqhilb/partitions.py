"""Integer partitions as Young diagrams in the nonnegative quadrant.

Conventions pinned once and used everywhere:

* a partition stores its rows as a weakly decreasing tuple of positive
  integers; trailing zeros are never stored;
* the box ``(i, j)`` sits in column ``i`` and row ``j`` and corresponds
  to the monomial ``x^i y^j``;
* row ``j = 0`` is the bottom row and ``j`` increases upward, so diagrams
  are rendered with the first (longest) row at the bottom.

All values are immutable; every operation returns new values, so
everything here is safe to share and to memoize on.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import PreconditionError

EMPTY_TEXT = "∅"  # "∅"


class Box(NamedTuple):
    """Lattice cell: column index ``i`` (x exponent), row index ``j`` (y exponent)."""

    i: int
    j: int


@functools.total_ordering
class Partition:
    """An immutable integer partition identified with its Young diagram.

    Partitions compare by size first, then lexicographically on the row
    tuple, which gives the canonical order used for all enumerations.
    """

    __slots__ = ("rows", "size", "_hash")

    def __init__(self, rows: Iterable[int] = ()):
        given = tuple(rows)
        rows = tuple(map(int, given))
        if rows != given or (rows and rows[-1] < 1) or any(map(operator.lt, rows, rows[1:])):
            for t, (r, x) in enumerate(zip(rows, given)):
                if r != x or r < 1:
                    raise ValueError(f"row lengths must be positive integers, got {x}")
                if t and rows[t - 1] < r:
                    raise ValueError(f"rows must be weakly decreasing, got {rows}")
        self.rows = rows
        self.size = sum(rows)
        self._hash = hash(rows)

    @classmethod
    def _of(cls, rows: tuple[int, ...]) -> "Partition":
        """``Partition(rows)`` unvalidated, for rows the package built decreasing and positive.

        Callers: the abacus layer and the family memo in ``coloring``.
        """
        lam = object.__new__(cls)
        lam.rows, lam.size, lam._hash = rows, sum(rows), hash(rows)
        return lam

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text form: comma-separated rows, '' or '∅' for empty."""
        text = text.strip()
        if text in ("", EMPTY_TEXT):
            return cls()
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise PreconditionError(f"cannot read partition {text!r}: {exc}") from None

    def __contains__(self, box) -> bool:
        i, j = box
        return 0 <= j < len(self.rows) and 0 <= i < self.rows[j]

    def boxes(self) -> Iterator[Box]:
        """All boxes, row-major: j ascending, then i ascending."""
        for j, length in enumerate(self.rows):
            for i in range(length):
                yield Box(i, j)

    def row_len(self, j: int) -> int:
        """Length of row ``j``; zero outside the diagram."""
        if j < 0:
            raise ValueError("row index must be nonnegative")
        return self.rows[j] if j < len(self.rows) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: (i, j) belongs iff (j, i) belongs here."""
        return Partition(_column_heights(self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.rows == other.rows

    def __lt__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.size, self.rows) < (other.size, other.rows)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition({self.rows!r})"

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows) if self.rows else EMPTY_TEXT


def _column_heights(rows) -> list[int]:
    """Heights of the columns of the weakly decreasing ``rows``, column 0 first."""
    heights: list[int] = []
    for j in range(len(rows) - 1, -1, -1):
        heights.extend([j + 1] * (rows[j] - len(heights)))
    return heights


def partitions_of(m: int) -> Iterator[Partition]:
    """Yield every partition of ``m``.

    Deterministic order: first row descending, then recursively the same.
    Used as the brute-force oracle for constrained enumerations.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")

    def rec(remaining: int, bound: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for rows in rec(m, m):
        yield Partition(rows)


def diagram(lam: Partition, cell: Callable[[Box], str] | None = None) -> str:
    """ASCII rendering, one character per box, row j = 0 at the bottom.

    ``cell`` may supply the character for each box (used for residue
    coloring); the default is '#'.
    """
    if not lam.rows:
        return EMPTY_TEXT
    fill = cell if cell is not None else (lambda box: "#")
    lines = []
    for j in range(len(lam.rows) - 1, -1, -1):
        lines.append("".join(fill(Box(i, j)) for i in range(lam.rows[j])))
    return "\n".join(lines)
