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
#: The one type a row length may have: a bool or a float is refused.
_INT = frozenset((int,))


class Box(NamedTuple):
    """Lattice cell: column index ``i`` (x exponent), row index ``j`` (y exponent)."""

    i: int
    j: int


@functools.total_ordering
class Partition:
    """An immutable integer partition identified with its Young diagram.

    Partitions compare by size first, then lexicographically on the row
    tuple, which gives the canonical order used for all enumerations.  An
    instance holds its rows and its size and nothing else: the hash is
    computed from ``rows`` when asked for and equals ``hash(rows)``.
    """

    __slots__ = ("rows", "size")

    def __init__(self, rows: Iterable[int] = ()):
        rows = tuple(rows)
        if (not _INT.issuperset(map(type, rows)) or (rows and rows[-1] < 1)
                or any(map(operator.lt, rows, rows[1:]))):
            for t, r in enumerate(rows):
                if type(r) is not int or r < 1:
                    raise ValueError(f"row lengths must be positive integers, got {r}")
                if t and rows[t - 1] < r:
                    raise ValueError(f"rows must be weakly decreasing, got {rows}")
        self.rows = rows
        self.size = sum(rows)

    @classmethod
    def _of(cls, rows: tuple[int, ...]) -> "Partition":
        """``Partition(rows)`` unvalidated, for rows the package built decreasing and positive.

        Callers: ``runners`` (quotient parts and core) and ``from_core_quotient``
        (preimages) in the abacus layer, ``partitions_of`` and the family memo in
        ``coloring``.  ``MultiPartition._of`` does the same for the quotients of
        ``runners``.  Like ``__init__`` it stores the rows and their sum only;
        the hash is ``hash(rows)``, computed on demand.
        """
        lam = object.__new__(cls)
        lam.rows, lam.size = rows, sum(rows)
        return lam

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text form: comma-separated rows, '' or '∅' for empty."""
        if not isinstance(text, str):
            raise PreconditionError(f"text must be a str, got {text!r}")
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
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Partition({self.rows!r})"

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows) if self.rows else EMPTY_TEXT


def _require_partition(name: str, value: object) -> None:
    """Refuse a ``value`` that is not a ``Partition``, by its ``name``."""
    if not isinstance(value, Partition):
        raise PreconditionError(f"{name} must be a Partition, got {value!r}")


def _require_int(name: str, value: object, least: int | None = None) -> None:
    """Refuse a ``value`` that is not an int, a bool included, or is below
    ``least``, by its ``name``."""
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f">= {least}"
        raise PreconditionError(f"{name} must be {bound}, got {value}")


def _column_heights(rows) -> list[int]:
    """Heights of the columns of the weakly decreasing ``rows``, column 0 first."""
    heights: list[int] = []
    for j in range(len(rows) - 1, -1, -1):
        heights.extend([j + 1] * (rows[j] - len(heights)))
    return heights


def partitions_of(m: int) -> Iterator[Partition]:
    """Yield every partition of ``m``.

    Deterministic order: rows descending lexicographically, ``(m,)`` first
    and all ones last.  One list of rows steps to the next partition with
    no recursion: drop the trailing 1s, lower the last row above 1 to
    ``v``, and refill with rows ``v`` and a remainder.
    Used as the brute-force oracle for constrained enumerations.
    """
    _require_int("m", m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    rows = [m] if m else []
    while True:
        yield Partition._of(tuple(rows))
        ones = 0
        while rows and rows[-1] == 1:
            rows.pop()
            ones += 1
        if not rows:
            return
        v = rows[-1] - 1
        rows[-1] = v
        count, rest = divmod(ones + 1, v)
        rows += [v] * count
        if rest:
            rows.append(rest)


def diagram(lam: Partition, cell: Callable[[Box], str] | None = None) -> str:
    """ASCII rendering, one character per box, row j = 0 at the bottom.

    ``cell`` may supply the character for each box (used for residue
    coloring); the default is '#'.
    """
    _require_partition("lam", lam)
    if not lam.rows:
        return EMPTY_TEXT
    fill = cell if cell is not None else (lambda box: "#")
    lines = []
    for j in range(len(lam.rows) - 1, -1, -1):
        lines.append("".join(fill(Box(i, j)) for i in range(lam.rows[j])))
    return "\n".join(lines)
