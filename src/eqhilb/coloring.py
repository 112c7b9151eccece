"""Cyclic-group coloring of Young diagrams and balanced partitions.

The group of order ``n`` acting on the plane with weights ``(a, b)``
colors the box ``(i, j)`` by the residue ``a*i + b*j mod n``.  A diagram
is balanced when every residue appears the same number ``r`` of times;
the balanced diagrams of ``r*n`` boxes index the torus fixed points of
the associated equivariant Hilbert scheme and carry all of its
topological invariants.

Balance is read off the boundary.  Row ``j`` holds the colors ``b*j + a*i``
for ``i`` below its length ``l_j``, so the histogram is invariant under
adding ``a`` exactly when the row ends ``a*l_j + b*j`` and the ``b*j`` are
one multiset of residues; likewise for ``b`` with the column ends
``a*i + b*h_i`` and the ``a*i``.  As ``a`` and ``b`` are coprime, a histogram
invariant under both is flat, and so is one invariant under a unit ``a``.

One memo entry per coloring key holds what is computed per family: the
members, the attracting-cell statistic of each one and their L-class.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EnumerationLimitError, PreconditionError, UnbalancedPartitionError
from .partitions import Box, Partition, _column_heights

#: Default ceiling on r*n for enumerations and L-classes, on the orders of
#: an r = 0 range, on the terms of a Hirzebruch-Jung expansion and on the
#: size of a partition given at the command line; the environment variable
#: EQHILB_MAX_BOXES, read on every call, overrides it.
DEFAULT_MAX_BOXES = 80
MAX_BOXES_ENV = "EQHILB_MAX_BOXES"

#: Records kept by the family memo (one per ``_family_key``), so memory stays bounded.
_MEMO_SIZE = 256


@dataclass(frozen=True)
class GroupParams:
    """Weights ``(a, b)`` and order ``n`` of a cyclic group acting on the plane.

    The signed weights are retained (the sign of ``a*b`` decides which
    stabilization statement applies); only the residues mod ``n`` enter
    the coloring.
    """

    a: int
    b: int
    n: int

    def __post_init__(self):
        if math.gcd(self.a, self.b) != 1:
            raise PreconditionError(f"weights must be coprime, got ({self.a}, {self.b})")
        if self.n < 1:
            raise PreconditionError(f"group order must be >= 1, got {self.n}")

    def with_n(self, n: int) -> "GroupParams":
        return GroupParams(self.a, self.b, n)

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.n})"


def color(g: GroupParams, box: Box) -> int:
    """Residue ``a*i + b*j mod n`` of a box, always in ``[0, n)``."""
    return (g.a * box[0] + g.b * box[1]) % g.n


def is_balanced(g: GroupParams, lam: Partition) -> tuple[bool, int | None]:
    """Whether every color appears equally often; returns the multiplicity.

    The empty partition is balanced with multiplicity 0.  The size and the
    boundary tallies decide, so a huge ``n`` costs nothing.
    """
    if lam.size % g.n or not _tallies_match(g.a, g.b, g.n, lam.rows):
        return (False, None)
    return (True, lam.size // g.n)


def _tallies_match(a: int, b: int, n: int, rows: tuple[int, ...]) -> bool:
    """Whether ``rows`` is balanced for ``(a, b; n)``: its row ends, and unless ``a``
    is a unit mod ``n`` its column ends, take their residues (module docstring)."""
    if (sorted([(a * length + b * j) % n for j, length in enumerate(rows)])
            != sorted([b * j % n for j in range(len(rows))])):
        return False
    if math.gcd(a, n) == 1:
        return True
    heights = _column_heights(rows)
    return (sorted([(a * i + b * h) % n for i, h in enumerate(heights)])
            == sorted([a * i % n for i in range(len(heights))]))


def _require_balanced(g: GroupParams, lam: Partition, r: int | None = None) -> int:
    """The multiplicity of ``lam``; raises unless it is balanced (with multiplicity ``r``)."""
    balanced, mult = is_balanced(g, lam)
    if not balanced or (r is not None and mult != r):
        what = "balanced" if r is None else f"balanced with multiplicity {r}"
        raise UnbalancedPartitionError(f"{lam} is not {what} for {g}")
    return mult


def _box_ceiling() -> int:
    """The ceiling on boxes: ``EQHILB_MAX_BOXES`` if set, else ``DEFAULT_MAX_BOXES``."""
    value = os.environ.get(MAX_BOXES_ENV, DEFAULT_MAX_BOXES)
    try:
        ceiling = int(value)
    except ValueError:
        raise PreconditionError(f"{MAX_BOXES_ENV} must be an integer, got {value!r}") from None
    if ceiling < 0:
        raise PreconditionError(f"{MAX_BOXES_ENV} must be a nonnegative integer, got {value!r}")
    return ceiling


def _order_range(r: int, n_from: int, n_to: int) -> range:
    """The orders ``n_from..n_to`` of a range check.  For ``r >= 1`` the ceiling
    on ``r*n`` stops the walk at the first order past it; every ``r = 0``
    family is ``{empty}``, so a range of more orders than the ceiling is refused."""
    if r == 0 and n_to - n_from >= (ceiling := _box_ceiling()):
        raise EnumerationLimitError(f"a range of {n_to - n_from + 1} orders with r = 0 "
                                    f"exceeds the ceiling of {ceiling} (raise {MAX_BOXES_ENV})")
    return range(n_from, n_to + 1)


def _family_key(g: GroupParams, r: int) -> tuple[int, int, int, int]:
    """The memo key ``(a mod n, b mod n, n, r)`` of the balanced family of ``g``.

    Checks ``r`` and the ceiling on ``r*n`` first.  The coloring sees the
    weights only through their residues, so signed weights with equal
    residues share one key; every ``r = 0`` family is ``{empty}`` and
    shares the trivial group's key.
    """
    if r < 0:
        raise PreconditionError(f"multiplicity must be nonnegative, got {r}")
    ceiling = _box_ceiling()
    total = r * g.n
    if total > ceiling:
        raise EnumerationLimitError(
            f"enumerating balanced partitions of {total} boxes exceeds the "
            f"ceiling of {ceiling} (raise {MAX_BOXES_ENV})"
        )
    if r == 0:
        return (0, 0, 1, 0)
    return (g.a % g.n, g.b % g.n, g.n, r)


class LPolynomial:
    """Polynomial in L with nonnegative integer coefficients.

    Simultaneously the motivic class (L the class of the affine line)
    and, via ``L = z^2``, the compactly supported Poincare polynomial;
    evaluation at ``L = 1`` is the Euler characteristic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        given = list(coeffs)
        coeffs = list(map(int, given))
        if coeffs != given or any(c < 0 for c in coeffs):
            raise ValueError(f"coefficients must be nonnegative integers, got {given}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def degree(self) -> int:
        """Degree in L; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def euler(self) -> int:
        """Evaluation at L = 1: the Euler characteristic."""
        return sum(self.coeffs)

    def betti_numbers(self, top: int | None = None) -> tuple[int, ...]:
        """Compactly supported Betti numbers b_0..b_top (odd ones vanish)."""
        if top is None:
            top = 2 * max(self.degree(), 0)
        return tuple(self.coeff(i // 2) if i % 2 == 0 else 0 for i in range(top + 1))

    def _format(self, monomial) -> str:
        """Nonzero terms in descending degree, ``monomial(k)`` naming ``L^k`` for k >= 1."""
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = monomial(k)
                terms.append(mono if c == 1 else f"{c}{mono}")
        return " + ".join(terms) if terms else "0"

    def poincare_str(self) -> str:
        """Poincare polynomial in z, printed in descending degree."""
        return self._format(lambda k: f"z^{2 * k}")

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data) -> "LPolynomial":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["coeffs"])

    def __eq__(self, other) -> bool:
        return isinstance(other, LPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"LPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self._format(lambda k: "L" if k == 1 else f"L^{k}")


class _FamilyRecord(NamedTuple):
    """One memo entry: the sorted family, each member's statistic, their L-class."""

    members: tuple[Partition, ...]
    statistics: tuple[int, ...]
    l_class: LPolynomial


def enumerate_balanced(g: GroupParams, r: int) -> tuple[Partition, ...]:
    """All balanced partitions of ``r*n`` for the coloring ``g``, sorted.

    Common factors of a weight and ``n`` act as pseudo-reflections: the
    family is that of the smaller group whose weights are units mod its
    order ``m``, with each box stretched into a block; scaling both weights
    by a unit relabels the colors, so only its normal form ``(1, c; m)``
    is searched.  Diagrams are built row by row (largest row first) while
    tracking the color histogram.  Each later row puts one box in column
    0, so the column-0 boxes the histogram can still take (no color above
    ``r``) bound the rows left, and the next row is at least the remaining
    boxes over that count.  That count only reads the histogram: column 0
    repeats its colors every ``m`` rows, so its ``t``-th box has a color
    already visited ``t // m`` times.  Each row is filled once, as far as
    the histogram and the row above allow, and then shrunk one box at a
    time down to that bound; every shorter row is a prefix, so it fits
    too.  The filled row and each shorter one take the same step: close
    the columns past its end, then search below it.  A balanced diagram's
    column ends take the residues ``i`` (module docstring), so the
    shrinking stops at the first row that closes a column whose end
    residue is used up.  A row of length 1 is reached only when the count
    covers every remaining box; then the rest of column 0 fits, so the
    all-ones tail is balanced and is emitted at once as the last child.
    The search thus emits rows in descending lexicographic order, and the
    family is that order reversed; a stretch keeps that order.  Row ``j``
    starts at color ``c*j`` and reads the cycle ``0, 1, ..., m-1`` from
    there, so the colors come from two lists of ``m*(r+1)`` entries: the
    column-0 colors, indexed by ``j mod m``, and that cycle.  The search
    returns rows and statistics (``tangent._cell_dimension``, folded in as
    rows are placed); ``_balanced_family`` builds each member once.  The
    brute-force filter over all partitions of ``r*n`` is the tests' oracle.
    """
    return _family_record(g, r).members


def l_class(g: GroupParams, r: int) -> LPolynomial:
    """Motivic class of the fixed-point family: sum of L^beta over balanced diagrams.

    Coefficient of ``L^k`` counts the balanced partitions with statistic
    ``k``; its evaluation at 1 is the number of balanced partitions.
    It is built and memoised with the family.
    """
    return _family_record(g, r).l_class


def _family_record(g: GroupParams, r: int) -> _FamilyRecord:
    """The memo entry of the balanced family of ``g`` and ``r``."""
    return _balanced_family(_family_key(g, r))


def _stretch(rows: tuple[int, ...], wide: int, tall: int) -> tuple[int, ...]:
    """The rows of the diagram whose every box becomes a ``wide x tall`` block:
    each row ``wide`` times as long, repeated ``tall`` times."""
    return tuple(wide * row for row in rows for _ in range(tall))


def _reflections(a: int, b: int, n: int) -> tuple[int, int]:
    """The orders ``(wide, tall) = (gcd(b, n), gcd(a, n))`` of the
    pseudo-reflections of ``(a, b; n)``; dividing ``b`` by ``wide``, ``a`` by
    ``tall`` and ``n`` by both leaves unit weights (``_balanced_family``)."""
    return math.gcd(b, n), math.gcd(a, n)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _balanced_family(key: tuple[int, int, int, int]) -> _FamilyRecord:
    """The record of ``key``, searched on the key with its pseudo-reflections
    divided out: the one place that assembles a record.

    With ``g = gcd(b, n)``, the subgroup of order ``g`` acts on ``x`` alone
    and ``A^2`` over it is again ``A^2``: the balanced diagrams of
    ``(a, b; n)`` are those of ``(a, b/g; n/g)`` with every row ``g`` times
    as long, and each keeps its statistic (``analysis.normalize_group``
    divides the same way).  With ``h = gcd(a, n)`` the same holds for
    columns, each row repeated ``h`` times.  Then the weights are units mod
    the order ``m``, and scaling both by the inverse of the x-weight only
    relabels the colors: ``_search`` runs on the normal form ``(1, c; m)``.
    Its rows, emitted in descending lexicographic order, are stretched and
    reversed, and each member is built once; a stretch keeps the statistics,
    which give the L-class.  The search recurses once per row, so a member
    with more rows than Python's frame limit allows is refused.
    """
    am, bm, n, r = key
    wide, tall = _reflections(am, bm, n)
    m = n // (wide * tall)
    try:
        found, dims = _search(bm // wide * pow(am // tall, -1, m) % m, m, r)
    except RecursionError:
        raise EnumerationLimitError(
            f"the balanced search of ({am},{bm};{n}) r={r} places more rows than "
            f"the frame limit of {sys.getrecursionlimit()} allows") from None
    if wide * tall > 1:
        found = [_stretch(rows, wide, tall) for rows in found]
    by_dim = Counter(dims)
    return _FamilyRecord(tuple(map(Partition._of, reversed(found))), tuple(reversed(dims)),
                         LPolynomial(by_dim[k] for k in range(max(by_dim, default=-1) + 1)))


def _search(c: int, m: int, r: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The member rows of ``(1, c; m)``, ``c`` a unit mod ``m``, in the order the
    row search of ``enumerate_balanced`` emits them, and the statistic of each
    (``tangent._cell_dimension``), folded in as rows are placed.

    Each node is one call of ``extend``: one loop tries its row lengths,
    longest first, closing the columns past each row one at a time and
    searching below it; length 1 is the all-ones tail, emitted at once.

    A box ``(i, j)`` counts when ``i + c*(h_i - 1) = l_j + c*j mod m``
    (``h`` column heights, ``l`` row lengths), so a column adds, as it
    closes, the earlier rows with its key.  A row-end box counts when
    ``c*k = 0 mod m`` for the ``k`` rows from its own to the end of its
    run of equal rows, so a run of ``k`` rows adds ``k // m``.
    """
    total = r * m
    # two lists of m*(r+1) colors: row j is the cycle 0, 1, ..., m-1 read
    # from cycle[starts[k]], its start c*j with k = j mod m, for up to r*m
    # boxes, and column 0 from row k reads starts[k:], at most r*m boxes;
    # the colors along row j - 1 are also the keys of rows of those lengths
    starts = [c * j % m for j in range(m)] * (r + 1)
    cycle = list(range(m)) * (r + 1)
    # columns repeat their colors every m rows, so the t-th box of a column
    # walk has a color it has already visited laps[t] times; a run of k
    # equal rows holds laps[k] row ends that count
    laps = [t // m for t in range(total + 1)]
    counts = [0] * m
    # how many open column ends have each key i + c*h_i mod m: a balanced
    # diagram's take the residues of the i below its first row (module
    # docstring), and the root closes phantom columns i >= l_0 at height 0
    ends = [r] * m
    # how many placed rows have each key l + c*j mod m; the root counts
    # a row -1 of length r*m like every node counts its last row, so that
    # phantom starts at -1
    keys = [0] * m
    keys[-c % m] = -1
    rows: list[int] = []
    found: list[tuple[int, ...]] = []
    dims: list[int] = []

    def extend(remaining: int, max_row: int, k: int, dim: int, run: int) -> None:
        # rows 0..j-1 are placed and end in a run of run rows of length
        # max_row, and dim counts their closed columns and ended runs; k is
        # j mod m, row j - 1 starts at below (row -1 at row m - 1's start),
        # column i closes at height j with key cycle[below + i] = i +
        # c*(j-1), and cycle[below + max_row] is the key of row j-1
        below = starts[k - 1]
        if remaining == 0:
            # the open columns close, each matching the earlier rows and row j-1
            cols = cycle[below:below + max_row]
            found.append(tuple(rows))
            dims.append(dim + laps[run] + sum(map(keys.__getitem__, cols))
                        + cols.count(cycle[below + max_row]))
            return
        # every row from j on puts one box in column 0, so row j, the
        # longest of the rest, holds at least remaining / rows_left
        rows_left = remaining
        for t in range(remaining):
            if counts[starts[k + t]] + laps[t] >= r:
                rows_left = t
                break
        if rows_left == 0:
            return
        shortest = -(-remaining // rows_left)
        row, after = starts[k], (k + 1) % m
        i, end = row, row + min(max_row, remaining)
        while i < end and counts[cycle[i]] < r:
            counts[cycle[i]] += 1
            i += 1
        length = i - row
        # row j-1 joins the key histogram for this node and the nodes below
        # it; a row j of length l ends the run above and closes columns
        # l..max_row-1 at height j with the ends cycle[row + l:row + max_row],
        # and closed counts the matches of columns shut..max_row-1, closed so far
        last = cycle[below + max_row]
        keys[last] += 1
        closed = dim + laps[run]
        shut = max_row
        rows.append(0)
        while length >= shortest:
            # a shorter row closes more columns, so the first row that
            # closes one whose end is no longer open ends the loop
            while shut > length and ends[cycle[row + shut - 1]]:
                shut -= 1
                ends[cycle[row + shut]] -= 1
                closed += keys[cycle[below + shut]]
            if shut > length:
                break
            rows[-1] = length
            if length == 1:
                # shortest is 1, so every remaining column-0 box fits and
                # the all-ones tail closes: its run ends, and column 0
                # closes at height j + remaining, matching earlier rows and
                # the tail rows j + t, keyed 1 + c*(j + t)
                top = starts[k + remaining - 1]
                found.append(tuple(rows) + (1,) * (remaining - 1))
                dims.append(closed + laps[remaining] + keys[top]
                            + starts[k:k + remaining].count((top - 1) % m))
                break
            # only the first child can repeat the row above
            same = length == max_row
            extend(remaining - length, length, after, dim if same else closed, run + 1 if same else 1)
            length -= 1
            counts[cycle[row + length]] -= 1
        rows.pop()
        for col in cycle[row + shut:row + max_row]:
            ends[col] += 1
        keys[last] -= 1
        for col in cycle[row:row + length]:
            counts[col] -= 1

    extend(total, total, 0, 0, 0)
    return found, dims
