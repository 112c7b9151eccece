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

One ``lru_cache`` memo, ``_balanced_family``, keeps the records (members,
statistics, L-class) of the families asked for and no call that raised.
Its key is the coloring key ``(a mod n, b mod n, n, r)`` (``_family_key``),
not the normal form, which costs about as much to find as a warm family
call.  Every reader goes through ``_family_record``, which checks the box
ceiling first, memo hits included.  A miss reads the record of its normal
form's base key through the memo, and only a base key runs the row search
(``_search``), so the keys of one normal form share one record's
statistics and L-class.  Every record takes its members from
one index of the memo, ``_members`` (``rows -> Partition``), so equal
members of different records are one object.  A miss empties the memo and
the index when the memo's keys and the index's members together exceed
``_MEMO_MEMBERS``, and empties the index when the memo is empty (after a
caller's ``cache_clear()``), so the index holds exactly the members of the
records in the memo, and the memo is bounded by its keys and their members.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from collections.abc import Iterable
from typing import NamedTuple

from .errors import EnumerationLimitError, PreconditionError, UnbalancedPartitionError
from .partitions import Box, Partition, _column_heights, _require_int, _require_partition

#: Default ceiling on r*n for enumerations and L-classes, on the orders of
#: an r = 0 range, on the terms of a Hirzebruch-Jung expansion and on the
#: size of a partition given at the command line.  The environment variable
#: EQHILB_MAX_BOXES overrides it; it is read on every call, memo hits
#: included, so a change to ``os.environ`` takes effect at the next call.
DEFAULT_MAX_BOXES = 80
MAX_BOXES_ENV = "EQHILB_MAX_BOXES"
#: The variable's key in ``os.environ``'s own store (see ``_box_ceiling``).
_ENV_KEY = os.environ.encodekey(MAX_BOXES_ENV)

#: Keys and members the family memo and its index may hold together before a
#: miss empties both (``_balanced_family``): about 0.3 GB, enough for (1,1;1) r=60.
_MEMO_MEMBERS = 2**20
#: The family memo's index ``rows -> Partition``: each member of its records once.
_members: dict[tuple[int, ...], Partition] = {}

class _GroupParams(NamedTuple):
    a: int
    b: int
    n: int


class GroupParams(_GroupParams):
    """Weights ``(a, b)`` and order ``n`` of a cyclic group acting on the plane.

    The signed weights are retained (the sign of ``a*b`` decides which
    stabilization statement applies); only the residues mod ``n`` enter
    the coloring.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, n: int):
        if not type(a) is type(b) is type(n) is int:
            raise PreconditionError(f"weights and order must be ints, got ({a!r}, {b!r}; {n!r})")
        if math.gcd(a, b) != 1:
            raise PreconditionError(f"weights must be coprime, got ({a}, {b})")
        if n < 1:
            _require_int("group order", n, 1)
        # the named tuple's own __new__ does just this, one call further down
        return tuple.__new__(cls, (a, b, n))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def with_n(self, n: int) -> "GroupParams":
        return GroupParams(self.a, self.b, n)

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.n})"


def _require_group(g: object) -> None:
    """Refuse a ``g`` that is not a ``GroupParams``, a plain tuple among them."""
    if not isinstance(g, GroupParams):
        raise PreconditionError(f"g must be a GroupParams, got {g!r}")


def color(g: GroupParams, box: Box) -> int:
    """Residue ``a*i + b*j mod n`` of a box, always in ``[0, n)``."""
    _require_group(g)
    return (g.a * box[0] + g.b * box[1]) % g.n


def is_balanced(g: GroupParams, lam: Partition) -> tuple[bool, int | None]:
    """Whether every color appears equally often; returns the multiplicity.

    The empty partition is balanced with multiplicity 0.  The size and the
    boundary tallies decide, so a huge ``n`` costs nothing.
    """
    _require_partition("lam", lam)
    _require_group(g)
    a, b, n = g
    if lam.size % n or not _tallies_match(a, b, n, lam.rows):
        return (False, None)
    return (True, lam.size // n)


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
    """The ceiling on boxes: ``EQHILB_MAX_BOXES`` if set, else ``DEFAULT_MAX_BOXES``.

    Read on every call, so a lowered ceiling refuses a family already in the
    memo.  The read is one ``dict.get`` on ``os.environ._data``, the store
    that ``os.environ`` reads and every write or delete through it updates:
    ``os.environ.get`` raises and catches ``KeyError`` twice when the variable
    is unset, which cost more than the rest of a warm family call.
    """
    raw = os.environ._data.get(_ENV_KEY)
    if raw is None:
        return DEFAULT_MAX_BOXES
    value = os.environ.decodevalue(raw)
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
    """The family memo key ``(a mod n, b mod n, n, r)`` (module docstring),
    after checking ``g``, ``r`` and the ceiling on ``r*n``; every ``r = 0``
    family is ``{empty}`` and takes the trivial group's key."""
    if type(r) is not int or r < 0:
        _require_int("multiplicity", r, 0)
    _require_group(g)
    a, b, n = g
    ceiling = _box_ceiling()
    total = r * n
    if total > ceiling:
        raise EnumerationLimitError(
            f"enumerating balanced partitions of {total} boxes exceeds the "
            f"ceiling of {ceiling} (raise {MAX_BOXES_ENV})"
        )
    if r == 0:
        return (0, 0, 1, 0)
    return (a % n, b % n, n, r)


class LPolynomial:
    """Polynomial in L with nonnegative integer coefficients.

    Simultaneously the motivic class (L the class of the affine line)
    and, via ``L = z^2``, the compactly supported Poincare polynomial;
    evaluation at ``L = 1`` is the Euler characteristic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        if any(type(c) is not int or c < 0 for c in coeffs):
            raise ValueError(f"coefficients must be nonnegative integers, got {coeffs}")
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
            import json
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

    ``r`` must be a nonnegative int.  An ``r*n`` above the box ceiling is
    refused with ``EnumerationLimitError``.  The family is read from the
    family memo (module docstring); ``_balanced_family`` reduces ``g`` to
    its normal form and ``_search`` finds the rows.  The tests' oracle is
    the brute-force filter over all partitions of ``r*n``.
    """
    return _family_record(g, r).members


def l_class(g: GroupParams, r: int) -> LPolynomial:
    """Motivic class of the fixed-point family: sum of L^beta over balanced diagrams.

    Coefficient of ``L^k`` counts the balanced partitions with statistic
    ``k``; its evaluation at 1 is the number of balanced partitions.  It is
    read from the family memo, with the refusals of ``enumerate_balanced``.
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
    """``(wide, tall) = (gcd(b, n), gcd(a, n))``, the orders of the
    pseudo-reflections of ``(a, b; n)`` (``_balanced_family``)."""
    return math.gcd(b, n), math.gcd(a, n)


def _normal_form(key: tuple[int, int, int, int]) -> tuple[int, int, tuple[int, int, int]]:
    """``(wide, tall, (c, m, r))``: the pseudo-reflections of ``key`` and
    its normal form ``(1, c; m)`` with ``r`` (``_balanced_family``)."""
    am, bm, n, r = key
    wide, tall = _reflections(am, bm, n)
    m = n // (wide * tall)
    return wide, tall, (bm // wide * pow(am // tall, -1, m) % m, m, r)


@functools.lru_cache(maxsize=None)
def _balanced_family(key: tuple[int, int, int, int]) -> _FamilyRecord:
    """The record of ``key``: the one place that assembles a record.

    Common factors of a weight and ``n`` act as pseudo-reflections.  With
    ``g = gcd(b, n)``, the subgroup of order ``g`` acts on ``x`` alone and
    ``A^2`` over it is again ``A^2``: the balanced diagrams of ``(a, b; n)``
    are those of ``(a, b/g; n/g)`` with every row ``g`` times as long, and
    each keeps its statistic.  With ``h = gcd(a, n)`` the same holds for
    columns, each row repeated ``h`` times.  Then both weights are units mod
    ``m = n/(g*h)``, and scaling both by the inverse of the x-weight only
    relabels the colors, to the normal form ``(1, c; m)``, ``c = (b/g) *
    (a/h)^-1 mod m``.  Its base key ``(1 mod m, c, m, r)`` alone is searched;
    other keys share its record, stretched, as a stretch keeps the sorted
    order and the statistics.

    Each miss first applies the memo's two emptying rules: an empty memo
    empties the index, and past ``_MEMO_MEMBERS`` keys in the memo and
    members in ``_members`` together it empties both.  Counting the keys
    bounds the aliased keys too, which add no members; an empty memo is not
    cleared, so its ``cache_info()`` counts stay.  Then the members of the
    searched or stretched rows come from the index (``_held``), so the index
    holds exactly the members of the records in the memo, each once, and
    the keys and members exceed ``_MEMO_MEMBERS`` by at most what one call
    adds: two keys and the members of the two records it builds.
    """
    if not (size := _balanced_family.cache_info().currsize):
        _members.clear()
    elif size + len(_members) > _MEMO_MEMBERS:
        _balanced_family.cache_clear()
        _members.clear()
    wide, tall, (c, m, r) = _normal_form(key)
    base = (1 % m, c, m, r)
    if key != base:
        record = _balanced_family(base)
        return record if wide * tall == 1 else record._replace(members=_held(
            _stretch(lam.rows, wide, tall) for lam in record.members))
    found, dims = _search(c, m, r)
    by_dim = Counter(dims)
    return _FamilyRecord(_held(found), dims,
                         LPolynomial(by_dim[k] for k in range(max(by_dim, default=-1) + 1)))


def _held(found: Iterable[tuple[int, ...]]) -> tuple[Partition, ...]:
    """The members with rows ``found``, each taken from the memo's index
    (``_members``) and built there only when it holds no equal member (a
    ``Partition`` is always true)."""
    return tuple([_members.get(rows) or _members.setdefault(rows, Partition._of(rows))
                  for rows in found])


def _search(c: int, m: int, r: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The member rows of ``(1, c; m)``, ``c`` a unit mod ``m``, in ascending
    lexicographic order, and the statistic of each, folded in as rows are placed.

    The search places rows longest first, one node (one pass of the loop in
    ``extend``, whose comments give the details) per row.  Every later row
    puts one box in column 0, so ``rows_left``, the column-0 boxes the color
    counts can still take, bounds the rows left, and the next row holds at
    least the remaining boxes over it.  Row ends take the residues ``c*j``
    (module docstring), so a node ends when its last row's end residue is at
    its cap among ``len(rows) + rows_left`` rows.  Column ends take the
    residues ``i``, so a node closes columns from the row above's end
    leftwards until an end residue is used up, which gives its shortest row,
    and tries its lengths shortest first: the rows come out sorted.  Length
    1 needs ``rows_left`` to cover every remaining box, and that all-ones
    tail is emitted at once.  Both bounds cost O(1) per node.

    A row that repeats the row above is its node's last child and is placed
    in the node's own frame, which undoes the run when it ends; only a
    shorter row calls ``extend``.  So a search is at most ``1 + isqrt(2*r*m)``
    frames deep, the root's and one per distinct row length on a path, as
    ``d`` distinct lengths take ``d*(d+1)/2`` boxes.

    The statistic is the hook count of ``tangent`` with weights ``(1, c)``: a
    column adds, as it closes, the earlier rows with its key, and a run of
    ``k`` equal rows adds ``k // m`` row ends.
    """
    total = r * m
    # two lists of m*(r+1) colors: row j is the cycle 0, 1, ..., m-1 read
    # from cycle[starts[k]], its start c*j with k = j mod m, for up to r*m
    # boxes, and column 0 from row k reads starts[k:], at most r*m boxes;
    # the colors along row j - 1 are also the keys of rows of those lengths
    starts = [c * j % m for j in range(m)] * (r + 1)
    cycle = list(range(m)) * (r + 1)
    # a run of k equal rows holds laps[k] row ends that count
    laps = [t // m for t in range(total + 1)]
    # column 0 has color x in the rows first[x] + m*q; a color already
    # placed v times can take column 0 at its next r - v visits, so it
    # fills column 0 wait[v] rows after its next visit
    inverse = pow(c, -1, m)
    first = [x * inverse % m for x in range(m)]
    wait = [m * (r - v) for v in range(r + 1)]
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

    def extend(remaining: int, max_row: int, k: int, dim: int, run: int, rows_left: int) -> None:
        # each pass of the loop is one node: rows 0..j-1 are placed and end
        # in a run of run rows of length max_row, and dim counts their closed
        # columns and ended runs; k is j mod m, row j - 1 starts at below
        # (row -1 at row m - 1's start), column i closes at height j with key
        # cycle[below + i] = i + c*(j-1), and cycle[below + max_row] is the
        # key of row j-1.  A node's last child repeats the row above and is
        # the next pass; placed counts the repeated rows this frame holds
        placed = 0
        while True:
            below = starts[k - 1]
            if remaining == 0:
                # the open columns close, each matching the earlier rows and
                # row j-1
                cols = cycle[below:below + max_row]
                found.append(tuple(rows))
                dims.append(dim + laps[run] + sum(map(keys.__getitem__, cols))
                            + cols.count(cycle[below + max_row]))
                break
            # every row from j on puts one box in column 0, and rows_left is
            # how many more boxes column 0 can take (no color above r), so
            # row j, the longest of the rest, holds at least remaining /
            # rows_left; and there are at most j + rows_left rows, whose ends
            # take the residues of their c*j (module docstring), residue x in
            # ceil((j + rows_left - first[x]) / m) of them, so row j-1 must
            # find its key last below that count in the earlier rows, that
            # is m*keys[last] + first[last] < j + rows_left
            if rows_left == 0:
                break
            last = cycle[below + max_row]
            if m * keys[last] + first[last] >= len(rows) + rows_left:
                break
            shortest = -(-remaining // rows_left)
            if shortest > max_row:
                # no row that long fits below row j-1
                break
            row, after = starts[k], (k + 1) % m
            # row j-1 joins the key histogram for this node and the nodes
            # below it; a row j of length l ends the run above and closes
            # columns l..max_row-1 at height j with the ends cycle[row +
            # l:row + max_row].  Columns close from the right down to shut,
            # the shortest row allowed: a shorter row closes more columns, so
            # the first column whose end is no longer open stops it.  closed
            # counts the matches of columns shut..max_row-1, and each row
            # tried reopens its column
            keys[last] += 1
            closed = dim + laps[run]
            shut = max_row
            while shut > shortest and ends[cycle[row + shut - 1]]:
                shut -= 1
                ends[cycle[row + shut]] -= 1
                closed += keys[cycle[below + shut]]
            # each child's rows_left: counts only grow, so a color that fills
            # column 0 t rows below row j fills it t - 1 rows below row j+1,
            # and only the colors row j places fill it sooner, so bound is the
            # least of those below the boxes placed so far; each of those
            # column-0 boxes takes one of the boxes left, so it never exceeds
            # them
            bound = rows_left - 1
            length = 0
            rows.append(0)
            for x in cycle[row:row + (max_row if max_row < remaining else remaining)]:
                v = counts[x] + 1
                if v > r:
                    break
                counts[x] = v
                b = (first[x] - after) % m + wait[v]
                if b < bound:
                    bound = b
                length += 1
                if length < shut:
                    continue
                rows[-1] = length
                if length == 1:
                    # shortest is 1, so every remaining column-0 box fits and
                    # the all-ones tail closes: its run ends, and column 0
                    # closes at height j + remaining, matching earlier rows
                    # and the tail rows j + t, keyed 1 + c*(j + t)
                    top = starts[k + remaining - 1]
                    found.append(tuple(rows) + (1,) * (remaining - 1))
                    dims.append(closed + laps[remaining] + keys[top]
                                + starts[k:k + remaining].count((top - 1) % m))
                elif length < max_row:
                    extend(remaining - length, length, after, closed, 1, bound)
                if length < max_row:
                    # the next row leaves column length open (at the root of
                    # r*m = 1 the tail is the longest row, and nothing reopens)
                    ends[cycle[row + length]] += 1
                    closed -= keys[cycle[below + length]]
                    shut += 1
            if length < max_row or length == 1:
                # no child repeats row j-1 (the all-ones tail at the root of
                # r*m = 1 is not a repeat): the node ends
                rows.pop()
                while shut < max_row:
                    ends[cycle[row + shut]] += 1
                    shut += 1
                keys[last] -= 1
                for col in cycle[row:row + length]:
                    counts[col] -= 1
                break
            # row j repeats row j-1, every column is open again, and its
            # node is the next pass
            remaining, k, run, rows_left = remaining - length, after, run + 1, bound
            placed += 1
        # the run ends: undo its repeated rows, the last first, as a node
        # ends: row j is max_row long from starts[k], and row j-1's key is
        # cycle[starts[k - 1] + max_row]
        while placed:
            placed -= 1
            k = (k - 1) % m
            rows.pop()
            keys[cycle[starts[k - 1] + max_row]] -= 1
            for col in cycle[starts[k]:starts[k] + max_row]:
                counts[col] -= 1

    extend(total, total, 0, 0, 0, total)
    # extend refers to itself through its closure: break that cycle, so the
    # tables and the rows the memo's index did not keep are freed on return
    # rather than at a full collection.  A MemoryError skips this line, and
    # the cycle keeps the tables until cli.main collects them.
    del extend
    return tuple(found), tuple(dims)
