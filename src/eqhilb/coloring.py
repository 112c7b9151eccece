"""Cyclic-group coloring of Young diagrams and balanced partitions.

The group of order ``n`` acting on the plane with weights ``(a, b)``
colors the box ``(i, j)`` by the residue ``a*i + b*j mod n``.  A diagram
is balanced when every residue appears the same number ``r`` of times;
the balanced diagrams of ``r*n`` boxes index the torus fixed points of
the associated equivariant Hilbert scheme and carry all of its
topological invariants.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .errors import EnumerationLimitError, PreconditionError, UnbalancedPartitionError
from .partitions import Box, Partition

#: Default ceiling on r*n for enumerations and L-classes; the environment
#: variable EQHILB_MAX_BOXES, read on every call, overrides it.
DEFAULT_MAX_BOXES = 80
MAX_BOXES_ENV = "EQHILB_MAX_BOXES"

#: Entries kept by each memo keyed on ``_family_key`` (families here,
#: L-classes in ``tangent``), so a long-lived process holds bounded memory.
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


def weight_vector(g: GroupParams, lam: Partition) -> tuple[int, ...]:
    """Residue histogram of a colored diagram: entry ``s`` counts the boxes of color ``s``."""
    counts = [0] * g.n
    am, bm, n = g.a % g.n, g.b % g.n, g.n
    for j, length in enumerate(lam.rows):
        s = (bm * j) % n
        for _ in range(length):
            counts[s] += 1
            s += am
            if s >= n:
                s -= n
    return tuple(counts)


def is_balanced(g: GroupParams, lam: Partition) -> tuple[bool, int | None]:
    """Whether every color appears equally often; returns the multiplicity.

    The empty partition is balanced with multiplicity 0.
    """
    counts = weight_vector(g, lam)
    r = counts[0]
    return (True, r) if counts.count(r) == g.n else (False, None)


def _require_balanced(g: GroupParams, lam: Partition, r: int | None = None) -> int:
    """The multiplicity of ``lam``; raises unless it is balanced (with multiplicity ``r``)."""
    balanced, mult = is_balanced(g, lam)
    if not balanced or (r is not None and mult != r):
        what = "balanced" if r is None else f"balanced with multiplicity {r}"
        raise UnbalancedPartitionError(f"{lam} is not {what} for {g}")
    return mult


def _family_key(g: GroupParams, r: int) -> tuple[int, int, int, int]:
    """The memo key ``(a mod n, b mod n, n, r)`` of the balanced family of ``g``.

    Checks ``r`` and the ceiling on ``r*n`` first.  The coloring sees the
    weights only through their residues, so signed weights with equal
    residues share one key; every ``r = 0`` family is ``{empty}`` and
    shares the trivial group's key.
    """
    if r < 0:
        raise PreconditionError(f"multiplicity must be nonnegative, got {r}")
    value = os.environ.get(MAX_BOXES_ENV, DEFAULT_MAX_BOXES)
    try:
        ceiling = int(value)
    except ValueError:
        raise PreconditionError(f"{MAX_BOXES_ENV} must be an integer, got {value!r}") from None
    total = r * g.n
    if total > ceiling:
        raise EnumerationLimitError(
            f"enumerating balanced partitions of {total} boxes exceeds the "
            f"ceiling of {ceiling} (raise {MAX_BOXES_ENV})"
        )
    if r == 0:
        return (0, 0, 1, 0)
    return (g.a % g.n, g.b % g.n, g.n, r)


def enumerate_balanced(g: GroupParams, r: int) -> tuple[Partition, ...]:
    """All balanced partitions of ``r*n`` for the coloring ``g``, sorted.

    Diagrams are built row by row (largest row first) while tracking the
    color histogram.  Each later row puts one box in column 0, so the
    column-0 boxes the histogram can still take (no color above ``r``)
    bound the rows left, and the next row is at least the remaining
    boxes over that count.  Each row is filled once, as far as the
    histogram and the row above allow, and then shrunk one box at a time
    down to that bound; every shorter row is a prefix, so it fits too.
    The brute-force filter over all partitions of ``r*n`` is kept in the
    test suite as the oracle for this generator.
    """
    return _balanced_family(_family_key(g, r))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _balanced_family(key: tuple[int, int, int, int]) -> tuple[Partition, ...]:
    am, bm, n, r = key
    counts = [0] * n
    rows: list[int] = []
    found: list[Partition] = []

    def fill(s: int, step: int, limit: int) -> int:
        """Add boxes of colors s, s+step, ... (mod n) while each color holds
        fewer than r, at most ``limit`` of them; return how many were added."""
        added = 0
        while added < limit and counts[s] < r:
            counts[s] += 1
            added += 1
            s += step
            if s >= n:
                s -= n
        return added

    def drain(s: int, step: int, k: int) -> None:
        """Remove the first ``k`` boxes a ``fill(s, step, ...)`` added."""
        for _ in range(k):
            counts[s] -= 1
            s += step
            if s >= n:
                s -= n

    def extend(remaining: int, max_row: int, j: int) -> None:
        if remaining == 0:
            found.append(Partition(rows))
            return
        # every row from j on puts one box in column 0, so row j, the
        # longest of the rest, holds at least remaining / rows_left
        start = (bm * j) % n
        rows_left = fill(start, bm, remaining)
        drain(start, bm, rows_left)
        if rows_left == 0:
            return
        shortest = -(-remaining // rows_left)
        length = fill(start, am, min(max_row, remaining))
        while length >= shortest:
            rows.append(length)
            extend(remaining - length, length, j + 1)
            rows.pop()
            counts[(start + am * (length - 1)) % n] -= 1
            length -= 1
        drain(start, am, length)

    extend(r * n, r * n, 0)
    return tuple(sorted(found))
