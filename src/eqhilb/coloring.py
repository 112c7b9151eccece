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

from .errors import EnumerationLimitError, PreconditionError
from .partitions import Box, Partition

#: Default ceiling on r*n for enumerations; override with the environment
#: variable EQHILB_MAX_BOXES or the max_boxes argument.
DEFAULT_MAX_BOXES = 80
MAX_BOXES_ENV = "EQHILB_MAX_BOXES"


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

    @property
    def a_mod(self) -> int:
        return self.a % self.n

    @property
    def b_mod(self) -> int:
        return self.b % self.n

    def with_n(self, n: int) -> "GroupParams":
        return GroupParams(self.a, self.b, n)

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.n})"


@dataclass(frozen=True)
class WeightVector:
    """Residue histogram of a colored diagram: counts[s] boxes of color s."""

    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)

    def uniform_multiplicity(self) -> int | None:
        """The common value of all entries, or None if they differ."""
        if not self.counts:
            return None
        r = self.counts[0]
        return r if all(c == r for c in self.counts) else None


def color(g: GroupParams, box: Box) -> int:
    """Residue ``a*i + b*j mod n`` of a box, always in ``[0, n)``."""
    return (g.a * box[0] + g.b * box[1]) % g.n


def weight_vector(g: GroupParams, lam: Partition) -> WeightVector:
    counts = [0] * g.n
    am, bm, n = g.a_mod, g.b_mod, g.n
    for j, length in enumerate(lam.rows):
        s = (bm * j) % n
        for _ in range(length):
            counts[s] += 1
            s += am
            if s >= n:
                s -= n
    return WeightVector(tuple(counts))


def is_balanced(g: GroupParams, lam: Partition) -> tuple[bool, int | None]:
    """Whether every color appears equally often; returns the multiplicity.

    The empty partition is balanced with multiplicity 0.
    """
    r = weight_vector(g, lam).uniform_multiplicity()
    return (r is not None, r)


def _max_boxes(max_boxes: int | None) -> int:
    if max_boxes is not None:
        return max_boxes
    value = os.environ.get(MAX_BOXES_ENV, DEFAULT_MAX_BOXES)
    try:
        return int(value)
    except ValueError:
        raise PreconditionError(f"{MAX_BOXES_ENV} must be an integer, got {value!r}") from None


def enumerate_balanced(
    g: GroupParams, r: int, max_boxes: int | None = None
) -> tuple[Partition, ...]:
    """All balanced partitions of ``r*n`` for the coloring ``g``, sorted.

    Diagrams are built row by row (largest row first) while tracking the
    color histogram; a prefix is abandoned as soon as some color exceeds
    ``r``, which keeps desk-scale enumerations fast.  The brute-force
    filter over all partitions of ``r*n`` is kept in the test suite as
    the oracle for this generator.
    """
    if r < 0:
        raise PreconditionError(f"multiplicity must be nonnegative, got {r}")
    total = r * g.n
    ceiling = _max_boxes(max_boxes)
    if total > ceiling:
        raise EnumerationLimitError(
            f"enumerating balanced partitions of {total} boxes exceeds the "
            f"ceiling of {ceiling} (raise {MAX_BOXES_ENV} or max_boxes)"
        )
    return _enumerate_balanced_cached(g, r)


@functools.lru_cache(maxsize=None)
def _enumerate_balanced_cached(g: GroupParams, r: int) -> tuple[Partition, ...]:
    if r == 0:
        return (Partition(),)
    n, total = g.n, r * g.n
    am, bm = g.a_mod, g.b_mod
    counts = [0] * n
    rows: list[int] = []
    found: list[Partition] = []

    def extend(remaining: int, max_row: int, j: int) -> None:
        if remaining == 0:
            found.append(Partition(rows))
            return
        length = min(max_row, remaining)
        row_start = (bm * j) % n
        while length >= 1:
            added = 0
            overflow_at = -1
            s = row_start
            for i in range(length):
                counts[s] += 1
                added += 1
                if counts[s] > r:
                    overflow_at = i
                    break
                s += am
                if s >= n:
                    s -= n
            if overflow_at < 0:
                rows.append(length)
                extend(remaining - length, length, j + 1)
                rows.pop()
                next_length = length - 1
            else:
                # any row reaching the overflowing box fails the same way
                next_length = overflow_at
            s = row_start
            for _ in range(added):
                counts[s] -= 1
                s += am
                if s >= n:
                    s -= n
            length = next_length

    extend(total, total, 0)
    return tuple(sorted(found))
