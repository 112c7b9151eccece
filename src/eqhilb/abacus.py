"""Boundary-word abaci, n-runners, n-cores and n-quotients.

Everything here reads one representation of a partition, its beta-set:
for any ``k`` at least its number of parts, the ``k`` distinct
beta-numbers ``lam_t - t + k`` (``t = 1..k``).  Conversely a finite bead
set with beads ``x_1 > ... > x_k`` is the partition with parts
``x_t - (k - t)``; adding one bead at 0 and shifting the others up by
one leaves it unchanged.

An abacus is a function ``h : Z -> {0, 1}`` that is 1 far to the left
and 0 far to the right: the beta-set with ``k`` the number of parts,
shifted by ``-k``, with every negative position below ``-k`` beaded as
well.  Reading the window from the first 0 (at ``-k``) to the last 1
gives the boundary word of the diagram (0 per horizontal edge step, 1
per vertical edge step).  Partitions correspond to abaci up to
translation; the charge (beads at nonnegative positions minus gaps at
negative positions) is 0 exactly for this alignment, and is tracked so
that translates remain distinguishable.

Bead ``x`` sits at level ``x // n`` on runner ``x % n``.  The levels on
each runner form a beta-set of their own, whose partition is one
component of the n-quotient; packing every runner's beads down to the
levels ``0, 1, ...`` gives the beta-set of the n-core, and
``|lam| = |core| + n * sum(|quotient parts|)``.  ``runners`` reads both
off the row tuple in one pass over the runners.  ``from_core_quotient``
reads the core's runner sizes ``c`` off its rows and checks each candidate
in closed form instead of decomposing it again: the core is an n-core
when the levels of its beads sum to ``sum(c*(c-1)/2)``, and a candidate's
parts read back as given when the rotation by
``(-len(rows) - alignment) % n`` fixes them.  The row ends ``l_j - j`` are
the beta-numbers up to one common shift, so an empty n-core is the same
as balance for ``(1, -1; n)``: ``has_empty_core`` checks the size and the
row-end tally of ``coloring``.

The runners are labelled from the window start, which sits at
``-(number of parts)``, so the labels depend on the number of parts mod
``n``.  The quotient therefore records this alignment; without it a
core/quotient pair can have several preimages (for n = 3, the pair
(empty core, ((1), {}, {})) is produced by (3), (2,1) and (1,1,1)
alike) and reconstruction refuses to guess.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .coloring import _tallies_match
from .errors import AmbiguousQuotientError, InvariantViolationError, NotNCoreError, PreconditionError
from .partitions import Partition, _require_int, _require_partition

_EMPTY = Partition()


class _Abacus(NamedTuple):
    word: tuple[int, ...]
    offset: int


class Abacus(_Abacus):
    """A 0/1 word placed on Z: position ``offset + p`` holds ``word[p]``.

    Positions left of the word are 1, positions right of it are 0.  The
    canonical form starts at the first 0 and ends at the last 1.
    """

    __slots__ = ()

    def __new__(cls, word: tuple[int, ...] = (), offset: int = 0):
        word = tuple(word)
        if any(type(x) is not int or x not in (0, 1) for x in word):
            raise PreconditionError("abacus words contain only 0s and 1s")
        if type(offset) is not int:
            raise PreconditionError(f"an abacus offset is an int, got {offset!r}")
        return super().__new__(cls, word, offset)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __str__(self) -> str:
        return "...11|" + "".join(str(x) for x in self.word) + "|00..."


def _beta(rows: tuple[int, ...], k: int) -> list[int]:
    """The ``k`` beta-numbers ``rows_t - t + k`` of a row tuple, largest first."""
    rows = rows + (0,) * (k - len(rows))
    return [rows[t] + k - t - 1 for t in range(k)]


def _rows_of_beta(xs: list[int]) -> tuple[int, ...]:
    """The rows of the beads given largest first, ``x_1 > ... > x_k``: parts ``x_t - (k - t)``."""
    rows = list(map(operator.sub, xs, range(len(xs) - 1, -1, -1)))
    if rows and not rows[-1]:  # zero parts come last
        del rows[rows.index(0):]
    return tuple(rows)


def to_abacus(lam: Partition) -> Abacus:
    """Canonical (charge-0) abacus of a partition."""
    _require_partition("lam", lam)
    m = len(lam.rows)
    beads = set(_beta(lam.rows, m))
    word = tuple(int(x in beads) for x in range(max(beads, default=-1) + 1))
    return Abacus(word, -m)


class _MultiPartition(NamedTuple):
    parts: tuple[Partition, ...]
    alignment: int | None


class MultiPartition(_MultiPartition):
    """An n-tuple of partitions, as produced by runner decomposition.

    ``alignment`` is the residue mod ``n`` of the abacus window start of
    the decomposed partition (equivalently of minus its number of
    parts).  It records which absolute runner was read as runner 0 and
    is what makes the core/quotient correspondence invertible.
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[Partition, ...], alignment: int | None = None):
        parts = tuple(parts)
        if len(parts) < 1:
            raise PreconditionError("a multipartition has at least one component")
        for part in parts:
            _require_partition("a component", part)
        if alignment is not None and type(alignment) is not int:
            raise PreconditionError(f"an alignment is None or an int, got {alignment!r}")
        return super().__new__(cls, parts, alignment)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @classmethod
    def _of(cls, parts: tuple[Partition, ...], alignment: int) -> "MultiPartition":
        """``MultiPartition(parts, alignment)`` unchecked, for the parts and
        the int alignment that :func:`runners` built."""
        return tuple.__new__(cls, (parts, alignment))

    def total(self) -> int:
        return sum(p.size for p in self.parts)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def runners(lam: Partition, n: int) -> tuple[MultiPartition, Partition]:
    """The n-quotient, with its alignment, and the n-core (module docstring)."""
    _require_partition("lam", lam)
    _require_int("n", n, 1)
    rows = lam.rows
    m = len(rows)
    levels = [[] for _ in range(n)]
    for x in map(operator.add, rows, range(m - 1, -1, -1)):
        levels[x % n].append(x // n)
    quot = []
    beads = []
    total = 0
    for s, run in enumerate(levels):
        # levels y_1 > ... > y_c pack down to s, s + n, ...; unless they are
        # packed already they give the part with rows y_t - c + t
        c = len(run)
        if c:
            beads += range(s, s + n * c, n)
            if run[0] != c - 1:
                part = Partition._of(_rows_of_beta(run))
                total += part.size
                quot.append(part)
                continue
        quot.append(_EMPTY)
    beads.sort(reverse=True)
    core = Partition._of(_rows_of_beta(beads))
    size_check = core.size + n * total
    if size_check != lam.size:
        raise InvariantViolationError(
            f"size identity failed for {lam} at n={n}: {lam.size} != {size_check}"
        )
    return MultiPartition._of(tuple(quot), -m % n), core


def from_core_quotient(core: Partition, quot: MultiPartition) -> Partition:
    """The partition with the given n-core and n-quotient (module docstring).

    When ``quot`` carries its alignment (every value produced by
    :func:`runners` does), the preimage is unique and this inverts the
    decomposition.  A bare tuple without alignment is reconstructed only
    if the consistent alignments rebuild one partition; otherwise the
    call raises ``AmbiguousQuotientError`` listing the candidates.
    """
    _require_partition("core", core)
    if not isinstance(quot, MultiPartition):
        raise PreconditionError(f"quot must be a MultiPartition, got {quot!r}")
    n = len(quot.parts)
    k = len(core.rows)
    pad = -k % n  # beads 0..pad-1 pad the core's beta-set to a multiple of n
    sizes = [1] * pad + [0] * (n - pad)  # beads of the core on runner s (residue s)
    levels = 0
    for x in map(operator.add, core.rows, range(k + pad - 1, pad - 1, -1)):
        sizes[x % n] += 1
        levels += x // n
    rotations = range(n) if quot.alignment is None else (quot.alignment % n,)
    prows = tuple(p.rows for p in quot.parts)
    # c distinct levels sum to at least c*(c-1)/2, with equality exactly when packed
    if levels != sum(c * (c - 1) // 2 for c in sizes):
        raise NotNCoreError(f"{core} is not an {n}-core")
    matches = set()  # alignments that rebuild one partition give one preimage
    for rho in rotations:
        abs_parts = prows[-rho % n:] + prows[:-rho % n]  # runner s holds part (s - rho) % n
        # one more bead on every runner until each runner holds its part; a
        # negative extra drops the beads 0..n-1 and shifts the rest down by n,
        # which is the same partition
        extra = max(map(operator.sub, map(len, abs_parts), sizes))
        # runner s holds c + extra beads: row t of its part at level
        # row + c + extra - 1 - t, then the levels below them, packed
        beads = []
        for s, (p, c) in enumerate(zip(abs_parts, sizes)):
            if p:
                top = s + n * (c + extra - 1)
                beads += [top + n * (row - t) for t, row in enumerate(p)]
            beads += range(s, s + n * (c + extra - len(p)), n)
        beads.sort(reverse=True)
        rows = _rows_of_beta(beads)
        # the rebuilt beads number a multiple of n, so runners() reads the
        # parts rotated by d; they read back as given when d fixes them
        d = (-len(rows) - rho) % n
        if prows[d:] + prows[:d] == prows:
            matches.add(Partition._of(rows))
    if len(matches) == 1:
        return matches.pop()
    if not matches:
        raise PreconditionError(
            f"no partition has core {core} and quotient {quot} with the given alignment"
        )
    raise AmbiguousQuotientError(
        f"quotient {quot} with core {core} has {len(matches)} preimages "
        f"({', '.join(str(m) for m in sorted(matches))}); pass the alignment "
        "recorded by runners() to pick one"
    )


def has_empty_core(lam: Partition, n: int) -> bool:
    """True when the n-core vanishes: ``lam`` is balanced for ``(1, -1; n)``."""
    _require_partition("lam", lam)
    _require_int("n", n, 1)
    return lam.size % n == 0 and _tallies_match(1, -1, n, lam.rows)
