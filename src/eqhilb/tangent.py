"""The attracting-cell statistic and distinguished arrows, per diagram.

Write ``arm`` and ``leg`` for the number of boxes of a diagram to the
right of and above a box.  The torus weights of the tangent space at the
corresponding monomial ideal are, per box, ``(arm+1, -leg)`` and
``(-arm, leg+1)`` (Ellingsrud-Stromme; Nakajima, Lectures on Hilbert
schemes, Prop. 5.8).  The cyclic group of weights ``(a, b)`` and order
``n`` fixes a weight ``(w1, w2)`` exactly when ``a*w1 + b*w2 = 0 mod n``,
and on a balanced diagram of ``r*n`` boxes exactly ``2r`` weights are
fixed.

The dimension of the attracting cell for a one-parameter subtorus with
weights ``p >> q > 0`` counts the fixed weights that are
lexicographically positive: every box with ``a*(arm+1) = b*leg mod n``,
plus every row-end box (``arm = 0``) with ``b*(leg+1) = 0 mod n``.  The
level sets of this hook count over the balanced diagrams are the
compactly supported Betti numbers, summed up by ``coloring.l_class``.

With ``h_i`` the column heights and ``l_j`` the row lengths, the box
condition reads ``a*i + b*(h_i - 1) = a*l_j + b*j mod n``: a key of its
column against a key of its row.  So ``_cell_dimension`` makes one pass
over the column heights and then one per row, and the balanced search
folds the same count in on the normal form as it places rows
(``coloring._search``).

``Arrow`` spells the same weights out as lattice arrows that hug the
boundary of the diagram (``D``: tail ``(l(j), j)``, head ``(i, c(i)-1)``;
``U``: tail ``(i, c(i))``, head ``(l(j)-1, j)``, weight ``tail - head``,
with ``l(j)`` the row length and ``c(i)`` the column height).  It serves
the ``betti`` command, the SVG overlay and the tests, where it is the
independent oracle for the hook count; the statistic never builds one.
"""

from __future__ import annotations

from typing import NamedTuple

from .coloring import GroupParams, _require_balanced, _require_group
from .partitions import Box, Partition, _column_heights, _require_partition

ARROW_D = "D"
ARROW_U = "U"


class Arrow(NamedTuple):
    """A distinguished coordinate arrow attached to one box of a diagram.

    ``weight`` is tail minus head componentwise.  D arrows always have
    ``weight[0] >= 1``; U arrows have ``weight[0] <= 0`` and
    ``weight[1] >= 1``.  The tail lies outside the diagram, the head
    inside.
    """

    kind: str
    box: Box
    tail: Box
    head: Box
    weight: tuple[int, int]


def distinguished_arrows(lam: Partition) -> tuple[Arrow, ...]:
    """The 2*size(lam) distinguished arrows, two per box, row-major."""
    _require_partition("lam", lam)
    heights = _column_heights(lam.rows)
    arrows: list[Arrow] = []
    for j, length in enumerate(lam.rows):
        for i in range(length):
            c = heights[i]
            box = Box(i, j)
            arrows.append(
                Arrow(ARROW_D, box, Box(length, j), Box(i, c - 1), (length - i, j - c + 1))
            )
            arrows.append(
                Arrow(ARROW_U, box, Box(i, c), Box(length - 1, j), (i - length + 1, c - j))
            )
    return tuple(arrows)


def invariant_arrows(g: GroupParams, lam: Partition) -> tuple[Arrow, ...]:
    """The distinguished arrows fixed by the group action."""
    _require_group(g)
    return tuple(
        ar
        for ar in distinguished_arrows(lam)
        if (g.a * ar.weight[0] + g.b * ar.weight[1]) % g.n == 0
    )


def _cell_dimension(a: int, b: int, n: int, lam: Partition) -> int:
    """The hook count of the module docstring for the balanced ``lam``;
    ``(a, b)`` may be any representatives of the weights' residues mod ``n``."""
    heights = _column_heights(lam.rows)
    key = [(a * i + b * (h - 1)) % n for i, h in enumerate(heights)]
    dim = 0
    for j, length in enumerate(lam.rows):
        dim += key[:length].count((a * length + b * j) % n)
        if b * (heights[length - 1] - j) % n == 0:
            dim += 1
    return dim


def betti_statistic(g: GroupParams, lam: Partition) -> int:
    """Attracting-cell dimension at the fixed point of a balanced diagram.

    Equal to the number of invariant arrows with lexicographically
    positive weight pair: every invariant D arrow and every invariant
    vertical U arrow.
    """
    _require_balanced(g, lam)
    return _cell_dimension(g.a, g.b, g.n, lam)
