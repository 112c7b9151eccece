"""The attracting-cell statistic, L-polynomial classes, and distinguished arrows.

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
compactly supported Betti numbers, summed up by ``l_class``.

``Arrow`` spells the same weights out as lattice arrows that hug the
boundary of the diagram (``D``: tail ``(l(j), j)``, head ``(i, c(i)-1)``;
``U``: tail ``(i, c(i))``, head ``(l(j)-1, j)``, weight ``tail - head``,
with ``l(j)`` the row length and ``c(i)`` the column height).  It serves
the ``betti`` command, the SVG overlay and the tests, where it is the
independent oracle for the hook count; the statistic never builds one.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass

from .coloring import GroupParams, enumerate_balanced, is_balanced
from .errors import UnbalancedPartitionError
from .partitions import Box, Partition

ARROW_D = "D"
ARROW_U = "U"


@dataclass(frozen=True)
class Arrow:
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
    heights = lam.conjugate().rows
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
    return tuple(
        ar
        for ar in distinguished_arrows(lam)
        if (g.a * ar.weight[0] + g.b * ar.weight[1]) % g.n == 0
    )


def is_lex_positive(weight: tuple[int, int]) -> bool:
    """Positivity under any torus direction with p >> q > 0."""
    return weight[0] > 0 or (weight[0] == 0 and weight[1] > 0)


def _require_balanced(g: GroupParams, lam: Partition) -> int:
    ok, r = is_balanced(g, lam)
    if not ok:
        raise UnbalancedPartitionError(
            f"{lam} is not balanced for {g}; the statistic is only defined on "
            "balanced partitions"
        )
    return r


def _cell_dimension(g: GroupParams, lam: Partition) -> int:
    """The hook count of the module docstring; ``lam`` must be balanced."""
    a, b, n = g.a, g.b, g.n
    heights = lam.conjugate().rows
    dim = 0
    for j, length in enumerate(lam.rows):
        for arm1, height in zip(range(length, 0, -1), heights):
            if (a * arm1 - b * (height - 1 - j)) % n == 0:
                dim += 1
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
    return _cell_dimension(g, lam)


def cotangent_weights(g: GroupParams, lam: Partition) -> tuple[tuple[int, int], ...]:
    """Multiset of torus weights on the cotangent space, as a sorted tuple.

    Always of cardinality ``2r`` on a balanced diagram of ``r*n`` boxes.
    """
    _require_balanced(g, lam)
    return tuple(sorted(ar.weight for ar in invariant_arrows(g, lam)))


class LPolynomial:
    """Polynomial in L with nonnegative integer coefficients.

    Simultaneously the motivic class (L the class of the affine line)
    and, via ``L = z^2``, the compactly supported Poincare polynomial;
    evaluation at ``L = 1`` is the Euler characteristic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if any(c < 0 for c in coeffs):
            raise ValueError(f"coefficients must be nonnegative, got {coeffs}")
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

    def poincare_str(self) -> str:
        """Poincare polynomial in z, printed in descending degree."""
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = f"z^{2 * k}"
                terms.append(z if c == 1 else f"{c}{z}")
        return " + ".join(terms) if terms else "0"

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
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "L" if k == 1 else f"L^{k}"
                terms.append(mono if c == 1 else f"{c}{mono}")
        return " + ".join(terms) if terms else "0"


def l_class(g: GroupParams, r: int, max_boxes: int | None = None) -> LPolynomial:
    """Motivic class of the fixed-point family: sum of L^beta over balanced diagrams.

    Coefficient of ``L^k`` counts the balanced partitions with statistic
    ``k``; its evaluation at 1 is the number of balanced partitions.
    """
    enumerate_balanced(g, r, max_boxes=max_boxes)  # checks r and the ceiling
    return _l_class(g, r)


@functools.lru_cache(maxsize=None)
def _l_class(g: GroupParams, r: int) -> LPolynomial:
    # l_class has checked the configured ceiling; a ceiling of r*n admits this family
    counts = Counter(_cell_dimension(g, lam) for lam in enumerate_balanced(g, r, r * g.n))
    return LPolynomial(counts[k] for k in range(max(counts, default=-1) + 1))
