"""Insertion bijection between balanced families of consecutive orders.

For weights of equal sign (normalized to ``a, b > 0``) and ``n > r*a*b``,
balanced partitions of ``r*n`` biject with balanced partitions of
``r*(n + a*b)`` by an insertion procedure that preserves the Betti
statistic, so the whole L-polynomial is periodic in ``n`` with period
``a*b``.

The construction hinges on an anchor: a lattice point ``(i0, j0)`` with
``a*i0 + b*j0 = r*a*b`` lying outside the diagram (one always exists).
It splits the relevant boxes into region A (strictly left of the
anchor, at or above its row) and region B (at or right of the anchor,
strictly below its row).  Insertion adds ``a`` cells to the column of
every region-A box colored in ``[n-b, n-1]`` and ``b`` cells to the row
of every region-B box colored in ``[n-a, n-1]``.  The induced splits of
the color classes do not depend on the anchor choice, so the smallest
available ``i0`` is used for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import GroupParams, color, enumerate_balanced, is_balanced
from .errors import InvariantViolationError, PreconditionError, UnbalancedPartitionError
from .partitions import Box, Partition
from .tangent import betti_statistic, l_class


def _positive_weights(g: GroupParams) -> GroupParams:
    """Normalize (-a,-b) to (a,b); reject mixed signs."""
    if g.a > 0 and g.b > 0:
        return g
    if g.a < 0 and g.b < 0:
        return GroupParams(-g.a, -g.b, g.n)
    raise PreconditionError(
        f"requires weights of equal sign (a*b > 0), got ({g.a}, {g.b})"
    )


def diagonal(g: GroupParams, k: int) -> tuple[Box, ...]:
    """Lattice points with ``a*i + b*j = k``; finite since a, b > 0."""
    if g.a <= 0 or g.b <= 0:
        raise PreconditionError(
            f"diagonals are finite only for positive weights, got ({g.a}, {g.b})"
        )
    if k < 0:
        raise PreconditionError(f"diagonal index must be nonnegative, got {k}")
    points = []
    for i in range(k // g.a + 1):
        rest = k - g.a * i
        if rest % g.b == 0:
            points.append(Box(i, rest // g.b))
    return tuple(points)


@dataclass(frozen=True)
class SplitContext:
    """Anchor-induced split of a balanced diagram into regions A and B.

    Region A is ``{i < i0, j >= j0}``, region B is ``{i >= i0, j < j0}``;
    every box colored in ``[r*a*b, n-1]`` lies in exactly one of them.
    """

    g: GroupParams  # positive weights
    r: int
    lam: Partition
    anchor: Box

    def in_region_a(self, box) -> bool:
        i, j = box
        return i < self.anchor.i and j >= self.anchor.j

    def in_region_b(self, box) -> bool:
        i, j = box
        return i >= self.anchor.i and j < self.anchor.j

    def split_of_class(self, k: int) -> tuple[tuple[Box, ...], tuple[Box, ...]]:
        """Boxes of color class k in region A and in region B."""
        a_side, b_side = [], []
        for box in self.lam.boxes():
            if color(self.g, box) != k:
                continue
            if self.in_region_a(box):
                a_side.append(box)
            elif self.in_region_b(box):
                b_side.append(box)
        return tuple(a_side), tuple(b_side)


def make_split(g: GroupParams, r: int, lam: Partition, anchor: Box | None = None) -> SplitContext:
    """Build the region split for a balanced diagram; anchor defaults to smallest i0.

    Preconditions are reported distinctly: weights of equal sign,
    ``n > r*a*b``, and ``lam`` balanced with multiplicity ``r``.
    """
    g = _positive_weights(g)
    rab = r * g.a * g.b
    if g.n <= rab:
        raise PreconditionError(f"requires n > r*a*b, got n={g.n} <= {rab}")
    ok, mult = is_balanced(g, lam)
    if not ok or mult != r:
        raise UnbalancedPartitionError(
            f"{lam} is not balanced with multiplicity {r} for {g}"
        )
    free = [pt for pt in diagonal(g, rab) if pt not in lam]
    if not free:
        raise InvariantViolationError(
            f"no anchor available on diagonal {rab} for {lam}; this cannot "
            "happen for a balanced diagram"
        )
    if anchor is None:
        anchor = free[0]  # diagonal() lists points by ascending i
    elif anchor not in free:
        raise PreconditionError(f"anchor {anchor} is not an off-diagram point of diagonal {rab}")
    return SplitContext(g, r, lam, anchor)


def phi(ctx: SplitContext, box) -> Box:
    """Shift a region-A box down by a, a region-B box left by b.

    Restricted to the boxes of any color class ``k`` in ``[r*a*b, n-1]``
    this is a bijection onto the class ``k - a*b`` boxes.
    """
    i, j = box
    if ctx.in_region_a(box):
        return Box(i, j - ctx.g.a)
    if ctx.in_region_b(box):
        return Box(i - ctx.g.b, j)
    raise PreconditionError(f"{box} lies in neither region of the split at {ctx.anchor}")


def psi(g: GroupParams, r: int, lam: Partition) -> Partition:
    """Insertion step: maps balanced diagrams at order n to order n + a*b.

    Per region-A box colored in ``[n-b, n-1]`` its column gains ``a``
    cells; per region-B box colored in ``[n-a, n-1]`` its row gains
    ``b`` cells.  The result is balanced of ``r*(n+a*b)`` boxes with the
    same Betti statistic; any failure of these guarantees raises, it is
    never repaired.
    """
    ctx = make_split(g, r, lam)
    g = ctx.g
    a, b, n = g.a, g.b, g.n
    i0, j0 = ctx.anchor
    col_extra: dict[int, int] = {}
    row_extra: dict[int, int] = {}
    for box in lam.boxes():
        k = color(g, box)
        if k >= n - b and box.i < i0:
            col_extra[box.i] = col_extra.get(box.i, 0) + a
        elif k >= n - a and box.i >= i0:
            row_extra[box.j] = row_extra.get(box.j, 0) + b
    width = lam.rows[0] if lam.rows else 0
    heights = [lam.col_height(i) + col_extra.get(i, 0) for i in range(min(i0, width))]
    rows = [lam.rows[j] + row_extra.get(j, 0) for j in range(min(j0, len(lam.rows)))]
    j = j0
    while True:
        cnt = sum(1 for h in heights if h > j)
        if cnt == 0:
            break
        rows.append(cnt)
        j += 1
    try:
        result = Partition(rows)
    except ValueError as exc:
        raise InvariantViolationError(
            f"insertion produced a non-monotone profile for {lam} at {g}: {rows}"
        ) from exc
    big = g.with_n(n + a * b)
    ok, mult = is_balanced(big, result)
    if result.size != r * big.n or not ok or mult != r:
        raise InvariantViolationError(
            f"insertion output {result} is not balanced of multiplicity {r} at {big}"
        )
    return result


def _deletion(g: GroupParams, r: int, mu: Partition) -> Partition:
    """Deletion step: strip the boxes colored in [n, n+ab-1] and close the gaps.

    Column gaps close within the columns left of the anchor, row gaps
    within the rows below it; the two profiles are then reassembled the
    same way the insertion builds its output.
    """
    a, b, n = g.a, g.b, g.n
    big = g.with_n(n + a * b)
    rab = r * a * b
    anchors = [pt for pt in diagonal(g, rab) if pt not in mu]
    if not anchors:
        raise InvariantViolationError(f"no anchor on diagonal {rab} outside {mu}")
    i0, j0 = anchors[0]
    survivors = [box for box in mu.boxes() if color(big, box) < n]
    col_cnt: dict[int, int] = {}
    row_cnt: dict[int, int] = {}
    for box in survivors:
        if box.i < i0:
            col_cnt[box.i] = col_cnt.get(box.i, 0) + 1
        if box.j < j0:
            row_cnt[box.j] = row_cnt.get(box.j, 0) + 1
    rows = [row_cnt.get(j, 0) for j in range(j0)]
    j = j0
    while True:
        cnt = sum(1 for c in col_cnt.values() if c > j)
        if cnt == 0:
            break
        rows.append(cnt)
        j += 1
    while rows and rows[-1] == 0:
        rows.pop()
    try:
        return Partition(rows)
    except ValueError as exc:
        raise InvariantViolationError(
            f"deletion produced a non-monotone profile for {mu} at {big}: {rows}"
        ) from exc


def psi_inverse(g: GroupParams, r: int, mu: Partition) -> Partition:
    """The unique preimage of ``mu`` under the insertion step.

    Deletes the high-colored boxes and compacts, then verifies the
    answer by re-applying the insertion.
    """
    g = _positive_weights(g)
    a, b, n = g.a, g.b, g.n
    rab = r * a * b
    if n <= rab:
        raise PreconditionError(f"requires n > r*a*b, got n={n} <= {rab}")
    big = g.with_n(n + a * b)
    ok, mult = is_balanced(big, mu)
    if not ok or mult != r:
        raise UnbalancedPartitionError(
            f"{mu} is not balanced with multiplicity {r} for {big}"
        )
    lam = _deletion(g, r, mu)
    if psi(g, r, lam) != mu:
        raise InvariantViolationError(
            f"inverse {lam} of {mu} does not map back under insertion"
        )
    return lam


def verify_period(g: GroupParams, r: int, n_from: int, n_to: int) -> dict:
    """Desk check of the periodicity: compare L-classes at n and n + a*b.

    For every n in range with ``n > r*a*b`` the report records the two
    coefficient vectors, whether they agree, and a witness that the
    insertion realizes a statistic-preserving bijection.
    """
    g = _positive_weights(g)
    period = g.a * g.b
    rab = r * period
    checks = []
    skipped = []
    for n in range(n_from, n_to + 1):
        if n <= rab:
            skipped.append(n)
            continue
        gn = g.with_n(n)
        gm = g.with_n(n + period)
        here = l_class(gn, r)
        there = l_class(gm, r)
        balanced_n = enumerate_balanced(gn, r)
        balanced_m = set(enumerate_balanced(gm, r))
        pairs = [(lam, psi(gn, r, lam)) for lam in balanced_n]
        images = [mu for _, mu in pairs]
        image_ok = len(set(images)) == len(images) and set(images) == balanced_m
        betti_rows = [
            {
                "source": str(lam),
                "image": str(mu),
                "betti_source": betti_statistic(gn, lam),
                "betti_image": betti_statistic(gm, mu),
            }
            for lam, mu in pairs
        ]
        betti_ok = all(row["betti_source"] == row["betti_image"] for row in betti_rows)
        checks.append(
            {
                "n": n,
                "n_next": n + period,
                "coeffs_n": list(here.coeffs),
                "coeffs_next": list(there.coeffs),
                "equal": here == there,
                "bijection": {
                    "image_matches": image_ok,
                    "betti_preserved": betti_ok,
                    "pairs": betti_rows,
                },
            }
        )
    return {
        "group": {"a": g.a, "b": g.b},
        "r": r,
        "period": period,
        "threshold": rab,
        "skipped_below_threshold": skipped,
        "checks": checks,
        "all_equal": all(c["equal"] for c in checks),
        "all_bijections_ok": all(
            c["bijection"]["image_matches"] and c["bijection"]["betti_preserved"]
            for c in checks
        ),
    }
