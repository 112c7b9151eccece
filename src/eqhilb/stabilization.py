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

from .coloring import GroupParams, _require_balanced, enumerate_balanced, is_balanced
from .errors import InvariantViolationError, PreconditionError
from .partitions import Box, Partition, _column_heights
from .tangent import _cell_dimension, l_class


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


def _anchor(g: GroupParams, r: int, lam: Partition) -> Box:
    """The off-diagram point of diagonal ``r*a*b`` with the smallest ``i``.

    ``g`` has positive weights.  Preconditions are reported distinctly:
    ``r >= 0``, ``n > r*a*b``, and ``lam`` balanced with multiplicity ``r``.
    """
    if r < 0:
        raise PreconditionError(f"multiplicity must be nonnegative, got {r}")
    rab = r * g.a * g.b
    if g.n <= rab:
        raise PreconditionError(f"requires n > r*a*b, got n={g.n} <= {rab}")
    _require_balanced(g, lam, r)
    for pt in diagonal(g, rab):  # listed by ascending i
        if pt not in lam:
            return pt
    raise InvariantViolationError(
        f"no anchor available on diagonal {rab} for {lam}; this cannot "
        "happen for a balanced diagram"
    )


def _reassemble(rows: list[int], heights: list[int], j0: int) -> Partition:
    """The diagram with ``rows`` below row ``j0`` and, from row ``j0`` up,
    the rows read off the column ``heights`` left of the anchor."""
    rows = rows + [sum(1 for h in heights if h > j) for j in range(j0, max(heights, default=0))]
    while rows and rows[-1] == 0:
        rows.pop()
    try:
        return Partition(rows)
    except ValueError as exc:
        raise InvariantViolationError(
            f"the regions reassemble to a non-monotone profile: {rows}"
        ) from exc


def psi(g: GroupParams, r: int, lam: Partition) -> Partition:
    """Insertion step: maps balanced diagrams at order n to order n + a*b.

    Per region-A box colored in ``[n-b, n-1]`` its column gains ``a``
    cells; per region-B box colored in ``[n-a, n-1]`` its row gains
    ``b`` cells.  The result is balanced of ``r*(n+a*b)`` boxes with the
    same Betti statistic; any failure of these guarantees raises, it is
    never repaired.
    """
    g = _positive_weights(g)
    a, b, n = g.a, g.b, g.n
    i0, j0 = _anchor(g, r, lam)
    heights = _column_heights(lam.rows)[:i0]
    rows = [lam.row_len(j) for j in range(j0)]
    for j, length in enumerate(lam.rows):
        k = (b * j) % n  # the colors b*j + a*i along row j
        for i in range(min(length, i0)):
            if k >= n - b:
                heights[i] += a
            k = (k + a) % n
        if length > i0:  # j < j0; as a < n, the colors from i0 on enter [n-a, n-1] once per wrap
            rows[j] += b * ((k + a * (length - i0)) // n)
    result = _reassemble(rows, heights, j0)
    big = g.with_n(n + a * b)
    if is_balanced(big, result) != (True, r):
        raise InvariantViolationError(
            f"insertion output {result} is not balanced of multiplicity {r} at {big}"
        )
    return result


def psi_inverse(g: GroupParams, r: int, mu: Partition) -> Partition:
    """The unique preimage of ``mu`` under the insertion step.

    Splits ``mu`` at the anchor of the larger order, keeps the boxes
    colored below ``n`` (those colored in ``[n, n+ab-1]`` are the ones the
    insertion added), closes the gaps within the columns left of the
    anchor and the rows below it, and reassembles the two profiles as the
    insertion does.  The answer is verified by re-applying the insertion.
    """
    g = _positive_weights(g)
    a, b, n = g.a, g.b, g.n
    rab = r * a * b
    if n <= rab:
        raise PreconditionError(f"requires n > r*a*b, got n={n} <= {rab}")
    m = n + a * b
    i0, j0 = _anchor(g.with_n(m), r, mu)
    heights = [0] * i0
    rows = [0] * j0
    for j, length in enumerate(mu.rows):
        k = (b * j) % m
        for i in range(length):
            if k < n:
                if i < i0:
                    heights[i] += 1
                if j < j0:
                    rows[j] += 1
            k = (k + a) % m
    lam = _reassemble(rows, heights, j0)
    if psi(g, r, lam) != mu:
        raise InvariantViolationError(
            f"inverse {lam} of {mu} does not map back under insertion"
        )
    return lam


def verify_period(g: GroupParams, r: int, n_from: int, n_to: int) -> dict:
    """Desk check of the periodicity: compare L-classes at n and n + a*b.

    The orders run from ``n_from >= 1`` to ``n_to``, and at least one of
    them must exceed ``r*a*b``.  For every n with ``n > r*a*b`` the
    report records the two coefficient vectors, whether they agree, and a
    witness that the insertion realizes a statistic-preserving bijection.
    """
    g = _positive_weights(g)
    if n_from < 1:
        raise PreconditionError(f"group orders start at 1, got n_from={n_from}")
    period = g.a * g.b
    rab = r * period
    if max(n_from, rab + 1) > n_to:
        raise PreconditionError(f"no order in {n_from}..{n_to} exceeds r*a*b = {rab}")
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
        pairs = [(lam, psi(gn, r, lam)) for lam in enumerate_balanced(gn, r)]
        # the family is sorted without repeats: equal means injective and onto
        image_ok = tuple(sorted(mu for _, mu in pairs)) == enumerate_balanced(gm, r)
        betti_rows = [
            {
                "source": str(lam),
                "image": str(mu),
                "betti_source": _cell_dimension(g.a, g.b, n, lam),
                "betti_image": _cell_dimension(g.a, g.b, n + period, mu),
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
