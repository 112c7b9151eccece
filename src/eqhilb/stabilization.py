"""Insertion bijection between balanced families of consecutive orders.

For weights of equal sign (normalized to ``a, b > 0``) and ``n > r*a*b``,
balanced partitions of ``r*n`` biject with balanced partitions of
``r*(n + a*b)`` by an insertion procedure that preserves the Betti
statistic, so the whole L-polynomial is periodic in ``n`` with period
``a*b``.

The construction hinges on an anchor: a lattice point ``(i0, j0)`` with
``a*i0 + b*j0 = r*a*b`` lying outside the diagram.  As ``a`` and ``b`` are
coprime, these points are ``(b*t, a*(r - t))`` for ``t = 0..r``; all
``r + 1`` of them have color ``r*a*b mod n`` and a balanced diagram holds
only ``r`` boxes of each color, so one of them lies outside at every order.
It splits the relevant boxes into region A (strictly left of the
anchor, at or above its row) and region B (at or right of the anchor,
strictly below its row).  Insertion adds ``a`` cells to the column of
every region-A box colored in ``[n-b, n-1]`` and ``b`` cells to the row
of every region-B box colored in ``[n-a, n-1]``.  The induced splits of
the color classes do not depend on the anchor choice, so the smallest
available ``i0`` is used for determinism.

As ``a*i`` and ``b*j + a*i0`` stay below ``r*a*b < n``, each range is
met once per wrap past a multiple of ``n``: column ``i < i0`` of height
``h`` becomes ``h + a*((a*i + b*h) // n)`` and row ``j < j0`` of length
``l`` becomes ``l + b*((b*j + a*l) // n)``.  The inverse subtracts the
same terms with wraps counted at ``m = n + a*b``, as ``h' = h + a*w``
gives ``w*m <= a*i + b*h' < w*m + n``: it drops the boxes colored in
``[n, m-1]`` that the insertion added.

``psi`` and ``psi_inverse`` share one checked step that checks each fact
once: ``r >= 0``, ``n > r*a*b`` with ``n`` the smaller order, the input
balanced at its own order, the output balanced at the other order and,
for the inverse, the round trip.  A failed input check is the caller's
error; a failed output check raises ``InvariantViolationError``.
"""

from __future__ import annotations

from .coloring import (GroupParams, _family_record, _order_range, _require_balanced, _require_group,
                       _require_ints, is_balanced)
from .errors import InvariantViolationError, PreconditionError
from .partitions import Box, Partition, _column_heights, _require_partition


def _positive_weights(g: GroupParams) -> GroupParams:
    """Normalize (-a,-b) to (a,b); reject a ``g`` that is not a ``GroupParams``
    and mixed signs."""
    _require_group(g)
    if g.a > 0 and g.b > 0:
        return g
    if g.a < 0 and g.b < 0:
        return GroupParams(-g.a, -g.b, g.n)
    raise PreconditionError(
        f"requires weights of equal sign (a*b > 0), got ({g.a}, {g.b})"
    )


def _anchor(g: GroupParams, r: int, lam: Partition) -> Box:
    """The point ``(b*t, a*(r - t))`` of diagonal ``r*a*b`` outside ``lam``
    with the smallest ``t``, so the smallest ``i``; ``g`` has positive
    weights and ``r >= 0``.  Balance leaves one of the ``r + 1`` points out."""
    a, b = g.a, g.b
    for t in range(r + 1):
        pt = Box(b * t, a * (r - t))
        if pt not in lam:
            return pt
    raise InvariantViolationError(
        f"no anchor available on diagonal {r * a * b} for {lam}; this cannot "
        "happen for a balanced diagram"
    )


def _reassemble(rows: list[int], heights: list[int], j0: int) -> Partition:
    """The diagram with ``rows`` below row ``j0`` and, from row ``j0`` up,
    the rows read off the column ``heights`` left of the anchor: row ``j``
    counts the heights above ``j``, the conjugate of the sorted heights.
    Extends ``rows`` in place."""
    rows += _column_heights(sorted(heights, reverse=True))[j0:]
    while rows and rows[-1] == 0:
        rows.pop()
    try:
        return Partition(rows)
    except ValueError as exc:
        raise InvariantViolationError(
            f"the regions reassemble to a non-monotone profile: {rows}"
        ) from exc


def _shift(g: GroupParams, r: int, lam: Partition, sign: int) -> Partition:
    """``lam`` with ``sign`` times the wraps past multiples of ``g.n`` added
    left of and below its anchor (module docstring), unchecked."""
    a, b, order = g.a, g.b, g.n
    i0, j0 = _anchor(g, r, lam)
    heights = [h + sign * a * ((a * i + b * h) // order)
               for i, h in enumerate(_column_heights(lam.rows)[:i0])]
    below = lam.rows[:j0]
    rows = [l + sign * b * ((b * j + a * l) // order)
            for j, l in enumerate(below + (0,) * (j0 - len(below)))]
    return _reassemble(rows, heights, j0)


def _insert(g: GroupParams, r: int, lam: Partition, sign: int) -> Partition:
    """The checked insertion step for ``sign`` 1, its inverse for ``sign`` -1."""
    g = _positive_weights(g)
    _require_ints(multiplicity=r)
    if r < 0:
        raise PreconditionError(f"multiplicity must be nonnegative, got {r}")
    rab = r * g.a * g.b
    if g.n <= rab:
        raise PreconditionError(f"requires n > r*a*b, got n={g.n} <= {rab}")
    big = g.with_n(g.n + g.a * g.b)
    here, there = (g, big) if sign > 0 else (big, g)
    _require_balanced(here, lam, r)
    result = _shift(here, r, lam, sign)
    if is_balanced(there, result) != (True, r):
        raise InvariantViolationError(f"{'insertion' if sign > 0 else 'inverse'} output "
                                      f"{result} is not balanced of multiplicity {r} at {there}")
    if sign < 0 and _shift(g, r, result, 1) != lam:
        raise InvariantViolationError(f"inverse {result} of {lam} does not map back "
                                      "under insertion")
    return result


def psi(g: GroupParams, r: int, lam: Partition) -> Partition:
    """Insertion step: maps a balanced diagram at order ``n`` to one at order
    ``n + a*b`` with the same Betti statistic, by the checked step of the
    module docstring; a failed check raises, it is never repaired."""
    return _insert(g, r, lam, 1)


def psi_inverse(g: GroupParams, r: int, mu: Partition) -> Partition:
    """The unique preimage of ``mu`` under ``psi``, by the checked step of the
    module docstring, which verifies it by re-applying the insertion."""
    _require_partition("mu", mu)
    return _insert(g, r, mu, -1)


def verify_period(g: GroupParams, r: int, n_from: int, n_to: int) -> dict:
    """Desk check of the periodicity: compare L-classes at n and n + a*b.

    The orders run from ``n_from >= 1`` to ``n_to``, and at least one of
    them must exceed ``r*a*b``.  For every n with ``n > r*a*b`` the
    report records the two coefficient vectors, whether they agree, and a
    witness that the insertion realizes a statistic-preserving bijection;
    an image outside the next family has ``betti_image`` None.
    """
    _require_ints(multiplicity=r, n_from=n_from, n_to=n_to)
    g = _positive_weights(g)
    if n_from < 1:
        raise PreconditionError(f"group orders start at 1, got n_from={n_from}")
    period = g.a * g.b
    rab = r * period
    first = max(n_from, rab + 1)
    if first > n_to:
        raise PreconditionError(f"no order in {n_from}..{n_to} exceeds r*a*b = {rab}")
    checks = []
    for n in _order_range(r, first, n_to):
        gn = g.with_n(n)
        gm = g.with_n(n + period)
        here = _family_record(gn, r)
        there = _family_record(gm, r)
        # the members are balanced by construction, so the insertion is
        # applied unchecked; its images are checked against the next family
        pairs = [(lam, _shift(gn, r, lam, 1)) for lam in here.members]
        # the family is sorted without repeats: equal means injective and onto
        image_ok = tuple(sorted(mu for _, mu in pairs)) == there.members
        betti_of = dict(zip(there.members, there.statistics))
        betti_rows = [
            {
                "source": str(lam),
                "image": str(mu),
                "betti_source": beta,
                "betti_image": betti_of.get(mu),
            }
            for (lam, mu), beta in zip(pairs, here.statistics)
        ]
        betti_ok = all(row["betti_source"] == row["betti_image"] for row in betti_rows)
        checks.append(
            {
                "n": n,
                "n_next": n + period,
                "coeffs_n": list(here.l_class.coeffs),
                "coeffs_next": list(there.l_class.coeffs),
                "equal": here.l_class == there.l_class,
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
        "skipped_below_threshold": list(range(n_from, first)),
        "checks": checks,
        "all_equal": all(c["equal"] for c in checks),
        "all_bijections_ok": all(
            c["bijection"]["image_matches"] and c["bijection"]["betti_preserved"]
            for c in checks
        ),
    }
