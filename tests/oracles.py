"""Brute-force references that the fast paths of the package are tested against."""

from eqhilb import Partition, enumerate_balanced, is_balanced, partitions_of, psi


def brute_force_balanced(g, r):
    """Filter all partitions of r*n by the balance test."""
    return tuple(
        sorted(lam for lam in partitions_of(r * g.n) if is_balanced(g, lam) == (True, r))
    )


def psi_inverse_by_search(g, r, mu):
    """Preimage of ``mu`` under the insertion step, found by applying the
    insertion to every balanced diagram at order ``n``; None if there is none."""
    return next((lam for lam in enumerate_balanced(g, r) if psi(g, r, lam) == mu), None)


def core_by_hook_removal(lam, n):
    """The n-core of ``lam``: remove the rim hook of a box of hook length n
    while there is one.  For box ``(i, j)`` with leg ``leg``, rows
    ``j..j+leg-1`` take the length of the row above minus one and row
    ``j+leg`` keeps ``i`` boxes."""
    rows = list(lam.rows)
    while True:
        hook = next(
            ((i, j, leg)
             for j, length in enumerate(rows)
             for i in range(length)
             for leg in [sum(1 for above in rows[j + 1:] if above > i)]
             if length - i + leg == n),
            None,
        )
        if hook is None:
            return Partition(r for r in rows if r)
        i, j, leg = hook
        rows[j:j + leg + 1] = [above - 1 for above in rows[j + 1:j + leg + 1]] + [i]
