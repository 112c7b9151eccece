"""Brute-force references that the fast paths of the package are tested against."""

from eqhilb import enumerate_balanced, is_balanced, partitions_of, psi


def brute_force_balanced(g, r):
    """Filter all partitions of r*n by the balance test."""
    return tuple(
        sorted(lam for lam in partitions_of(r * g.n) if is_balanced(g, lam) == (True, r))
    )


def psi_inverse_by_search(g, r, mu):
    """Preimage of ``mu`` under the insertion step, found by applying the
    insertion to every balanced diagram at order ``n``; None if there is none."""
    return next((lam for lam in enumerate_balanced(g, r) if psi(g, r, lam) == mu), None)
