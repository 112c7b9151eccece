"""Brute-force references that the fast paths of the package are tested against."""

from eqhilb import enumerate_balanced, psi


def psi_inverse_by_search(g, r, mu):
    """Preimage of ``mu`` under the insertion step, found by applying the
    insertion to every balanced diagram at order ``n``; None if there is none."""
    return next((lam for lam in enumerate_balanced(g, r) if psi(g, r, lam) == mu), None)
