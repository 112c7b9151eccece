"""Balanced-partition combinatorics for equivariant Hilbert schemes of the plane.

The package computes Betti numbers, Poincare polynomials, Euler
characteristics and motivic classes of the equivariant Hilbert schemes
attached to cyclic subgroups of GL2, entirely through the combinatorics
of colored Young diagrams, and mechanically verifies the periodicity
and quasipolynomiality of these invariants in the group order at desk
scale.

The public names are exported lazily (PEP 562): ``import eqhilb`` loads
no submodule, and the first access to a name, ``eqhilb.psi`` or ``from
eqhilb import psi``, imports the submodule that ``_EXPORTS`` names for it
and keeps the name in this module, so later accesses are plain lookups.
A CLI call, which starts a new interpreter, then loads only the modules
its command uses (``eqhilb.cli`` explains which).
"""

import importlib

#: each public name and the submodule that defines it
_EXPORTS = {
    "Abacus": "abacus",
    "AmbiguousQuotientError": "errors",
    "Arrow": "tangent",
    "Box": "partitions",
    "EnumerationLimitError": "errors",
    "EqhilbError": "errors",
    "GroupParams": "coloring",
    "InsufficientSamplesError": "errors",
    "InvariantViolationError": "errors",
    "LPolynomial": "coloring",
    "MultiPartition": "abacus",
    "NotNCoreError": "errors",
    "Partition": "partitions",
    "PreconditionError": "errors",
    "Quasipolynomial": "analysis",
    "UnbalancedPartitionError": "errors",
    "betti_statistic": "tangent",
    "check_rectangle_bijection": "analysis",
    "color": "coloring",
    "diagram": "partitions",
    "distinguished_arrows": "tangent",
    "enumerate_balanced": "coloring",
    "fit_quasipolynomial": "analysis",
    "from_core_quotient": "abacus",
    "has_empty_core": "abacus",
    "hj_expand": "analysis",
    "invariant_arrows": "tangent",
    "is_balanced": "coloring",
    "l_class": "coloring",
    "multipartition_count": "analysis",
    "normalize_group": "analysis",
    "partitions_of": "partitions",
    "psi": "stabilization",
    "psi_inverse": "stabilization",
    "rectangle_map": "analysis",
    "runners": "abacus",
    "satisfies_star": "analysis",
    "to_abacus": "abacus",
    "verify_period": "stabilization",
    "verify_quasipolynomial": "analysis",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
