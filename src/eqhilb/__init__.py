"""Balanced-partition combinatorics for equivariant Hilbert schemes of the plane.

The package computes Betti numbers, Poincare polynomials, Euler
characteristics and motivic classes of the equivariant Hilbert schemes
attached to cyclic subgroups of GL2, entirely through the combinatorics
of colored Young diagrams, and mechanically verifies the periodicity
and quasipolynomiality of these invariants in the group order at desk
scale.
"""

from .abacus import (
    Abacus,
    MultiPartition,
    from_core_quotient,
    has_empty_core,
    runners,
    to_abacus,
)
from .analysis import (
    Quasipolynomial,
    check_rectangle_bijection,
    fit_quasipolynomial,
    hj_expand,
    multipartition_count,
    normalize_group,
    rectangle_map,
    satisfies_star,
    verify_quasipolynomial,
)
from .coloring import (
    GroupParams,
    LPolynomial,
    color,
    enumerate_balanced,
    is_balanced,
    l_class,
)
from .errors import (
    AmbiguousQuotientError,
    EnumerationLimitError,
    EqhilbError,
    InsufficientSamplesError,
    InvariantViolationError,
    NotNCoreError,
    PreconditionError,
    UnbalancedPartitionError,
)
from .partitions import Box, Partition, diagram, partitions_of
from .stabilization import (
    psi,
    psi_inverse,
    verify_period,
)
from .tangent import (
    Arrow,
    betti_statistic,
    distinguished_arrows,
    invariant_arrows,
)

__all__ = [
    "Abacus",
    "AmbiguousQuotientError",
    "Arrow",
    "Box",
    "EnumerationLimitError",
    "EqhilbError",
    "GroupParams",
    "InsufficientSamplesError",
    "InvariantViolationError",
    "LPolynomial",
    "MultiPartition",
    "NotNCoreError",
    "Partition",
    "PreconditionError",
    "Quasipolynomial",
    "UnbalancedPartitionError",
    "betti_statistic",
    "check_rectangle_bijection",
    "color",
    "diagram",
    "distinguished_arrows",
    "enumerate_balanced",
    "fit_quasipolynomial",
    "from_core_quotient",
    "has_empty_core",
    "hj_expand",
    "invariant_arrows",
    "is_balanced",
    "l_class",
    "multipartition_count",
    "normalize_group",
    "partitions_of",
    "psi",
    "psi_inverse",
    "rectangle_map",
    "runners",
    "satisfies_star",
    "to_abacus",
    "verify_period",
    "verify_quasipolynomial",
]
