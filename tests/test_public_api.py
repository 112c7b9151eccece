"""The public surface of the package, pinned so that it grows only on purpose."""

import eqhilb

PUBLIC = [
    "Abacus", "AmbiguousQuotientError", "Arrow", "Box", "EnumerationLimitError",
    "EqhilbError", "GroupParams", "InsufficientSamplesError",
    "InvariantViolationError", "LPolynomial", "MultiPartition", "NotNCoreError",
    "Partition", "PreconditionError", "Quasipolynomial", "UnbalancedPartitionError",
    "betti_statistic", "check_rectangle_bijection", "color", "diagram",
    "distinguished_arrows", "enumerate_balanced", "fit_quasipolynomial",
    "from_core_quotient", "has_empty_core", "hj_expand",
    "invariant_arrows", "is_balanced", "l_class", "multipartition_count",
    "normalize_group", "partitions_of", "psi", "psi_inverse", "rectangle_map",
    "runners", "satisfies_star", "to_abacus", "verify_period",
    "verify_quasipolynomial",
]


def test_all_is_the_pinned_list_and_resolves():
    assert len(PUBLIC) == 40
    assert sorted(eqhilb.__all__) == PUBLIC
    for name in eqhilb.__all__:
        getattr(eqhilb, name)
