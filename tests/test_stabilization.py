import pytest

from eqhilb import (
    Box,
    GroupParams,
    Partition,
    PreconditionError,
    UnbalancedPartitionError,
    betti_statistic,
    color,
    diagonal,
    enumerate_balanced,
    make_split,
    phi,
    psi,
    psi_inverse,
    verify_period,
)
from oracles import psi_inverse_by_search


def representable(k, rab, a, b):
    """Whether k - rab is a nonnegative combination of a and b."""
    d = k - rab
    if d < 0:
        return False
    return any((d - a * u) >= 0 and (d - a * u) % b == 0 for u in range(d // a + 1))


def test_diagonal_values():
    assert diagonal(GroupParams(1, 1, 2), 1) == (Box(0, 1), Box(1, 0))
    assert diagonal(GroupParams(2, 3, 5), 12) == (Box(0, 4), Box(3, 2), Box(6, 0))
    assert diagonal(GroupParams(2, 3, 5), 1) == ()


def test_diagonal_rejects_mixed_signs():
    with pytest.raises(PreconditionError):
        diagonal(GroupParams(1, -1, 3), 2)


def test_make_split_examples():
    g = GroupParams(1, 1, 2)
    assert make_split(g, 1, Partition((2,))).anchor == Box(0, 1)
    assert make_split(g, 1, Partition((1, 1))).anchor == Box(1, 0)
    ctx = make_split(GroupParams(1, 1, 5), 0, Partition())
    assert ctx.anchor == Box(0, 0)
    assert not ctx.in_region_a(Box(0, 0)) and not ctx.in_region_b(Box(0, 0))


def test_make_split_distinct_errors():
    with pytest.raises(PreconditionError, match="equal sign"):
        make_split(GroupParams(1, -1, 5), 1, Partition((5,)))
    with pytest.raises(PreconditionError, match="n > r"):
        make_split(GroupParams(1, 1, 2), 2, Partition((3, 1)))
    with pytest.raises(UnbalancedPartitionError):
        make_split(GroupParams(1, 1, 3), 1, Partition((2, 1)))


def test_negated_weights_are_normalized():
    assert psi(GroupParams(-1, -1, 2), 1, Partition((2,))) == Partition((3,))


def test_phi_examples():
    g = GroupParams(1, 1, 2)
    assert phi(make_split(g, 1, Partition((2,))), Box(1, 0)) == Box(0, 0)
    assert phi(make_split(g, 1, Partition((1, 1))), Box(0, 1)) == Box(0, 0)
    with pytest.raises(PreconditionError):
        phi(make_split(g, 1, Partition((2,))), Box(0, 1))


def test_class_splits_and_phi_bijections():
    """Per color class k in [rab, n-1] with k - rab representable: the split
    covers the class, satisfies the closure conditions, and shifts
    bijectively onto class k - ab."""
    cases = [(1, 1, 4, 1), (1, 1, 4, 2), (1, 2, 4, 1), (2, 3, 8, 1), (1, 2, 7, 2)]
    for a, b, n, r in cases:
        g = GroupParams(a, b, n)
        rab = r * a * b
        if n <= rab:
            continue
        for lam in enumerate_balanced(g, r):
            ctx = make_split(g, r, lam)
            for k in range(rab, n):
                if not representable(k, rab, a, b):
                    continue
                a_side, b_side = ctx.split_of_class(k)
                s_k = [box for box in lam.boxes() if color(g, box) == k]
                assert sorted(a_side + b_side) == sorted(s_k)
                for i, j in a_side:
                    assert i < b or Box(i - b, j + a) in a_side
                for i, j in b_side:
                    assert j < a or Box(i + b, j - a) in b_side
                image = [phi(ctx, box) for box in a_side + b_side]
                target = [box for box in lam.boxes() if color(g, box) == (k - a * b) % n]
                assert len(set(image)) == len(image)
                assert sorted(image) == sorted(target)


def test_split_is_anchor_independent():
    cases = [(1, 1, 4, 2), (1, 2, 5, 1), (2, 3, 8, 1)]
    for a, b, n, r in cases:
        g = GroupParams(a, b, n)
        rab = r * a * b
        for lam in enumerate_balanced(g, r):
            anchors = [pt for pt in diagonal(g, rab) if pt not in lam]
            contexts = [make_split(g, r, lam, anchor=pt) for pt in anchors]
            for k in range(rab, n):
                if not representable(k, rab, a, b):
                    continue
                splits = {ctx.split_of_class(k) for ctx in contexts}
                assert len(splits) == 1, (g, r, lam, k)


def test_psi_examples():
    g = GroupParams(1, 1, 2)
    assert psi(g, 1, Partition((2,))) == Partition((3,))
    assert psi(g, 1, Partition((1, 1))) == Partition((1, 1, 1))
    assert psi(GroupParams(1, 1, 7), 0, Partition()) == Partition()
    g3 = GroupParams(1, 1, 3)
    assert psi(g3, 2, Partition((4, 2))) == Partition((5, 3))
    assert psi(g3, 2, Partition((4, 1, 1))) == Partition((5, 1, 1, 1))


def test_psi_is_betti_preserving_bijection():
    cases = [(1, 1, 3, 2), (1, 2, 5, 1), (1, 2, 3, 1), (2, 3, 7, 1)]
    for a, b, n, r in cases:
        g = GroupParams(a, b, n)
        big = GroupParams(a, b, n + a * b)
        source = enumerate_balanced(g, r)
        images = [psi(g, r, lam) for lam in source]
        assert len(set(images)) == len(images)
        assert sorted(images) == list(enumerate_balanced(big, r))
        for lam, mu in zip(source, images):
            assert mu.size == r * big.n
            assert betti_statistic(g, lam) == betti_statistic(big, mu)


def test_psi_worked_family_2_3_13():
    """The (2,3;13) -> (2,3;19) instance, exercised on the whole family."""
    g = GroupParams(2, 3, 13)
    big = GroupParams(2, 3, 19)
    source = enumerate_balanced(g, 2)
    assert source  # the family is nonempty
    images = []
    for lam in source:
        mu = psi(g, 2, lam)
        assert mu.size == 38
        assert betti_statistic(g, lam) == betti_statistic(big, mu)
        assert psi_inverse(g, 2, mu) == psi_inverse_by_search(g, 2, mu) == lam
        images.append(mu)
    assert len(set(images)) == len(images)
    assert sorted(images) == list(enumerate_balanced(big, 2))


def test_psi_inverse_examples():
    g = GroupParams(1, 1, 2)
    for mu, lam in [((3,), (2,)), ((1, 1, 1), (1, 1))]:
        mu, lam = Partition(mu), Partition(lam)
        assert psi_inverse(g, 1, mu) == psi_inverse_by_search(g, 1, mu) == lam


def test_psi_inverse_roundtrip_family():
    g = GroupParams(1, 2, 5)
    for lam in enumerate_balanced(g, 2):
        mu = psi(g, 2, lam)
        assert psi_inverse(g, 2, mu) == lam
        assert psi_inverse_by_search(g, 2, mu) == lam


def test_psi_inverse_rejects_bad_input():
    g = GroupParams(1, 1, 2)
    with pytest.raises(UnbalancedPartitionError):
        psi_inverse(g, 1, Partition((2, 1)))
    with pytest.raises(PreconditionError):
        psi_inverse(GroupParams(1, 1, 1), 1, Partition((2,)))


def test_verify_period_reports():
    rep = verify_period(GroupParams(1, 1, 2), 2, 3, 8)
    assert rep["all_equal"] and rep["all_bijections_ok"]
    assert [c["n"] for c in rep["checks"]] == list(range(3, 9))

    rep = verify_period(GroupParams(1, 2, 3), 1, 3, 12)
    assert rep["period"] == 2
    assert rep["all_equal"] and rep["all_bijections_ok"]

    rep = verify_period(GroupParams(1, 1, 2), 1, 2, 8)
    assert rep["all_equal"] and rep["all_bijections_ok"]
    assert rep["skipped_below_threshold"] == []


def test_verify_period_skips_below_threshold():
    rep = verify_period(GroupParams(1, 1, 2), 2, 1, 4)
    assert rep["skipped_below_threshold"] == [1, 2]
    assert [c["n"] for c in rep["checks"]] == [3, 4]
