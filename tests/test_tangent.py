import pytest

from eqhilb import (
    Box,
    EnumerationLimitError,
    GroupParams,
    LPolynomial,
    Partition,
    UnbalancedPartitionError,
    betti_statistic,
    cotangent_weights,
    distinguished_arrows,
    enumerate_balanced,
    invariant_arrows,
    is_lex_positive,
    l_class,
    multipartition_count,
)


def numeric_cell_dimension(g, lam, q=1):
    """Independent route to the statistic: count cotangent weights that are
    positive against a concrete direction (p, q) with p > q*max|w2|."""
    weights = cotangent_weights(g, lam)
    p = q * max((abs(w2) for _, w2 in weights), default=0) + 1
    return sum(1 for w1, w2 in weights if p * w1 + q * w2 > 0)


def test_distinguished_arrows_empty():
    assert distinguished_arrows(Partition()) == ()


def test_distinguished_arrows_single_box():
    arrows = distinguished_arrows(Partition((1,)))
    assert [(a.kind, a.weight) for a in arrows] == [("D", (1, 0)), ("U", (0, 1))]
    assert arrows[0].tail == Box(1, 0) and arrows[0].head == Box(0, 0)
    assert arrows[1].tail == Box(0, 1) and arrows[1].head == Box(0, 0)


def test_two_arrows_per_box():
    lam = Partition((2, 1))
    assert len(distinguished_arrows(lam)) == 6


def test_arrow_shape_invariants():
    for rows in [(3,), (2, 2), (4, 2, 1), (1, 1, 1, 1)]:
        lam = Partition(rows)
        for ar in distinguished_arrows(lam):
            assert ar.tail not in lam
            assert ar.head in lam
            w1, w2 = ar.weight
            assert (w1, w2) == (ar.tail.i - ar.head.i, ar.tail.j - ar.head.j)
            if ar.kind == "D":
                assert w1 >= 1
            else:
                assert w1 <= 0 and w2 >= 1


def test_invariant_arrows_21():
    g = GroupParams(1, -1, 3)
    got = [(a.kind, tuple(a.box), a.weight) for a in invariant_arrows(g, Partition((2, 1)))]
    assert got == [("D", (0, 0), (2, -1)), ("U", (0, 0), (-1, 2))]


def test_invariant_arrows_row3():
    g = GroupParams(1, -1, 3)
    got = invariant_arrows(g, Partition((3,)))
    assert [tuple(a.box) for a in got] == [(0, 0), (0, 0)]
    assert {a.kind for a in got} == {"D", "U"}


def test_all_arrows_invariant_when_n_is_one():
    g = GroupParams(1, 1, 1)
    lam = Partition((3, 1))
    assert len(invariant_arrows(g, lam)) == 2 * lam.size


def test_betti_values():
    g1 = GroupParams(1, 1, 1)
    assert betti_statistic(g1, Partition((1,))) == 2
    assert betti_statistic(g1, Partition((2,))) == 3
    assert betti_statistic(g1, Partition((1, 1))) == 4
    g = GroupParams(1, -1, 3)
    assert betti_statistic(g, Partition((3,))) == 1
    assert betti_statistic(g, Partition((2, 1))) == 1
    assert betti_statistic(g, Partition((1, 1, 1))) == 2


def test_betti_requires_balanced():
    with pytest.raises(UnbalancedPartitionError):
        betti_statistic(GroupParams(1, -1, 3), Partition((7, 2)))


def test_betti_equals_lex_positive_count():
    for a, b, n in [(1, 1, 3), (1, -1, 4), (1, 2, 5), (2, -3, 5)]:
        g = GroupParams(a, b, n)
        for r in range(3):
            for lam in enumerate_balanced(g, r):
                lex = sum(1 for w in cotangent_weights(g, lam) if is_lex_positive(w))
                assert betti_statistic(g, lam) == lex
                assert betti_statistic(g, lam) == numeric_cell_dimension(g, lam)
                assert betti_statistic(g, lam) == numeric_cell_dimension(g, lam, q=3)


def test_exactly_2r_invariant_arrows():
    for a, b, n in [(1, 1, 4), (2, 3, 7), (1, -2, 5)]:
        g = GroupParams(a, b, n)
        for r in range(4):
            for lam in enumerate_balanced(g, r):
                assert len(invariant_arrows(g, lam)) == 2 * r


def test_cotangent_weights_values():
    assert cotangent_weights(GroupParams(1, 1, 1), Partition((1,))) == ((0, 1), (1, 0))
    assert cotangent_weights(GroupParams(1, -1, 3), Partition((2, 1))) == (
        (-1, 2),
        (2, -1),
    )


def test_betti_bounds_and_top_cell():
    for a, b, n in [(1, 1, 3), (1, 2, 5), (1, -1, 4)]:
        g = GroupParams(a, b, n)
        for r in range(1, 4):
            betas = [betti_statistic(g, lam) for lam in enumerate_balanced(g, r)]
            assert all(0 <= beta <= 2 * r for beta in betas)
            # the family is connected of dimension 2r: a unique top cell
            assert betas.count(2 * r) == 1


def test_l_class_values():
    assert l_class(GroupParams(1, -1, 3), 1) == LPolynomial([0, 2, 1])
    assert l_class(GroupParams(1, 1, 4), 0) == LPolynomial([1])
    assert l_class(GroupParams(1, -1, 2), 2).euler() == 5


def test_l_class_ceiling_checked_when_memoised(monkeypatch):
    g = GroupParams(1, -1, 4)
    assert l_class(g, 2).euler() == multipartition_count(4, 2)
    with pytest.raises(EnumerationLimitError):
        l_class(g, 2, max_boxes=7)
    monkeypatch.setenv("EQHILB_MAX_BOXES", "7")
    with pytest.raises(EnumerationLimitError):
        l_class(g, 2)
    assert l_class(g, 2, max_boxes=8).euler() == multipartition_count(4, 2)


def test_l_class_euler_counts_family():
    for a, b, n in [(1, 1, 3), (1, -2, 5), (2, 3, 4)]:
        g = GroupParams(a, b, n)
        for r in range(4):
            assert l_class(g, r).euler() == len(enumerate_balanced(g, r))


def test_euler_generating_function_at_n_one():
    # for the trivial group the Euler characteristic is the partition number
    g = GroupParams(1, 1, 1)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for r, p_r in enumerate(expected):
        assert l_class(g, r).euler() == p_r
        assert multipartition_count(1, r) == p_r


def test_lpolynomial_api():
    lp = LPolynomial([0, 2, 1])
    assert lp.coeff(1) == 2 and lp.coeff(5) == 0
    assert lp.euler() == 3
    assert lp.degree() == 2
    assert str(lp) == "L^2 + 2L"
    assert lp.poincare_str() == "z^4 + 2z^2"
    assert lp.betti_numbers(4) == (0, 0, 2, 0, 1)
    assert LPolynomial().poincare_str() == "0"
    assert LPolynomial([1]).poincare_str() == "1"
    assert LPolynomial.from_json(lp.to_json()) == lp
    assert LPolynomial([3, 0, 0]) == LPolynomial([3])
    with pytest.raises(ValueError):
        LPolynomial([-1])
