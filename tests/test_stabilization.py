import itertools
import math
import re

import pytest

from eqhilb import (
    Box,
    EnumerationLimitError,
    GroupParams,
    InvariantViolationError,
    Partition,
    PreconditionError,
    UnbalancedPartitionError,
    betti_statistic,
    color,
    enumerate_balanced,
    psi,
    psi_inverse,
    verify_period,
)
from eqhilb import stabilization
from eqhilb.stabilization import _anchor, _reassemble
from oracles import (diagonal, phi, psi_by_boxes, psi_inverse_by_boxes, psi_inverse_by_search,
                     reassemble_by_counts, split_of_class)


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


def test_anchor_examples():
    g = GroupParams(1, 1, 2)
    assert _anchor(g, 1, Partition((2,))) == Box(0, 1)
    assert _anchor(g, 1, Partition((1, 1))) == Box(1, 0)
    g5 = GroupParams(1, 1, 5)
    anchor = _anchor(g5, 0, Partition())
    assert anchor == Box(0, 0)
    with pytest.raises(PreconditionError, match="neither region"):
        phi(g5, anchor, Box(0, 0))


def test_anchor_is_the_first_off_diagram_point_of_its_diagonal():
    """The anchor is the first point, by smallest i, of the brute-force
    diagonal r*a*b outside the diagram, on every balanced member for coprime
    a, b in 1..4, n <= 16 and r*n <= 16.  At n <= r*a*b only the pigeonhole
    on the color r*a*b mod n guarantees that such a point exists."""
    members = below = 0
    for a in range(1, 5):
        for b in range(1, 5):
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, 17):
                g = GroupParams(a, b, n)
                for r in range(16 // n + 1):
                    rab = r * a * b
                    for lam in enumerate_balanced(g, r):
                        first = next(pt for pt in diagonal(g, rab) if pt not in lam)
                        assert _anchor(g, r, lam) == first, (g, r, lam)
                        members += 1
                        below += n <= rab
    assert (members, below) == (15_263, 14_433)


def test_psi_distinct_errors():
    with pytest.raises(PreconditionError, match="equal sign"):
        psi(GroupParams(1, -1, 5), 1, Partition((5,)))
    with pytest.raises(PreconditionError, match="n > r"):
        psi(GroupParams(1, 1, 2), 2, Partition((3, 1)))
    with pytest.raises(UnbalancedPartitionError):
        psi(GroupParams(1, 1, 3), 1, Partition((2, 1)))
    with pytest.raises(UnbalancedPartitionError, match="multiplicity 1"):
        psi(GroupParams(1, 1, 3), 1, Partition((3, 3)))  # balanced, r = 2
    for step in (psi, psi_inverse):
        with pytest.raises(PreconditionError, match="^multiplicity must be nonnegative, got -1$"):
            step(GroupParams(1, 1, 3), -1, Partition())


def test_negated_weights_are_normalized():
    assert psi(GroupParams(-1, -1, 2), 1, Partition((2,))) == Partition((3,))


def test_phi_examples():
    g = GroupParams(1, 1, 2)
    assert phi(g, _anchor(g, 1, Partition((2,))), Box(1, 0)) == Box(0, 0)
    assert phi(g, _anchor(g, 1, Partition((1, 1))), Box(0, 1)) == Box(0, 0)
    with pytest.raises(PreconditionError):
        phi(g, _anchor(g, 1, Partition((2,))), Box(0, 1))


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
            anchor = _anchor(g, r, lam)
            for k in range(rab, n):
                if not representable(k, rab, a, b):
                    continue
                a_side, b_side = split_of_class(g, lam, anchor, k)
                s_k = [box for box in lam.boxes() if color(g, box) == k]
                assert sorted(a_side + b_side) == sorted(s_k)
                for i, j in a_side:
                    assert i < b or Box(i - b, j + a) in a_side
                for i, j in b_side:
                    assert j < a or Box(i + b, j - a) in b_side
                image = [phi(g, anchor, box) for box in a_side + b_side]
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
            for k in range(rab, n):
                if not representable(k, rab, a, b):
                    continue
                splits = {split_of_class(g, lam, pt, k) for pt in anchors}
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


def test_row_walks_match_box_by_box_oracles():
    """psi and psi_inverse walk the colors along each row; the per-box loops
    give the same diagrams on every member of each equal-sign family with
    a, b <= 4, n <= 16, r*n <= 24 and n > r*a*b, negated weights included."""
    members = 0
    for a in range(1, 5):
        for b in range(1, 5):
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, 17):
                for r in range(24 // n + 1):
                    if n <= r * a * b:
                        continue
                    for sign in (1, -1):
                        g = GroupParams(sign * a, sign * b, n)
                        for lam in enumerate_balanced(g, r):
                            mu = psi(g, r, lam)
                            assert mu == psi_by_boxes(g, r, lam), (g, r, lam)
                            assert psi_inverse(g, r, mu) == lam, (g, r, mu)
                            assert psi_inverse_by_boxes(g, r, mu) == lam, (g, r, mu)
                            members += 1
    assert members == 3480


def test_reassemble_refuses_a_non_monotone_profile():
    """Rows below the anchor that a longer row above follows, or that end
    in a 0 under a nonempty row, are reported, not repaired."""
    for rows, heights, j0, profile in (([1], [3, 3], 1, "[1, 2, 2]"),
                                       ([2, 0], [3], 2, "[2, 0, 1]")):
        message = f"^the regions reassemble to a non-monotone profile: {re.escape(profile)}$"
        with pytest.raises(InvariantViolationError, match=message):
            _reassemble(rows, heights, j0)


def _reassembled(reassemble, rows, heights, j0):
    try:
        return reassemble(list(rows), list(heights), j0)
    except InvariantViolationError as exc:
        return str(exc)


def test_reassemble_matches_the_row_by_row_count():
    """Every profile of up to three rows of length 0..4 below the anchor and
    up to three column heights 0..5, in every order, reassembles as the
    row-by-row count of the heights above each row does, refusals included."""
    for j0 in range(4):
        for rows in itertools.product(range(5), repeat=j0):
            for width in range(4):
                for heights in itertools.product(range(6), repeat=width):
                    args = rows, heights, j0
                    assert (_reassembled(_reassemble, *args)
                            == _reassembled(reassemble_by_counts, *args)), args


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
    with pytest.raises(UnbalancedPartitionError, match="multiplicity 1"):
        psi_inverse(g, 1, Partition((3, 3)))  # balanced at order 3, r = 2
    with pytest.raises(PreconditionError):
        psi_inverse(GroupParams(1, 1, 1), 1, Partition((2,)))
    with pytest.raises(PreconditionError, match=r"^requires n > r\*a\*b, got n=1 <= 1$"):
        psi_inverse(GroupParams(1, 1, 1), 1, Partition((3,)))  # names the smaller order


def _shift_wrong_when(monkeypatch, wrong_sign, wrong):
    """Patch the insertion's ``_shift`` to return ``wrong`` in one direction."""
    shift = stabilization._shift
    monkeypatch.setattr(stabilization, "_shift", lambda g, r, lam, sign: (
        wrong if sign == wrong_sign else shift(g, r, lam, sign)))


def test_psi_inverse_reports_an_unbalanced_preimage(monkeypatch):
    # the preimage is the inverse's own result, so the caller is not blamed
    _shift_wrong_when(monkeypatch, -1, Partition((2, 1)))
    with pytest.raises(InvariantViolationError, match="^inverse output 2,1 is not balanced"):
        psi_inverse(GroupParams(1, 1, 2), 1, Partition((3,)))


def test_psi_inverse_reports_a_preimage_that_does_not_map_back(monkeypatch):
    # (1,1) is balanced at order 2, but the insertion takes it to (1,1,1)
    _shift_wrong_when(monkeypatch, -1, Partition((1, 1)))
    with pytest.raises(InvariantViolationError, match="^inverse 1,1 of 3 does not map back"):
        psi_inverse(GroupParams(1, 1, 2), 1, Partition((3,)))


def test_psi_reports_an_unbalanced_output(monkeypatch):
    _shift_wrong_when(monkeypatch, 1, Partition((2, 1)))
    with pytest.raises(InvariantViolationError, match="^insertion output 2,1 is not balanced"):
        psi(GroupParams(1, 1, 2), 1, Partition((2,)))


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


def test_verify_period_reports_an_image_outside_the_family(monkeypatch):
    """An insertion that leaves the family is reported, not raised: the
    image has no statistic, so neither check passes."""
    monkeypatch.setattr(stabilization, "_shift", lambda g, r, lam, sign: Partition((2, 1)))
    rep = verify_period(GroupParams(1, 1, 2), 1, 2, 2)
    (check,) = rep["checks"]
    assert check["equal"]
    assert not check["bijection"]["image_matches"]
    assert not check["bijection"]["betti_preserved"]
    assert {pair["image"] for pair in check["bijection"]["pairs"]} == {"2,1"}
    assert all(pair["betti_image"] is None for pair in check["bijection"]["pairs"])
    assert not rep["all_bijections_ok"]


def test_verify_period_skips_below_threshold():
    rep = verify_period(GroupParams(1, 1, 2), 2, 1, 4)
    assert rep["skipped_below_threshold"] == [1, 2]
    assert [c["n"] for c in rep["checks"]] == [3, 4]


def test_verify_period_rejects_orders_below_one():
    # orders below 1 name no group; they are refused, not reported as skipped
    for n_from in (0, -3):
        with pytest.raises(PreconditionError, match="n_from"):
            verify_period(GroupParams(1, 1, 2), 1, n_from, 4)


def test_verify_period_refuses_ranges_with_nothing_to_check():
    # every order at or below r*a*b, an order range ending at the threshold,
    # and a reversed range: no check would run, so none passes vacuously
    for (a, b), r, n_from, n_to in (((1, 2), 3, 1, 5), ((1, 1), 2, 1, 2), ((1, 2), 1, 5, 2)):
        with pytest.raises(PreconditionError, match=r"exceeds r\*a\*b"):
            verify_period(GroupParams(a, b, n_from), r, n_from, n_to)
    # one order above the threshold is enough
    rep = verify_period(GroupParams(1, 1, 2), 2, 1, 3)
    assert rep["skipped_below_threshold"] == [1, 2]
    assert [c["n"] for c in rep["checks"]] == [3]


def test_verify_period_refuses_non_int_orders_and_multiplicity():
    """A float, str or bool order or multiplicity is refused by name before any
    comparison, not left to end in a TypeError inside range()."""
    g = GroupParams(1, 1, 3)
    for args, message in (((1, 3.0, 6), r"^n_from must be an int, got 3\.0$"),
                          ((1, 3, 6.5), r"^n_to must be an int, got 6\.5$"),
                          ((1, "3", 6), r"^n_from must be an int, got '3'$"),
                          ((1, 3, True), r"^n_to must be an int, got True$"),
                          ((1.5, 3, 6), r"^multiplicity must be an int, got 1\.5$")):
        with pytest.raises(PreconditionError, match=message):
            verify_period(g, *args)


def test_verify_period_refuses_r0_range_longer_than_ceiling(monkeypatch):
    # every r = 0 family is {empty}: the ceiling bounds the orders of the range
    monkeypatch.setenv("EQHILB_MAX_BOXES", "6")
    rep = verify_period(GroupParams(1, 2, 3), 0, 3, 8)
    assert [c["n"] for c in rep["checks"]] == [3, 4, 5, 6, 7, 8] and rep["all_equal"]
    with pytest.raises(EnumerationLimitError, match="a range of 7 orders with r = 0 exceeds "
                                                    "the ceiling of 6"):
        verify_period(GroupParams(1, 2, 3), 0, 3, 9)
