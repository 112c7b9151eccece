import pytest

from eqhilb import Box, Partition, diagram, partitions_of

from oracles import col_height


def test_boxes_empty():
    assert list(Partition().boxes()) == []


def test_boxes_order_21():
    assert list(Partition((2, 1)).boxes()) == [Box(0, 0), Box(1, 0), Box(0, 1)]


def test_boxes_count_432():
    assert len(list(Partition((4, 3, 2)).boxes())) == 9


def test_row_len():
    lam = Partition((4, 3, 2))
    assert lam.row_len(0) == 4
    assert lam.row_len(5) == 0
    assert Partition((4, 2, 2, 1)).row_len(2) == 2


def test_col_height():
    lam = Partition((4, 3, 2))
    assert col_height(lam, 0) == 3
    # direct count on the diagram: only row 0 reaches column 3
    assert col_height(lam, 3) == 1
    assert col_height(Partition(), 0) == 0


def test_col_height_matches_conjugate_row():
    lam = Partition((5, 3, 3, 1))
    conj = lam.conjugate()
    for i in range(7):
        assert col_height(lam, i) == conj.row_len(i)


def test_conjugate_values():
    assert Partition((4, 3, 2)).conjugate() == Partition((3, 3, 2, 1))
    assert Partition().conjugate() == Partition()
    assert Partition((1, 1, 1)).conjugate() == Partition((3,))


def test_conjugate_transposes_membership():
    lam = Partition((4, 2, 1))
    conj = lam.conjugate()
    for i in range(6):
        for j in range(6):
            assert ((i, j) in conj) == ((j, i) in lam)


def test_validation():
    with pytest.raises(ValueError, match=r"^row lengths must be positive integers, got 0$"):
        Partition((0, 3))
    with pytest.raises(ValueError, match=r"^rows must be weakly decreasing, got \(1, 2\)$"):
        Partition((1, 2))
    with pytest.raises(ValueError, match=r"^row lengths must be positive integers, got 0$"):
        Partition((2, 0))
    with pytest.raises(ValueError, match=r"^row lengths must be positive integers, got 2\.5$"):
        Partition((2.5, 1))
    with pytest.raises(ValueError, match="^row index must be nonnegative$"):
        Partition((2, 1)).row_len(-1)
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        next(partitions_of(-1))


def test_membership_via_profiles():
    lam = Partition((4, 2, 2, 1))
    for i in range(6):
        for j in range(6):
            inside = (i, j) in lam
            assert inside == (i < lam.row_len(j))
            assert inside == (j < col_height(lam, i))


def test_row_sums_match_column_sums():
    lam = Partition((6, 4, 4, 1))
    assert sum(lam.rows) == lam.size
    assert sum(col_height(lam, i) for i in range(lam.rows[0])) == lam.size


def test_ordering_by_size_then_lex():
    a, b, c = Partition((1, 1, 1)), Partition((2, 1)), Partition((3,))
    assert a < b < c
    assert sorted([c, a, b]) == [a, b, c]
    assert Partition((3,)) < Partition((1, 1, 1, 1))
    with pytest.raises(TypeError):
        Partition((1,)) < (1,)


def test_text_forms():
    assert str(Partition((4, 3, 2))) == "4,3,2"
    assert str(Partition()) == "∅"
    assert repr(Partition((4, 3, 2))) == "Partition((4, 3, 2))"
    assert Partition.parse("4,3,2") == Partition((4, 3, 2))
    assert Partition.parse("") == Partition()
    assert Partition.parse("∅") == Partition()
    for rows in [(), (1,), (5, 2, 2)]:
        lam = Partition(rows)
        assert Partition.parse(str(lam)) == lam


def test_diagram_bottom_row_first_row():
    # row j = 0 (the longest) is printed last, i.e. at the bottom
    assert diagram(Partition((2, 1))) == "#\n##"
    assert diagram(Partition()) == "∅"


def test_partitions_of_counts():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for m, count in enumerate(expected):
        assert sum(1 for _ in partitions_of(m)) == count


def test_partitions_of_valid_and_distinct():
    seen = set(partitions_of(9))
    assert len(seen) == 30
    assert all(p.size == 9 for p in seen)


def test_conjugate_involution_small_exhaustive():
    for m in range(13):
        for lam in partitions_of(m):
            assert lam.conjugate().conjugate() == lam
