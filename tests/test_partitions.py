import pytest

from eqhilb import (Box, GroupParams, Partition, PreconditionError, diagram, enumerate_balanced,
                    from_core_quotient, partitions_of, runners)

from oracles import col_height, partitions_by_recursion


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
    with pytest.raises(ValueError, match=r"^row lengths must be positive integers, got 2\.0$"):
        Partition((2.0, True))
    with pytest.raises(ValueError, match=r"^row lengths must be positive integers, got True$"):
        Partition((2, True))
    with pytest.raises(ValueError, match="^row index must be nonnegative$"):
        Partition((2, 1)).row_len(-1)
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        next(partitions_of(-1))


def test_partitions_of_refuses_non_int_sizes():
    for m in (2.5, True, "2"):
        with pytest.raises(PreconditionError, match=f"^m must be an int, got {m!r}$"):
            next(partitions_of(m))


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
    """p(m) for m <= 40 (p(40) = 37,338) from Euler's pentagonal recurrence:
    p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    p = [1]
    for m in range(1, 41):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    assert p[40] == 37338
    for m, count in enumerate(p):
        assert sum(1 for _ in partitions_of(m)) == count, m


def test_partitions_of_matches_the_recursive_order():
    """The loop over one row list gives the rows of the recursive generator
    in the same order: descending lexicographically."""
    for m in range(26):
        assert [lam.rows for lam in partitions_of(m)] == list(partitions_by_recursion(m)), m


def test_partitions_of_zero_is_the_empty_partition():
    assert list(partitions_of(0)) == [Partition()]


def test_partitions_of_valid_and_distinct():
    seen = set(partitions_of(9))
    assert len(seen) == 30
    assert all(p.size == 9 for p in seen)


def test_conjugate_involution_small_exhaustive():
    for m in range(13):
        for lam in partitions_of(m):
            assert lam.conjugate().conjugate() == lam


def test_partition_holds_its_rows_and_size_only():
    """Two slots and no ``__dict__``: a per-member cache would be a change
    to this line, made on purpose."""
    assert Partition.__slots__ == ("rows", "size")
    for lam in (Partition((3, 1)), Partition._of((3, 1)), next(partitions_of(4))):
        assert not hasattr(lam, "__dict__")
        with pytest.raises(AttributeError):
            lam.extra = 1


def test_partitions_from_every_path_are_interchangeable_keys():
    """Equal rows give equal hashes, equal to ``hash(rows)``, and one dict or
    set key on every path that builds a partition: the constructor,
    ``_of``, ``parse``, ``partitions_of``, family members (stretched ones
    included), the parts and core of ``runners`` and ``from_core_quotient``."""
    made = []
    for m in range(9):
        made += enumerate_balanced(GroupParams(1, 1, 1), m)
        if m % 2 == 0:
            # (1, 2; 2) stretches the members of its normal form two boxes wide
            made += enumerate_balanced(GroupParams(1, 2, 2), m // 2)
        for lam in partitions_of(m):
            made += [lam, Partition(lam.rows), Partition._of(lam.rows), Partition.parse(str(lam))]
            for n in range(1, 5):
                quot, core = runners(lam, n)
                made += [*quot.parts, core, from_core_quotient(core, quot)]
    by_rows = {}
    for lam in made:
        assert type(lam) is Partition and not hasattr(lam, "__dict__"), lam
        by_rows.setdefault(lam.rows, []).append(lam)
    assert len(set(made)) == len(by_rows) == sum(1 for m in range(9) for _ in partitions_of(m))
    for rows, group in by_rows.items():
        table, seen = {group[0]: rows}, {group[-1]}
        for lam in group:
            assert hash(lam) == hash(rows), lam
            assert table[lam] == rows and lam in seen, lam
