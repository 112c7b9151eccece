import re

import pytest

from eqhilb import (
    Abacus,
    AmbiguousQuotientError,
    GroupParams,
    MultiPartition,
    NotNCoreError,
    Partition,
    PreconditionError,
    from_core_quotient,
    has_empty_core,
    is_balanced,
    partitions_of,
    runners,
    to_abacus,
)
from oracles import (
    abacus_canonical,
    abacus_charge,
    core_by_hook_removal,
    from_abacus,
    from_core_quotient_by_redecomposition,
    hook_lengths,
    runners_by_abacus,
)


def test_to_abacus_golden():
    ab = to_abacus(Partition((4, 2, 2, 1)))
    assert "".join(str(x) for x in ab.word) == "01011001"
    assert ab.offset == -4
    assert abacus_charge(ab) == 0
    assert str(ab) == "...11|01011001|00..."


def test_to_abacus_small():
    assert to_abacus(Partition()).word == ()
    assert to_abacus(Partition((1,))).word == (0, 1)


def test_from_abacus_inverts():
    for rows in [(), (1,), (4, 2, 2, 1), (5, 5, 3)]:
        lam = Partition(rows)
        assert from_abacus(to_abacus(lam)) == lam


def test_from_abacus_core_word():
    # the word 001001 starting two positions left of the origin
    assert from_abacus(Abacus((0, 0, 1, 0, 0, 1), -2)) == Partition((4, 2))


def test_from_abacus_translation_class():
    base = to_abacus(Partition((3, 1)))
    shifted = Abacus(base.word, base.offset + 5)
    assert from_abacus(shifted) == Partition((3, 1))


def test_abacus_canonical():
    ab = Abacus((1, 1, 0, 1, 0, 0), -3)
    canon = abacus_canonical(ab)
    assert canon.word == (0, 1)
    assert canon.offset == -1
    assert abacus_charge(canon) == abacus_charge(ab)


def test_runners_golden():
    quot, core = runners(Partition((4, 2, 2, 1)), 3)
    assert quot.parts == (Partition((1,)), Partition(), Partition())
    assert core == Partition((4, 2))
    assert quot.alignment == 2
    # size identity on the golden example
    assert 9 == core.size + 3 * quot.total()


def test_runners_empty():
    quot, core = runners(Partition(), 4)
    assert quot.parts == (Partition(),) * 4
    assert core == Partition()


def test_size_identity_exhaustive():
    for m in range(13):
        for lam in partitions_of(m):
            for n in (2, 3, 5):
                quot, core = runners(lam, n)
                assert lam.size == core.size + n * quot.total()


def test_core_matches_hook_removal_oracle():
    for m in range(15):
        for lam in partitions_of(m):
            for n in range(1, 6):
                assert runners(lam, n)[1] == core_by_hook_removal(lam, n), (lam, n)


def test_runners_match_abacus_oracle():
    """Quotient parts, alignment and core all agree with the runners read
    off the abacus word, on every partition of at most 16 boxes, n <= 8."""
    for m in range(17):
        for lam in partitions_of(m):
            for n in range(1, 9):
                assert runners(lam, n) == runners_by_abacus(lam, n), (lam, n)


def test_core_quotient_roundtrip_exhaustive():
    for m in range(16):
        for lam in partitions_of(m):
            for n in range(1, 6):
                quot, core = runners(lam, n)
                assert from_core_quotient(core, quot) == lam


def test_unvalidated_partitions_match_validated_ones():
    """The quotient parts, cores and preimages the abacus layer builds
    without validation are the validated partitions of their rows."""
    for m in range(15):
        for lam in partitions_of(m):
            for n in range(1, 9):
                quot, core = runners(lam, n)
                assert type(quot) is MultiPartition, (lam, n)
                assert MultiPartition(quot.parts, quot.alignment) == quot, (lam, n)
                for p in (*quot.parts, core, from_core_quotient(core, quot)):
                    assert Partition(p.rows) == p, (lam, n, p)
                    assert p.size == sum(p.rows), (lam, n, p)
                    assert hash(p) == hash(Partition(p.rows)), (lam, n, p)


def test_from_core_quotient_golden():
    quot, core = runners(Partition((4, 2, 2, 1)), 3)
    assert from_core_quotient(core, quot) == Partition((4, 2, 2, 1))
    assert from_core_quotient(Partition(), MultiPartition((Partition(),) * 3, alignment=0)) == Partition()


def test_from_core_quotient_rejects_non_core():
    with pytest.raises(NotNCoreError):
        from_core_quotient(Partition((2, 1)), MultiPartition((Partition(),) * 3, alignment=0))


def test_from_core_quotient_rejects_wrong_alignment():
    # (1,1,1) has 2-core (1) and 2-quotient ((1), {}) at alignment 1; no
    # partition has that pair at alignment 0
    quot, core = runners(Partition((1, 1, 1)), 2)
    assert quot.alignment == 1
    with pytest.raises(PreconditionError, match="with the given alignment"):
        from_core_quotient(core, MultiPartition(quot.parts, alignment=0))


def _outcome(fn, core, quot):
    try:
        return fn(core, quot)
    except Exception as exc:
        return type(exc), str(exc)


def test_from_core_quotient_matches_redecomposition():
    """The closed-form check agrees with rebuilding each candidate and
    decomposing it again, on results and on refusals: every partition of at
    most 10 boxes and n <= 5, against its true core, every partition of the
    core's size, (1) and the empty one, bare and at every alignment."""
    by_size = [tuple(partitions_of(m)) for m in range(11)]
    for family in by_size:
        for lam in family:
            for n in range(1, 6):
                quot, core = runners(lam, n)
                for given in {core, *by_size[core.size], Partition((1,)), Partition()}:
                    for alignment in (None, *range(n)):
                        pair = given, MultiPartition(quot.parts, alignment)
                        assert (_outcome(from_core_quotient, *pair)
                                == _outcome(from_core_quotient_by_redecomposition, *pair)), pair


@pytest.mark.parametrize("parts, alignment, rows", [
    ((Partition(),) * 3, 1, ()),
    ((Partition(),) * 3, 2, ()),
    ((Partition((1,)),) * 2, 1, (2, 2)),
])
def test_from_core_quotient_accepts_quotients_the_rotation_fixes(parts, alignment, rows):
    """The rebuilt partition's runners read the parts rotated when its
    number of parts does not match the alignment; a quotient that rotation
    fixes still reads back as given."""
    quot = MultiPartition(parts, alignment)
    back = from_core_quotient(Partition(), quot)
    assert back == Partition(rows)
    assert (len(back.rows) + alignment) % len(parts) != 0
    assert runners(back, len(parts)) == (MultiPartition(parts, -len(rows) % len(parts)), Partition())


def test_bare_quotient_can_be_ambiguous():
    """Without the recorded alignment the pair does not pin the partition:
    (3), (2,1) and (1,1,1) share an empty 3-core and quotient ((1),{},{})."""
    tuples = set()
    for rows in [(3,), (2, 1), (1, 1, 1)]:
        quot, core = runners(Partition(rows), 3)
        assert core == Partition()
        tuples.add(quot.parts)
    assert tuples == {(Partition((1,)), Partition(), Partition())}
    with pytest.raises(AmbiguousQuotientError):
        from_core_quotient(
            Partition(), MultiPartition((Partition((1,)), Partition(), Partition()))
        )


def test_bare_quotient_unique_case_is_accepted():
    # around the 2-core (1) only one alignment is consistent, so the bare
    # tuple reconstructs without help
    lam = Partition((1, 1, 1))
    quot, core = runners(lam, 2)
    assert core == Partition((1,))
    bare = MultiPartition(quot.parts)
    assert from_core_quotient(core, bare) == lam


def test_bare_quotient_preimages_match_brute_force():
    """A bare quotient has as preimages the partitions whose runners give
    that core and quotient, each once however many alignments rebuild it;
    the search groups every partition of at most 10 boxes by that pair."""
    for n in range(1, 5):
        preimages = {}
        for m in range(11):
            for lam in partitions_of(m):
                quot, core = runners(lam, n)
                preimages.setdefault((core, quot.parts), []).append(lam)
        for (core, parts), found in preimages.items():
            bare = MultiPartition(parts)
            if len(found) == 1:
                assert from_core_quotient(core, bare) == found[0], (n, core, parts)
                continue
            listed = ", ".join(str(lam) for lam in sorted(found))
            with pytest.raises(AmbiguousQuotientError,
                               match=re.escape(f"has {len(found)} preimages ({listed});")):
                from_core_quotient(core, bare)


def test_empty_core_examples():
    assert has_empty_core(Partition((3,)), 3)
    assert has_empty_core(Partition((2, 1)), 3)
    assert has_empty_core(Partition((1, 1, 1)), 3)
    assert has_empty_core(Partition(), 5)
    assert not has_empty_core(Partition((4, 2, 2, 1)), 3)
    assert not has_empty_core(Partition((7, 2)), 3)


def test_empty_core_refuses_n_below_one():
    for n in (0, -2):
        with pytest.raises(PreconditionError, match=f"n must be >= 1, got {n}"):
            has_empty_core(Partition((2, 1)), n)
        with pytest.raises(PreconditionError, match=f"^n must be >= 1, got {n}$"):
            runners(Partition((2, 1)), n)


def test_runners_and_empty_core_refuse_non_int_n():
    for n in (2.0, "2", True):
        with pytest.raises(PreconditionError, match=f"^n must be an int, got {n!r}$"):
            runners(Partition((3, 1)), n)
        with pytest.raises(PreconditionError, match=f"^n must be an int, got {n!r}$"):
            has_empty_core(Partition((3, 1)), n)


def test_abacus_layer_refuses_non_partitions():
    """A tuple or list where a partition belongs is refused by name, not
    left to end in an AttributeError (a MultiPartition's components are
    checked with the other record fields in test_public_api.py)."""
    for lam in ((3, 1), [3, 1]):
        message = f"^lam must be a Partition, got {re.escape(repr(lam))}$"
        with pytest.raises(PreconditionError, match=message):
            runners(lam, 2)
        with pytest.raises(PreconditionError, match=message):
            has_empty_core(lam, 2)
    quot = MultiPartition((Partition(),) * 2, 0)
    with pytest.raises(PreconditionError, match=r"^core must be a Partition, got \(1,\)$"):
        from_core_quotient((1,), quot)
    with pytest.raises(PreconditionError,
                       match=r"^quot must be a MultiPartition, got \(\(\), \(\)\)$"):
        from_core_quotient(Partition(), ((), ()))


def test_empty_core_tally_matches_oracles():
    for m in range(15):
        for lam in partitions_of(m):
            for n in range(1, 9):
                empty = has_empty_core(lam, n)
                assert empty == (core_by_hook_removal(lam, n) == Partition()), (lam, n)
                assert empty == (runners(lam, n)[1].size == 0), (lam, n)


def test_quotient_hook_lengths():
    """The hook lengths of lam divisible by n, divided by n, are the hook
    lengths of the n-quotient's parts."""
    for m in range(15):
        for lam in partitions_of(m):
            for n in range(1, 7):
                quot, _ = runners(lam, n)
                want = sorted(h // n for h in hook_lengths(lam) if h % n == 0)
                assert sorted(h for p in quot.parts for h in hook_lengths(p)) == want, (lam, n)


def test_empty_core_iff_balanced():
    for m in range(15):
        for lam in partitions_of(m):
            for n in (2, 3, 4, 5, 6):
                balanced, _ = is_balanced(GroupParams(1, -1, n), lam)
                assert has_empty_core(lam, n) == balanced, (lam, n)


def test_abacus_word_validation():
    with pytest.raises(PreconditionError, match="^a multipartition has at least one component$"):
        MultiPartition(())
    with pytest.raises(ValueError):
        Abacus((0, 2, 1), 0)
