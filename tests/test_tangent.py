import functools
import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqhilb import (
    Box,
    EnumerationLimitError,
    GroupParams,
    LPolynomial,
    Partition,
    UnbalancedPartitionError,
    betti_statistic,
    distinguished_arrows,
    enumerate_balanced,
    hj_expand,
    invariant_arrows,
    l_class,
    multipartition_count,
    partitions_of,
)
from eqhilb import coloring, tangent
from oracles import (
    brute_force_balanced,
    cell_dimension_by_boxes,
    cotangent_weights,
    gottsche_l_class,
    is_lex_positive,
    tangent_character_by_hom,
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


def test_tangent_space_by_hom_is_the_negated_arrow_weights():
    """The arm-leg weights against the tangent space read off its definition:
    on every partition of at most 10 boxes, ``Hom(I, A/I)`` has the arrow
    weights negated as its character, of total dimension ``2|lam|``."""
    for size in range(11):
        for lam in partitions_of(size):
            character = tangent_character_by_hom(lam)
            assert character == Counter((-w1, -w2) for *_, (w1, w2) in distinguished_arrows(lam))
            assert sum(character.values()) == 2 * size, lam


def test_invariant_tangent_space_by_hom_gives_the_statistic():
    """On the 545 balanced families with ``r*n <= 12``, ``r >= 1`` and coprime
    weights ``1 <= a, b <= n``, the invariant part of ``Hom(I, A/I)`` has
    ``2r`` weights at every member, and those that are lexicographically
    negative (the tangent weights of the attracting cell) number
    ``betti_statistic``."""
    character = functools.cache(tangent_character_by_hom)
    families = 0
    for n in range(1, 13):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if math.gcd(a, b) != 1:
                    continue
                g = GroupParams(a, b, n)
                for r in range(1, 12 // n + 1):
                    families += 1
                    for lam in enumerate_balanced(g, r):
                        fixed = [(u, v) for (u, v), dim in character(lam).items()
                                 if (a * u + b * v) % n == 0 for _ in range(dim)]
                        assert len(fixed) == 2 * r, (g, r, lam)
                        assert sum(is_lex_positive((-u, -v)) for u, v in fixed) == \
                            betti_statistic(g, lam), (g, r, lam)
    assert families == 545


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


def test_l_class_has_one_top_cell():
    """The family is connected of dimension 2r: the statistic the search folds
    in puts exactly one member at L^(2r), on every coprime a, b in -6..6 with
    r*n <= 24."""
    requests = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, 25):
                g = GroupParams(a, b, n)
                for r in range(1, 24 // n + 1):
                    cls = l_class(g, r)
                    assert cls.degree() == 2 * r and cls.coeff(2 * r) == 1, (g, r, cls)
                    requests += 1
    assert requests == 8064


def test_l_class_values():
    assert l_class(GroupParams(1, -1, 3), 1) == LPolynomial([0, 2, 1])
    assert l_class(GroupParams(1, 1, 4), 0) == LPolynomial([1])
    assert l_class(GroupParams(1, -1, 2), 2).euler() == 5


def test_l_class_ceiling_checked_when_memoised(monkeypatch):
    g = GroupParams(1, -1, 4)
    assert l_class(g, 2).euler() == multipartition_count(4, 2)
    monkeypatch.setenv("EQHILB_MAX_BOXES", "7")
    with pytest.raises(EnumerationLimitError):
        l_class(g, 2)
    with pytest.raises(EnumerationLimitError):
        l_class(GroupParams(1, 3, 4), 2)  # same residues, same memo entry
    monkeypatch.setenv("EQHILB_MAX_BOXES", "8")
    assert l_class(g, 2).euler() == multipartition_count(4, 2)


def test_signed_weights_with_equal_residues_share_the_memo():
    """The memo serves the second member of each pair; the oracles use its
    signed weights."""
    pairs = [((1, -1, 3), (1, 2, 3)), ((1, -1, 2), (1, 1, 2)),
             ((1, 2, 4), (1, -2, 4)), ((2, 3, 6), (2, -3, 6))]
    for first, second in pairs:
        g = GroupParams(*second)
        for r in range(3):
            enumerate_balanced(GroupParams(*first), r)
            l_class(GroupParams(*first), r)
            size = coloring._balanced_family.cache_info().currsize
            family = enumerate_balanced(g, r)
            lc = l_class(g, r)
            assert size == coloring._balanced_family.cache_info().currsize
            assert family == brute_force_balanced(g, r), (g, r)
            counts = Counter(
                sum(1 for ar in invariant_arrows(g, lam) if is_lex_positive(ar.weight))
                for lam in family
            )
            assert lc == LPolynomial(counts[k] for k in range(2 * r + 1)), (g, r)


def test_l_class_memo_holds_one_entry_per_coloring():
    before = coloring._balanced_family.cache_info().currsize
    for k in range(50):
        assert l_class(GroupParams(1, 1 + 3 * k, 3), 1) == LPolynomial([0, 1, 1])
    for n in range(1, 1001):
        assert l_class(GroupParams(1, 1, n), 0) == LPolynomial([1])
    assert coloring._balanced_family.cache_info().currsize - before <= 2


def test_memos_are_bounded_and_recompute_evicted_keys():
    """More coloring keys than the memo holds: the least recent are evicted
    first and recomputed.  (1,1;13) is its own normal form, which no key of
    order below 13 reaches, so its second request is one miss."""
    bound = coloring._MEMO_SIZE
    groups = [GroupParams(a, b, n) for n in range(2, 12) for a in range(n) for b in range(n)
              if math.gcd(a, b) == 1]
    # distinct keys, each a family of n boxes
    assert len({coloring._family_key(g, 1) for g in groups}) > bound
    first = GroupParams(1, 1, 13)
    family, lc = enumerate_balanced(first, 1), l_class(first, 1)
    for g in groups:
        enumerate_balanced(g, 1)
        l_class(g, 1)
    memo = coloring._balanced_family
    assert memo.cache_info().currsize <= bound
    misses = memo.cache_info().misses
    assert enumerate_balanced(first, 1) == family == brute_force_balanced(first, 1)
    assert l_class(first, 1) == lc
    assert memo.cache_info().misses == misses + 1


def test_family_memo_hit_refreshes_its_key():
    """A hit makes its key the most recent: the first key, requested again
    once the memo is full, is still held after ``_MEMO_SIZE - 1`` new keys,
    where evicting the oldest entry first would have dropped it.  Each key
    is its own normal form, so each miss adds one entry."""
    bound = coloring._MEMO_SIZE
    memo = coloring._balanced_family
    memo.cache_clear()
    keys = [(1, c, m, 1) for m in range(2, 46) for c in range(m) if math.gcd(c, m) == 1]
    assert len(keys) >= 2 * bound - 1
    assert all(coloring._normal_form(key) == (1, 1, key[1:]) for key in keys)
    for key in keys[:bound]:
        memo(key)
    memo(keys[0])
    for key in keys[bound:2 * bound - 1]:
        memo(key)
    info = memo.cache_info()
    assert (info.currsize, info.misses) == (bound, 2 * bound - 1)
    memo(keys[0])
    assert memo.cache_info().hits == info.hits + 1


def test_keys_of_one_normal_form_share_one_record(monkeypatch):
    """(1,1;1), (2,3;2), (3,2;3) and (2,3;6) are four coloring keys; divided
    by their pseudo-reflections each is the trivial group, searched as
    (0, 1, r), and only the first request searches.  (2,3;5) has the normal
    form (1,4;5) and no pseudo-reflection, so both get the one record, and
    a stretched key shares its base record's statistics and L-class."""
    searches = []
    search = coloring._search
    monkeypatch.setattr(coloring, "_search", lambda *form: searches.append(form) or search(*form))
    coloring._balanced_family.cache_clear()
    groups = [GroupParams(1, 1, 1), GroupParams(2, 3, 2), GroupParams(3, 2, 3), GroupParams(2, 3, 6)]
    for r in (1, 2, 3):
        keys = {coloring._family_key(g, r) for g in groups}
        assert len(keys) == len(groups)
        assert {coloring._normal_form(key)[2] for key in keys} == {(0, 1, r)}
        for g in groups:
            assert enumerate_balanced(g, r) == brute_force_balanced(g, r), (g, r)
            assert searches == [(0, 1, r)], (g, r)
        base = coloring._family_record(groups[0], r)
        for g in groups[1:]:
            record = coloring._family_record(g, r)
            assert record is not base and record.members != base.members, (g, r)
            assert record.statistics is base.statistics and record.l_class is base.l_class, (g, r)
        searches.clear()
        alias, own = GroupParams(2, 3, 5), GroupParams(1, 4, 5)
        assert coloring._family_record(alias, r) is coloring._family_record(own, r)
        assert enumerate_balanced(alias, r) == brute_force_balanced(alias, r), r
        assert searches == [(4, 5, r)], r
        searches.clear()


def test_equal_members_of_one_size_are_one_object():
    """(1,1;1) r=6 holds every partition of 6; (1,1;2) r=3 and (1,-1;3) r=2
    are searched, and (1,2;6) r=1 is (1,1;3) r=1 stretched.  Each equal
    member across their five records is one object, the memo index's."""
    coloring._balanced_family.cache_clear()
    families = [enumerate_balanced(GroupParams(a, b, n), r)
                for a, b, n, r in ((1, 1, 1, 6), (1, 1, 2, 3), (1, -1, 3, 2), (1, 2, 6, 1))]
    assert coloring._balanced_family.cache_info().currsize == 5
    first = {}
    for family in families:
        for lam in family:
            assert first.setdefault(lam, lam) is lam, lam
    assert len(first) == len(families[0]) < sum(map(len, families))
    assert all(coloring._members[lam.rows] is lam for lam in first)


def test_member_budget_empties_the_memo_and_keeps_its_answers(monkeypatch):
    """With a budget of 10 members the sweep empties the memo many times.
    Every answer equals a fresh memo's, every member of a returned family
    is the index's, and after a call that missed, the index exceeds the
    budget by at most the members of the two records (base and stretched)
    that the call assembled; a call that hit leaves the index as it was."""
    groups = [GroupParams(1, 1, 1)] + [GroupParams(a, b, n) for n in range(2, 7)
                                       for a in range(n) for b in range(n) if math.gcd(a, b) == 1]
    keys = [(g, r) for g in groups for r in range(1, 13 // g.n + 1)]
    memo = coloring._balanced_family
    fresh = {}
    for g, r in keys:
        memo.cache_clear()
        fresh[g, r] = enumerate_balanced(g, r), l_class(g, r)
    budget = 10
    monkeypatch.setattr(coloring, "_MEMO_MEMBERS", budget)
    memo.cache_clear()
    emptied, before, held = 0, memo.cache_info(), 0
    for g, r in keys + keys[::-1]:
        family, lc = enumerate_balanced(g, r), l_class(g, r)
        assert (family, lc) == fresh[g, r], (g, r)
        assert all(coloring._members[lam.rows] is lam for lam in family), (g, r)
        after = memo.cache_info()
        if (after.hits, after.misses) == (before.hits + 2, before.misses):
            assert len(coloring._members) == held, (g, r)
        else:  # a miss; an emptying resets the counts too
            assert len(coloring._members) <= budget + 2 * len(family), (g, r)
        emptied += after.currsize < before.currsize
        before, held = after, len(coloring._members)
    assert emptied >= 10


def test_a_cleared_memo_empties_its_index_at_the_next_miss():
    """After ``cache_clear()``, the next miss empties the index, so after one
    call of the stretched key (1,2;6) r=2 it holds the members of that
    call's two records and nothing from before the clear."""
    enumerate_balanced(GroupParams(1, 1, 1), 8)
    coloring._balanced_family.cache_clear()
    family = enumerate_balanced(GroupParams(1, 2, 6), 2)
    assert coloring._balanced_family.cache_info().currsize == 2
    base = enumerate_balanced(GroupParams(1, 1, 3), 2)
    assert base != family
    assert set(map(id, coloring._members.values())) == set(map(id, family + base))


def test_refused_searches_leave_no_memo_entry():
    """A family past the ceiling is refused before the memo: nothing is
    kept, and a second request is refused again without a miss."""
    before = coloring._balanced_family.cache_info()
    for _ in range(2):
        with pytest.raises(EnumerationLimitError):
            enumerate_balanced(GroupParams(1, 2, 81), 1)
    after = coloring._balanced_family.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def _from_deeper(frames, call, *args):
    """``call(*args)`` from ``frames`` helper frames deeper."""
    return call(*args) if frames == 0 else _from_deeper(frames - 1, call, *args)


def test_chains_longer_than_the_frame_limit_are_answered(monkeypatch):
    """(1,2;n), ((n+1)/2,1;n) and (1,4;2n) reach the search of (1,2;n)
    directly, through an alias and through a stretch, and its member
    (2, ..., 2, 1) places (n+1)/2 rows: 2,001 at n = 4001, past Python's
    default limit of 1,000 frames.  A repeated row takes no frame, so at
    n = 1801 and 4001 each key is answered, with the memo cold or holding
    the base record, and called directly or from 50 frames deeper.  The
    class is ``L^2 + l*L``, ``l`` the Hirzebruch-Jung length of ``n/2``."""
    monkeypatch.setenv("EQHILB_MAX_BOXES", "8002")
    keys = (lambda n: GroupParams(1, 2, n), lambda n: GroupParams((n + 1) // 2, 1, n),
            lambda n: GroupParams(1, 4, 2 * n))
    for n in (1801, 4001):
        expected = LPolynomial([0, len(hj_expand(n, 2)), 1])
        assert str(expected) == "L^2 + 2L"
        for frames in (0, 50):
            for warm in (False, True):
                for key in keys:
                    coloring._balanced_family.cache_clear()
                    if warm:
                        l_class(GroupParams(1, 2, n), 1)
                    answer = _from_deeper(frames, l_class, key(n), 1)
                    assert answer == expected, (n, frames, warm, key(n))


def test_l_class_matches_gottsche_product():
    """(1,-1;n) is the A_{n-1} singularity; its Hilbert schemes of points
    on the minimal resolution have Goettsche's product as class."""
    cases = [(n, r) for n in range(1, 11) for r in range(1, 6) if r * n <= 40]
    for n, r in cases + [(40, 2)]:
        assert list(l_class(GroupParams(1, -1, n), r).coeffs) == gottsche_l_class(n, r), (n, r)


def _normal_forms(most):
    """Every normal form ``(1, c; m)``, ``c`` a unit mod ``m``, with each
    ``r >= 1`` such that ``r*m <= most``, as ``(c, m, r)``."""
    return [(c, m, r) for m in range(1, most + 1) for c in range(m) if math.gcd(c, m) == 1
            for r in range(1, most // m + 1)]


def test_bottom_of_the_class_gives_the_central_fiber():
    """The torus contracts the quotient, so the family retracts onto the
    Hilbert-Chow fiber over 0, of dimension ``2r - low`` for the lowest
    degree ``low`` of the class.  Observed on the normal forms with ``r*m <=
    40``: ``2r - low = r - 1`` at ``m = 1`` (the punctual Hilbert scheme), and
    ``2r - low = r`` with coefficient ``multipartition_count(m - 1, r)`` on
    SL2 keys ``(1,m-1;m)`` with ``m >= 2``."""
    for c, m, r in _normal_forms(40):
        if c != m - 1:
            continue
        cls = l_class(GroupParams(1, c, m), r)
        low = next(k for k, coeff in enumerate(cls.coeffs) if coeff)
        if m == 1:
            assert 2 * r - low == r - 1, r
        else:
            assert (2 * r - low, cls.coeff(low)) == (r, multipartition_count(m - 1, r)), (m, r)


def test_top_of_the_class_is_a_multipartition_count(monkeypatch):
    """``t_k(r)``, the coefficient of ``L^(2r-k)`` in the class of the normal
    form ``(1,c;m)``, is the ordinary Betti number ``b_2k`` by Poincare
    duality.  Observed, with no theorem behind it off SL2 and ``m = 1``: on
    all 820 normal forms with ``r*m <= 40`` it is at most
    ``multipartition_count(m, k)`` for every ``k <= r``, and equal to it for
    ``2k <= r`` on SL2 keys (``c = m - 1``) and on every key with ``m <= 3``,
    including (1,1;3) and (1,2;3) at r = 14 and 15, past the brute-force
    filter: 838 equalities on the 820 forms and 32 on those four."""
    forms = _normal_forms(40)
    assert len(forms) == 820
    monkeypatch.setenv("EQHILB_MAX_BOXES", "45")
    equal = 0
    for c, m, r in forms + [(1, 3, 14), (2, 3, 14), (1, 3, 15), (2, 3, 15)]:
        cls = l_class(GroupParams(1, c, m), r)
        for k in range(r + 1):
            top, count = cls.coeff(2 * r - k), multipartition_count(m, k)
            assert top <= count, (c, m, r, k)
            if 2 * k <= r and (c == m - 1 or m <= 3):
                assert top == count, (c, m, r, k)
                equal += 1
    assert equal == 838 + 32


GRID_WEIGHTS = [(1, 1), (1, 2), (2, 3), (1, -1), (1, -2), (2, -3), (1, 3)]


def test_cell_dimension_matches_box_by_box_count():
    """The per-row count of column keys equals the hook count taken box by
    box, on every diagram of at most 14 boxes, balanced or not."""
    diagrams = [lam for m in range(15) for lam in partitions_of(m)]
    for a, b in GRID_WEIGHTS:
        for n in range(1, 9):
            for lam in diagrams:
                assert tangent._cell_dimension(a, b, n, lam) == \
                    cell_dimension_by_boxes(a, b, n, lam), (a, b, n, lam)


def _statistics_sweep():
    """The first request ``(g, r)`` of each family key, with its key, for
    every coprime (a, b) in -6..6, n <= 12 and r*n <= 24."""
    seen = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, 13):
                for r in range(24 // n + 1):
                    g = GroupParams(a, b, n)
                    key = coloring._family_key(g, r)
                    if key not in seen:
                        seen.add(key)
                        yield g, r, key


def test_search_statistics_match_the_oracles():
    """The statistics the balanced search folds in equal the hook count
    box by box and row by row (``tangent._cell_dimension``).  Requests
    with one family key share one memo entry, so each key is checked once,
    with the signed weights of its first request."""
    checked = 0
    for g, r, _ in _statistics_sweep():
        record = coloring._family_record(g, r)
        family, dims = record.members, record.statistics
        assert len(dims) == len(family)
        for lam, dim in zip(family, dims):
            assert dim == cell_dimension_by_boxes(g.a, g.b, g.n, lam) == \
                tangent._cell_dimension(g.a, g.b, g.n, lam), (g, r, lam)
        checked += len(family)
    assert checked > 40000


def test_stretched_families_match_the_brute_force_filter():
    """On every key of the sweep above with a weight that shares a factor
    with n, the family searched on the key's normal form and stretched is
    the histogram filter over all partitions of r*n, member by member in
    order; ``test_search_statistics_match_the_oracles`` checks the statistics
    of every key box by box."""
    checked = 0
    for g, r, key in _statistics_sweep():
        am, bm, n, _ = key
        if math.gcd(am, n) == math.gcd(bm, n) == 1:
            continue
        assert enumerate_balanced(g, r) == brute_force_balanced(g, r), key
        checked += 1
    assert checked > 100


def test_pseudo_reflection_groups_have_the_class_of_hilb_of_the_plane():
    """A group acting on one coordinate alone is made of pseudo-reflections,
    so its quotient is the plane again and the class is that of Hilb^r(A^2),
    the sum over partitions lam of r of L^(r + len(lam)) (Ellingsrud-Stromme);
    for n <= 10 and r <= 7, with every unit u mod n as the weight on the
    other coordinate."""
    for r in range(8):
        counts = Counter(r + len(lam.rows) for lam in partitions_of(r))
        expected = LPolynomial(counts[k] for k in range(2 * r + 1))
        for n in range(1, 11):
            for u in range(-n, n + 1):
                if math.gcd(u, n) == 1:
                    for a, b in [(u, n), (n, u)]:
                        assert l_class(GroupParams(a, b, n), r) == expected, (a, b, n, r)


def test_l_class_invariant_under_unit_scaling():
    """A unit u of Z/n gives the same group, so (a, b) and the residues of
    (u*a, u*b) share the whole family record: the members in order, the
    statistic of each and the class; a residue pair that is not coprime is
    skipped."""
    for a, b in GRID_WEIGHTS:
        for n in range(1, 9):
            for u in range(2, n):
                scaled = (u * a % n, u * b % n)
                if math.gcd(u, n) != 1 or math.gcd(*scaled) != 1:
                    continue
                for r in range(1, 24 // n + 1):
                    assert coloring._family_record(GroupParams(a, b, n), r) == \
                        coloring._family_record(GroupParams(*scaled, n), r), (a, b, n, u, r)


def test_l_class_invariant_under_swapping_weights():
    """Exchanging the two coordinates of the plane swaps the weights and
    gives an isomorphic Hilbert scheme."""
    for a, b in GRID_WEIGHTS:
        for n in range(1, 9):
            for r in range(1, 24 // n + 1):
                assert l_class(GroupParams(a, b, n), r) == \
                    l_class(GroupParams(b, a, n), r), (a, b, n, r)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(GRID_WEIGHTS), st.integers(1, 8), st.data())
def test_l_class_independent_of_torus_direction(weights, n, data):
    """Every direction (p, q) with p, q > 0 contracts the plane, so the
    cells it attracts give the same class as the lexicographic direction."""
    g = GroupParams(*weights, n)
    r = data.draw(st.integers(1, 24 // n))
    p = data.draw(st.integers(1, 50))
    q = data.draw(st.integers(1, 50))
    family = [cotangent_weights(g, lam) for lam in enumerate_balanced(g, r)]
    assume(all(p * w1 + q * w2 != 0 for ws in family for w1, w2 in ws))
    dims = Counter(sum(p * w1 + q * w2 > 0 for w1, w2 in ws) for ws in family)
    assert LPolynomial([dims[k] for k in range(2 * r + 1)]) == l_class(g, r)


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
    assert lp.betti_numbers() == (0, 0, 2, 0, 1)
    assert LPolynomial().betti_numbers() == (0,)
    assert repr(lp) == "LPolynomial([0, 2, 1])"
    assert LPolynomial().poincare_str() == "0"
    assert LPolynomial([1]).poincare_str() == "1"
    assert LPolynomial.from_json(lp.to_json()) == lp
    assert LPolynomial([3, 0, 0]) == LPolynomial([3])
    assert hash(LPolynomial([3, 0, 0])) == hash(LPolynomial([3]))
    with pytest.raises(ValueError):
        LPolynomial([-1])


def test_lpolynomial_refuses_non_integral_coefficients():
    message = r"^coefficients must be nonnegative integers, got "
    with pytest.raises(ValueError, match=message + r"\[1\.5, 2\]$"):
        LPolynomial([1.5, 2])
    with pytest.raises(ValueError, match=message + r"\[0, 2\.9, 1\]$"):
        LPolynomial.from_json('{"coeffs": [0, 2.9, 1]}')
    with pytest.raises(ValueError, match=message + r"\[True, 2\.0\]$"):
        LPolynomial([True, 2.0])
    with pytest.raises(ValueError, match=message + r"\[1, False\]$"):
        LPolynomial([1, False])
