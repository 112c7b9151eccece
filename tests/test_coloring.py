import gc
import hashlib
import math
import operator
import os
import sys
from unittest import mock

import pytest

from eqhilb import (
    Box,
    EnumerationLimitError,
    GroupParams,
    Partition,
    PreconditionError,
    color,
    enumerate_balanced,
    is_balanced,
    l_class,
    partitions_of,
    psi,
    psi_inverse,
)
from eqhilb import coloring
from oracles import (box_ceiling_by_environ_get, brute_force_balanced, live_prefixes,
                     rows_left_by_prefix, search_by_column_scan, search_depth, search_nodes,
                     weight_vector)


def test_group_params_validation():
    with pytest.raises(PreconditionError):
        GroupParams(2, 4, 5)
    with pytest.raises(PreconditionError):
        GroupParams(1, 1, 0)
    g = GroupParams(1, -1, 3)
    assert (color(g, Box(1, 0)), color(g, Box(0, 1))) == (1, 2)


def test_non_int_weights_orders_and_multiplicities_are_refused():
    """Floats and bools are refused up front, not deep inside the search or
    the gcd, and a float multiplicity is never reported as one."""
    for a, b, n in [(1.5, 2, 3), (1, 2.0, 3), (1, 2, 5.0), (1, 2, True), (True, 2, 3)]:
        with pytest.raises(PreconditionError, match=r"^weights and order must be ints, got \("):
            GroupParams(a, b, n)
    with pytest.raises(PreconditionError, match=r"^weights and order must be ints, got \(1, 2; 5\.0\)"):
        GroupParams(1, 2, 5).with_n(5.0)
    with pytest.raises(PreconditionError, match=r"^weights and order must be ints"):
        GroupParams(1, 2, 5)._replace(a=1.0)
    g = GroupParams(1, 1, 4)
    for r in (1.5, 1.0, True, False, "1"):
        with pytest.raises(PreconditionError, match=rf"^multiplicity must be an int, got {r!r}$"):
            enumerate_balanced(GroupParams(1, 2, 5), r)
        with pytest.raises(PreconditionError, match=rf"^multiplicity must be an int, got {r!r}$"):
            psi(g, r, Partition((4,)))
        with pytest.raises(PreconditionError, match=rf"^multiplicity must be an int, got {r!r}$"):
            psi_inverse(g, r, Partition((4,)))


def test_color_values():
    assert color(GroupParams(1, -1, 3), Box(0, 0)) == 0
    assert color(GroupParams(1, -1, 3), Box(0, 1)) == 2
    assert color(GroupParams(2, 3, 13), Box(3, 2)) == 12


def test_weight_vector_values():
    g = GroupParams(1, -1, 3)
    assert weight_vector(g, Partition((4, 3, 2))) == (3, 3, 3)
    assert weight_vector(g, Partition()) == (0, 0, 0)
    assert weight_vector(g, Partition((2, 1))) == (1, 1, 1)


def test_weight_vector_total():
    g = GroupParams(2, 3, 5)
    lam = Partition((5, 4, 1))
    assert sum(weight_vector(g, lam)) == lam.size


def test_is_balanced():
    g = GroupParams(1, -1, 3)
    assert is_balanced(g, Partition((4, 3, 2))) == (True, 3)
    assert is_balanced(g, Partition()) == (True, 0)
    assert is_balanced(g, Partition((3, 3, 3))) == (True, 3)
    assert is_balanced(g, Partition((7, 2))) == (False, None)
    # the row ends alone accept (4): its histogram is (2, 0, 2, 0), and 2 is no unit mod 4
    assert is_balanced(GroupParams(2, 1, 4), Partition((4,))) == (False, None)


def test_is_balanced_matches_the_histogram():
    """The boundary tallies against the histogram of ``weight_vector``: every
    coloring of order at most 12 (one coprime signed pair of weights per pair
    of residues), every partition of at most 12 boxes and those of 13 or 14
    boxes whose size the order divides; 150,737 pairs."""
    pairs = 0
    for n in range(1, 13):
        colorings = []
        for am in range(n):
            for bm in range(n):
                if math.gcd(am, bm, n) == 1:
                    a, b = next((a, b) for a in (am, am - n)
                                for b in range(bm - 3 * n, bm + 3 * n, n) if math.gcd(a, b) == 1)
                    colorings.append(GroupParams(a, b, n))
        for m in range(15):
            if m > 12 and m % n:
                continue
            for lam in partitions_of(m):
                for g in colorings:
                    counts = weight_vector(g, lam)
                    want = (True, m // n) if counts.count(counts[0]) == n else (False, None)
                    assert is_balanced(g, lam) == want, (g, lam)
                    pairs += 1
    assert pairs == 150_737


def test_enumerate_balanced_examples():
    g = GroupParams(1, -1, 3)
    assert enumerate_balanced(g, 1) == (
        Partition((1, 1, 1)),
        Partition((2, 1)),
        Partition((3,)),
    )
    assert enumerate_balanced(g, 0) == (Partition(),)
    assert len(enumerate_balanced(GroupParams(1, -1, 2), 2)) == 5


def test_enumerate_balanced_members_are_balanced():
    g = GroupParams(2, 3, 5)
    for r in range(4):
        for lam in enumerate_balanced(g, r):
            assert is_balanced(g, lam) == (True, r)
            assert lam.size == r * g.n


def test_enumerate_matches_brute_force_grid():
    """Oracle equivalence over the coprime weight grid.

    Restricted to a > 0 (or a = 0, b > 0) since simultaneous negation
    leaves the balanced family unchanged, which is tested separately.
    """
    pairs = [
        (a, b)
        for a in range(0, 4)
        for b in range(-3, 4)
        if math.gcd(a, b) == 1 and (a > 0 or b > 0)
    ]
    for a, b in pairs:
        for n in range(1, 9):
            g = GroupParams(a, b, n)
            for r in range(1, 24 // n + 1):
                assert enumerate_balanced(g, r) == brute_force_balanced(g, r), (g, r)


def test_enumerate_matches_brute_force_beyond_grid():
    """Larger families, where the column-0 bound prunes most of the search.

    In (2,3;9,2), (3,4;8,3) and (1,6;12,2) gcd(b, n) > 1, so the search
    runs on the reduced key and its rows are stretched; the search on the
    whole key, where column 0 repeats its colors every n // gcd(b, n) rows,
    is checked against it in ``test_tangent``.  In the last three, all-ones
    tails longer than n close, so the column-0 count decides which tails
    are emitted.
    """
    for a, b, n, r in [(1, 2, 10, 3), (1, 3, 13, 2), (3, 4, 15, 2),
                       (2, 5, 14, 2), (1, -1, 15, 2), (1, -2, 10, 3),
                       (2, 3, 9, 2), (3, 4, 8, 3), (1, 6, 12, 2),
                       (1, -1, 10, 3), (1, 2, 9, 3), (1, -2, 7, 4)]:
        g = GroupParams(a, b, n)
        assert enumerate_balanced(g, r) == brute_force_balanced(g, r), (g, r)


def _sweep(r_from):
    """Coprime a, b in -4..4 and n <= 12, each with every r from r_from to 24 // n."""
    for a in range(-4, 5):
        for b in range(-4, 5):
            if math.gcd(a, b) == 1:
                for n in range(1, 13):
                    for r in range(r_from, 24 // n + 1):
                        yield GroupParams(a, b, n), r


def test_single_column_and_single_row_closed_form():
    """One column of r*n boxes is balanced exactly when b generates Z/n, one row when a does.

    The single column is the all-ones tail the search closes at its root.
    """
    for g, r in _sweep(1):
        family = set(enumerate_balanced(g, r))
        m = r * g.n
        assert (Partition((1,) * m) in family) == (math.gcd(g.b, g.n) == 1), (g, r)
        assert (Partition((m,)) in family) == (math.gcd(g.a, g.n) == 1), (g, r)


def test_families_strictly_increasing():
    """The search order is the only thing that sorts a family: it tries row
    lengths shortest first, so it emits each family already sorted."""
    for g, r in _sweep(0):
        family = enumerate_balanced(g, r)
        assert all(map(operator.lt, family, family[1:])), (g, r)


def test_negation_invariance():
    for a, b, n in [(1, 1, 4), (1, -2, 5), (2, 3, 7)]:
        g, neg = GroupParams(a, b, n), GroupParams(-a, -b, n)
        for r in range(3):
            assert enumerate_balanced(g, r) == enumerate_balanced(neg, r)


def test_conjugation_swaps_weights():
    for a, b, n in [(1, 2, 5), (2, 3, 5), (1, -2, 4)]:
        g, swapped = GroupParams(a, b, n), GroupParams(b, a, n)
        for r in range(3):
            image = tuple(sorted(lam.conjugate() for lam in enumerate_balanced(g, r)))
            assert image == enumerate_balanced(swapped, r)


def test_pseudo_reflections_stretch_the_brute_force_family():
    """With g = gcd(b, n) and h = gcd(a, n/g), every balanced diagram of
    (a, b; n) has rows that are multiples of g and, once they are divided
    out, column heights that are multiples of h; dividing those out too
    gives the balanced diagrams of (a/h, b/g; n/(g*h)).  Brute force on
    both sides, for coprime a, b in -4..4, n <= 12 and r*n <= 18."""
    checked = 0
    for a in range(-4, 5):
        for b in range(-4, 5):
            if math.gcd(a, b) != 1:
                continue
            for n in range(2, 13):
                wide = math.gcd(b, n)
                tall = math.gcd(a, n // wide)
                if wide == tall == 1:
                    continue
                small = GroupParams(a // tall, b // wide, n // (wide * tall))
                for r in range(1, 18 // n + 1):
                    reduced = []
                    for lam in brute_force_balanced(GroupParams(a, b, n), r):
                        assert all(row % wide == 0 for row in lam.rows), (a, b, n, r, lam)
                        heights = Partition(row // wide for row in lam.rows).conjugate().rows
                        assert all(h % tall == 0 for h in heights), (a, b, n, r, lam)
                        reduced.append(Partition(h // tall for h in heights).conjugate())
                    assert sorted(reduced) == list(brute_force_balanced(small, r)), (a, b, n, r)
                    checked += 1
    assert checked > 200


def test_reflection_orders_match_the_nested_gcd():
    """``_reflections`` against ``(g, gcd(a, n/g))`` with ``g = gcd(b, n)``, the
    order of the column reflections taken after the row ones; the two agree
    since ``gcd(a, g)`` divides ``gcd(a, b, n) = 1``.  Coprime ``a, b`` in
    -12..12 and ``n < 60``, as signed weights and as residues mod ``n``."""
    checked = 0
    for a0 in range(-12, 13):
        for b0 in range(-12, 13):
            if math.gcd(a0, b0) != 1:
                continue
            for n in range(1, 60):
                for a, b in ((a0, b0), (a0 % n, b0 % n)):
                    wide, tall = coloring._reflections(a, b, n)
                    assert (wide, tall) == (math.gcd(b, n), math.gcd(a, n // wide)), (a, b, n)
                    m = n // (wide * tall)
                    assert math.gcd(a // tall, m) == math.gcd(b // wide, m) == 1, (a, b, n)
                    checked += 1
    assert checked == 43_424


def test_search_matches_the_column_scan():
    """The column-0 bound each node receives from its parent is the one a
    scan of column 0 reads there, and the row-end cap only cuts nodes with
    no member below: on every normal form with ``m <= 25`` and ``r*m <= 40``,
    on chains such as (2, 201, 1), whose member (2, ..., 2, 1) places 101
    rows, and on four larger forms, the search returns the rows, order and
    statistics of the search that scans column 0 at every node.  A node
    whose shortest row is the row above has that repeat as its only child:
    the one node body tries only its last length.  Such nodes make up most
    of the larger searches (9,177 of the 10,740 nodes of (39, 40, 2))."""
    forms = [(c, m, r) for m in range(1, 26) for c in range(m) if math.gcd(c, m) == 1
             for r in range(1, 40 // m + 1)]
    assert len(forms) == 530
    chains = [(2, 201, 1), (1, 101, 2), (1, 201, 1), (100, 201, 1)]
    forced = [(39, 40, 2), (11, 12, 4), (13, 15, 3), (29, 30, 3)]
    for form in forms + chains + forced:
        assert coloring._search(*form) == _ascending_column_scan(form), form


def _ascending_column_scan(form):
    """The rows and statistics of ``search_by_column_scan``, which tries row
    lengths longest first, in the ascending order ``_search`` emits."""
    rows, dims = search_by_column_scan(*form)
    return tuple(reversed(rows)), tuple(reversed(dims))


def test_search_nests_one_frame_per_distinct_row_length():
    """A row that repeats the row above is placed in its node's own frame,
    and only a shorter row calls ``extend``, so the frames on a path are at
    most the root and one per distinct row length: ``1 + isqrt(2*r*m)``, as
    ``d`` distinct lengths need ``d*(d+1)/2`` boxes.  On every normal form
    with ``m <= 25`` and ``r*m <= 40``, and on the chains (2, 2001, 1) and
    (2, 8001, 1), whose member (2, ..., 2, 1) places 1,001 and 4,001 rows."""
    forms = [(c, m, r) for m in range(1, 26) for c in range(m) if math.gcd(c, m) == 1
             for r in range(1, 40 // m + 1)]
    for c, m, r in forms + [(2, 2001, 1), (2, 8001, 1)]:
        assert search_depth((c, m, r)) <= 1 + math.isqrt(2 * r * m), (c, m, r)


def test_a_finished_search_leaves_no_garbage_cycle():
    """``extend`` refers to itself, and ``_search`` breaks that cycle when the
    root call returns, so its tables and the rows nobody kept are freed at
    once: a collection right after the search finds nothing unreachable."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for form in ((1, 10, 4), (2, 5, 8), (0, 1, 12)):
            coloring._search(*form)
            assert gc.collect() == 0, form
    finally:
        if enabled:
            gc.enable()


def test_each_child_receives_the_scanned_rows_left():
    """The ``rows_left`` a parent hands each child, the running minimum over
    the colors of the row it places, is the count a scan of column 0 reads
    at that node: equal at every node with boxes left on the normal forms
    with ``m <= 12`` and ``r*m <= 24``, and on (2, 5, 8), where a forced
    row's minimum is 0 but the parent's own ``rows_left - 1`` is 1.  The
    row-end cap cuts what a looser bound lets through, so the rows alone do
    not show such a bound."""
    forms = [(c, m, r) for m in range(1, 13) for c in range(m) if math.gcd(c, m) == 1
             for r in range(1, 24 // m + 1)]
    assert len(forms) == 166
    for form in forms + [(2, 5, 8)]:
        carried = rows_left_by_prefix(coloring._search, form)
        scanned = rows_left_by_prefix(search_by_column_scan, form)
        assert carried and all(scanned[rows] == n for rows, n in carried.items()), form


def test_search_visits_exactly_the_recorded_nodes(monkeypatch):
    """The seven deep families, and (3,4;37,3) past the ceiling, visit
    exactly these nodes: a bound looser than the column scan's, or a row-end
    cap that misses a dead node, visits more, and one that is too tight
    loses members (and nodes) as well.  The row-end cap cuts (1,3;26,3) from
    1,922 and (1,-2;15,3) from 3,461.  The search of (1,2;20,4) runs on
    (1,1;10,4), each row stretched by 2, and that of (3,4;30,2) on
    (1,2;5,2), stretched by 2 x 3.  Where the weights are units the search
    runs on the key itself, and every live prefix of its members is a node,
    so a hook that counts no node fails.  Each family is requested first, so
    the count is taken with the family memo warm: it must still count a
    fresh search."""

    def check(g, r, nodes):
        members = enumerate_balanced(g, r)
        assert search_nodes(g, r) == nodes, (g, r)
        if math.gcd(g.a, g.n) == math.gcd(g.b, g.n) == 1:
            assert nodes >= live_prefixes(members), (g, r)

    recorded = {(1, 2, 20, 4): 926, (1, 3, 26, 3): 1752, (1, 5, 36, 2): 613,
                (3, 4, 30, 2): 30, (2, 5, 30, 2): 11, (1, -1, 40, 2): 10740,
                (1, -2, 15, 3): 3165}
    for (a, b, n, r), nodes in recorded.items():
        check(GroupParams(a, b, n), r, nodes)
    monkeypatch.setenv("EQHILB_MAX_BOXES", "111")
    check(GroupParams(3, 4, 37), 3, 15867)


def test_families_past_the_ceiling_keep_their_digests(monkeypatch):
    """Families too large for the brute-force filter keep the members and
    statistics that the search gave before the column-end tally pruned it:
    one SHA-256 per key over ``[(member.rows, statistic), ...]``."""
    recorded = {
        (3, 4, 37, 3): "84d7b4db982869fe9584c08c9cf122f7e4a0d53443e8a15799e6828e858d64fe",
        (3, 4, 49, 3): "d006c4ac81ffb26da374327a0f301b1058188e333ba475d5c705aef003acd048",
        (2, 5, 31, 3): "60d0d2f8d1ad2235c39fd1a6fb28d1be958480241195c4320426a323e2617701",
        (2, 5, 41, 3): "c19b6d3c1433ced9f463e2b4f25a33786e42fe157cfe7e829ac120804f7840df",
        (2, -3, 37, 3): "a6ec9bf2d70373fc21b7e42963f7935b83092a75aadc3ec0b0e0b21f4a07c89c",
    }
    monkeypatch.setenv("EQHILB_MAX_BOXES", "147")
    for (a, b, n, r), digest in recorded.items():
        record = coloring._family_record(GroupParams(a, b, n), r)
        pairs = [(lam.rows, stat) for lam, stat in zip(record.members, record.statistics)]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest, (a, b, n, r)


def test_n_equals_one_gives_all_partitions():
    g = GroupParams(1, 1, 1)
    for r in range(15):
        assert enumerate_balanced(g, r) == tuple(sorted(partitions_of(r)))


def test_enumeration_ceiling(monkeypatch):
    with pytest.raises(PreconditionError, match="^multiplicity must be nonnegative, got -1$"):
        enumerate_balanced(GroupParams(1, 1, 3), -1)
    with pytest.raises(EnumerationLimitError):
        enumerate_balanced(GroupParams(1, 1, 10), 100)
    g = GroupParams(1, 0, 81)
    with pytest.raises(EnumerationLimitError):
        enumerate_balanced(g, 1)
    # a ceiling above the default admits the family
    monkeypatch.setenv("EQHILB_MAX_BOXES", "81")
    assert enumerate_balanced(g, 1) == (Partition((81,)),)
    # the memo is warm, and a lower ceiling still refuses it
    monkeypatch.setenv("EQHILB_MAX_BOXES", "80")
    with pytest.raises(EnumerationLimitError):
        enumerate_balanced(g, 1)


def test_enumeration_ceiling_env(monkeypatch):
    monkeypatch.setenv("EQHILB_MAX_BOXES", "3")
    with pytest.raises(EnumerationLimitError):
        enumerate_balanced(GroupParams(1, 1, 4), 1)


def test_warm_family_calls_raise_no_exception(monkeypatch):
    """With the variable unset, the ceiling read of a memo hit raises and
    catches nothing (``os.environ.get`` raises ``KeyError`` twice on a miss)."""
    monkeypatch.delenv("EQHILB_MAX_BOXES", raising=False)
    g = GroupParams(1, 2, 5)
    enumerate_balanced(g, 2)
    l_class(g, 2)
    raised = []

    def trace(frame, event, arg):
        if event == "exception":
            raised.append(f"{arg[0].__name__} in {frame.f_code.co_name}")
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        enumerate_balanced(g, 2)
        l_class(g, 2)
        coloring._family_key(g, 2)
    finally:
        sys.settrace(previous)
    assert raised == []


def _outcome(read):
    try:
        return read()
    except PreconditionError as exc:
        return (type(exc), str(exc))


def test_box_ceiling_agrees_with_environ_get(monkeypatch):
    for raw, expected in ((None, 80), ("0", 0), ("80", 80), (" 7 ", 7), ("8_0", 80),
                          ("\u0663", 3), ("", None), ("abc", None), ("-1", None)):
        if raw is None:
            monkeypatch.delenv("EQHILB_MAX_BOXES", raising=False)
        else:
            monkeypatch.setenv("EQHILB_MAX_BOXES", raw)
        outcome = _outcome(coloring._box_ceiling)
        assert outcome == _outcome(box_ceiling_by_environ_get)
        if expected is None:
            assert outcome[0] is PreconditionError and outcome[1].endswith(f"got {raw!r}")
        else:
            assert outcome == expected


def test_box_ceiling_follows_every_change_to_environ(monkeypatch):
    key = "EQHILB_MAX_BOXES"
    monkeypatch.setenv(key, "5")  # restores the variable as it was when the test ends
    assert coloring._box_ceiling() == 5
    monkeypatch.delenv(key)
    assert coloring._box_ceiling() == 80
    os.environ[key] = "6"
    assert coloring._box_ceiling() == 6
    del os.environ[key]
    assert coloring._box_ceiling() == 80
    os.environ.update({key: "7"})
    assert coloring._box_ceiling() == 7
    with mock.patch.dict(os.environ, {key: "9"}):
        assert coloring._box_ceiling() == 9
    assert coloring._box_ceiling() == 7
    with mock.patch.dict(os.environ, {}, clear=True):
        assert coloring._box_ceiling() == 80
    assert coloring._box_ceiling() == 7
    with mock.patch.dict(os.environ, {key: "abc"}, clear=True):
        with pytest.raises(PreconditionError, match="^EQHILB_MAX_BOXES must be an integer, got 'abc'$"):
            coloring._box_ceiling()
    assert coloring._box_ceiling() == 7
    assert os.environ.pop(key) == "7"
    assert coloring._box_ceiling() == 80
