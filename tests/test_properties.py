"""Property-based checks for the combinatorial bijections."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from eqhilb import (
    GroupParams,
    Partition,
    from_core_quotient,
    is_balanced,
    psi,
    psi_inverse,
    rectangle_map,
    runners,
    satisfies_star,
    to_abacus,
)
from oracles import from_abacus, psi_inverse_by_search, weight_vector


@st.composite
def partitions(draw, max_rows=8, max_part=10):
    rows = draw(st.lists(st.integers(1, max_part), max_size=max_rows))
    return Partition(sorted(rows, reverse=True))


_COPRIME_PAIRS = [
    (a, b)
    for a in range(-4, 5)
    for b in range(-4, 5)
    if math.gcd(a, b) == 1
]


@st.composite
def group_params(draw, signs="any"):
    n = draw(st.integers(1, 9))
    a, b = draw(st.sampled_from(_COPRIME_PAIRS))
    if signs == "positive":
        a, b = abs(a) or 1, abs(b) or 1
    elif signs == "mixed":
        a, b = abs(a) or 1, -(abs(b) or 1)
    return GroupParams(a, b, n)


@given(partitions())
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam


@given(partitions())
def test_conjugate_preserves_size(lam):
    assert lam.conjugate().size == lam.size


@given(partitions())
def test_abacus_roundtrip(lam):
    assert from_abacus(to_abacus(lam)) == lam


@given(partitions(), st.integers(1, 7))
def test_core_quotient_roundtrip(lam, n):
    quot, core = runners(lam, n)
    assert lam.size == core.size + n * quot.total()
    assert from_core_quotient(core, quot) == lam


@given(partitions(), st.integers(1, 7))
def test_core_is_its_own_core(lam, n):
    _, core = runners(lam, n)
    requot, recore = runners(core, n)
    assert recore == core
    assert requot.total() == 0


@given(group_params(), partitions())
def test_weight_vector_counts_boxes(g, lam):
    assert sum(weight_vector(g, lam)) == lam.size


@given(group_params(), partitions())
def test_balance_invariant_under_negation(g, lam):
    neg = GroupParams(-g.a, -g.b, g.n)
    assert is_balanced(g, lam)[0] == is_balanced(neg, lam)[0]


@given(group_params(), partitions())
def test_balance_swaps_under_conjugation(g, lam):
    swapped = GroupParams(g.b, g.a, g.n)
    assert is_balanced(g, lam) == is_balanced(swapped, lam.conjugate())


@given(group_params(signs="mixed"), partitions(max_rows=5, max_part=6))
def test_rectangle_map_lands_in_star(g, lam):
    mu = rectangle_map(g, lam)
    assert mu.size == -g.a * g.b * lam.size
    assert satisfies_star(mu, g.a, g.b)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.data())
def test_insertion_roundtrip(a, b, r, data):
    if math.gcd(a, b) != 1:
        a = 1
    n = data.draw(st.integers(r * a * b + 1, r * a * b + 6))
    g = GroupParams(a, b, n)
    from eqhilb import enumerate_balanced

    family = enumerate_balanced(g, r)
    if not family:
        return
    lam = data.draw(st.sampled_from(family))
    mu = psi(g, r, lam)
    assert mu.size == r * (n + a * b)
    assert psi_inverse(g, r, mu) == psi_inverse_by_search(g, r, mu) == lam
