"""Acceptance suite: every headline identity the package claims, checked
exactly at desk scale, one PASS/FAIL line per check (run with -s to see
them on success)."""

import math
import time
from fractions import Fraction

from eqhilb import (
    GroupParams,
    LPolynomial,
    Partition,
    Quasipolynomial,
    betti_statistic,
    check_rectangle_bijection,
    cotangent_weights,
    diagonal,
    enumerate_balanced,
    from_abacus,
    from_core_quotient,
    hj_expand,
    invariant_arrows,
    is_balanced,
    is_lex_positive,
    l_class,
    make_split,
    multipartition_count,
    partitions_of,
    psi,
    psi_inverse,
    runners,
    to_abacus,
    verify_period,
    verify_quasipolynomial,
    weight_vector,
)
from oracles import psi_inverse_by_search


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_core_quotient_golden_4221():
    lam = Partition((4, 2, 2, 1))
    runners(lam, 3)  # warm any caches before timing
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        quot, core = runners(lam, 3)
        best = min(best, time.perf_counter() - t0)
    word = "".join(str(x) for x in to_abacus(lam).word)
    ok = (
        quot.parts == (Partition((1,)), Partition(), Partition())
        and core == Partition((4, 2))
        and word == "01011001"
        and lam.size == core.size + 3 * quot.total()
        and core.size == 6
        and quot.total() == 1
        and best < 1e-3
    )
    report("core/quotient golden (4,2,2,1) @ n=3", ok, f"{best * 1e6:.0f}us")


def test_balanced_weights_432():
    g = GroupParams(1, -1, 3)
    lam = Partition((4, 3, 2))
    ok = (
        weight_vector(g, lam).counts == (3, 3, 3)
        and is_balanced(g, lam) == (True, 3)
    )
    report("(4,3,2) is (1,-1;3)-balanced with r=3", ok)


def test_invariant_arrow_count_is_2r():
    t0 = time.perf_counter()
    pairs = [(1, 1), (1, 2), (2, 3), (1, -1), (1, -2), (2, -3)]
    checked = 0
    ok = True
    for a, b in pairs:
        for n in range(1, 9):
            g = GroupParams(a, b, n)
            for r in range(1, 24 // n + 1):
                for lam in enumerate_balanced(g, r):
                    checked += 1
                    if len(invariant_arrows(g, lam)) != 2 * r:
                        ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    report("exactly 2r invariant arrows", ok, f"{checked} diagrams in {elapsed:.1f}s")


def _period_instances():
    for r in (1, 2):
        for n in range(r + 1, 9):
            yield GroupParams(1, 1, n), r
    for n in range(3, 13):
        yield GroupParams(1, 2, n), 1


def test_betti_periodicity_in_group_order():
    ok = True
    details = []
    for g, r in _period_instances():
        big = g.with_n(g.n + g.a * g.b)
        if l_class(g, r) != l_class(big, r):
            ok = False
            details.append(f"{g} r={r}")
    report("L-class equal at n and n+ab", ok, "; ".join(details) or "all coefficient vectors match")


def test_insertion_bijection_witness():
    ok = True
    for g, r in _period_instances():
        big = g.with_n(g.n + g.a * g.b)
        source = enumerate_balanced(g, r)
        images = [psi(g, r, lam) for lam in source]
        if len(set(images)) != len(images) or sorted(images) != list(enumerate_balanced(big, r)):
            ok = False
        for lam, mu in zip(source, images):
            if betti_statistic(g, lam) != betti_statistic(big, mu):
                ok = False
            if not psi_inverse(g, r, mu) == psi_inverse_by_search(g, r, mu) == lam:
                ok = False
    report("insertion map bijective, statistic-preserving, invertible both ways", ok)


def test_minimal_resolution_cross_check():
    ok = True
    details = []
    for k in (1, 2, 3):
        for n in range(k + 1, 13):
            if math.gcd(n, k) != 1:
                continue
            length = len(hj_expand(n, k))
            got = l_class(GroupParams(1, k, n), 1)
            if got != LPolynomial([0, length, 1]):
                ok = False
                details.append(f"(1,{k};{n}): {got} vs l={length}")
    report("r=1 L-class equals l*L + L^2 with l the continued-fraction length",
           ok, "; ".join(details) or "k in {1,2,3}, n <= 12")


def test_euler_product_counts():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        g = GroupParams(1, -1, n)
        for r in range(6):
            if len(enumerate_balanced(g, r)) != multipartition_count(n, r):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report("balanced count equals multipartition count (r<=5, n<=4)", ok, f"{elapsed:.1f}s")


def test_empty_core_iff_balanced():
    from eqhilb import has_empty_core

    ok = True
    for m in range(21):
        for lam in partitions_of(m):
            for n in (2, 3, 4, 5):
                if has_empty_core(lam, n) != is_balanced(GroupParams(1, -1, n), lam)[0]:
                    ok = False
    report("empty n-core iff (1,-1;n)-balanced (sizes <= 20)", ok)


def test_rectangle_bijection():
    ok = True
    for a, b, n in [(1, -2, 3), (1, -2, 5), (2, -3, 5)]:
        rep = check_rectangle_bijection(GroupParams(a, b, n), 1)
        if not rep["bijective"]:
            ok = False
    report("box-to-rectangle map bijective onto star-shaped balanced partitions", ok)


def test_euler_quasipolynomiality():
    t0 = time.perf_counter()
    ok = True
    details = []
    for r in (1, 2, 3):
        rep = verify_quasipolynomial(GroupParams(1, -1, 2), r, 2, 10)
        if not rep["ok"] or rep["observed_degree"] != r:
            ok = False
            details.append(f"(1,-1) r={r}")
        if r == 2:
            qp = Quasipolynomial.from_json(rep["quasipolynomial"])
            if qp.polys[0] != (Fraction(0), Fraction(3, 2), Fraction(1, 2)):
                ok = False
                details.append("r=2 count is not n(n+3)/2")
            if any(qp.evaluate(n) != multipartition_count(n, 2) for n in range(2, 11)):
                ok = False
    rep = verify_quasipolynomial(GroupParams(1, -2, 3), 1, 3, 15)
    if not (rep["ok"] and rep["period"] == 2 and rep["observed_degree"] <= 1
            and len(rep["extrapolation"]) == 2):
        ok = False
        details.append("(1,-2) r=1")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report("Euler characteristic quasipolynomial in n", ok,
           "; ".join(details) or f"{elapsed:.1f}s")


def test_property_suite_conjugation():
    ok = all(
        lam.conjugate().conjugate() == lam
        for m in range(31)
        for lam in partitions_of(m)
    )
    report("conjugation is an involution (sizes <= 30)", ok)


def test_property_suite_abacus_roundtrips():
    ok = True
    for m in range(16):
        for lam in partitions_of(m):
            if from_abacus(to_abacus(lam)) != lam:
                ok = False
            for n in range(1, 6):
                quot, core = runners(lam, n)
                if from_core_quotient(core, quot) != lam:
                    ok = False
                if lam.size != core.size + n * quot.total():
                    ok = False
    report("abacus and core/quotient round-trips (sizes <= 15, n <= 5)", ok)


def test_property_suite_anchor_independence():
    ok = True
    for a, b, n, r in [(1, 1, 4, 2), (1, 1, 5, 2), (1, 2, 5, 1), (2, 3, 8, 1)]:
        g = GroupParams(a, b, n)
        rab = r * a * b
        for lam in enumerate_balanced(g, r):
            anchors = [pt for pt in diagonal(g, rab) if pt not in lam]
            contexts = [make_split(g, r, lam, anchor=pt) for pt in anchors]
            for k in range(rab, n):
                if not any(
                    (k - rab - a * u) >= 0 and (k - rab - a * u) % b == 0
                    for u in range((k - rab) // a + 1)
                ):
                    continue
                if len({ctx.split_of_class(k) for ctx in contexts}) != 1:
                    ok = False
    report("region split independent of anchor choice", ok)


def test_property_suite_betti_characterizations_agree():
    ok = True
    for a, b in [(1, 1), (1, 2), (2, 3), (1, -1), (1, -2), (2, -3)]:
        for n in range(1, 7):
            g = GroupParams(a, b, n)
            for r in range(1, 18 // n + 1):
                for lam in enumerate_balanced(g, r):
                    weights = cotangent_weights(g, lam)
                    lex = sum(1 for w in weights if is_lex_positive(w))
                    p = max((abs(w2) for _, w2 in weights), default=0) + 1
                    numeric = sum(1 for w1, w2 in weights if p * w1 + w2 > 0)
                    if not (betti_statistic(g, lam) == lex == numeric):
                        ok = False
    report("arrow-direction and numeric cell-dimension counts agree", ok)
