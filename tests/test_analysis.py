import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from eqhilb import analysis
from eqhilb import (
    EnumerationLimitError,
    GroupParams,
    InsufficientSamplesError,
    Partition,
    PreconditionError,
    Quasipolynomial,
    check_rectangle_bijection,
    enumerate_balanced,
    fit_quasipolynomial,
    hj_expand,
    is_balanced,
    l_class,
    multipartition_count,
    normalize_group,
    partitions_of,
    rectangle_map,
    satisfies_star,
    verify_quasipolynomial,
)

from oracles import (interpolate_by_lagrange_basis, multipartition_count_by_factors,
                     valid_from_by_suffixes)


def test_normalize_examples():
    assert normalize_group(GroupParams(2, 3, 4)) == GroupParams(1, 3, 2)
    assert normalize_group(GroupParams(1, 1, 5)) == GroupParams(1, 1, 5)
    assert normalize_group(GroupParams(3, -2, 9)) == GroupParams(1, -2, 3)
    assert normalize_group(GroupParams(2, 3, 12)) == GroupParams(1, 1, 2)
    assert normalize_group(GroupParams(4, 9, 36)) == GroupParams(1, 1, 1)


def test_normalize_preserves_l_class():
    for a, b, n, rmax in [(2, 3, 4, 2), (3, -2, 9, 1), (2, 3, 6, 2), (4, 1, 6, 2)]:
        g = GroupParams(a, b, n)
        h = normalize_group(g)
        for r in range(rmax + 1):
            assert l_class(g, r) == l_class(h, r), (g, h, r)


def test_rectangle_map_values():
    assert rectangle_map(GroupParams(1, -2, 3), Partition()) == Partition()
    assert rectangle_map(GroupParams(1, -2, 3), Partition((2, 1))) == Partition((2, 2, 1, 1))
    assert rectangle_map(GroupParams(2, -3, 5), Partition((1,))) == Partition((2, 2, 2))


def test_rectangle_map_sign_check():
    with pytest.raises(PreconditionError):
        rectangle_map(GroupParams(1, 2, 3), Partition((1,)))


def test_satisfies_star():
    assert satisfies_star(Partition((2, 2, 1, 1)), 1, -2)
    assert not satisfies_star(Partition((2, 1)), 1, -2)
    assert satisfies_star(Partition(), 1, -2)
    assert satisfies_star(Partition((4, 4, 4)), 2, -3)
    assert not satisfies_star(Partition((4, 4)), 2, -3)
    assert not satisfies_star(Partition((3, 3, 3)), 2, -3)


def test_satisfies_star_refuses_non_int_weights():
    with pytest.raises(PreconditionError, match=r"^a must be an int, got 1\.5$"):
        satisfies_star(Partition((2,)), 1.5, -2)


def test_satisfies_star_refuses_non_coprime_weights():
    with pytest.raises(PreconditionError, match=r"weights must be coprime, got \(2, -2\)"):
        satisfies_star(Partition((2, 2)), 2, -2)
    with pytest.raises(PreconditionError, match=r"^requires a > 0 > b, got \(1, 2\)$"):
        satisfies_star(Partition((2, 2)), 1, 2)


def test_star_characterizes_rectangle_image():
    for a, b in [(1, -2), (2, -3), (3, -2), (1, -3), (3, -1), (1, -10**10)]:
        g = GroupParams(a, b, 1)
        sources = (lam for m in range(24 // (-a * b) + 1) for lam in partitions_of(m))
        image = {rectangle_map(g, lam) for lam in sources}
        for m in range(25):
            for mu in partitions_of(m):
                assert satisfies_star(mu, a, b) == (mu in image), (a, b, mu)


def test_rectangle_map_injective():
    g = GroupParams(2, -3, 5)
    seen = {}
    for m in range(5):
        for lam in partitions_of(m):
            mu = rectangle_map(g, lam)
            assert mu not in seen
            seen[mu] = lam


def test_rectangle_map_balance_equivalence_both_directions():
    # balance transfers through the rectangle map for every partition,
    # not just the balanced ones
    for a, b, n in [(1, -2, 3), (2, -3, 5)]:
        g = GroupParams(a, b, n)
        flip = GroupParams(1, -1, n)
        for m in range(1, 9):
            for lam in partitions_of(m):
                assert is_balanced(g, lam)[0] == is_balanced(flip, rectangle_map(g, lam))[0]


def test_check_rectangle_bijection():
    for a, b, n in [(1, -2, 3), (1, -2, 5), (2, -3, 5)]:
        report = check_rectangle_bijection(GroupParams(a, b, n), 1)
        assert report["bijective"], report
        assert report["source_count"] == report["target_count"]
    with pytest.raises(PreconditionError):
        check_rectangle_bijection(GroupParams(1, -2, 4), 1)  # b shares a factor with n
    with pytest.raises(PreconditionError):
        check_rectangle_bijection(GroupParams(1, 2, 3), 1)


def test_multipartition_count_values():
    assert multipartition_count(4, 0) == 1
    assert multipartition_count(2, 2) == 5
    assert multipartition_count(3, 1) == 3
    # matches the balanced family for the sign-flipped coloring
    assert multipartition_count(3, 1) == len(enumerate_balanced(GroupParams(1, -1, 3), 1))


def test_multipartition_count_refuses_bad_arguments():
    with pytest.raises(PreconditionError, match="^n must be >= 1, got 0$"):
        multipartition_count(0, 1)
    with pytest.raises(PreconditionError, match="^r must be nonnegative, got -1$"):
        multipartition_count(3, -1)
    with pytest.raises(PreconditionError, match=r"^n must be an int, got 2\.0$"):
        multipartition_count(2.0, 3)
    for r in (3.0, "3", True):
        with pytest.raises(PreconditionError, match=f"^r must be an int, got {r!r}$"):
            multipartition_count(2, r)


def test_multipartition_count_oracle():
    # brute force over tuples via nested partition counts
    from itertools import product

    for n in (1, 2, 3):
        for r in range(6):
            parts = [list(partitions_of(m)) for m in range(r + 1)]
            brute = sum(
                1
                for sizes in product(range(r + 1), repeat=n)
                if sum(sizes) == r
                for _ in product(*(parts[s] for s in sizes))
            )
            assert multipartition_count(n, r) == brute


def test_multipartition_count_matches_the_factor_loop():
    for n in range(1, 31):
        for r in range(21):
            assert multipartition_count(n, r) == multipartition_count_by_factors(n, r), (n, r)


def test_multipartition_count_closed_forms_at_a_trillion():
    # a child process, so that a count whose cost grows with n fails on the
    # timeout instead of hanging the suite
    n = 10**12
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(analysis.__file__)))
    code = f"from eqhilb import multipartition_count as f; print(*(f({n}, r) for r in (1, 2, 3)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=30, check=True).stdout
    assert list(map(int, out.split())) == [n, n * (n + 3) // 2, n * (n + 1) * (n + 8) // 6]


def test_hj_expand_values():
    assert hj_expand(3, 2) == (2, 2)
    assert hj_expand(5, 2) == (3, 2)
    assert hj_expand(12, 5) == (3, 2, 3)
    assert hj_expand(5, 1) == (5,)


def test_hj_expand_refuses_expansions_longer_than_ceiling(monkeypatch):
    # n/(n-1) = [[2, ..., 2]] has n - 1 terms; the default ceiling is 80
    monkeypatch.delenv("EQHILB_MAX_BOXES", raising=False)
    assert hj_expand(81, 80) == (2,) * 80
    with pytest.raises(EnumerationLimitError,
                       match=r"of 82/81 has more than the ceiling of 80 terms "
                             r"\(raise EQHILB_MAX_BOXES\)"):
        hj_expand(82, 81)
    monkeypatch.setenv("EQHILB_MAX_BOXES", "3")
    assert hj_expand(12, 5) == (3, 2, 3)
    with pytest.raises(EnumerationLimitError):
        hj_expand(5, 4)


def test_hj_expand_reconstructs_fraction():
    for n, k in [(3, 2), (5, 2), (12, 5), (7, 3), (11, 4), (9, 7)]:
        terms = hj_expand(n, k)
        assert all(t >= 2 for t in terms)
        value = Fraction(terms[-1])
        for t in reversed(terms[:-1]):
            value = t - 1 / value
        assert value == Fraction(n, k)


def test_hj_length_periodic_in_n():
    import math

    for k in (2, 3, 5):
        for n in range(k + 1, 30):
            if math.gcd(n, k) != 1:
                continue
            assert len(hj_expand(n + k, k)) == len(hj_expand(n, k))


def test_hj_expand_preconditions():
    with pytest.raises(PreconditionError):
        hj_expand(4, 2)
    with pytest.raises(PreconditionError):
        hj_expand(3, 3)
    with pytest.raises(PreconditionError):
        hj_expand(3, 0)
    with pytest.raises(PreconditionError, match=r"^n must be an int, got 5\.0$"):
        hj_expand(5.0, 2)
    for k in (2.0, "2", True):
        with pytest.raises(PreconditionError, match=f"^k must be an int, got {k!r}$"):
            hj_expand(5, k)


def test_fit_constant():
    qp = fit_quasipolynomial([(n, 7) for n in range(1, 5)], 1, 0)
    assert qp.polys == ((Fraction(7),),)
    assert qp.all_validated()
    assert qp.evaluate(100) == 7


def test_fit_two_multipartitions_closed_form():
    samples = [(n, multipartition_count(n, 2)) for n in range(2, 9)]
    qp = fit_quasipolynomial(samples, 1, 2)
    assert qp.all_validated()
    # n(n+3)/2, checked at n=2 where the count is 5
    assert qp.polys[0] == (Fraction(0), Fraction(3, 2), Fraction(1, 2))
    assert qp.evaluate(2) == 5


def test_fit_period_two_linear():
    g = GroupParams(1, -2, 3)
    samples = [(n, len(enumerate_balanced(g.with_n(n), 1))) for n in range(3, 14, 2)]
    qp = fit_quasipolynomial(samples, 2, 1)
    assert qp.all_validated()
    assert qp.polys[0] is None and qp.class_validated[0] is None
    assert qp.polys[1] == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(PreconditionError, match="^no polynomial fitted for residue 0$"):
        qp.evaluate(4)


def test_fit_flags_inconsistent_class():
    # a quadratic sequence cannot validate under a linear bound
    samples = [(n, n * n) for n in range(6)]
    qp = fit_quasipolynomial(samples, 1, 1)
    assert qp.class_validated == (False,)
    # the line through the last two training points (3, 9) and (4, 16); the
    # held-out (5, 25) is not fitted
    assert qp.polys == ((Fraction(-12), Fraction(7)),)


def test_interpolate_matches_the_lagrange_basis():
    # half the tables lie on a polynomial of lower degree, so the zero trim runs
    rng = random.Random(36)
    for _ in range(1000):
        xs = rng.sample(range(-40, 60), rng.randint(1, 7))
        if rng.random() < 0.5:
            poly = [rng.randint(-9, 9) for _ in range(rng.randint(0, len(xs) - 1))]
            ys = [sum(c * x**k for k, c in enumerate(poly)) for x in xs]
        else:
            ys = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in xs]
        points = list(zip(xs, ys))
        got, want = analysis._interpolate(points), interpolate_by_lagrange_basis(points)
        assert type(got) is tuple and got == want, points
        assert list(map(type, got)) == list(map(type, want)), points


def test_fit_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_quasipolynomial([(1, 1), (2, 2)], 1, 1)


def test_fit_refuses_bad_period_and_degree_bound():
    samples = [(n, n) for n in range(1, 9)]
    with pytest.raises(PreconditionError, match="^period must be >= 1, got 0$"):
        fit_quasipolynomial(samples, 0, 1)
    with pytest.raises(PreconditionError, match="^degree bound must be nonnegative, got -1$"):
        fit_quasipolynomial(samples, 1, -1)


def test_fit_refuses_non_int_period_degree_bound_and_orders():
    samples = [(n, n) for n in range(1, 9)]
    for args, message in (((samples, 2.0, 0), r"^period must be an int, got 2\.0$"),
                          ((samples, True, 0), "^period must be an int, got True$"),
                          ((samples, 1, 0.5), r"^degree_bound must be an int, got 0\.5$"),
                          (([(1.5, 2), (2.5, 3), (3.5, 4)], 1, 0),
                           r"^order must be an int, got 1\.5$")):
        with pytest.raises(PreconditionError, match=message):
            fit_quasipolynomial(*args)


def test_fit_refuses_non_int_values():
    for samples, message in (([(1, 0.1), (2, 0.2), (3, 0.3)], r"^value must be an int, got 0\.1$"),
                             ([(1, 1), (2, True), (3, 3)], "^value must be an int, got True$")):
        with pytest.raises(PreconditionError, match=message):
            fit_quasipolynomial(samples, 1, 1)


def test_fit_refuses_repeated_order():
    with pytest.raises(PreconditionError, match=r"^samples repeat an order: \[1, 1, 2\]$"):
        fit_quasipolynomial([(1, 1), (1, 1), (2, 2)], 1, 1)
    with pytest.raises(PreconditionError, match="repeat an order"):
        fit_quasipolynomial([(2, 4), (2, 4), (3, 9), (4, 16)], 1, 1)


def test_quasipolynomial_needs_one_polynomial_and_flag_per_class():
    qp = fit_quasipolynomial([(n, n) for n in range(1, 9)], 2, 1).to_json()
    for key in ("polys", "class_validated"):
        short = dict(qp, **{key: qp[key][:1]})
        with pytest.raises(PreconditionError, match="one polynomial and one flag per residue"):
            Quasipolynomial.from_json(short)
    with pytest.raises(PreconditionError, match="period must be >= 1, got 0"):
        Quasipolynomial.from_json(dict(qp, period=0, polys=[], class_validated=[]))


def test_quasipolynomial_json_roundtrip():
    samples = [(n, multipartition_count(n, 2)) for n in range(2, 9)]
    qp = fit_quasipolynomial(samples, 1, 2)
    assert Quasipolynomial.from_json(qp.to_json()) == qp
    assert Quasipolynomial.from_json(json.dumps(qp.to_json())) == qp


def test_verify_quasipolynomial_equal_weights():
    for r in (1, 2, 3):
        report = verify_quasipolynomial(GroupParams(1, -1, 2), r, 2, 10)
        assert report["ok"], report
        assert report["observed_degree"] == r
        qp = Quasipolynomial.from_json(report["quasipolynomial"])
        for n in range(2, 11):
            assert qp.evaluate(n) == multipartition_count(n, r)


def test_verify_quasipolynomial_period_two():
    report = verify_quasipolynomial(GroupParams(1, -2, 3), 1, 3, 15)
    assert report["ok"], report
    assert report["period"] == 2
    assert report["observed_degree"] <= 1
    assert report["skipped_not_coprime"] == [4, 6, 8, 10, 12, 14]
    assert len(report["extrapolation"]) == 2


@pytest.fixture
def fit_calls(monkeypatch):
    """Records one entry per call of fit_quasipolynomial from eqhilb.analysis."""
    calls = []
    fit = analysis.fit_quasipolynomial
    monkeypatch.setattr(analysis, "fit_quasipolynomial", lambda *args: calls.append(args) or fit(*args))
    return calls


def _matches_suffix_search(fit_calls, a, b, r, n_from, n_to):
    """Compare verify_quasipolynomial with the suffix search; returns
    whether it passed with valid_from past the first coprime order."""
    fit_calls.clear()
    report = verify_quasipolynomial(GroupParams(a, b, n_from), r, n_from, n_to)
    assert len(fit_calls) <= 2
    expected = valid_from_by_suffixes(report["counts"], report["period"], r)
    assert report["ok"] == (expected is not None), (a, b, r, n_from, n_to)
    if expected is None:
        assert report["valid_from"] is None
        return False
    assert report["valid_from"] == expected.valid_from, (a, b, r, n_from, n_to)
    assert report["quasipolynomial"] == expected.to_json()
    assert report["extrapolation"] == [
        {"n": n, "expected": report["counts"][n], "predicted": str(expected.evaluate(n))}
        for n in report["holdout"]
    ]
    return expected.valid_from > min(report["counts"])


def test_verify_quasipolynomial_matches_suffix_search_on_random_tables(monkeypatch, fit_calls):
    # per residue class an integer polynomial of degree up to r + 1, with
    # noise added below a random order; one table in four is pure noise
    rng = random.Random(2015)
    table = {}
    monkeypatch.setattr(analysis, "enumerate_balanced", lambda g, r: range(table[g.n]))
    outcomes = []
    for _ in range(400):
        (a, b), r = rng.choice([(1, -1), (1, -2), (1, -3), (2, -3), (1, -4)]), rng.randint(0, 3)
        period = -a * b
        n_from = rng.randint(1, 5)
        n_to = n_from + period * (r + rng.randint(3, 9))
        tail = rng.randint(n_from, (n_from + n_to) // 2)
        noise = rng.random() < 0.25
        polys = [[rng.randint(0, 3) for _ in range(rng.randint(1, r + 2))] for _ in range(period)]
        table.clear()
        for n in range(n_from, n_to + 1):
            value = sum(c * n**k for k, c in enumerate(polys[n % period]))
            table[n] = rng.randint(0, 5) if noise else value + (n < tail) * rng.randint(1, 3)
        outcomes.append(_matches_suffix_search(fit_calls, a, b, r, n_from, n_to))
    assert sum(outcomes) > 50


def test_verify_quasipolynomial_matches_suffix_search_on_real_families(fit_calls):
    outcomes = [
        _matches_suffix_search(fit_calls, a, b, r, n_from, n_to)
        for a, b in [(1, -1), (1, -2), (1, -3), (2, -3)]
        for r in range(4)
        for n_from in (1, 2, 4)
        for n_to in range(n_from, 36 // max(r, 1) + 1)
    ]
    assert any(outcomes)


def test_verify_quasipolynomial_refuses_r0_range_longer_than_ceiling(monkeypatch):
    # every r = 0 family is {empty}: the ceiling bounds the orders of the range
    monkeypatch.setenv("EQHILB_MAX_BOXES", "6")
    assert list(verify_quasipolynomial(GroupParams(1, -2, 3), 0, 3, 8)["counts"]) == [3, 5, 7]
    with pytest.raises(EnumerationLimitError, match="a range of 7 orders with r = 0 exceeds "
                                                    "the ceiling of 6"):
        verify_quasipolynomial(GroupParams(1, -2, 3), 0, 3, 9)


def test_verify_quasipolynomial_refuses_non_int_orders_and_multiplicity():
    g = GroupParams(1, -1, 3)
    for args, message in (((1, 2.0, 6), r"^n_from must be an int, got 2\.0$"),
                          ((1, 2, "6"), r"^n_to must be an int, got '6'$"),
                          ((True, 2, 6), r"^multiplicity must be an int, got True$")):
        with pytest.raises(PreconditionError, match=message):
            verify_quasipolynomial(g, *args)


def test_verify_quasipolynomial_rejects_same_signs():
    with pytest.raises(PreconditionError):
        verify_quasipolynomial(GroupParams(1, 2, 3), 1, 3, 9)


def test_verify_quasipolynomial_rejects_orders_below_one():
    # order 0 is coprime to neither weight; it names no group, so it is refused, not skipped
    for n_from in (0, -3):
        with pytest.raises(PreconditionError, match="n_from"):
            verify_quasipolynomial(GroupParams(2, -3, 5), 1, n_from, 20)
