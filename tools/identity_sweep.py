"""Fingerprint of every balanced family, L-class and insertion on fixed sweeps.

Requests: coprime weights ``(a, b)`` with ``a, b`` in -6..6, orders ``n``
in 1..20 and multiplicities ``r`` from 0 with ``r*n <= 40``, 15,168 in
all.  The first line holds the request count and one SHA-256 over, per
request in that order, the request, the row tuples of its family and the
coefficients of its L-class.

The second line holds the count of insertion calls and one SHA-256 over
``psi`` of every member and ``psi_inverse`` of its image, for coprime
``a, b`` in 1..4, ``r <= 3``, ``n`` in 1..40 with ``n > r*a*b`` and
``r*(n + a*b) <= 40``; then the class and message of each refusal on
fixed bad inputs in both directions; then the JSON reports of
``verify_period`` over fixed ranges, some starting below the threshold.

The third line holds the request count and one SHA-256 over the output
of ``eqhilb enumerate --format csv`` (through ``eqhilb.cli.main``) for
every request of the first line.  That output carries the statistic of
each member, so a statistic moved from one member to another changes
it, while the histogram the first line hashes stays the same.

The fourth line holds the call count and one SHA-256 over ``runners``
and ``from_core_quotient``: for every partition of at most 14 boxes and
``n`` in 1..6, its quotient, alignment and core, then the result or the
refusal (class and message) of ``from_core_quotient`` on its quotient
parts with alignment None and each of ``0..n-1``, against its true core,
every partition of the core's size, ``(1)``, ``(2)`` and the empty one.

The fifth line holds the call count and one SHA-256 over the analysis
layer: ``fit_quasipolynomial`` on seeded integer tables (periods 1-6,
degree bounds 0-4, half of them on exact polynomials per residue class
and some with a class too short to fit), ``multipartition_count`` for
``n <= 40``, ``r <= 20``, and the JSON reports of
``verify_quasipolynomial`` over fixed mixed-sign ranges.

Two trees that print the same lines give the same results on every
request; run it once per tree, each in its own interpreter:

    PYTHONPATH=src python3 tools/identity_sweep.py

It uses only the public API and the command-line entry point, so it
runs unchanged on older trees.  A run takes about six minutes on one core.

``tools/identity_sweep.expected`` holds the lines this tree prints, and CI
diffs a run against it; a change that alters a family, an L-class or an
insertion on purpose updates that file in the same change.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout

from eqhilb import cli
from eqhilb import (EqhilbError, GroupParams, MultiPartition, Partition, enumerate_balanced,
                    fit_quasipolynomial, from_core_quotient, l_class, multipartition_count,
                    partitions_of, psi, psi_inverse, runners, verify_period,
                    verify_quasipolynomial)

WEIGHTS = range(-6, 7)
MAX_ORDER = 20
MAX_BOXES = 40
INSERTION_WEIGHTS = range(1, 5)
MAX_INSERTION_R = 3
ABACUS_MAX_BOXES = 14
ABACUS_MAX_ORDER = 6
FIT_PERIODS = range(1, 7)
FIT_DEGREE_BOUNDS = range(5)
FIT_TABLES = 20
COUNT_MAX_N = 40
COUNT_MAX_R = 20

#: (a, b, n), r, rows: unbalanced, wrong multiplicity, n <= r*a*b, r < 0
#: and mixed signs; each is given to psi and to psi_inverse.
BAD_INSERTIONS = [
    ((1, 1, 3), 1, (2, 1)),
    ((1, 1, 2), 1, (2, 1)),
    ((1, 1, 3), 1, (3, 3)),
    ((1, 1, 2), 1, (3, 3)),
    ((1, 1, 2), 2, (3, 1)),
    ((1, 1, 1), 1, (2,)),
    ((1, 1, 3), -1, ()),
    ((1, -1, 5), 1, (5,)),
]

#: (a, b), r, n_from, n_to
PERIOD_RANGES = [
    ((1, 1), 2, 1, 8),
    ((1, 1), 1, 2, 8),
    ((1, 2), 1, 3, 12),
    ((1, 3), 2, 4, 10),
    ((2, 3), 1, 1, 12),
    ((-1, -2), 1, 1, 9),
    ((1, 2), 0, 1, 6),
]

#: (a, b), r, n_from, n_to, each range inside the default box ceiling
QPOLY_RANGES = [
    ((1, -1), 1, 1, 12),
    ((1, -1), 2, 2, 14),
    ((1, -1), 3, 1, 12),
    ((1, -2), 1, 3, 21),
    ((1, -2), 2, 1, 20),
    ((1, -3), 1, 1, 30),
    ((2, -3), 1, 1, 36),
    ((2, -3), 2, 4, 24),
]


def requests():
    for a in WEIGHTS:
        for b in WEIGHTS:
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, MAX_ORDER + 1):
                for r in range(MAX_BOXES // n + 1):
                    yield GroupParams(a, b, n), r


def insertion_requests():
    for a in INSERTION_WEIGHTS:
        for b in INSERTION_WEIGHTS:
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, MAX_BOXES + 1):
                for r in range(MAX_INSERTION_R + 1):
                    if n > r * a * b and r * (n + a * b) <= MAX_BOXES:
                        yield GroupParams(a, b, n), r


def insertion_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    calls = 0
    for g, r in insertion_requests():
        for lam in enumerate_balanced(g, r):
            mu = psi(g, r, lam)
            digest.update(repr((g.a, g.b, g.n, r, lam.rows, mu.rows, psi_inverse(g, r, mu).rows))
                          .encode())
            calls += 2
    for (a, b, n), r, rows in BAD_INSERTIONS:
        for step in (psi, psi_inverse):
            try:
                step(GroupParams(a, b, n), r, Partition(rows))
            except EqhilbError as exc:
                digest.update(f"{step.__name__} {type(exc).__name__}: {exc}".encode())
            else:
                raise AssertionError(f"{step.__name__} accepted {(a, b, n, r, rows)}")
    for (a, b), r, n_from, n_to in PERIOD_RANGES:
        report = verify_period(GroupParams(a, b, n_from), r, n_from, n_to)
        digest.update(json.dumps(report, sort_keys=True).encode())
    return calls, digest.hexdigest()


def enumerate_csv_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for g, r in requests():
        argv = ["enumerate", "--a", str(g.a), "--b", str(g.b), "--n", str(g.n), "--r", str(r),
                "--format", "csv"]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"eqhilb {' '.join(argv)} exited with {code}")
        digest.update(out.getvalue().encode())
        count += 1
    return count, digest.hexdigest()


def abacus_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    calls = 0
    by_size = [tuple(partitions_of(m)) for m in range(ABACUS_MAX_BOXES + 1)]
    for family in by_size:
        for lam in family:
            for n in range(1, ABACUS_MAX_ORDER + 1):
                quot, core = runners(lam, n)
                digest.update(repr((lam.rows, n, [p.rows for p in quot.parts], quot.alignment,
                                    core.rows)).encode())
                calls += 1
                cores = {core, *by_size[core.size], Partition((1,)), Partition((2,)), Partition()}
                for given in sorted(cores):
                    for alignment in (None, *range(n)):
                        try:
                            back = from_core_quotient(given, MultiPartition(quot.parts, alignment))
                        except EqhilbError as exc:
                            digest.update(f"{type(exc).__name__}: {exc}".encode())
                        else:
                            digest.update(repr(back.rows).encode())
                        calls += 1
    return calls, digest.hexdigest()


def fit_tables():
    """Seeded tables of integer samples: per period and degree bound, half on
    one integer polynomial per residue class, half with random values, each
    over consecutive orders; about one table in five leaves one class short."""
    rng = random.Random(2015)
    for period in FIT_PERIODS:
        for degree_bound in FIT_DEGREE_BOUNDS:
            for t in range(FIT_TABLES):
                start = rng.randint(1, 9)
                orders = range(start, start + period * (degree_bound + 2 + rng.randint(0, 3)))
                if rng.random() < 0.2:
                    orders = orders[:-1]
                if t % 2:
                    table = [(n, rng.randint(-10**4, 10**4)) for n in orders]
                else:
                    polys = [[rng.randint(-9, 9) for _ in range(rng.randint(1, degree_bound + 1))]
                             for _ in range(period)]
                    table = [(n, sum(c * n**k for k, c in enumerate(polys[n % period])))
                             for n in orders]
                yield table, period, degree_bound


def analysis_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    calls = 0
    for table, period, degree_bound in fit_tables():
        try:
            qp = fit_quasipolynomial(table, period, degree_bound)
        except EqhilbError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            digest.update(json.dumps(qp.to_json()).encode())
        calls += 1
    for n in range(1, COUNT_MAX_N + 1):
        for r in range(COUNT_MAX_R + 1):
            digest.update(repr((n, r, multipartition_count(n, r))).encode())
            calls += 1
    for (a, b), r, n_from, n_to in QPOLY_RANGES:
        report = verify_quasipolynomial(GroupParams(a, b, n_from), r, n_from, n_to)
        digest.update(json.dumps(report, sort_keys=True).encode())
        calls += 1
    return calls, digest.hexdigest()


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for g, r in requests():
        rows = [lam.rows for lam in enumerate_balanced(g, r)]
        coeffs = l_class(g, r).coeffs
        digest.update(repr((g.a, g.b, g.n, r, rows, coeffs)).encode())
        count += 1
    print(f"{count} requests sha256 {digest.hexdigest()}")
    calls, insertions = insertion_digest()
    print(f"{calls} insertion calls sha256 {insertions}")
    outputs, csv = enumerate_csv_digest()
    print(f"{outputs} enumerate --format csv outputs sha256 {csv}")
    calls, abacus = abacus_digest()
    print(f"{calls} abacus calls sha256 {abacus}")
    calls, analysis = analysis_digest()
    print(f"{calls} analysis calls sha256 {analysis}")


if __name__ == "__main__":
    main()
