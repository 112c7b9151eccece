"""Fingerprint of every balanced family and L-class on a fixed request sweep.

Requests: coprime weights ``(a, b)`` with ``a, b`` in -6..6, orders ``n``
in 1..20 and multiplicities ``r`` from 0 with ``r*n <= 40``, 15,168 in
all.  The script prints the request count and one SHA-256 over, per
request in that order, the request, the row tuples of its family and the
coefficients of its L-class.  Two trees that print the same line give the
same families and classes on every request; run it once per tree, each in
its own interpreter:

    PYTHONPATH=src python3 tools/identity_sweep.py

It uses only the public API, so it runs unchanged on older trees.  A run
takes about two minutes on one core.
"""

from __future__ import annotations

import hashlib
import math

from eqhilb import GroupParams, enumerate_balanced, l_class

WEIGHTS = range(-6, 7)
MAX_ORDER = 20
MAX_BOXES = 40


def requests():
    for a in WEIGHTS:
        for b in WEIGHTS:
            if math.gcd(a, b) != 1:
                continue
            for n in range(1, MAX_ORDER + 1):
                for r in range(MAX_BOXES // n + 1):
                    yield GroupParams(a, b, n), r


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for g, r in requests():
        rows = [lam.rows for lam in enumerate_balanced(g, r)]
        coeffs = l_class(g, r).coeffs
        digest.update(repr((g.a, g.b, g.n, r, rows, coeffs)).encode())
        count += 1
    print(f"{count} requests sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
