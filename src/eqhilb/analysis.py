"""Number-theoretic tools: parameter normalization, the box-to-rectangle
map for mixed-sign weights, multipartition counting, Hirzebruch-Jung
continued fractions, and exact quasipolynomial fitting.

For weights of opposite sign the count of balanced partitions is
eventually quasipolynomial in the group order with period ``|a*b|``;
the fitter here works in exact rational arithmetic and reports the
smallest order from which the fitted polynomials extrapolate, rather
than assuming a threshold.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .coloring import (MAX_BOXES_ENV, GroupParams, _box_ceiling, _order_range, _reflections,
                       _require_group, _stretch, enumerate_balanced)
from .errors import EnumerationLimitError, InsufficientSamplesError, PreconditionError
from .partitions import Partition, _require_int, _require_partition

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest orders per residue class that ``verify_quasipolynomial`` holds out
#: of the fit and demands the fitted quasipolynomial extrapolate to.
_HOLDOUT = 2


def normalize_group(g: GroupParams) -> GroupParams:
    """``g`` with its pseudo-reflections divided out: both weights coprime to
    the order, and the same L-class for every multiplicity
    (``coloring._balanced_family``)."""
    _require_group(g)
    wide, tall = _reflections(g.a, g.b, g.n)
    return GroupParams(g.a // tall, g.b // wide, g.n // (wide * tall))


def rectangle_map(g: GroupParams, lam: Partition) -> Partition:
    """Replace every box by an ``a x (-b)`` rectangle (needs a > 0 > b).

    Row ``lam_j`` becomes ``-b`` consecutive rows of length ``a*lam_j``,
    so the image has ``-a*b`` times as many boxes.
    """
    _require_group(g)
    _require_partition("lam", lam)
    if not (g.a > 0 > g.b):
        raise PreconditionError(f"requires a > 0 > b, got ({g.a}, {g.b})")
    return Partition(_stretch(lam.rows, g.a, -g.b))


def satisfies_star(mu: Partition, a: int, b: int) -> bool:
    """Membership test for the rectangle-map image of coprime ``a > 0 > b``:
    ``mu`` has a multiple of ``-b`` rows, and stretching its rows ``0, -b,
    -2b, ...``, each divided by ``a``, gives ``mu`` back."""
    _require_partition("mu", mu)
    _require_int("a", a)
    _require_int("b", b)
    if not (a > 0 > b):
        raise PreconditionError(f"requires a > 0 > b, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise PreconditionError(f"weights must be coprime, got ({a}, {b})")
    return len(mu.rows) % -b == 0 and mu.rows == _stretch(
        tuple(row // a for row in mu.rows[::-b]), a, -b)


def check_rectangle_bijection(g: GroupParams, r: int) -> dict:
    """Exhaustively confirm the rectangle map is a bijection onto the
    star-shaped balanced partitions for the sign-flipped coloring.

    Requires mixed signs and both weights coprime to the order.  The
    report carries both cardinalities and any mismatch witnesses.
    """
    _require_group(g)
    if not (g.a > 0 > g.b):
        raise PreconditionError(f"requires a > 0 > b, got ({g.a}, {g.b})")
    if math.gcd(g.a, g.n) != 1 or math.gcd(g.b, g.n) != 1:
        raise PreconditionError(f"requires weights coprime to n, got {g}")
    # both families pass the box ceiling before any image is built
    source = enumerate_balanced(g, r)
    flipped = GroupParams(1, -1, g.n)
    target = [
        mu for mu in enumerate_balanced(flipped, -g.a * g.b * r) if satisfies_star(mu, g.a, g.b)
    ]
    mapped = [rectangle_map(g, lam) for lam in source]
    mapped_set, target_set = set(mapped), set(target)
    report = {
        "group": {"a": g.a, "b": g.b, "n": g.n},
        "r": r,
        "source_count": len(source),
        "target_count": len(target),
        "injective": len(mapped_set) == len(mapped),
        "missing_from_image": sorted(str(m) for m in target_set - mapped_set),
        "outside_target": sorted(str(m) for m in mapped_set - target_set),
    }
    report["bijective"] = (
        report["injective"]
        and not report["missing_from_image"]
        and not report["outside_target"]
    )
    return report


def multipartition_count(n: int, r: int) -> int:
    """Number of n-tuples of partitions with total size r: the coefficient
    ``f_r`` of ``t^r`` in ``prod_{k>=1} (1 - t^k)^(-n)``.  Its log-derivative
    gives ``m*f_m = n * sum_{k=1..m} sigma(k)*f_{m-k}``, ``sigma(k)`` the sum of
    the divisors of ``k``, so the cost does not grow with ``n`` and the count
    is a polynomial of degree ``r`` in ``n``."""
    _require_int("n", n, 1)
    _require_int("r", r, 0)
    sigma = [0] * (r + 1)
    for d in range(1, r + 1):
        for k in range(d, r + 1, d):
            sigma[k] += d
    series = [1]
    for m in range(1, r + 1):
        series.append(n * sum(map(operator.mul, sigma[m:0:-1], series)) // m)  # exact
    return series[r]


def hj_expand(n: int, k: int) -> tuple[int, ...]:
    """Hirzebruch-Jung (minus-sign) continued fraction of ``n/k``.

    The unique expansion ``n/k = a1 - 1/(a2 - ...)`` with every term at
    least 2; its length is the middle Betti number of the minimal
    resolution of the corresponding cyclic quotient surface singularity.
    One longer than the box ceiling is refused: ``n/(n-1)`` has ``n - 1`` terms.
    """
    _require_int("n", n)
    _require_int("k", k)
    if not (0 < k < n):
        raise PreconditionError(f"requires 0 < k < n, got n={n}, k={k}")
    if math.gcd(n, k) != 1:
        raise PreconditionError(f"requires gcd(n, k) = 1, got n={n}, k={k}")
    ceiling = _box_ceiling()
    terms = []
    x, y = n, k
    while y:
        if len(terms) == ceiling:
            raise EnumerationLimitError(f"the expansion of {n}/{k} has more than the ceiling "
                                        f"of {ceiling} terms (raise {MAX_BOXES_ENV})")
        q = -(-x // y)  # ceil
        terms.append(q)
        x, y = y, q * y - x
    return tuple(terms)


class _Quasipolynomial(NamedTuple):
    period: int
    polys: tuple[tuple[Fraction, ...] | None, ...]
    valid_from: int
    class_validated: tuple[bool | None, ...]


class Quasipolynomial(_Quasipolynomial):
    """Period-k family of polynomials with exact rational coefficients.

    ``polys[l]`` (coefficients in ascending degree) applies when
    ``n = l mod period``; classes never sampled store None.
    ``class_validated[l]`` records whether the fit reproduced every
    training point and the held-out one for that class.
    """

    __slots__ = ()

    def __new__(cls, period: int, polys: tuple[tuple[Fraction, ...] | None, ...],
                valid_from: int, class_validated: tuple[bool | None, ...]):
        polys = tuple(None if p is None else tuple(p) for p in polys)
        class_validated = tuple(class_validated)
        _require_int("period", period, 1)
        _require_int("valid_from", valid_from)
        for flag in class_validated:
            if flag is not None and flag is not True and flag is not False:
                raise PreconditionError(f"each flag must be True, False or None, got {flag!r}")
        if not len(polys) == len(class_validated) == period:
            raise PreconditionError(
                f"needs one polynomial and one flag per residue mod {period}, "
                f"got {len(polys)} and {len(class_validated)}"
            )
        return super().__new__(cls, period, polys, valid_from, class_validated)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def evaluate(self, n: int) -> Fraction:
        _require_int("n", n)
        poly = self.polys[n % self.period]
        if poly is None:
            raise PreconditionError(f"no polynomial fitted for residue {n % self.period}")
        return _evaluate(poly, n)

    def degree(self) -> int:
        """Largest degree among the fitted classes (-1 if all empty)."""
        return max(
            (len(p) - 1 for p in self.polys if p is not None and p), default=-1
        )

    def all_validated(self) -> bool:
        return all(flag for flag in self.class_validated if flag is not None)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "polys": [
                None if p is None else [str(c) for c in p] for p in self.polys
            ],
            "valid_from": self.valid_from,
            "class_validated": list(self.class_validated),
        }

    @classmethod
    def from_json(cls, data) -> "Quasipolynomial":
        from fractions import Fraction
        if isinstance(data, str):
            import json
            data = json.loads(data)
        return cls(
            period=data["period"],
            polys=tuple(
                None if p is None else tuple(Fraction(c) for c in p)
                for p in data["polys"]
            ),
            valid_from=data["valid_from"],
            class_validated=tuple(data["class_validated"]),
        )


def _evaluate(poly: tuple[Fraction, ...], n: int) -> Fraction:
    """Value at ``n`` of the polynomial with ascending coefficients ``poly``."""
    from fractions import Fraction
    return sum((c * n**k for k, c in enumerate(poly)), Fraction(0))


def _interpolate(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the interpolating polynomial, exact: Newton's
    divided differences, multiplied out from the last as ``coeffs*(X - x) + d``."""
    from fractions import Fraction
    xs = [x for x, _ in points]
    diffs = [Fraction(y) for _, y in points]
    for step in range(1, len(xs)):
        for i in range(len(xs) - 1, step - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - step])
    coeffs: list[Fraction] = []
    for x, d in zip(reversed(xs), reversed(diffs)):
        coeffs = [low - x * high for low, high in zip([d, *coeffs], [*coeffs, 0])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def fit_quasipolynomial(samples, period: int, degree_bound: int) -> Quasipolynomial:
    """Interpolate one polynomial per residue class and validate it.

    ``period``, ``degree_bound`` and each order and value must be ints, and
    each order may appear once.  Within each class the largest-n sample is held out.
    A polynomial of degree at most ``degree_bound`` is interpolated exactly,
    by Newton's divided differences, through the last ``degree_bound + 1``
    training points, and the class validates only if it reproduces every
    training point and the held-out one.
    Validation failures are reported in the result, never silently accepted.
    """
    _require_int("period", period, 1)
    _require_int("degree_bound", degree_bound)
    if degree_bound < 0:
        raise PreconditionError(f"degree bound must be nonnegative, got {degree_bound}")
    by_class: dict[int, list[tuple[int, int]]] = {}
    for n, value in samples:
        _require_int("order", n)
        _require_int("value", value)
        by_class.setdefault(n % period, []).append((n, value))
    if not by_class:
        raise InsufficientSamplesError("no samples given")
    orders = sorted(n for pts in by_class.values() for n, _ in pts)
    if len(set(orders)) < len(orders):
        raise PreconditionError(f"samples repeat an order: {orders}")
    polys: list[tuple[Fraction, ...] | None] = [None] * period
    flags: list[bool | None] = [None] * period
    for residue, pts in sorted(by_class.items()):
        pts = sorted(pts)
        if len(pts) < degree_bound + 2:
            raise InsufficientSamplesError(
                f"residue class {residue} has {len(pts)} samples; "
                f"needs at least degree_bound + 2 = {degree_bound + 2}"
            )
        train = pts[:-1]  # the largest-n sample is held out
        poly = _interpolate(train[-(degree_bound + 1):])
        polys[residue] = poly
        flags[residue] = all(_evaluate(poly, n) == v for n, v in pts)
    return Quasipolynomial(period, tuple(polys), orders[0], tuple(flags))


def verify_quasipolynomial(g: GroupParams, r: int, n_from: int, n_to: int) -> dict:
    """Desk check of quasipolynomiality for mixed-sign weights.

    Counts balanced partitions over the orders from ``n_from >= 1`` to
    ``n_to`` that are coprime to both weights, fits a quasipolynomial of
    period ``|a*b|`` and degree at most ``r``, and demands successful
    extrapolation to the two largest orders of each residue class, which
    the fit does not see.  Each class is interpolated through the points
    just below its largest fitted order, so every suffix of the fitted
    orders that leaves each class enough points gives the same fit: one
    fit on all of them names the last order it misses, ``valid_from`` is
    the next fitted order, and the fit from there is reported.
    """
    _require_group(g)
    _require_int("multiplicity", r)
    _require_int("n_from", n_from)
    _require_int("n_to", n_to)
    if g.a * g.b >= 0:
        raise PreconditionError(f"requires weights of opposite sign, got ({g.a}, {g.b})")
    if n_from < 1:
        raise PreconditionError(f"group orders start at 1, got n_from={n_from}")
    period = abs(g.a * g.b)
    orders = _order_range(r, n_from, n_to)
    # walked lazily, so an order past the box ceiling stops a huge range early
    counts = {
        n: len(enumerate_balanced(g.with_n(n), r))
        for n in orders
        if math.gcd(n, g.a) == 1 and math.gcd(n, g.b) == 1
    }
    by_class: dict[int, list[int]] = {}
    for n in counts:
        by_class.setdefault(n % period, []).append(n)
    extrap_ns = {n for ns in by_class.values() for n in sorted(ns)[-_HOLDOUT:]}
    fit_ns = [n for n in counts if n not in extrap_ns]
    result: dict = {
        "group": {"a": g.a, "b": g.b},
        "r": r,
        "period": period,
        "degree_bound": r,
        "counts": counts,
        "skipped_not_coprime": [n for n in orders if n not in counts],
        "reduced_counts": {},  # always empty; tests/cli_golden.json pins verify-qpoly JSON bytes
        "holdout": sorted(extrap_ns),
    }

    def fit_from(start: int) -> Quasipolynomial | None:
        """The fit on the fitted orders from ``start``; None if a class runs short."""
        sub = [(n, counts[n]) for n in fit_ns if n >= start]
        if {n % period for n, _ in sub} != set(by_class):
            return None
        try:
            return fit_quasipolynomial(sub, period, r)
        except InsufficientSamplesError:
            return None

    qp = fit_from(n_from)
    if qp is not None and all(qp.evaluate(n) == counts[n] for n in extrap_ns):
        qp = fit_from(1 + max((n for n in fit_ns if qp.evaluate(n) != counts[n]), default=0))
        if qp is not None:
            result.update(
                {
                    "ok": True,
                    "valid_from": qp.valid_from,
                    "observed_degree": qp.degree(),
                    "quasipolynomial": qp.to_json(),
                    "extrapolation": [
                        {"n": n, "expected": counts[n], "predicted": str(qp.evaluate(n))}
                        for n in sorted(extrap_ns)
                    ],
                }
            )
            return result
    result.update({"ok": False, "valid_from": None})
    return result
