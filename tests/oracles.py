"""Brute-force references that the fast paths of the package are tested against."""

import functools
import sys

from eqhilb import (
    Abacus,
    AmbiguousQuotientError,
    Box,
    InsufficientSamplesError,
    NotNCoreError,
    Partition,
    PreconditionError,
    color,
    enumerate_balanced,
    fit_quasipolynomial,
    invariant_arrows,
    partitions_of,
    psi,
    runners,
)
from eqhilb import coloring
from eqhilb.abacus import _beta, _rows_of_beta
from eqhilb.stabilization import _anchor, _positive_weights, _reassemble


@functools.cache
def _partitions(size):
    return tuple(partitions_of(size))


def weight_vector(g, lam):
    """Residue histogram of a colored diagram: entry s counts the boxes of
    color (a*i + b*j) % n."""
    counts = [0] * g.n
    for j, length in enumerate(lam.rows):
        for i in range(length):
            counts[(g.a * i + g.b * j) % g.n] += 1
    return tuple(counts)


def brute_force_balanced(g, r):
    """Filter all partitions of r*n on their residue histogram."""
    flat = (r,) * g.n
    return tuple(sorted(lam for lam in _partitions(r * g.n) if weight_vector(g, lam) == flat))


def live_prefixes(members):
    """Distinct row prefixes of ``members`` up to the start of each all-ones
    tail, the empty one included: each is a node of the balanced search,
    which emits such a tail at once."""
    prefixes = set()
    for lam in members:
        rows = lam.rows
        stem = len(rows)
        while stem and rows[stem - 1] == 1:
            stem -= 1
        prefixes.update(rows[:k] for k in range(stem + 1))
    return len(prefixes)


def partitions_by_recursion(m):
    """Row tuples of every partition of ``m``, first row descending and then
    recursively the same: the recursive generator ``partitions_of`` replaced."""

    def rec(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(m, m)


def search_nodes(g, r):
    """Nodes the balanced search visits for the family of ``(g, r)``: the
    calls of its inner ``extend``, counted by a profile hook on a fresh
    search of the family's normal form ``(1, c; m)``, past both memos,
    whatever they hold."""
    _, _, form = coloring._normal_form(coloring._family_key(g, r))
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "extend" and code.co_filename == coloring.__file__:
            nodes += 1

    sys.setprofile(hook)
    try:
        coloring._search(*form)
    finally:
        sys.setprofile(None)
    return nodes


def col_height(lam, i):
    """Height of column i: the number of rows longer than i."""
    return sum(1 for row in lam.rows if row > i)


def valid_from_by_suffixes(counts, period, degree_bound):
    """The quasipolynomial fit of ``verify_quasipolynomial``, found by search:
    hold out the two largest orders of each residue class of ``counts``
    (order -> value), refit on the remaining orders from each first order
    in turn, and return the first fit that validates and extrapolates to
    the held-out orders (its ``valid_from`` is that first order); None if a
    residue class runs short of points first."""
    by_class = {}
    for n in counts:
        by_class.setdefault(n % period, []).append(n)
    holdout = {n for ns in by_class.values() for n in sorted(ns)[-2:]}
    fit_ns = [n for n in counts if n not in holdout]
    for start in sorted(set(fit_ns)):
        sub = [(n, counts[n]) for n in fit_ns if n >= start]
        if {n % period for n, _ in sub} != set(by_class):
            return None
        try:
            qp = fit_quasipolynomial(sub, period, degree_bound)
        except InsufficientSamplesError:
            return None
        if qp.all_validated() and all(qp.evaluate(n) == counts[n] for n in holdout):
            return qp
    return None


def gottsche_l_class(n, r):
    """Coefficients in L of the class of Hilb^r of the minimal resolution of
    A_{n-1}: the coefficient of t^r in
    prod_{k>=1} 1/((1 - L^{k+1} t^k)(1 - L^k t^k)^{n-1})  (Goettsche).
    Each factor 1/(1 - x) turns the series S into T = S + x*T, filled in
    by increasing power of t; no power of L in the t^r term exceeds 2r."""
    top = 2 * r
    series = [[0] * (top + 1) for _ in range(r + 1)]
    series[0][0] = 1
    for k in range(1, r + 1):
        for e in [k + 1] + [k] * (n - 1):
            for d in range(k, r + 1):
                for i, c in enumerate(series[d - k][:top + 1 - e]):
                    series[d][i + e] += c
    coeffs = series[r]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def diagonal(g, k):
    """Lattice points ``(i, j)`` with ``a*i + b*j = k``, by ascending ``i``,
    found by trying every column; ``g`` has positive weights."""
    return tuple(Box(i, (k - g.a * i) // g.b) for i in range(k // g.a + 1)
                 if (k - g.a * i) % g.b == 0)


def psi_inverse_by_search(g, r, mu):
    """Preimage of ``mu`` under the insertion step, found by applying the
    insertion to every balanced diagram at order ``n``; None if there is none."""
    return next((lam for lam in enumerate_balanced(g, r) if psi(g, r, lam) == mu), None)


def psi_by_boxes(g, r, lam):
    """The insertion step box by box: per region-A box colored in [n-b, n-1]
    its column gains a cells, per region-B box colored in [n-a, n-1] its row
    gains b cells; unchecked."""
    g = _positive_weights(g)
    a, b, n = g.a, g.b, g.n
    i0, j0 = _anchor(g, r, lam)
    heights = [col_height(lam, i) for i in range(i0)]
    rows = [lam.row_len(j) for j in range(j0)]
    for box in lam.boxes():
        k = color(g, box)
        if k >= n - b and box.i < i0:
            heights[box.i] += a
        elif k >= n - a and box.i >= i0:
            rows[box.j] += b  # box.j < j0: the anchor lies outside lam
    return _reassemble(rows, heights, j0)


def psi_inverse_by_boxes(g, r, mu):
    """The preimage under the insertion step box by box: the boxes of mu
    colored below n at order n + a*b, counted per column left of the anchor
    and per row below it; unchecked."""
    g = _positive_weights(g)
    big = g.with_n(g.n + g.a * g.b)
    i0, j0 = _anchor(big, r, mu)
    heights = [0] * i0
    rows = [0] * j0
    for box in mu.boxes():
        if color(big, box) < g.n:
            if box.i < i0:
                heights[box.i] += 1
            if box.j < j0:
                rows[box.j] += 1
    return _reassemble(rows, heights, j0)


def split_of_class(g, lam, anchor, k):
    """Boxes of color class k in region A (strictly left of the anchor, at
    or above its row) and in region B (at or right of the anchor, strictly
    below its row), the split the insertion step cuts at; g has positive
    weights."""
    boxes = [box for box in lam.boxes() if color(g, box) == k]
    return (
        tuple(box for box in boxes if box.i < anchor.i and box.j >= anchor.j),
        tuple(box for box in boxes if box.i >= anchor.i and box.j < anchor.j),
    )


def phi(g, anchor, box):
    """Shift a region-A box down by a, a region-B box left by b.  Restricted
    to a color class k in [r*a*b, n-1] it should biject onto class k - a*b."""
    i, j = box
    if i < anchor.i and j >= anchor.j:
        return Box(i, j - g.a)
    if i >= anchor.i and j < anchor.j:
        return Box(i - g.b, j)
    raise PreconditionError(f"{box} lies in neither region of the split at {anchor}")


def cotangent_weights(g, lam):
    """Torus weights on the cotangent space at a balanced diagram, sorted:
    the weights of its invariant arrows, 2r of them for r*n boxes."""
    return tuple(sorted(ar.weight for ar in invariant_arrows(g, lam)))


def is_lex_positive(weight):
    """Positivity under any torus direction with p >> q > 0."""
    return weight[0] > 0 or (weight[0] == 0 and weight[1] > 0)


def cell_dimension_by_boxes(a, b, n, lam):
    """The hook count box by box: every box with a*(arm+1) = b*leg mod n,
    plus every row-end box with b*(leg+1) = 0 mod n."""
    heights = lam.conjugate().rows
    dim = 0
    for j, length in enumerate(lam.rows):
        for arm1, height in zip(range(length, 0, -1), heights):
            if (a * arm1 - b * (height - 1 - j)) % n == 0:
                dim += 1
        if b * (heights[length - 1] - j) % n == 0:
            dim += 1
    return dim


def from_abacus(ab):
    """The partition of an abacus read off its boundary word: each 1 is a
    part equal to the number of 0s before it; the offset plays no part."""
    parts = [ab.word[:p].count(0) for p, x in enumerate(ab.word) if x]
    return Partition(sorted(filter(None, parts), reverse=True))


def abacus_charge(ab):
    """Beads at nonnegative positions minus gaps at negative positions; with
    all of (-inf, offset) beaded this telescopes to offset + beads in the word."""
    return ab.offset + sum(ab.word)


def abacus_canonical(ab):
    """The same abacus trimmed to the window from the first 0 to the last 1."""
    word = list(ab.word)
    offset = ab.offset
    while word and word[0] == 1:
        word.pop(0)
        offset += 1
    while word and word[-1] == 0:
        word.pop()
    return Abacus(tuple(word), offset)


def hook_lengths(lam):
    """The hook length ``arm + leg + 1`` of every box of ``lam``, box by box."""
    return [length - i + col_height(lam, i) - j - 1
            for j, length in enumerate(lam.rows) for i in range(length)]


def core_by_hook_removal(lam, n):
    """The n-core of ``lam``: remove the rim hook of a box of hook length n
    while there is one.  For box ``(i, j)`` with leg ``leg``, rows
    ``j..j+leg-1`` take the length of the row above minus one and row
    ``j+leg`` keeps ``i`` boxes."""
    rows = list(lam.rows)
    while True:
        hook = next(
            ((i, j, leg)
             for j, length in enumerate(rows)
             for i in range(length)
             for leg in [sum(1 for above in rows[j + 1:] if above > i)]
             if length - i + leg == n),
            None,
        )
        if hook is None:
            return Partition(r for r in rows if r)
        i, j, leg = hook
        rows[j:j + leg + 1] = [above - 1 for above in rows[j + 1:j + leg + 1]] + [i]


def from_core_quotient_by_redecomposition(core, quot):
    """``from_core_quotient`` by search: build the candidate of each
    consistent alignment, keep those whose runner decomposition gives back
    ``(quot.parts, core)``, and only when that leaves not exactly one,
    decompose ``core`` to tell a non-core from a missing or an ambiguous
    preimage."""
    n = len(quot.parts)
    sizes = [0] * n
    for x in _beta(core.rows, -(-len(core.rows) // n) * n):
        sizes[x % n] += 1
    rotations = range(n) if quot.alignment is None else (quot.alignment % n,)
    matches = set()
    for rho in rotations:
        abs_parts = [quot.parts[(s - rho) % n].rows for s in range(n)]
        extra = max(0, *(len(p) - c for p, c in zip(abs_parts, sizes)))
        lam = Partition(_rows_of_beta(sorted(
            [s + n * y for s, (p, c) in enumerate(zip(abs_parts, sizes)) for y in _beta(p, c + extra)],
            reverse=True)))
        back, back_core = runners(lam, n)
        if back.parts == quot.parts and back_core == core:
            matches.add(lam)
    if len(matches) == 1:
        return matches.pop()
    if runners(core, n)[1] != core:
        raise NotNCoreError(f"{core} is not an {n}-core")
    if not matches:
        raise PreconditionError(
            f"no partition has core {core} and quotient {quot} with the given alignment"
        )
    raise AmbiguousQuotientError(
        f"quotient {quot} with core {core} has {len(matches)} preimages "
        f"({', '.join(str(m) for m in sorted(matches))}); pass the alignment "
        "recorded by runners() to pick one"
    )
