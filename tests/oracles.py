"""Brute-force references that the fast paths of the package are tested against."""

import functools
import inspect
import os
import sys
from fractions import Fraction

from eqhilb import (
    Abacus,
    AmbiguousQuotientError,
    Box,
    InsufficientSamplesError,
    InvariantViolationError,
    MultiPartition,
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
    to_abacus,
)
from eqhilb import coloring
from eqhilb.abacus import _beta, _rows_of_beta
from eqhilb.stabilization import _anchor, _positive_weights


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


def _run_on_line(search, form, text, action):
    """Run ``search(*form)`` with ``action(frame)`` called each time a frame of
    the search's inner ``extend`` runs the one line of its source that reads
    ``text``: a ``sys.settrace`` line hook, found by the line's text and
    taken off again afterwards, whatever trace function was there before."""
    lines, start = inspect.getsourcelines(search)
    at = [start + i for i, line in enumerate(lines) if line.strip() == text]
    assert len(at) == 1, (search.__name__, text, at)
    lineno, = at
    filename = search.__code__.co_filename

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == lineno:
            action(frame)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        return local if code.co_name == "extend" and code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        search(*form)
    finally:
        sys.settrace(previous)


def search_nodes(g, r):
    """Nodes the balanced search visits for the family of ``(g, r)``: the
    runs of a node's first line, ``below = starts[k - 1]``, counted by a line
    hook on a fresh search of the family's normal form ``(1, c; m)``.  It
    calls ``coloring._search``, which keeps no memo, so it counts every node
    whatever the family memo holds."""
    _, _, form = coloring._normal_form(coloring._family_key(g, r))
    nodes = 0

    def count(frame):
        nonlocal nodes
        nodes += 1

    _run_on_line(coloring._search, form, "below = starts[k - 1]", count)
    return nodes


def rows_left_by_prefix(search, form):
    """The ``rows_left`` of every node of ``search(*form)`` with boxes left,
    keyed by the node's row prefix: a line hook reads both where the node
    tests ``if rows_left == 0:``.  ``search`` is ``coloring._search`` or
    ``search_by_column_scan``, neither memoized, so the search is fresh
    whatever the family memo holds."""
    seen = {}

    def read(frame):
        names = frame.f_locals
        seen[tuple(names["rows"])] = names["rows_left"]

    _run_on_line(search, form, "if rows_left == 0:", read)
    return seen


def search_depth(form):
    """The deepest nesting of frames of ``coloring._search``'s inner
    ``extend`` on ``form``, counted by a call/return profile hook, which is
    taken off again afterwards, whatever profile function was there before."""
    depth = deepest = 0
    filename = coloring._search.__code__.co_filename

    def hook(frame, event, arg):
        nonlocal depth, deepest
        code = frame.f_code
        if code.co_name == "extend" and code.co_filename == filename:
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        coloring._search(*form)
    finally:
        sys.setprofile(previous)
    return deepest


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


def interpolate_by_lagrange_basis(points):
    """Coefficients (ascending) of the polynomial through ``points``, exact:
    one Lagrange basis polynomial per point, multiplied out and summed."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for idx, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for jdx, (xj, _) in enumerate(points):
            if jdx == idx:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            basis = nxt
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def multipartition_count_by_factors(n, r):
    """Coefficient of ``t^r`` in ``prod_{k>=1} (1 - t^k)^(-n)``: the series is
    multiplied ``n`` times by each factor ``1 / (1 - t^k)``, ``k <= r``."""
    series = [1] + [0] * r
    for part in range(1, r + 1):
        for _ in range(n):
            for m in range(part, r + 1):
                series[m] += series[m - part]
    return series[r]


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


def reassemble_by_counts(rows, heights, j0):
    """The diagram with ``rows`` below row ``j0`` and, from row ``j0`` up,
    row ``j`` the number of column ``heights`` above ``j``, counted row by
    row: ``stabilization._reassemble`` before it read those rows as the
    conjugate of the sorted heights."""
    rows = rows + [sum(1 for h in heights if h > j) for j in range(j0, max(heights, default=0))]
    while rows and rows[-1] == 0:
        rows.pop()
    try:
        return Partition(rows)
    except ValueError as exc:
        raise InvariantViolationError(
            f"the regions reassemble to a non-monotone profile: {rows}"
        ) from exc


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
    return reassemble_by_counts(rows, heights, j0)


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
    return reassemble_by_counts(rows, heights, j0)


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


def tangent_character_by_hom(lam):
    """The torus character ``{(u, v): dimension}`` of the tangent space
    ``Hom(I, A/I)`` at the monomial ideal ``I`` of ``lam``, from its
    definition rather than from arm and leg lengths.

    A map of weight ``(u, v)`` sends each monomial ``m`` of ``I`` to
    ``c_m * m*x^u*y^v``, and ``c_m`` can be nonzero only where that product
    is a box.  Commuting with ``x`` ties ``c_m`` to ``c_{x*m}`` when both
    products are boxes, and forces ``c_{x*m} = 0`` when ``m`` lies in ``I``
    but ``m*x^u*y^v`` leaves the quadrant; likewise for ``y``.  So the
    dimension counts the components of the tied monomials (union-find) that
    hold no forced zero.  For ``u < -width`` every row of monomials reaches
    a forced zero left of column 0, and ``u >= width`` puts no box at all in
    reach; likewise for ``v`` and the height, so only those weights are read.
    """
    boxes = set(lam.boxes())
    width, height = (lam.rows[0], len(lam.rows)) if lam.rows else (0, 0)

    def in_ideal(i, j):
        return i >= 0 and j >= 0 and (i, j) not in boxes

    def find(m):
        while parent[m] != m:
            parent[m] = m = parent[parent[m]]
        return m

    character = {}
    for u in range(-width, width):
        for v in range(-height, height):
            parent = {(i - u, j - v): (i - u, j - v) for i, j in boxes if in_ideal(i - u, j - v)}
            for i, j in parent:
                for tied in ((i + 1, j), (i, j + 1)):
                    if tied in parent:
                        parent[find(tied)] = find((i, j))
            dead = {find((i, j)) for i, j in parent
                    for pi, pj in ((i - 1, j), (i, j - 1))
                    if in_ideal(pi, pj) and (pi + u < 0 or pj + v < 0)}
            live = len({find(m) for m in parent} - dead)
            if live:
                character[u, v] = live
    return character


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


def runners_by_abacus(lam, n):
    """``runners(lam, n)`` read off the word of ``to_abacus(lam)``: runner
    ``s`` is every ``n``-th position of the word from ``s``, its part is the
    partition of that runner's own word (``from_abacus``), the core is the
    partition of the word with every runner's beads slid down to its start,
    and the alignment is the window start mod ``n``."""
    ab = to_abacus(lam)
    counts = [sum(ab.word[s::n]) for s in range(n)]
    parts = tuple(from_abacus(Abacus(ab.word[s::n], 0)) for s in range(n))
    core_word = tuple(int(p // n < counts[p % n]) for p in range(n * max(counts, default=0)))
    return MultiPartition(parts, ab.offset % n), from_abacus(Abacus(core_word, 0))


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


def search_by_column_scan(c, m, r):
    """``coloring._search`` as it was before the search carried its column-0
    bound from parent to child: every node walks column 0 from its own row
    to count the rows left, the boxes the histogram can still take.  Same
    rows, order and statistics; no row-end cap, so it visits more nodes."""
    total = r * m
    # two lists of m*(r+1) colors: row j is the cycle 0, 1, ..., m-1 read
    # from cycle[starts[k]], its start c*j with k = j mod m, for up to r*m
    # boxes, and column 0 from row k reads starts[k:], at most r*m boxes;
    # the colors along row j - 1 are also the keys of rows of those lengths
    starts = [c * j % m for j in range(m)] * (r + 1)
    cycle = list(range(m)) * (r + 1)
    # columns repeat their colors every m rows, so the t-th box of a column
    # walk has a color it has already visited laps[t] times; a run of k
    # equal rows holds laps[k] row ends that count
    laps = [t // m for t in range(total + 1)]
    counts = [0] * m
    # how many open column ends have each key i + c*h_i mod m: a balanced
    # diagram's take the residues of the i below its first row (module
    # docstring), and the root closes phantom columns i >= l_0 at height 0
    ends = [r] * m
    # how many placed rows have each key l + c*j mod m; the root counts
    # a row -1 of length r*m like every node counts its last row, so that
    # phantom starts at -1
    keys = [0] * m
    keys[-c % m] = -1
    rows: list[int] = []
    found: list[tuple[int, ...]] = []
    dims: list[int] = []

    def extend(remaining: int, max_row: int, k: int, dim: int, run: int) -> None:
        # rows 0..j-1 are placed and end in a run of run rows of length
        # max_row, and dim counts their closed columns and ended runs; k is
        # j mod m, row j - 1 starts at below (row -1 at row m - 1's start),
        # column i closes at height j with key cycle[below + i] = i +
        # c*(j-1), and cycle[below + max_row] is the key of row j-1
        below = starts[k - 1]
        if remaining == 0:
            # the open columns close, each matching the earlier rows and row j-1
            cols = cycle[below:below + max_row]
            found.append(tuple(rows))
            dims.append(dim + laps[run] + sum(map(keys.__getitem__, cols))
                        + cols.count(cycle[below + max_row]))
            return
        # every row from j on puts one box in column 0, so row j, the
        # longest of the rest, holds at least remaining / rows_left
        rows_left = remaining
        for t in range(remaining):
            if counts[starts[k + t]] + laps[t] >= r:
                rows_left = t
                break
        if rows_left == 0:
            return
        shortest = -(-remaining // rows_left)
        row, after = starts[k], (k + 1) % m
        i, end = row, row + min(max_row, remaining)
        while i < end and counts[cycle[i]] < r:
            counts[cycle[i]] += 1
            i += 1
        length = i - row
        # row j-1 joins the key histogram for this node and the nodes below
        # it; a row j of length l ends the run above and closes columns
        # l..max_row-1 at height j with the ends cycle[row + l:row + max_row],
        # and closed counts the matches of columns shut..max_row-1, closed so far
        last = cycle[below + max_row]
        keys[last] += 1
        closed = dim + laps[run]
        shut = max_row
        rows.append(0)
        while length >= shortest:
            # a shorter row closes more columns, so the first row that
            # closes one whose end is no longer open ends the loop
            while shut > length and ends[cycle[row + shut - 1]]:
                shut -= 1
                ends[cycle[row + shut]] -= 1
                closed += keys[cycle[below + shut]]
            if shut > length:
                break
            rows[-1] = length
            if length == 1:
                # shortest is 1, so every remaining column-0 box fits and
                # the all-ones tail closes: its run ends, and column 0
                # closes at height j + remaining, matching earlier rows and
                # the tail rows j + t, keyed 1 + c*(j + t)
                top = starts[k + remaining - 1]
                found.append(tuple(rows) + (1,) * (remaining - 1))
                dims.append(closed + laps[remaining] + keys[top]
                            + starts[k:k + remaining].count((top - 1) % m))
                break
            # only the first child can repeat the row above
            same = length == max_row
            extend(remaining - length, length, after, dim if same else closed, run + 1 if same else 1)
            length -= 1
            counts[cycle[row + length]] -= 1
        rows.pop()
        for col in cycle[row + shut:row + max_row]:
            ends[col] += 1
        keys[last] -= 1
        for col in cycle[row:row + length]:
            counts[col] -= 1

    extend(total, total, 0, 0, 0)
    return tuple(found), tuple(dims)


def box_ceiling_by_environ_get():
    """The box ceiling read through ``os.environ.get``, with the messages of
    ``coloring._box_ceiling``."""
    value = os.environ.get(coloring.MAX_BOXES_ENV, coloring.DEFAULT_MAX_BOXES)
    try:
        ceiling = int(value)
    except ValueError:
        raise PreconditionError(f"{coloring.MAX_BOXES_ENV} must be an integer, got {value!r}") from None
    if ceiling < 0:
        raise PreconditionError(f"{coloring.MAX_BOXES_ENV} must be a nonnegative integer, "
                                f"got {value!r}")
    return ceiling
