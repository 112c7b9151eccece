"""Workloads, correctness checks and span tracing for the eqhilb benchmark.

A workload is a closed batch: one caller in one thread issues each
operation and waits for its result before the next.  An operation is one
``(g, r)`` instance, one check call or one CLI call; it returns True when
every check on its results passed.  The seed fixes the order of the
instances and the sampled inputs, never how many inputs there are or how
large they are.

Every call into an eqhilb layer goes through ``Tracer.call``.  With
tracing off that is a plain call; with tracing on it records one span
(name, start, end, parent span, operation id) in memory.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from eqhilb import (
    GroupParams,
    LPolynomial,
    Partition,
    enumerate_balanced,
    from_core_quotient,
    has_empty_core,
    hj_expand,
    is_balanced,
    l_class,
    multipartition_count,
    partitions_of,
    psi,
    psi_inverse,
    runners,
    verify_period,
    verify_quasipolynomial,
)
from eqhilb import cli

WORKLOADS = ("grid", "deep", "checks")
SCALES = ("full", "tiny")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

GRID_WEIGHTS = ((1, 1), (1, 2), (2, 3), (1, -1), (1, -2), (2, -3))
#: (a, b, n, r); all within the default ceiling r*n <= 80
DEEP_INSTANCES = {
    "full": (
        (1, 2, 20, 4), (1, 3, 26, 3), (1, 5, 36, 2), (3, 4, 30, 2),
        (2, 5, 30, 2), (1, -1, 40, 2), (1, -2, 15, 3),
    ),
    "tiny": ((1, 2, 8, 2), (2, 3, 7, 2), (1, -1, 10, 2), (1, -2, 5, 2)),
}
#: grid bound on r*n
GRID_MAX_BOXES = {"full": 24, "tiny": 6}
GRID_MAX_N = {"full": 8, "tiny": 3}
#: ((a, b), r, n_from, n_to) for verify_period
PERIOD_CHECKS = {
    "full": (((1, 1), 3, 4, 14), ((1, 2), 2, 5, 14), ((1, 3), 2, 7, 16), ((2, 3), 1, 7, 24)),
    "tiny": (((1, 1), 1, 2, 5), ((1, 2), 1, 3, 6)),
}
#: ((a, b), r, n_from, n_to) for verify_quasipolynomial
QPOLY_CHECKS = {
    "full": (((1, -1), 4, 2, 12), ((1, -3), 2, 2, 22), ((1, -2), 2, 3, 22)),
    "tiny": (((1, -1), 2, 2, 10), ((1, -2), 1, 3, 15)),
}
ABACUS_MAX_SIZE = {"full": 16, "tiny": 6}
ABACUS_MAX_N = 5
EMPTY_CORE_MAX_SIZE = {"full": 20, "tiny": 8}
EMPTY_CORE_NS = (2, 3, 4, 5)
#: the CLI calls repeat one sweep of each kind, so they read the caches
CLI_CALLS = {
    "full": (
        ["verify-period", "--a", "1", "--b", "2", "--r", "2", "--n-from", "5", "--n-to", "14"],
        ["verify-qpoly", "--a", "1", "--b", "-2", "--r", "2", "--n-from", "3", "--n-to", "22",
         "--format", "json"],
        ["poincare", "--a", "2", "--b", "3", "--r", "1", "--n-from", "7", "--n-to", "24",
         "--format", "csv"],
    ),
    "tiny": (
        ["verify-period", "--a", "1", "--b", "2", "--r", "1", "--n-from", "3", "--n-to", "6"],
        ["verify-qpoly", "--a", "1", "--b", "-2", "--r", "1", "--n-from", "3", "--n-to", "15",
         "--format", "json"],
        ["poincare", "--a", "1", "--b", "1", "--r", "1", "--n-from", "2", "--n-to", "5",
         "--format", "csv"],
    ),
}
PSI_INVERSE_DRAWS = {"full": 3, "tiny": 1}
#: brute-force oracle (partitions_of + is_balanced) up to this many boxes
BRUTE_FORCE_MAX_BOXES = 12


def golden_key(a: int, b: int, n: int, r: int) -> str:
    return f"{a},{b},{n},{r}"


def load_golden() -> dict[str, list[int]]:
    """L-class coefficient vectors recorded at the seed commit."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Tracer:
    """Spans around calls into eqhilb layers, kept in memory.

    A span is ``[name, start, end, parent, op, items, error]``; ``parent``
    is the index of the enclosing span or -1, ``op`` the operation id.
    Start and end are read from ``clock``.
    """

    def __init__(self, enabled: bool, clock=perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, items=None, ok=None):
        """Call ``fn(*args)``; when tracing, record a span.

        ``items(result)`` counts the results returned; ``ok(result)`` is
        False when the call returned a failing verdict, which counts as an
        error of the layer like a raised exception does.
        """
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0, False]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = self.clock()
        try:
            result = fn(*args)
        except Exception:
            span[6] = True
            raise
        finally:
            span[2] = self.clock()
            self._stack.pop()
        if items is not None:
            span[5] = items(result)
        if ok is not None and not ok(result):
            span[6] = True
        return result

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self time, calls, items and errors per span name.

        Self time is a span's duration minus the durations of its children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, _, items, error) in enumerate(self.spans):
            t = totals.setdefault(name, {"s": 0.0, "calls": 0, "items": 0, "errors": 0})
            t["s"] += end - start - child_time[k]
            t["calls"] += 1
            t["items"] += items
            t["errors"] += error
        return totals

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op", "items", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def run_pass(ops, tracer: Tracer) -> tuple[float, int, int, list[tuple]]:
    """Run every operation; return seconds taken, attempted, failed and family keys.

    ``ops`` yields ``(keys, check)`` pairs: ``keys`` lists the ``(a, b, n,
    r)`` families the operation requests, ``check(tracer)`` runs it.  The
    seconds are read from ``tracer.clock`` and include the input
    generation.
    """
    attempted = failed = 0
    keys: list[tuple] = []

    def sweep():
        nonlocal attempted, failed
        for op_keys, check in ops:
            attempted += 1
            keys.extend(op_keys)
            tracer.op += 1
            try:
                ok = tracer.call("bench.op", check, tracer)
            except Exception:  # an operation that raised counts as failed
                traceback.print_exc(file=sys.stderr)
                ok = False
            failed += not ok

    start = tracer.clock()
    tracer.call("bench.pass", sweep)
    return tracer.clock() - start, attempted, failed, keys


def repeat_shares(keys: list[tuple]) -> tuple[float, float]:
    """Shares of requests whose family key was already requested.

    The plain key is ``(a mod n, b mod n, n, r)``; the canonical key is
    ``(n, b * a^-1 mod n, r)`` when ``a`` is a unit mod ``n`` and the
    plain key otherwise.
    """
    if not keys:
        return 0.0, 0.0
    plain, canonical = set(), set()
    for a, b, n, r in keys:
        plain.add((a % n, b % n, n, r))
        if math.gcd(a, n) == 1:
            canonical.add((n, b * pow(a, -1, n) % n, r))
        else:
            canonical.add((a % n, b % n, n, r))
    total = len(keys)
    return (total - len(plain)) / total, (total - len(canonical)) / total


def build_ops(workload: str, scale: str, seed: int, golden: dict, tracer: Tracer,
              oracle_checked: set | None = None):
    """The operations of one pass, in seeded order, as a generator.

    The generator is lazy: the partitions that the sweeps of ``checks``
    run over are generated, through ``tracer``, during the pass.
    ``oracle_checked`` holds the families of ``grid`` and ``deep`` whose
    results already passed the oracles; pass the same set to every pass
    of a process so that only the first pass runs them.
    """
    rng = random.Random(seed)
    if oracle_checked is None:
        oracle_checked = set()
    if workload == "grid":
        return _family_ops(_grid_instances(scale), rng, golden, oracle_checked)
    if workload == "deep":
        return _family_ops(list(DEEP_INSTANCES[scale]), rng, golden, oracle_checked)
    if workload == "checks":
        return _check_ops(scale, rng, golden, tracer)
    raise ValueError(f"unknown workload {workload!r}")


def _grid_instances(scale: str) -> list[tuple[int, int, int, int]]:
    top = GRID_MAX_BOXES[scale]
    return [
        (a, b, n, r)
        for a, b in GRID_WEIGHTS
        for n in range(1, GRID_MAX_N[scale] + 1)
        for r in range(1, top // n + 1)
    ]


def _family_ops(instances, rng: random.Random, golden: dict, oracle_checked: set):
    instances = list(instances)
    rng.shuffle(instances)
    for a, b, n, r in instances:
        yield ((a, b, n, r),), _family_check(a, b, n, r, golden, oracle_checked)


def _family_check(a, b, n, r, golden, oracle_checked: set):
    """Enumerate, then take the L-class of the already enumerated family.

    Every pass compares the L-class with the golden one.  The oracles
    (the brute-force filter above all) run only the first time a process
    meets the family, so a warm pass times eqhilb's re-run, not them.
    """

    def check(tr: Tracer) -> bool:
        g = GroupParams(a, b, n)
        family = tr.call("coloring.enumerate_balanced", enumerate_balanced, g, r, items=len)
        lc = tr.call("tangent.l_class", l_class, g, r, items=LPolynomial.euler)
        ok = list(lc.coeffs) == golden[golden_key(a, b, n, r)] and lc.euler() == len(family)
        if (a, b, n, r) in oracle_checked:
            return ok
        if r * n <= BRUTE_FORCE_MAX_BOXES:
            ok = ok and _brute_force(tr, g, r) == list(family)
        if (a, b) == (1, -1):
            count = tr.call("analysis.multipartition_count", multipartition_count, n, r)
            ok = ok and count == len(family)
        k = b % n
        if a == 1 and r == 1 and 0 < k and math.gcd(n, k) == 1:
            # the r=1 family is the minimal resolution: L^2 + l*L
            ok = ok and lc.coeffs == (0, len(hj_expand(n, k)), 1)
        if ok:
            oracle_checked.add((a, b, n, r))
        return ok

    return check


def _partitions(tr: Tracer, m: int) -> tuple[Partition, ...]:
    return tr.call(
        "partitions.partitions_of", lambda k: tuple(partitions_of(k)), m, items=len
    )


def _brute_force(tr: Tracer, g: GroupParams, r: int) -> list[Partition]:
    return sorted(
        lam for lam in _partitions(tr, r * g.n)
        if tr.call("coloring.is_balanced", is_balanced, g, lam) == (True, r)
    )


def _period_keys(a, b, r, n_from, n_to):
    period = a * b
    return tuple(
        key
        for n in range(n_from, n_to + 1)
        if n > r * period
        for key in ((a, b, n, r), (a, b, n + period, r))
    )


def _qpoly_keys(a, b, r, n_from, n_to):
    return tuple(
        (a, b, n, r)
        for n in range(n_from, n_to + 1)
        if math.gcd(n, a) == 1 and math.gcd(n, b) == 1
    )


def _check_ops(scale: str, rng: random.Random, golden: dict, tracer: Tracer):
    period_checks = list(PERIOD_CHECKS[scale])
    rng.shuffle(period_checks)
    for (a, b), r, lo, hi in period_checks:
        yield _period_keys(a, b, r, lo, hi), _period_check(a, b, r, lo, hi, golden)

    qpoly_checks = list(QPOLY_CHECKS[scale])
    rng.shuffle(qpoly_checks)
    for (a, b), r, lo, hi in qpoly_checks:
        yield _qpoly_keys(a, b, r, lo, hi), _qpoly_check(a, b, r, lo, hi, golden)

    # the (1,-1) families were enumerated by the quasipolynomial check: cache reads
    (a, b), r, lo, hi = next(c for c in QPOLY_CHECKS[scale] if c[0] == (1, -1))
    counts = list(_qpoly_keys(a, b, r, lo, hi))
    rng.shuffle(counts)
    for key in counts:
        yield (key,), _multipartition_check(*key)

    for top, make_check in ((ABACUS_MAX_SIZE[scale], _abacus_check),
                            (EMPTY_CORE_MAX_SIZE[scale], _empty_core_check)):
        sizes = list(range(top + 1))
        rng.shuffle(sizes)
        for m in sizes:
            parts = list(_partitions(tracer, m))
            rng.shuffle(parts)
            for lam in parts:
                yield (), make_check(lam)

    cli_calls = list(CLI_CALLS[scale])
    rng.shuffle(cli_calls)
    for argv in cli_calls:
        yield _cli_keys(argv), _cli_check(argv, golden)

    for _ in range(PSI_INVERSE_DRAWS[scale]):
        (a, b), r, lo, hi = rng.choice(PERIOD_CHECKS[scale])
        n = rng.randint(max(lo, r * a * b + 1), hi)
        pick = rng.random()
        yield ((a, b, n, r),) * 2, _psi_inverse_cli_check(a, b, n, r, pick)


def _period_check(a, b, r, n_from, n_to, golden):
    def check(tr: Tracer) -> bool:
        report = tr.call(
            "stabilization.verify_period", verify_period,
            GroupParams(a, b, max(n_from, 1)), r, n_from, n_to,
            ok=lambda rep: rep["all_equal"] and rep["all_bijections_ok"],
        )
        expected = sum(1 for n in range(n_from, n_to + 1) if n > r * a * b)
        ok = (
            report["all_equal"]
            and report["all_bijections_ok"]
            and len(report["checks"]) == expected
        )
        for chk in report["checks"]:
            ok = ok and chk["coeffs_n"] == golden[golden_key(a, b, chk["n"], r)]
            ok = ok and chk["coeffs_next"] == golden[golden_key(a, b, chk["n_next"], r)]
            g = GroupParams(a, b, chk["n"])
            for pair in chk["bijection"]["pairs"]:
                source = Partition.parse(pair["source"])
                image = Partition.parse(pair["image"])
                back = tr.call("stabilization.psi_inverse", psi_inverse, g, r, image,
                               ok=source.__eq__)
                ok = ok and back == source
        return ok

    return check


def _qpoly_check(a, b, r, n_from, n_to, golden):
    def check(tr: Tracer) -> bool:
        report = tr.call(
            "analysis.verify_quasipolynomial", verify_quasipolynomial,
            GroupParams(a, b, max(n_from, 1)), r, n_from, n_to,
            ok=lambda rep: rep["ok"],
        )
        expected = {n: sum(golden[golden_key(a, b, n, r)])
                    for _, _, n, _ in _qpoly_keys(a, b, r, n_from, n_to)}
        return report["ok"] and report["counts"] == expected

    return check


def _multipartition_check(a, b, n, r):
    def check(tr: Tracer) -> bool:
        family = tr.call("coloring.enumerate_balanced", enumerate_balanced,
                         GroupParams(a, b, n), r, items=len)
        count = tr.call("analysis.multipartition_count", multipartition_count, n, r)
        return len(family) == count

    return check


def _abacus_check(lam: Partition):
    def check(tr: Tracer) -> bool:
        ok = True
        for n in range(1, ABACUS_MAX_N + 1):
            quot, core = tr.call("abacus.runners", runners, lam, n)
            back = tr.call("abacus.from_core_quotient", from_core_quotient, core, quot,
                           ok=lam.__eq__)
            ok = ok and back == lam and lam.size == core.size + n * quot.total()
        return ok

    return check


def _empty_core_check(lam: Partition):
    def check(tr: Tracer) -> bool:
        ok = True
        for n in EMPTY_CORE_NS:
            empty = tr.call("abacus.has_empty_core", has_empty_core, lam, n)
            balanced, _ = tr.call("coloring.is_balanced", is_balanced, GroupParams(1, -1, n), lam)
            ok = ok and empty == balanced
        return ok

    return check


def _cli_args(argv: list[str]) -> dict[str, str]:
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1) if argv[k].startswith("--")}


def _cli_keys(argv: list[str]) -> tuple:
    args = _cli_args(argv)
    a, b, r = int(args["a"]), int(args["b"]), int(args["r"])
    lo, hi = int(args["n-from"]), int(args["n-to"])
    if argv[0] == "verify-period":
        return _period_keys(a, b, r, lo, hi)
    if argv[0] == "verify-qpoly":
        return _qpoly_keys(a, b, r, lo, hi)
    return tuple((a, b, n, r) for n in range(lo, hi + 1))


def _run_cli(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()

    def invoke() -> int:
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(argv)

    code = tr.call("cli.main", invoke, items=lambda _: len(out.getvalue().encode()),
                   ok=lambda c: c == 0)
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def _cli_check(argv: list[str], golden: dict):
    args = _cli_args(argv)

    def check(tr: Tracer) -> bool:
        code, out = _run_cli(tr, argv)
        if code != 0:
            return False
        if argv[0] == "verify-period":
            return out.splitlines()[-1] == "PASS"
        if argv[0] == "verify-qpoly":
            report = json.loads(out)
            a, b, r = int(args["a"]), int(args["b"]), int(args["r"])
            expected = {str(n): sum(golden[golden_key(a, b, n, r)])
                        for _, _, n, _ in _cli_keys(argv)}
            return report["ok"] and report["counts"] == expected
        return _poincare_csv_ok(out, golden, _cli_keys(argv))

    return check


def _poincare_csv_ok(out: str, golden: dict, keys: tuple) -> bool:
    """One CSV row per requested family, matching its golden L-class."""
    header, *rows = [line.split(",") for line in out.splitlines()]
    if header[:5] != ["a", "b", "n", "r", "euler"] or len(rows) != len(keys):
        return False
    for key, row in zip(keys, rows):
        a, b, n, r, euler, *betti = map(int, row)
        if (a, b, n, r) != key:
            return False
        coeffs = golden[golden_key(a, b, n, r)]
        if euler != sum(coeffs) or betti[::2][:len(coeffs)] != coeffs:
            return False
        if any(betti[1::2]) or any(betti[2 * len(coeffs)::2]):
            return False
    return True


def _psi_inverse_cli_check(a, b, n, r, pick: float):
    """``eqhilb psi --inverse`` on the image of a seeded member of the family."""

    def check(tr: Tracer) -> bool:
        g = GroupParams(a, b, n)
        family = tr.call("coloring.enumerate_balanced", enumerate_balanced, g, r, items=len)
        source = family[int(pick * len(family))]
        image = psi(g, r, source)
        argv = ["psi", "--a", str(a), "--b", str(b), "--n", str(n), "--r", str(r),
                "--partition", str(image), "--inverse"]
        code, out = _run_cli(tr, argv)
        return code == 0 and out.rstrip("\n").endswith(f": {source}")

    return check
