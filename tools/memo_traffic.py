"""Memo misses of one cold pass of each benchmark workload.

For each workload of ``perfbench/workloads.py`` (``grid``, ``deep`` and
``checks``, at full scale) it empties both memos of ``eqhilb.coloring``,
runs one pass of the workload's operations untraced, and counts the
misses of the family memo (one per coloring key ``(a mod n, b mod n, n,
r)``) and of the search memo below it (one per normal form ``(c, m, r)``),
each read from its ``cache_info()``.  The seed orders the requests
but does not change which keys they hit, so the misses do not depend on it.

    PYTHONPATH=src python3 tools/memo_traffic.py

Output is one JSON object keyed by workload.  ``tools/memo_traffic.expected``
holds what it prints, and CI diffs a run against it; a change that alters
the memo traffic on purpose updates that file in the same change.  It exits
1 if an operation of a pass fails its checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from eqhilb import coloring  # noqa: E402
import workloads  # noqa: E402


def cold_pass_misses(workload: str, golden: dict) -> dict[str, int]:
    """Family-memo and search-memo misses of one pass from empty memos."""
    coloring._balanced_family.cache_clear()
    coloring._search.cache_clear()
    tracer = workloads.Tracer(enabled=False)
    ops = workloads.build_ops(workload, "full", 0, golden, tracer)
    _, _, failed, _ = workloads.run_pass(ops, tracer)
    if failed:
        raise SystemExit(f"{failed} operations of {workload} failed")
    return {"family_misses": coloring._balanced_family.cache_info().misses,
            "search_misses": coloring._search.cache_info().misses}


def main() -> None:
    golden = workloads.load_golden()
    report = {name: cold_pass_misses(name, golden) for name in workloads.WORKLOADS}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
