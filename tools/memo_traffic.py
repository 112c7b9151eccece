"""Memo misses of one cold pass of each benchmark workload.

For each workload of ``perfbench/workloads.py`` (``grid``, ``deep`` and
``checks``, at full scale) it empties both memos of ``eqhilb.coloring``,
runs one pass of the workload's operations untraced, and counts the
misses of the family memo (one per coloring key ``(a mod n, b mod n, n,
r)``) and of the search memo below it (one per normal form ``(c, m, r)``),
each read from its ``cache_info()``.  After counting them it reads back, through
the distinct family keys the pass asked for, the members the pass leaves in
the family memo: ``members_held`` counts every member of every record, and
``distinct_members`` the distinct partitions among them, which records of
different keys may share.  The seed orders the requests but does not change
which keys they hit, so none of these depend on it.

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


def cold_pass_traffic(workload: str, golden: dict) -> dict[str, int]:
    """Family-memo and search-memo misses of one pass from empty memos, and
    the members the pass leaves in the family memo."""
    coloring._balanced_family.cache_clear()
    coloring._search.cache_clear()
    keys = set()
    family_key = coloring._family_key

    def recording_key(g, r):
        key = family_key(g, r)
        keys.add(key)
        return key

    tracer = workloads.Tracer(enabled=False)
    ops = workloads.build_ops(workload, "full", 0, golden, tracer)
    coloring._family_key = recording_key
    try:
        _, _, failed, _ = workloads.run_pass(ops, tracer)
    finally:
        coloring._family_key = family_key
    if failed:
        raise SystemExit(f"{failed} operations of {workload} failed")
    report = {"family_misses": coloring._balanced_family.cache_info().misses,
              "search_misses": coloring._search.cache_info().misses}
    if len(keys) > coloring._MEMO_SIZE:
        raise SystemExit(f"{workload} asks for {len(keys)} families, more than the memo holds")
    members = [lam for key in keys for lam in coloring._balanced_family(key).members]
    report.update(members_held=len(members), distinct_members=len(set(members)))
    return report


def main() -> None:
    golden = workloads.load_golden()
    report = {name: cold_pass_traffic(name, golden) for name in workloads.WORKLOADS}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
