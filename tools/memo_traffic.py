"""Memo traffic of one cold pass of each benchmark workload.

For each workload of ``perfbench/workloads.py`` (``grid``, ``deep`` and
``checks``, at full scale) it empties the family memo of
``eqhilb.coloring``, runs one pass of the workload's operations untraced,
and counts the memo's misses from its ``cache_info()``: one per coloring key
``(a mod n, b mod n, n, r)`` the pass asked for, and one per base key of a
normal form that a stretched or aliased key read through the memo.  It
records each missed key as the miss reduces it to its normal form, then
reads back through those keys what the pass leaves in the memo: ``records``
counts the distinct records, as the keys of one normal form without a
pseudo-reflection share one; ``members_held`` counts every member of every
distinct record, and ``distinct_members`` the distinct partitions among
them, which the records of different keys may share; ``member_objects``
counts the distinct member objects (by ``id``), which equals
``distinct_members`` when the records share each equal member.  The seed
orders the requests but does not change which keys they hit, so none of
these depend on it.

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
    """Family-memo misses of one pass from an empty memo, and the records and
    members the pass leaves in it."""
    memo = coloring._balanced_family
    memo.cache_clear()
    missed = []
    normal_form = coloring._normal_form

    def recording_form(key):
        missed.append(key)
        return normal_form(key)

    tracer = workloads.Tracer(enabled=False)
    ops = workloads.build_ops(workload, "full", 0, golden, tracer)
    coloring._normal_form = recording_form
    try:
        _, _, failed, _ = workloads.run_pass(ops, tracer)
    finally:
        coloring._normal_form = normal_form
    if failed:
        raise SystemExit(f"{failed} operations of {workload} failed")
    info = memo.cache_info()
    if info.misses > coloring._MEMO_SIZE or info.currsize != len(missed):
        raise SystemExit(f"{workload} keeps {info.currsize} of {info.misses} missed families; "
                         f"reading back needs each kept, at most {coloring._MEMO_SIZE}")
    records = {id(record): record for record in map(memo, missed)}.values()
    members = [lam for record in records for lam in record.members]
    return {"family_misses": info.misses, "records": len(records),
            "members_held": len(members), "distinct_members": len(set(members)),
            "member_objects": len(set(map(id, members)))}


def main() -> None:
    golden = workloads.load_golden()
    report = {name: cold_pass_traffic(name, golden) for name in workloads.WORKLOADS}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
