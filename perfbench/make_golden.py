"""Record the golden L-class coefficient vectors the benchmark compares against.

Run from the repository root, on the commit whose results are trusted:

    PYTHONPATH=src python3 perfbench/make_golden.py

It writes ``perfbench/golden.json``: for every family ``(a, b, n, r)``
that some workload requests, at either scale, the coefficients of
``l_class``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from eqhilb import GroupParams, l_class  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    tracer = workloads.Tracer(enabled=False)
    keys = set()
    for scale in workloads.SCALES:
        for name in workloads.WORKLOADS:
            for op_keys, _ in workloads.build_ops(name, scale, 0, {}, tracer):
                keys.update(op_keys)
    golden = {
        workloads.golden_key(a, b, n, r): list(l_class(GroupParams(a, b, n), r).coeffs)
        for a, b, n, r in sorted(keys)
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items()))
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} L-classes to {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
