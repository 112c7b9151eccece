"""One measured process of the eqhilb benchmark.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to
the checkout's ``src``, so every ``lru_cache`` of eqhilb starts empty.
It runs one cold pass of the workload; untraced it then repeats the pass
a fixed number of times warm and reads the process's peak resident
memory, traced it writes the spans of the cold pass to ``--spans``.
Every pass runs under a ``speed.Speedometer``.  The last line of its
output is one JSON object: ``cold_s`` is the cold pass and ``warm_s``
the mean warm pass, in seconds as measured, and ``cold_slowdown`` and
``warm_slowdown`` the machine's slowdown while they ran.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import eqhilb  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

#: warm passes per process, one to two seconds in all at the seed commit
WARM_PASSES = {"grid": 240, "deep": 8000, "checks": 2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--spans", type=Path, help="trace the cold pass, write its spans here")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    src = Path.cwd().resolve() / "src"
    if Path(eqhilb.__file__).resolve().parent.parent != src:
        print(f"error: eqhilb was imported from {eqhilb.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    oracle_checked: set = set()

    def one_pass(tracer):
        ops = workloads.build_ops(args.workload, args.scale, args.seed, golden, tracer,
                                  oracle_checked)
        return workloads.run_pass(ops, tracer)

    meter = speed.Speedometer()
    tracer = workloads.Tracer(enabled=args.spans is not None, clock=meter.clock)
    with meter:
        cold_s, attempted, failed, keys = one_pass(tracer)
    result = {"cold_s": cold_s, "cold_slowdown": meter.slowdown(),
              "attempted": attempted, "failed": failed}
    if args.spans is not None:
        tracer.write(args.spans)
        result["layers"] = tracer.layer_totals()
        result["repeat_share"], result["canonical_repeat_share"] = workloads.repeat_shares(keys)
    else:
        meter = speed.Speedometer()
        quiet = workloads.Tracer(enabled=False, clock=meter.clock)
        warm_s = 0.0
        with meter:
            for _ in range(WARM_PASSES[args.workload]):
                seconds, done, bad, _ = one_pass(quiet)
                warm_s += seconds
                result["attempted"] += done
                result["failed"] += bad
        result["warm_s"] = warm_s / WARM_PASSES[args.workload]
        result["warm_slowdown"] = meter.slowdown()
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
