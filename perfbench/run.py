"""Benchmark of the eqhilb pipeline: enumeration, statistic, L-class and checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Every cold pass runs in a fresh worker process (``worker.py``) so that
the package's caches start empty.  With ``--trace 0`` a fixed number of
workers run untraced, with ``setup_s`` samples taken before each.  With
``--trace 1`` one untraced and one traced worker run, and the per-layer
metrics come from the spans of the traced one.  The work of a run is
fixed, whatever ``--seconds`` says and however fast the code is, so
every run uses the same estimator.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time reported is scaled to a reference machine speed: the time
as measured divided by the machine's slowdown while it was measured
(``speed.py``).  The printed lines also give the times as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
#: fresh interpreters timed for setup_s in a run, spread evenly before its workers
SETUP_SAMPLES = 24
#: untraced workers of a run without tracing
WORKERS = {"grid": 2, "deep": 3, "checks": 4}
WORKER_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "warm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
#: layer span name -> reported fields; the "bytes" of cli.main are its items
LAYER_FIELDS = {
    "coloring.enumerate_balanced": ("s", "calls", "items", "errors", "items_per_s"),
    "tangent.l_class": ("s", "calls", "items", "errors", "items_per_s"),
    "coloring.is_balanced": ("s", "calls"),
    "partitions.partitions_of": ("s", "calls", "items"),
    "stabilization.verify_period": ("s", "calls", "errors"),
    "stabilization.psi_inverse": ("s", "calls", "errors"),
    "analysis.verify_quasipolynomial": ("s", "calls", "errors"),
    "analysis.multipartition_count": ("s", "calls"),
    "abacus.runners": ("s", "calls"),
    "abacus.from_core_quotient": ("s", "calls", "errors"),
    "abacus.has_empty_core": ("s", "calls"),
    "cli.main": ("s", "calls", "errors", "bytes"),
}
FIELD_UNITS = {"s": "s", "calls": "count", "items": "count", "errors": "count",
               "items_per_s": "1/s", "bytes": "bytes"}
PER_LAYER_EXTRA = {
    "coloring.enumerate_balanced.repeat_share": "ratio",
    "coloring.enumerate_balanced.canonical_repeat_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}
NO_WAIT_NOTE = ("no layer waits on another thread, process, lock or queue: "
                "wait time is not recorded")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{layer}.{field}": FIELD_UNITS[field]
        for layer, fields in LAYER_FIELDS.items()
        for field in fields
    }
    units.update(PER_LAYER_EXTRA)
    return units


class WorkerError(RuntimeError):
    pass


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("EQHILB_MAX_BOXES", None)  # the workloads assume the default ceiling
    return env


#: the setup child: imports, then probes the machine's speed right after them
SETUP_CODE = """\
import time, eqhilb, eqhilb.cli
done = time.time()
import sys
sys.path.insert(0, sys.argv[1])
import speed
meter = speed.Speedometer()
meter.sample(10)
print(done, meter.slowdown())
"""


def measure_setup(root: Path) -> tuple[float, float]:
    """Seconds from starting an interpreter to having eqhilb and its CLI imported.

    The child reports the wall-clock time at which its imports finished,
    which leaves out its probes, interpreter shutdown and the parent's
    polling.  Returns the seconds and the slowdown the child probed.
    """
    start = time.time()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], cwd=root,
                          env=_env(root), capture_output=True, text=True, check=True,
                          timeout=60)
    done, slowdown = map(float, proc.stdout.split())
    return done - start, slowdown


def run_worker(root: Path, args, spans: Path | None, cpu: int | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workers(root: Path, args) -> tuple[list[dict], list[dict], list[tuple]]:
    """Untraced and traced worker results and setup samples of one run.

    Workers take the run's CPUs in turn: on a shared machine one CPU can
    be much slower than another for a long time.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    if args.trace:
        spans = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        return ([run_worker(root, args, None, cpus[0])],
                [run_worker(root, args, spans, cpus[0])], [])
    untraced, setup = [], []
    workers = WORKERS[args.workload]
    for k in range(workers):
        setup += [measure_setup(root) for _ in range(SETUP_SAMPLES // workers)]
        untraced.append(run_worker(root, args, None, cpus[k % len(cpus)]))
    return untraced, [], setup


def cold_s(worker: dict) -> float:
    """A worker's cold pass, scaled to the reference speed."""
    return worker["cold_s"] / worker["cold_slowdown"]


def layer_metrics(traced: dict, untraced: dict, attempted: int, failed: int):
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        total = dict(traced["layers"].get(layer, {"s": 0.0, "calls": 0, "items": 0, "errors": 0}))
        total["s"] /= traced["cold_slowdown"]
        total["bytes"] = total["items"]
        total["items_per_s"] = total["items"] / total["s"] if total["s"] else 0.0
        for field in fields:
            metrics[f"{layer}.{field}"] = total[field]
    metrics["coloring.enumerate_balanced.repeat_share"] = traced["repeat_share"]
    metrics["coloring.enumerate_balanced.canonical_repeat_share"] = (
        traced["canonical_repeat_share"])
    metrics["trace.wall_s"] = cold_s(traced)
    metrics["trace.overhead_s"] = cold_s(traced) - cold_s(untraced)
    metrics["error_rate"] = failed / attempted
    units = per_layer_units()
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("grid", "deep", "checks"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal measuring time; the work of a run does not depend on it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a small size, for the self-test")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "eqhilb" / "__init__.py").is_file():
        print(f"error: no eqhilb sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        untraced, traced, setup = run_workers(root, args)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = untraced + traced
    attempted = sum(w["attempted"] for w in results)
    failed = sum(w["failed"] for w in results)
    print(f"workload {args.workload} (scale {args.scale}), seed {args.seed}: "
          f"{len(untraced)} untraced and {len(traced)} traced worker processes, "
          f"one closed-loop caller each; attempted {attempted}, failed {failed}")
    print("  times are scaled to the reference speed: measured seconds / slowdown")
    if args.trace:
        metrics = layer_metrics(traced[0], untraced[0], attempted, failed)
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for kind, w in (("untraced", untraced[0]), ("traced", traced[0])):
            print(f"  {kind} cold pass: {w['cold_s']:.6g} s measured, "
                  f"slowdown {w['cold_slowdown']:.4g}")
        print(f"  note: {NO_WAIT_NOTE}")
    else:
        samples = {
            "wall_s": [cold_s(w) for w in untraced],
            "warm_s": [w["warm_s"] / w["warm_slowdown"] for w in untraced],
            "peak_rss_mb": [w["peak_rss_mb"] for w in untraced],
            "setup_s": [seconds / slowdown for seconds, slowdown in setup],
        }
        measured = {
            "wall_s": [(w["cold_s"], w["cold_slowdown"]) for w in untraced],
            "warm_s": [(w["warm_s"], w["warm_slowdown"]) for w in untraced],
            "setup_s": setup,
        }
        metrics = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
                   for name, v in samples.items()}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}; median of "
                  + " ".join(f"{v:.6g}" for v in samples[name]))
            if name in measured:
                print("    measured (seconds@slowdown): " + " ".join(
                    f"{t:.6g}@{f:.3g}" for t, f in measured[name]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
