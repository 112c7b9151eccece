"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at the tiny scale, traced and untraced, and
checks that the result line carries exactly the metrics that
``BENCHMARK.json`` names, each with its unit, and no failure.  It then
plants a wrong golden value for each workload and checks that the
failure is counted, so ``error_rate`` is above 0, and checks that the
benchmark refuses to run where there are no sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def expected_units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics_printed(spec: dict) -> None:
    """Every metric printed with its unit, and every layer called by some workload."""
    called = set()
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected_units(spec, section), (workload, trace, printed)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                if name.endswith(".calls") and m["value"] > 0:
                    called.add(name)
            print(f"ok: {workload} trace={trace} prints {len(printed)} metrics with units")
    never = {m for m in expected_units(spec, "per_layer") if m.endswith(".calls")} - called
    assert not never, f"layers no workload calls: {sorted(never)}"
    print("ok: every layer is called by some workload")


def check_planted_failure() -> None:
    for workload in workloads.WORKLOADS:
        golden = workloads.load_golden()
        tracer = workloads.Tracer(enabled=False)
        keys = next(k for k, _ in workloads.build_ops(workload, "tiny", 7, {}, tracer) if k)
        wrong = workloads.golden_key(*keys[0])
        golden[wrong] = golden[wrong] + [1]
        ops = workloads.build_ops(workload, "tiny", 7, golden, tracer)
        _, attempted, failed, _ = workloads.run_pass(ops, tracer)
        assert failed > 0, f"{workload}: a wrong golden value for {wrong} went unnoticed"
        print(f"ok: {workload} counts the planted wrong answer, "
              f"error_rate {failed}/{attempted} > 0")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_benchmark("grid", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: refuses to run without the eqhilb sources")


def main() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics_printed(spec)
    check_planted_failure()
    check_refuses_without_sources()
    print("self-test passed")


if __name__ == "__main__":
    main()
