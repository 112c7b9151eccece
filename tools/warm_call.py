"""Nanoseconds of a warm family call and of one box-ceiling read.

Every ``enumerate_balanced`` and ``l_class`` call reads the box ceiling,
memo hits included, so that a lowered ``EQHILB_MAX_BOXES`` still refuses
a family already in the memo.  This times, in fresh interpreters, a warm
``enumerate_balanced(GroupParams(1, 2, 5), 2)`` (a memo hit) and
``coloring._box_ceiling()``, each the best of 7 repeats of ``NUMBER``
calls, with ``EQHILB_MAX_BOXES`` unset and with it set to 80.  Each
setting runs in ``ROUNDS`` interpreters, the settings alternating; the
median over the interpreters is printed, and the last line is one JSON
object with every reading.

    python3 tools/warm_call.py [SRC]

``SRC`` is the directory that holds the ``eqhilb`` package to time
(default: the ``src`` next to this script), so two trees can be compared
with one copy of this script.  The readings are timings: they move with
the machine and its load, so no expected file is kept for them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
#: calls per repeat
NUMBER = 20000
#: fresh interpreters per setting
ROUNDS = 3
#: the value of EQHILB_MAX_BOXES in each setting, None for unset
SETTINGS = {"unset": None, "set_80": "80"}

CHILD = f"""\
import timeit
from eqhilb import GroupParams, coloring, enumerate_balanced
g = GroupParams(1, 2, 5)
enumerate_balanced(g, 2)
for stmt in ("enumerate_balanced(g, 2)", "coloring._box_ceiling()"):
    best = min(timeit.repeat(stmt, globals=globals(), number={NUMBER}, repeat=7))
    print(best / {NUMBER} * 1e9)
"""


def timed(src: Path, value: str | None) -> tuple[float, float]:
    """Best nanoseconds of a warm call and of a ceiling read in one fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in ("EQHILB_MAX_BOXES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    if value is not None:
        env["EQHILB_MAX_BOXES"] = value
    out = subprocess.run([sys.executable, "-B", "-c", CHILD], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    return float(out[0]), float(out[1])


def main() -> None:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC
    readings: dict[str, dict[str, list[float]]] = {
        name: {"warm_call_ns": [], "box_ceiling_ns": []} for name in SETTINGS}
    for _ in range(ROUNDS):
        for name, value in SETTINGS.items():
            call, ceiling = timed(src, value)
            readings[name]["warm_call_ns"].append(round(call, 1))
            readings[name]["box_ceiling_ns"].append(round(ceiling, 1))
    result = {"python": platform.python_version(), "number": NUMBER,
              "rounds": ROUNDS, "readings": readings}
    print(f"warm enumerate_balanced((1,2;5), 2) and _box_ceiling(), best of 7 x {NUMBER} calls, "
          f"median of {ROUNDS} fresh interpreters, CPython {result['python']}")
    for name, times in readings.items():
        print(f"EQHILB_MAX_BOXES {name:7}: warm call {statistics.median(times['warm_call_ns']):7.1f} ns"
              f"   ceiling read {statistics.median(times['box_ceiling_ns']):7.1f} ns")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
