"""Seconds that ``import eqhilb, eqhilb.cli`` takes in fresh interpreters.

Every CLI call pays this import before it does any work.  The package is
copied into a temporary directory, so this tree's ``__pycache__`` neither
helps nor is written, and the import is timed inside each of ``RUNS``
fresh interpreters, alternately from source (no bytecode present, none
written) and from bytecode (compiled into a second copy beforehand).  The
interpreter's own start-up is not counted.  It prints the median seconds
of each and the modules the import adds to those the interpreter had
already loaded; the last line is one JSON object.

    python3 tools/import_cost.py

``tests/test_imports.py`` checks which modules the import may not load.
"""

from __future__ import annotations

import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eqhilb"
#: fresh interpreters per side (source, bytecode)
RUNS = 20

CHILD = """\
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import eqhilb, eqhilb.cli
took = time.perf_counter() - start
print(took, *sorted(set(sys.modules) - before))
"""


def timed_import(path: Path) -> tuple[float, list[str]]:
    """Seconds of the import in a fresh interpreter that reads eqhilb from
    ``path`` and writes no bytecode, and the modules it added."""
    env = {k: v for k, v in os.environ.items() if k not in ("EQHILB_MAX_BOXES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(path)
    out = subprocess.run([sys.executable, "-B", "-c", CHILD], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    return float(out[0]), out[1:]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        source, compiled = Path(tmp, "source"), Path(tmp, "compiled")
        for path in (source, compiled):
            shutil.copytree(SRC, path / "eqhilb", ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(compiled, quiet=1)
        times: dict[str, list[float]] = {"source": [], "bytecode": []}
        added: set[str] = set()
        for _ in range(RUNS):
            for label, path in (("source", source), ("bytecode", compiled)):
                took, modules = timed_import(path)
                times[label].append(took)
                added.update(modules)
        if any(Path(source, "eqhilb").rglob("*.pyc")):
            raise RuntimeError("a run from source wrote bytecode")
    result = {
        "python": platform.python_version(),
        "runs": RUNS,
        "source_median_s": round(statistics.median(times["source"]), 6),
        "bytecode_median_s": round(statistics.median(times["bytecode"]), 6),
        "source_s": [round(t, 6) for t in times["source"]],
        "bytecode_s": [round(t, 6) for t in times["bytecode"]],
        "added_modules": sorted(added),
    }
    print(f"import eqhilb, eqhilb.cli in {RUNS} fresh interpreters, "
          f"CPython {result['python']}")
    print(f"from source:   median {result['source_median_s']:.4f} s")
    print(f"from bytecode: median {result['bytecode_median_s']:.4f} s")
    print(f"modules added: {' '.join(result['added_modules'])}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
