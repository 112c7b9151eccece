"""Time and memory of ``eqhilb poincare`` on families past the box ceiling.

For each order ``n`` in 1001, 2001, 3001 and 4001 it runs ``poincare --a 1
--b 1 --r 1`` and ``poincare --a 1 --b 2 --r 1``, whose searches are long
chains of rows.  Then it runs ``poincare --a 3 --b 4 --r 3`` at ``n`` = 37,
49 and 97 and ``poincare --a 2 --b -3 --r 3 --n 37``, whose searches are
wide and mostly find nothing.  Each run is a fresh interpreter on the
``src`` next to this script, with ``EQHILB_MAX_BOXES`` raised to 5000 and
the address space limited to 600 MB.  Each child times its own call of
``eqhilb.cli.main``, reads its own peak RSS, and reports both on the last
line of its stderr; a child that raises prints the traceback and exits 1,
as the CLI would.  For each r = 1 run this script checks the class on the
child's stdout against ``L^2 + l*L``, ``l`` the Hirzebruch-Jung length of
``n / (b * a^-1 mod n)``, and records ``"check": "ok"`` or the class expected.

    python3 tools/past_ceiling.py

Output is one JSON list with one entry per run: the weights, the order,
the multiplicity, the exit code, the seconds, the peak RSS in MB, the last
line of stdout and of stderr, and for r = 1 the check.
``tools/past_ceiling.expected`` holds the answers, that is the output
without its ``seconds`` and ``peak_rss_mb`` lines, and CI diffs a run
against it:

    python3 tools/past_ceiling.py | grep -Ev '^  "(seconds|peak_rss_mb)": ' \\
        | diff tools/past_ceiling.expected -
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from eqhilb import LPolynomial, hj_expand  # noqa: E402

ORDERS = (1001, 2001, 3001, 4001)
WEIGHTS = ((1, 1), (1, 2))
#: (a, b, n) run with r = 3
WIDE = ((3, 4, 37), (3, 4, 49), (3, 4, 97), (2, -3, 37))
CEILING = 5000
ADDRESS_SPACE = 600 * 2**20

# the child: its own seconds and peak RSS go on the last line of stderr
CHILD = """\
import json, resource, sys, time, traceback
start = time.perf_counter()
try:
    from eqhilb.cli import main
    code = main(sys.argv[1:])
except Exception:
    traceback.print_exc()
    code = 1
seconds = time.perf_counter() - start
sys.stdout.flush()
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": round(seconds, 3), "peak_rss_mb": round(peak_mb, 1)}), file=sys.stderr)
sys.exit(code)
"""


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(a: int, b: int, n: int, r: int) -> dict:
    """One ``poincare`` child on ``(a, b; n)`` and ``r``, and what it reports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["EQHILB_MAX_BOXES"] = str(CEILING)
    argv = ["poincare", "--a", str(a), "--b", str(b), "--n", str(n), "--r", str(r)]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env=env, timeout=600, preexec_fn=_limit_address_space)
    *err, stats = proc.stderr.splitlines() or [""]
    return {"a": a, "b": b, "n": n, "r": r, "exit": proc.returncode, **json.loads(stats),
            "stdout": (proc.stdout.splitlines() or [""])[-1], "stderr": (err or [""])[-1]}


def check(entry: dict) -> str:
    """``"ok"`` if an r = 1 run printed the class ``L^2 + l*L`` (module
    docstring), else the class expected."""
    a, b, n = entry["a"], entry["b"], entry["n"]
    expected = str(LPolynomial([0, len(hj_expand(n, b * pow(a, -1, n) % n)), 1]))
    printed = entry["stdout"].partition("[H] = ")[2].partition(", P(z)")[0]
    return "ok" if printed == expected else f"expected {expected}"


def main() -> None:
    runs = [run(a, b, n, 1) for n in ORDERS for a, b in WEIGHTS]
    for entry in runs:
        entry["check"] = check(entry)
    runs += [run(a, b, n, 3) for a, b, n in WIDE]
    print(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
