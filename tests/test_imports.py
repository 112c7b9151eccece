"""What ``import eqhilb, eqhilb.cli`` and each CLI command load, in fresh interpreters.

Every CLI call pays the package import before it does any work, so the
modules that only some calls need (``json``, ``fractions`` and the
package's own ``abacus``, ``analysis``, ``stabilization`` and ``tangent``)
are imported by those calls, and the records are named tuples rather than
dataclasses (which would load ``dataclasses`` and ``inspect``).  The checks
run new interpreters, so what this test process already imported does not
count.
"""

import os
import subprocess
import sys

#: modules the package defers to the calls that need them, or does not use
DEFERRED = {"dataclasses", "inspect", "fractions", "decimal", "json", "eqhilb.abacus",
            "eqhilb.analysis", "eqhilb.stabilization", "eqhilb.tangent"}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports eqhilb from this tree."""
    env = {k: v for k, v in os.environ.items() if k != "EQHILB_MAX_BOXES"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True).stdout


def _modules(code: str) -> set[str]:
    return set(_python(code + "\nimport sys\nprint(*sys.modules)").split())


def test_import_loads_no_deferred_module():
    # a bare interpreter's modules differ between machines (site, startup hooks)
    added = _modules("import eqhilb, eqhilb.cli") - _modules("pass")
    assert {"eqhilb.cli", "eqhilb.coloring", "argparse"} <= added
    assert not added & DEFERRED


#: what every call loads: the package, the CLI and the modules the CLI imports at its top
BASE = {"eqhilb", "eqhilb.cli", "eqhilb.coloring", "eqhilb.errors", "eqhilb.partitions"}

#: one small valid call of each command, and the one module it adds to ``BASE``
COMMANDS = [
    ("enumerate --a 1 --b -1 --n 3 --r 1", None),
    ("betti --a 1 --b -1 --n 3 --partition 4,3,2", "tangent"),
    ("poincare --a 1 --b 2 --n 3 --r 1", None),
    ("psi --a 1 --b 1 --n 2 --r 1 --partition 2", "stabilization"),
    ("verify-period --a 1 --b 2 --r 1 --n-from 3 --n-to 5", "stabilization"),
    ("verify-qpoly --a 1 --b -2 --r 1 --n-from 3 --n-to 15", "analysis"),
    ("core-quotient --n 3 --partition 4,2,2,1", "abacus"),
    ("hj --n 12 --k 5", "analysis"),
    ("check-star --a 1 --b -2 --n 5 --r 1", "analysis"),
    ("normalize --a 2 --b 3 --n 4", "analysis"),
]


def test_each_command_loads_only_its_module():
    assert len({argv.split()[0] for argv, _ in COMMANDS}) == 10
    for argv, module in COMMANDS:
        out = _python("import contextlib, io, sys\nfrom eqhilb import cli\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      f"    status = cli.main({argv.split()!r})\n"
                      "print(status, *(m for m in sys.modules if m.startswith('eqhilb')))").split()
        assert out[0] == "0", argv
        assert set(out[1:]) == BASE | ({f"eqhilb.{module}"} if module else set()), argv
