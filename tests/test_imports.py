"""What ``import eqhilb, eqhilb.cli`` loads, in fresh interpreters.

Every CLI call pays the package import before it does any work, so the
modules that only some calls need (``json``, ``fractions``) are imported
by those calls, and the records are named tuples rather than dataclasses
(which would load ``dataclasses`` and ``inspect``).  The check runs new
interpreters, so what this test process already imported does not count.
"""

import os
import subprocess
import sys

#: modules the package defers to the calls that need them, or does not use
DEFERRED = {"dataclasses", "inspect", "fractions", "decimal", "json"}

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
    assert {"eqhilb.cli", "eqhilb.analysis", "argparse"} <= added
    assert not added & DEFERRED

