"""Byte-identical CLI output in every form: each command in each
``--format``, both ``--render`` modes, the ``error: ...`` paths and
``--help``.

``cli_formats_golden.json`` holds, for each case, the exit code, the
exact stdout and stderr and, for ``--render svg``, the exact SVG file.
A case is a command line, split like a shell does, optionally preceded
by ``NAME=value`` settings of the environment.  Each case runs in an
empty working directory, so ``--out`` paths are relative, and with
``COLUMNS=80``, so the argparse usage and help text wrap the same way
everywhere.  The file is written by running this module as a script::

    PYTHONPATH=src python tests/test_cli_formats_golden.py
"""

import contextlib
import io
import itertools
import json
import os
import shlex
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from eqhilb.cli import main

GOLDEN = Path(__file__).with_name("cli_formats_golden.json")

#: every form of every command, then the refusals, then the help text
CASES = [
    "enumerate --a 1 --b -1 --n 3 --r 1",
    "enumerate --a 1 --b -1 --n 3 --r 1 --format json",
    "enumerate --a 1 --b -1 --n 3 --r 1 --format csv",
    "enumerate --a 2 --b 3 --n 4 --r 2 --render ascii",
    "enumerate --a 1 --b -1 --n 3 --r 1 --render svg --out fam.svg",
    "enumerate --a 1 --b 2 --n 3 --r 1 --format json --render svg --out fam.svg",
    "enumerate --a 1 --b 2 --n 3 --r 1 --format csv --render svg --out fam.svg",
    "enumerate --a 1 --b 1 --n 5 --r 0",
    "enumerate --a 1 --b 1 --n 5 --r 0 --format csv",
    "betti --a 1 --b -1 --n 3 --partition 4,3,2",
    "betti --a 1 --b -1 --n 3 --partition 4,3,2 --format json",
    "betti --a 1 --b 2 --n 3 --partition 3,2,1 --render ascii",
    "betti --a 1 --b -1 --n 3 --partition 2,1 --render svg --out one.svg",
    "betti --a 2 --b 3 --n 5 --partition 3,1,1 --format json --render svg --out one.svg",
    "betti --a 1 --b 1 --n 2 --partition ''",
    "poincare --a 1 --b -1 --n 3 --r 1",
    "poincare --a 1 --b -1 --n 3 --r 2 --format json",
    "poincare --a 1 --b -1 --n 3 --r 2 --format csv",
    "poincare --a 1 --b 2 --n-from 3 --n-to 6 --r 1",
    "poincare --a 1 --b 2 --n-from 3 --n-to 6 --r 1 --format json",
    "poincare --a 2 --b 3 --n-from 5 --n-to 9 --r 1 --format csv",
    "poincare --a 1 --b 2 --n-from 4 --n-to 4 --r 0 --format csv",
    "psi --a 1 --b 1 --n 2 --r 1 --partition 2",
    "psi --a 1 --b 1 --n 2 --r 1 --partition 2 --format json",
    "psi --a 1 --b 1 --n 2 --r 1 --partition 3 --inverse",
    "psi --a 1 --b 1 --n 2 --r 1 --partition 3 --inverse --format json",
    "verify-period --a 1 --b 2 --r 1 --n-from 3 --n-to 6",
    "verify-period --a 1 --b 1 --r 1 --n-from 2 --n-to 4 --format json",
    "verify-qpoly --a 1 --b -2 --r 1 --n-from 3 --n-to 15",
    "verify-qpoly --a 1 --b -2 --r 1 --n-from 3 --n-to 15 --format json",
    "verify-qpoly --a 1 --b -2 --r 1 --n-from 5 --n-to 2",
    "verify-qpoly --a 1 --b -2 --r 1 --n-from 5 --n-to 2 --format json",
    "core-quotient --n 3 --partition 4,2,2,1",
    "core-quotient --n 3 --partition 4,2,2,1 --format json",
    "core-quotient --n 2 --partition ''",
    "hj --n 12 --k 5",
    "hj --n 12 --k 5 --format json",
    "check-star --a 1 --b -2 --partition 2,2,1,1",
    "check-star --a 1 --b -2 --partition 3,1 --format json",
    "check-star --a 1 --b -2 --partition 4",
    "check-star --a 1 --b -2 --n 5 --r 1",
    "check-star --a 1 --b -2 --n 5 --r 1 --format json",
    "normalize --a 2 --b 3 --n 4",
    "normalize --a 2 --b 3 --n 4 --format json",
    # refusals
    "check-star --a 2 --b -2 --partition 2,2",
    "check-star --a 2 --b -2 --n 4 --r 1",
    "check-star --a 1 --b -2",
    "check-star --a 1 --b -2 --partition 2,2 --n 5 --r 1",
    "check-star --a 1 --b -2 --partition 2,2 --n 5",
    "check-star --a 1 --b -2 --partition 2,2 --r 1",
    "enumerate --a 1 --b 1 --n 40 --r 1 --render ascii",
    "betti --a 1 --b 1 --n 37 --partition 37 --render ascii",
    "betti --a 1 --b -1 --n 3 --partition 2,1 --render svg",
    "enumerate --a 1 --b 1 --n 3 --r 1 --render svg",
    "enumerate --a 1 --b -1 --n 3 --r 1 --format json --render ascii",
    "enumerate --a 1 --b -1 --n 3 --r 1 --format csv --render ascii",
    "betti --a 1 --b -1 --n 3 --partition 2,1 --format json --render ascii",
    "betti --a 1 --b -1 --n 3 --partition 2,1 --out y.svg",
    "enumerate --a 1 --b 1 --n 3 --r 1 --out y.svg",
    "enumerate --a 1 --b 1 --n 3 --r 1 --render ascii --out y.svg",
    "betti --a 1 --b -1 --n 3 --partition 2,1 --render svg --out missing/x.svg",
    "enumerate --a 1 --b 1 --n 3 --r 1 --render svg --out missing/x.svg",
    "betti --a 1 --b -1 --n 3 --partition 7,2",
    "betti --a 1 --b -1 --n 3 --partition 4,x",
    "betti --a 1 --b -1 --n 3 --partition 3,4",
    "psi --a 1 --b 1 --n 2 --r 2 --partition 3,1",
    "psi --a 1 --b 1 --n 3 --r -1 --partition ''",
    "psi --a 1 --b 1 --n 3 --r -1 --partition '' --inverse",
    "EQHILB_MAX_BOXES=abc enumerate --a 1 --b -1 --n 3 --r 1",
    "EQHILB_MAX_BOXES=abc enumerate --a 1 --b -1 --n 3 --r 0",
    "EQHILB_MAX_BOXES=-1 enumerate --a 1 --b -1 --n 3 --r 1",
    "EQHILB_MAX_BOXES=-1 enumerate --a 1 --b -1 --n 3 --r 0",
    "enumerate --a 1 --b 1 --n 81 --r 1",
    "betti --a 1 --b 1 --n 3 --partition 99999999999999999999",
    "psi --a 1 --b 1 --n 3 --r 1 --partition 99999999999999999999",
    "psi --a 1 --b 1 --n 3 --r 1 --partition 99999999999999999999 --inverse",
    "core-quotient --n 3 --partition 99999999999999999999",
    "check-star --a 1 --b -2 --partition 99999999999999999999",
    "EQHILB_MAX_BOXES=2 betti --a 1 --b 1 --n 3 --partition 2,1",
    "EQHILB_MAX_BOXES=2 psi --a 1 --b 1 --n 3 --r 1 --partition 2,1",
    "EQHILB_MAX_BOXES=2 psi --a 1 --b 1 --n 3 --r 1 --partition 2,1 --inverse",
    "EQHILB_MAX_BOXES=2 core-quotient --n 3 --partition 2,1",
    "EQHILB_MAX_BOXES=2 check-star --a 1 --b -2 --partition 2,1",
    "EQHILB_MAX_BOXES=2 core-quotient --n 3 --partition 1,1",
    "core-quotient --n 10000000 --partition 2,1",
    "EQHILB_MAX_BOXES=4 core-quotient --n 6 --partition 2,1",
    "EQHILB_MAX_BOXES=4 core-quotient --n 5 --partition 2,1",
    "verify-period --a 1 --b 1 --r 1 --n-from -3 --n-to 4",
    "verify-qpoly --a 2 --b -3 --r 1 --n-from -3 --n-to 4",
    "verify-period --a 1 --b 2 --r 3 --n-from 1 --n-to 5",
    "verify-period --a 1 --b 2 --r 1 --n-from 5 --n-to 2",
    "verify-qpoly --a 1 --b 2 --r 1 --n-from 3 --n-to 9",
    "poincare --a 1 --b 2 --r 1 --n-from 5 --n-to 2",
    "poincare --a 1 --b 1 --r 1 --n 3 --n-from 2",
    "poincare --a 1 --b 1 --r 1 --n 3 --n-to 5",
    "poincare --a 1 --b 1 --r 1 --n 3 --n-from 2 --n-to 5",
    "poincare --a 1 --b 1 --r 1 --n-from 2",
    "poincare --a 1 --b 1 --r 1 --n 0",
    # usage errors and help
    "enumerate --a 1",
    "enumerate --a 1 --b 1 --n 3 --r 1 --format yaml",
    "betti --a 1 --b 1 --n 3 --partition 2,1 --format csv",
    "frobnicate",
    "",
    "--help",
    "enumerate --help",
]


def replay(case: str, read_output) -> dict:
    """Exit code, stdout, stderr and any SVG written, run in the current directory."""
    words = shlex.split(case)
    env = dict(w.split("=", 1) for w in itertools.takewhile(lambda w: "=" in w, words))
    argv = words[len(env):]
    with mock.patch.dict(os.environ, env, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = read_output()
    record = {"case": case, "exit": code, "stdout": out, "stderr": err}
    if "--out" in argv:
        svg = Path(argv[argv.index("--out") + 1])
        if svg.exists():
            record["svg"] = svg.read_text(encoding="utf-8")
    return record


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_form_is_byte_identical(index, tmp_path, monkeypatch, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    assert expected["case"] == CASES[index]
    monkeypatch.chdir(tmp_path)
    assert replay(CASES[index], lambda: tuple(capsys.readouterr())) == expected


if __name__ == "__main__":
    records = []
    here = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                records.append(replay(case, lambda: (out.getvalue(), err.getvalue())))
            os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
