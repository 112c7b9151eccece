"""Byte-identical ``--help`` of every subcommand.

``cli_help_golden.json`` holds, for each subcommand other than
``enumerate``, the exit code and the exact stdout and stderr of
``eqhilb <command> --help``; ``eqhilb --help`` and ``eqhilb enumerate
--help`` are cases of ``cli_formats_golden.json``.  Each runs with
``COLUMNS=80``, so argparse wraps the help text the same way everywhere.
The file is written by running this module as a script::

    PYTHONPATH=src python tests/test_cli_help_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from eqhilb.cli import main

GOLDEN = Path(__file__).with_name("cli_help_golden.json")

#: the subcommands in --help order, without enumerate
COMMANDS = ["betti", "poincare", "psi", "verify-period", "verify-qpoly", "core-quotient",
            "hj", "check-star", "normalize"]


def replay(command: str, read_output) -> dict:
    """Exit code, stdout and stderr of ``command --help``."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main([command, "--help"])
        except SystemExit as exc:
            code = exc.code
    out, err = read_output()
    return {"command": command, "exit": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_help_is_byte_identical(index, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    assert expected["command"] == COMMANDS[index]
    assert replay(COMMANDS[index], lambda: tuple(capsys.readouterr())) == expected


if __name__ == "__main__":
    records = []
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            records.append(replay(command, lambda: (out.getvalue(), err.getvalue())))
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
