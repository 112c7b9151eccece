"""Byte-identical CLI output: every command of the README, replayed.

``cli_golden.json`` holds, for each command line, the exit code, the
exact stdout and, for ``--render svg``, the exact SVG file.  The file is
written by running this module as a script::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from eqhilb.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
README = Path(__file__).parents[1] / "README.md"

#: the CLI commands of README.md, then the JSON form of the abacus command
COMMANDS = [
    "enumerate --a 1 --b -1 --n 3 --r 1",
    "betti --a 1 --b -1 --n 3 --partition 4,3,2 --render svg --out fig.svg",
    "poincare --a 1 --b 2 --n-from 3 --n-to 12 --r 1 --format csv",
    "psi --a 1 --b 1 --n 2 --r 1 --partition 2",
    "verify-period --a 1 --b 2 --r 1 --n-from 3 --n-to 12",
    "verify-qpoly --a 1 --b -2 --r 1 --n-from 3 --n-to 15 --format json",
    "core-quotient --n 3 --partition 4,2,2,1",
    "hj --n 12 --k 5",
    "check-star --a 1 --b -2 --n 5 --r 1",
    "normalize --a 2 --b 3 --n 4",
    "core-quotient --n 3 --partition 4,2,2,1 --format json",
]


def replay(command: str, workdir: Path, read_stdout) -> dict:
    """Exit code, stdout and any SVG written, with ``--out`` inside ``workdir``."""
    argv = command.split()
    svg = None
    if "--out" in argv:
        k = argv.index("--out") + 1
        svg = workdir / argv[k]
        argv[k] = str(svg)
    code = main(argv)
    record = {"command": command, "exit": code, "stdout": read_stdout()}
    if svg is not None:
        record["svg"] = svg.read_text(encoding="utf-8")
    return record


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_cli_output_is_byte_identical(index, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    assert expected["command"] == COMMANDS[index]
    assert replay(COMMANDS[index], tmp_path, lambda: capsys.readouterr().out) == expected


def test_commands_are_those_of_the_readme():
    block = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    readme = [line.removeprefix("eqhilb ") for line in block.splitlines()
              if line.startswith("eqhilb ")]
    assert readme == COMMANDS[:10]


if __name__ == "__main__":
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                records.append(replay(command, Path(tmp), buf.getvalue))
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
