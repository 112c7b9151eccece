import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqhilb import GroupParams, LPolynomial, Partition, Quasipolynomial, enumerate_balanced
from eqhilb.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--a", "1", "--b", "-1", "--n", "3", "--r", "1")
    assert code == 0
    assert "1,1,1  betti=2" in out
    assert "2,1  betti=1" in out
    assert "3  betti=1" in out


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--a", "1", "--b", "-1", "--n", "3", "--r", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    parts = [Partition.parse(e["partition"]) for e in payload["partitions"]]
    assert parts == [Partition((1, 1, 1)), Partition((2, 1)), Partition((3,))]
    assert [e["betti"] for e in payload["partitions"]] == [2, 1, 1]


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "enumerate", "--a", "2", "--b", "3", "--n", "5",
                      "--r", "2", "--format", "json")
    _, second, _ = run(capsys, "enumerate", "--a", "2", "--b", "3", "--n", "5",
                       "--r", "2", "--format", "json")
    assert first == second


def test_betti_command(capsys):
    code, out, _ = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                       "--partition", "2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == 1
    assert len(payload["invariant_arrows"]) == 2


def test_poincare_json_roundtrip(capsys):
    code, out, _ = run(capsys, "poincare", "--a", "1", "--b", "-1", "--n", "3",
                       "--r", "1", "--format", "json")
    assert code == 0
    entry = json.loads(out)[0]
    assert LPolynomial.from_json(entry["l_class"]) == LPolynomial([0, 2, 1])
    assert entry["euler"] == 3
    assert entry["poincare"] == "z^4 + 2z^2"


def test_poincare_csv_schema(capsys):
    code, out, _ = run(capsys, "poincare", "--a", "1", "--b", "-1", "--n-from", "2",
                       "--n-to", "4", "--r", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,n,r,euler,b_0,b_1,b_2,b_3,b_4"
    assert lines[1] == "1,-1,2,1,2,0,0,1,0,1"
    # odd Betti columns vanish
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[6] == "0" and cells[8] == "0"


def test_psi_command(capsys):
    code, out, _ = run(capsys, "psi", "--a", "1", "--b", "1", "--n", "2",
                       "--r", "1", "--partition", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["image"] == "3"
    code, out, _ = run(capsys, "psi", "--a", "1", "--b", "1", "--n", "2",
                       "--r", "1", "--partition", "3", "--inverse", "--format", "json")
    assert code == 0
    assert json.loads(out)["preimage"] == "2"


def test_verify_period_pass(capsys):
    code, out, _ = run(capsys, "verify-period", "--a", "1", "--b", "2", "--r", "1",
                       "--n-from", "3", "--n-to", "12")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_period_json(capsys):
    code, out, _ = run(capsys, "verify-period", "--a", "1", "--b", "1", "--r", "1",
                       "--n-from", "2", "--n-to", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_equal"] and report["all_bijections_ok"]


def test_verify_qpoly(capsys):
    code, out, _ = run(capsys, "verify-qpoly", "--a", "1", "--b", "-2", "--r", "1",
                       "--n-from", "3", "--n-to", "15", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert Quasipolynomial.from_json(report["quasipolynomial"]).period == 2


def test_core_quotient_golden(capsys):
    code, out, _ = run(capsys, "core-quotient", "--n", "3", "--partition", "4,2,2,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["abacus"] == "01011001"
    assert payload["core"] == "4,2"
    assert [Partition.parse(p) for p in payload["quotient"]] == [
        Partition((1,)), Partition(), Partition(),
    ]
    assert payload["size_identity"]["holds"]


def test_hj_command(capsys):
    code, out, _ = run(capsys, "hj", "--n", "12", "--k", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 12, "k": 5, "terms": [3, 2, 3], "length": 3}


def test_check_star_single(capsys):
    code, out, _ = run(capsys, "check-star", "--a", "1", "--b", "-2",
                       "--partition", "2,2,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["satisfies_star"] is True


def test_check_star_refuses_non_coprime_weights(capsys):
    for extra in (("--partition", "2,2"), ("--n", "4", "--r", "1")):
        code, out, err = run(capsys, "check-star", "--a", "2", "--b", "-2", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("error: weights must be coprime, got (2, -2)")


def test_check_star_report(capsys):
    code, out, _ = run(capsys, "check-star", "--a", "1", "--b", "-2", "--n", "5",
                       "--r", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["bijective"]


def test_normalize_command(capsys):
    code, out, _ = run(capsys, "normalize", "--a", "2", "--b", "3", "--n", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"a": 1, "b": 3, "n": 2}


def test_render_ascii(capsys):
    code, out, _ = run(capsys, "enumerate", "--a", "1", "--b", "-1", "--n", "3",
                       "--r", "1", "--render", "ascii")
    assert code == 0
    assert "012" in out  # the single-row diagram colored 0,1,2


def test_render_ascii_refuses_more_colors_than_digits(capsys):
    for argv in (["enumerate", "--a", "1", "--b", "1", "--n", "40", "--r", "1"],
                 ["betti", "--a", "1", "--b", "1", "--n", "37", "--partition", "37"]):
        code, out, err = run(capsys, *argv, "--render", "ascii")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --render ascii shows at most 36 colors")


def test_render_svg(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    code, _, _ = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                     "--partition", "4,3,2", "--render", "svg", "--out", str(target))
    assert code == 0
    root = ET.fromstring(target.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 9 + 1  # one per box plus the background
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == 6  # the invariant arrows of a 3-balanced 9-box diagram


def test_render_svg_family_is_one_document(tmp_path, capsys):
    target = tmp_path / "family.svg"
    argv = ["enumerate", "--a", "1", "--b", "2", "--n", "3", "--r", "2"]
    code, out, _ = run(capsys, *argv, "--render", "svg", "--out", str(target))
    assert code == 0
    assert run(capsys, *argv) == (0, out, "")  # the drawing leaves stdout as it is
    root = ET.fromstring(target.read_text(encoding="utf-8"))  # one root element
    assert root.tag.endswith("svg")
    ids = [el.get("id") for el in root.iter() if el.get("id") is not None]
    assert len(ids) == len(set(ids))
    groups = [el for el in root if el.tag.endswith("g")]
    members = enumerate_balanced(GroupParams(1, 2, 3), 2)
    assert len(groups) == len(members) > 1
    heights = [(len(lam.rows) + 2) * 28 for lam in members]  # stacked top to bottom
    assert [g.get("transform") for g in groups] == [
        f"translate(0,{top})" for top in itertools.accumulate([0] + heights[:-1])]
    assert int(root.get("height")) == sum(heights)
    cells = [len([el for el in g if el.tag.endswith("rect")]) for g in groups]
    assert cells == [lam.size for lam in members]


def test_svg_requires_out(capsys):
    for argv in (["betti", "--a", "1", "--b", "-1", "--n", "3", "--partition", "2,1"],
                 ["enumerate", "--a", "1", "--b", "1", "--n", "3", "--r", "1"]):
        code, out, err = run(capsys, *argv, "--render", "svg")
        assert code == 1
        assert "requires --out" in err
        assert out == ""


def test_enumerate_refuses_ascii_render_with_json_or_csv(capsys):
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "enumerate", "--a", "1", "--b", "-1", "--n", "3",
                             "--r", "1", "--format", fmt, "--render", "ascii")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: --render ascii draws only text output, got --format {fmt}")


def test_betti_refuses_ascii_render_with_json(capsys):
    code, out, err = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                         "--partition", "2,1", "--format", "json", "--render", "ascii")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --render ascii draws only text output, got --format json")


def test_out_requires_svg_render(tmp_path, capsys):
    target = tmp_path / "y.svg"
    for argv in (["betti", "--a", "1", "--b", "-1", "--n", "3", "--partition", "2,1"],
                 ["enumerate", "--a", "1", "--b", "1", "--n", "3", "--r", "1"],
                 ["enumerate", "--a", "1", "--b", "1", "--n", "3", "--r", "1",
                  "--render", "ascii"]):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: --out FILE is written only with --render svg")
        assert not target.exists()


def test_failed_svg_write_prints_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    for argv in (["betti", "--a", "1", "--b", "-1", "--n", "3", "--partition", "2,1"],
                 ["enumerate", "--a", "1", "--b", "1", "--n", "3", "--r", "1"]):
        code, out, err = run(capsys, *argv, "--render", "svg", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--a", "1"])
    assert exc.value.code == 2


def test_domain_error_reported(capsys):
    code, _, err = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                       "--partition", "7,2")
    assert code == 1
    assert "not balanced" in err


def test_precondition_named_in_message(capsys):
    code, _, err = run(capsys, "psi", "--a", "1", "--b", "1", "--n", "2", "--r", "2",
                       "--partition", "3,1")
    assert code == 1
    assert "n > r*a*b" in err


def test_negative_multiplicity_reported(capsys):
    for extra in ([], ["--inverse"]):
        code, out, err = run(capsys, "psi", "--a", "1", "--b", "1", "--n", "3", "--r", "-1",
                             "--partition", "", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: multiplicity must be nonnegative, got -1")


def test_bad_max_boxes_env_reported(monkeypatch, capsys):
    for value, message in (("abc", "error: EQHILB_MAX_BOXES must be an integer"),
                           ("-1", "error: EQHILB_MAX_BOXES must be a nonnegative integer, "
                                  "got '-1'")):
        monkeypatch.setenv("EQHILB_MAX_BOXES", value)
        for r in ("1", "0"):
            code, out, err = run(capsys, "enumerate", "--a", "1", "--b", "-1", "--n", "3",
                                 "--r", r)
            assert code == 1
            assert out == ""
            assert err.startswith(message)


def test_partition_above_box_ceiling_refused(monkeypatch, capsys):
    commands = (["betti", "--a", "1", "--b", "1", "--n", "3"],
                ["psi", "--a", "1", "--b", "1", "--n", "3", "--r", "1"],
                ["psi", "--a", "1", "--b", "1", "--n", "3", "--r", "1", "--inverse"],
                ["core-quotient", "--n", "3"],
                ["check-star", "--a", "1", "--b", "-2"])
    for argv in commands:
        code, out, err = run(capsys, *argv, "--partition", "99999999999999999999")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --partition has 99999999999999999999 boxes, "
                              "more than the ceiling of 80")
    monkeypatch.setenv("EQHILB_MAX_BOXES", "2")
    for argv in commands:
        code, out, err = run(capsys, *argv, "--partition", "2,1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --partition has 3 boxes, more than the ceiling of 2")
    code, out, _ = run(capsys, "core-quotient", "--n", "3", "--partition", "1,1")
    assert code == 0
    assert out.startswith("abacus of 1,1:")


def test_core_quotient_refuses_n_above_box_ceiling(monkeypatch, capsys):
    code, out, err = run(capsys, "core-quotient", "--n", "0", "--partition", "2,1")
    assert code == 1
    assert out == ""
    assert err == "error: n must be >= 1, got 0\n"
    # a partition within the ceiling has its beads at positions 0..ceiling,
    # so ceiling + 1 runners already hold one bead each
    code, out, err = run(capsys, "core-quotient", "--n", "10000000", "--partition", "2,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --n is 10000000, more than one above the ceiling of 80")
    monkeypatch.setenv("EQHILB_MAX_BOXES", "4")
    code, out, err = run(capsys, "core-quotient", "--n", "6", "--partition", "2,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --n is 6, more than one above the ceiling of 4 "
                          "(raise EQHILB_MAX_BOXES)")
    code, out, _ = run(capsys, "core-quotient", "--n", "5", "--partition", "2,1")
    assert code == 0
    assert "5-quotient: (∅, ∅, ∅, ∅, ∅)" in out


#: one valid command line per subcommand, for the handler guard below
HANDLER_ARGV = {
    "enumerate": ["--a", "1", "--b", "-1", "--n", "3", "--r", "1", "--render", "svg"],
    "betti": ["--a", "1", "--b", "-1", "--n", "3", "--partition", "2,1", "--render", "svg"],
    "poincare": ["--a", "1", "--b", "2", "--n-from", "3", "--n-to", "5", "--r", "1",
                 "--format", "csv"],
    "psi": ["--a", "1", "--b", "1", "--n", "2", "--r", "1", "--partition", "2"],
    "verify-period": ["--a", "1", "--b", "2", "--r", "1", "--n-from", "3", "--n-to", "6"],
    "verify-qpoly": ["--a", "1", "--b", "-2", "--r", "1", "--n-from", "3", "--n-to", "15"],
    "core-quotient": ["--n", "3", "--partition", "4,2,2,1"],
    "hj": ["--n", "12", "--k", "5"],
    "check-star": ["--a", "1", "--b", "-2", "--n", "5", "--r", "1"],
    "normalize": ["--a", "2", "--b", "3", "--n", "4"],
}


def _subcommands():
    """The parser of each subcommand, by name."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_handlers_print_nothing(tmp_path, capsys):
    """Only ``main`` writes: each subcommand's handler returns its report
    and leaves stdout and the ``--out`` file alone."""
    parser = _build_parser()
    assert set(_subcommands()) == set(HANDLER_ARGV)
    target = tmp_path / "x.svg"
    for name, subparser in _subcommands().items():
        handler = subparser.get_default("func")
        argv = [name, *HANDLER_ARGV[name]]
        if "svg" in argv:
            argv += ["--out", str(target)]
        args = parser.parse_args(argv)
        assert args.func is handler
        report = handler(args)
        assert capsys.readouterr().out == "", name
        assert report.status == 0, name
        assert not target.exists(), name


def _run_limited(argv, program=("-m", "eqhilb.cli"), limit_mb=600):
    """A child on the ``src`` next to the tests, with ``EQHILB_MAX_BOXES``
    unset and its address space limited to ``limit_mb`` MB."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "EQHILB_MAX_BOXES"}
    env["PYTHONPATH"] = src
    limit = limit_mb * 2**20
    return subprocess.run([sys.executable, *program, *argv], capture_output=True, text=True,
                          env=env, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.parametrize("argv, message", [
    (["betti", "--a", "1", "--b", "1", "--n", "100000000000", "--partition", "2,1"],
     "error: 2,1 is not balanced for (1,1;100000000000)\n"),
    (["psi", "--a", "1", "--b", "1", "--n", "100000000000", "--r", "1", "--partition", "2,1"],
     "error: 2,1 is not balanced with multiplicity 1 for (1,1;100000000000)\n"),
    (["poincare", "--a", "1", "--b", "2", "--r", "1", "--n-from", "3",
      "--n-to", "100000000000"],
     "error: enumerating balanced partitions of 81 boxes exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["verify-qpoly", "--a", "1", "--b", "-2", "--r", "1", "--n-from", "3",
      "--n-to", "100000000000"],
     "error: enumerating balanced partitions of 81 boxes exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["poincare", "--a", "1", "--b", "2", "--r", "0", "--n-from", "3",
      "--n-to", "100000000000"],
     "error: a range of 99999999998 orders with r = 0 exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["verify-qpoly", "--a", "1", "--b", "-2", "--r", "0", "--n-from", "3",
      "--n-to", "100000000000"],
     "error: a range of 99999999998 orders with r = 0 exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["verify-period", "--a", "1", "--b", "2", "--r", "0", "--n-from", "3",
      "--n-to", "100000000000"],
     "error: a range of 99999999998 orders with r = 0 exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["verify-period", "--a", "1", "--b", "100000000000", "--r", "1", "--n-from", "1",
      "--n-to", "1000000000000"],
     "error: enumerating balanced partitions of 100000000001 boxes exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["check-star", "--a", "1", "--b", "-100000000000", "--n", "3", "--r", "1"],
     "error: enumerating balanced partitions of 300000000000 boxes exceeds the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
    (["hj", "--n", "100000000000", "--k", "99999999999"],
     "error: the expansion of 100000000000/99999999999 has more than the ceiling of 80 "
     "terms (raise EQHILB_MAX_BOXES)\n"),
    (["core-quotient", "--n", "100000000000", "--partition", "2,1"],
     "error: --n is 100000000000, more than one above the ceiling of 80 "
     "(raise EQHILB_MAX_BOXES)\n"),
], ids=["betti", "psi", "poincare", "verify-qpoly", "poincare-r0", "verify-qpoly-r0",
        "verify-period-r0", "verify-period", "check-star", "hj", "core-quotient"])
def test_huge_order_ends_with_error_not_memory_error(argv, message):
    """A group order, an order range or a continued fraction far past the box
    ceiling is refused without allocating per order or per term: run under a
    600 MB address-space limit, where a histogram of ``n`` counters, a report
    entry per order of the range, a list of ``n - 1`` terms or a list per
    runner of the abacus fails."""
    proc = _run_limited(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


def test_huge_order_on_the_empty_diagram_is_answered():
    """The empty diagram is balanced for every order, and its statistic
    needs no state of ``n`` entries: answered under the same 600 MB limit."""
    proc = _run_limited(["betti", "--a", "1", "--b", "1", "--n", "100000000000",
                         "--partition", ""])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "betti statistic of ∅ for (1,1;100000000000): 0\ninvariant arrows (0):\n", "")


@pytest.mark.parametrize("argv, output", [
    (["enumerate", "--a", "2", "--b", "3", "--n", "100000000000", "--r", "0"],
     "balanced partitions for (2,3;100000000000), r=0: 1\n  ∅  betti=0\n"),
    (["poincare", "--a", "1", "--b", "2", "--n", "100000000000", "--r", "0"],
     "(1,2;100000000000) r=0: [H] = 1, P(z) = 1, euler = 1\n"),
], ids=["enumerate", "poincare"])
def test_r0_family_at_a_huge_order_is_answered(argv, output):
    """Every ``r = 0`` family shares the memo key ``(0, 0, 1, 0)``, so none is
    searched at its own order, where the search's tables of ``m`` colors
    would not fit: answered under the same 600 MB limit."""
    proc = _run_limited(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, output, "")


def test_empty_core_at_a_huge_order_is_answered():
    """``has_empty_core`` reads the boundary tallies of the diagram, with no
    count per runner, so an order of 10**11 is answered under the same limit."""
    proc = _run_limited([], program=("-c", "from eqhilb import Partition, has_empty_core; "
                                     "print(has_empty_core(Partition((2, 1)), 10**11), "
                                     "has_empty_core(Partition(), 10**11))"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True\n", "")


def test_star_check_at_a_huge_weight_is_answered():
    """``satisfies_star`` refuses a row count that is not a multiple of
    ``-b`` before it stretches anything, so a weight of -10**10 is answered
    under the same limit."""
    proc = _run_limited(["check-star", "--a", "1", "--b", "-10000000000", "--partition", "1"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "1 violates the rectangle condition for (1,-10000000000)\n", "")


#: ``python -c`` program that raises the box ceiling, which ``_run_limited``
#: strips from the environment, and runs the CLI on the arguments after it
_PAST_THE_CEILING = ("-c", "import os, sys; os.environ['EQHILB_MAX_BOXES'] = '5000'; "
                           "from eqhilb.cli import main; sys.exit(main(sys.argv[1:]))")


def test_family_past_the_ceiling_is_answered_in_row_sized_tables():
    """The search reads every row's colors from one cycle of ``r*n + n``
    colors, from the row's start, so a family of order 4001 is answered
    under the 600 MB limit, where ``n`` walks of ``r*n`` colors down every
    column and along every row failed."""
    proc = _run_limited(["poincare", "--a", "1", "--b", "1", "--n", "4001", "--r", "1"],
                        program=_PAST_THE_CEILING)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "(1,1;4001) r=1: [H] = L^2 + L, P(z) = z^4 + z^2, euler = 2\n", "")


def test_search_deeper_than_the_frame_limit_is_answered():
    """``(2, ..., 2, 1)`` of ``(1,2;4001)`` has 2,001 rows, past Python's
    default limit of 1,000 frames, but a repeated row takes no frame of the
    search: answered under the 600 MB limit."""
    proc = _run_limited(["poincare", "--a", "1", "--b", "2", "--n", "4001", "--r", "1"],
                        program=_PAST_THE_CEILING)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "(1,2;4001) r=1: [H] = L^2 + 2L, P(z) = z^4 + 2z^2, euler = 3\n", "")


def test_running_out_of_memory_is_an_error_line():
    """``(1,-1;2)`` r=40 is within the default ceiling, but its members do
    not fit in 150 MB: one ``error:`` line and exit 1, not a traceback, and
    nothing on stdout.  (``(1,1;1)`` r=80 runs out as well, but there in
    some runs CPython 3.11 loses the ``MemoryError`` while it unwinds the
    search and ends in a ``SystemError`` traceback.)"""
    proc = _run_limited(["poincare", "--a", "1", "--b", "-1", "--n", "2", "--r", "40"],
                        limit_mb=150)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_running_out_of_memory_leaves_no_memo_entry():
    """An ``l_class`` call that raised ``MemoryError`` leaves the family memo
    as it was, since ``lru_cache`` stores nothing for a raise.  The child
    collects the search's reference cycle before it prints, as the CLI does."""
    proc = _run_limited([], limit_mb=150, program=(
        "-c", "import gc\n"
              "from eqhilb import GroupParams, coloring, l_class\n"
              "l_class(GroupParams(1, -1, 3), 1)\n"
              "before = coloring._balanced_family.cache_info().currsize\n"
              "try:\n"
              "    l_class(GroupParams(1, -1, 2), 40)\n"
              "except MemoryError:\n"
              "    raised = True\n"
              "gc.collect()\n"
              "print(raised, before, coloring._balanced_family.cache_info().currsize)\n"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True 1 1\n", "")


def test_closed_stdout_ends_without_traceback():
    """A reader that has gone before the command writes: with buffered
    stdout a long output breaks the pipe inside a command, a short one at
    the final flush."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    for argv in (["betti", "--a", "1", "--b", "1", "--n", "1", "--partition", "80"],
                 ["hj", "--n", "7", "--k", "3"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "eqhilb.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, argv
        assert b"Traceback" not in proc.stderr, proc.stderr
        assert b"BrokenPipeError" not in proc.stderr, proc.stderr


def test_order_below_one_reported(capsys):
    for argv in (["verify-period", "--a", "1", "--b", "1"],
                 ["verify-qpoly", "--a", "2", "--b", "-3"]):
        code, out, err = run(capsys, *argv, "--r", "1", "--n-from", "-3", "--n-to", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: group order must be >= 1, got -3")


def test_empty_order_range_reported(capsys):
    for argv, message in (
        (["verify-period", "--a", "1", "--b", "2", "--r", "3", "--n-from", "1", "--n-to", "5"],
         "error: no order in 1..5 exceeds r*a*b = 6"),
        (["verify-period", "--a", "1", "--b", "2", "--r", "1", "--n-from", "5", "--n-to", "2"],
         "error: no order in 5..2 exceeds r*a*b = 2"),
        (["poincare", "--a", "1", "--b", "2", "--r", "1", "--n-from", "5", "--n-to", "2"],
         "error: --n-to 2 is below --n-from 5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(message)


def test_poincare_refuses_order_with_range(capsys):
    for extra in (["--n-from", "2"], ["--n-to", "5"], ["--n-from", "2", "--n-to", "5"]):
        code, out, err = run(capsys, "poincare", "--a", "1", "--b", "1", "--r", "1",
                             "--n", "3", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: poincare takes --n or --n-from and --n-to, not both")


def test_check_star_refuses_partition_with_group_order(capsys):
    for extra in (["--n", "5", "--r", "1"], ["--n", "5"], ["--r", "1"]):
        code, out, err = run(capsys, "check-star", "--a", "1", "--b", "-2",
                             "--partition", "2,2", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: check-star takes --partition or --n and --r, not both")


def test_non_integer_partition_reported(capsys):
    code, _, err = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                       "--partition", "4,x")
    assert code == 1
    assert err.startswith("error: cannot read partition '4,x'")


def test_increasing_partition_reported(capsys):
    code, _, err = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                       "--partition", "3,4")
    assert code == 1
    assert err.startswith("error: cannot read partition '3,4'")
    assert "weakly decreasing" in err


def test_unwritable_svg_reported(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    code, _, err = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                       "--partition", "2,1", "--render", "svg", "--out", str(target))
    assert code == 1
    assert err.startswith(f"error: cannot write {target}")


#: edge values for every integer option of the fuzz test below
_FUZZ_INTEGERS = st.sampled_from([0, 1, -1, 2, -2, 3, 7, 13, 10**10, -10**10])
#: ``--partition`` values: unreadable ones and small diagrams
_FUZZ_PARTITIONS = st.one_of(
    st.sampled_from(["", "∅", "1,2", "0", "a"]),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
        lambda rows: ",".join(map(str, sorted(rows, reverse=True)))))
#: the subcommands whose report can be a failed check
_FUZZ_CHECKS = {"verify-period", "verify-qpoly", "core-quotient", "check-star"}
#: every (subcommand, --format) pair of the parser
_FUZZ_CASES = [(name, fmt) for name, subparser in _subcommands().items()
               for action in subparser._actions if action.dest == "format"
               for fmt in action.choices]


def _fuzz_option(action):
    """A strategy for the words one option of a subcommand adds to argv:
    none (optional ones only), the flag, or the flag and a value."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        words = st.just([flag])
    elif action.choices is not None:
        words = st.sampled_from([c for c in action.choices if c != "svg"]).map(
            lambda choice: [flag, choice])
    elif action.type is int:
        words = _FUZZ_INTEGERS.map(lambda value: [flag, str(value)])
    elif action.dest == "partition":
        words = _FUZZ_PARTITIONS.map(lambda value: [flag, value])
    else:  # --out, written only with --render svg
        return st.just([])
    return words if action.required else st.one_of(st.just([]), words)


@pytest.mark.parametrize("name, fmt", _FUZZ_CASES, ids=[f"{n}-{f}" for n, f in _FUZZ_CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fuzzed_command_ends_in_output_or_error(name, fmt, data):
    """Edge values on every option of every subcommand, in every ``--format``,
    under a ceiling of 12 boxes: the command never raises, and either exits
    1 with ``error: `` on stderr and nothing on stdout, or prints its report
    and exits 0, or 1 for a failed check."""
    argv = [name, "--format", fmt]
    for action in _subcommands()[name]._actions:
        if action.option_strings and action.dest not in ("help", "format"):
            argv += data.draw(_fuzz_option(action), label=action.dest)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"EQHILB_MAX_BOXES": "12"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), argv
    if err.getvalue():
        assert (code, out.getvalue()) == (1, ""), argv
        assert err.getvalue().startswith("error: "), argv
    else:  # a report, whose exit status is 1 when a check failed
        assert out.getvalue() and (code == 0 or name in _FUZZ_CHECKS), argv
