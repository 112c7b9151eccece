import json
import xml.etree.ElementTree as ET

import pytest

from eqhilb import LPolynomial, Partition, Quasipolynomial
from eqhilb.cli import main


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


def test_svg_requires_out(capsys):
    code, _, err = run(capsys, "betti", "--a", "1", "--b", "-1", "--n", "3",
                       "--partition", "2,1", "--render", "svg")
    assert code == 1
    assert "requires --out" in err


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


def test_bad_max_boxes_env_reported(monkeypatch, capsys):
    monkeypatch.setenv("EQHILB_MAX_BOXES", "abc")
    code, _, err = run(capsys, "enumerate", "--a", "1", "--b", "-1", "--n", "3", "--r", "1")
    assert code == 1
    assert err.startswith("error: EQHILB_MAX_BOXES must be an integer")


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
