import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symmon
from symmon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_renner_list(capsys):
    code, out, _ = run(capsys, "renner", "--n", "2", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines == sorted(lines)
    assert lines[0] == "0 0"


def test_renner_symmetric_and_dot(capsys):
    code, out, _ = run(capsys, "renner", "--n", "3", "--fpf")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, "renner", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph poset {")
    code, out, _ = run(capsys, "renner", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert len(data["nodes"]) == 7


def test_special_weights_aii(capsys):
    code, out, _ = run(capsys, "special-weights", "--family", "AII", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,params,weight,special,generator"
    table = {row.split(",")[2]: row.split(",")[3:] for row in lines[1:]}
    assert table["w2"] == ["true", "true"]
    assert table["w1"] == ["false", "false"]
    assert table["w3"] == ["false", "false"]


def test_special_weights_needs_params(capsys):
    code, _, err = run(capsys, "special-weights", "--family", "AIII", "--n", "4")
    assert code == 2
    assert "error" in err


def test_census_csv_and_json(capsys):
    code, out, _ = run(capsys, "census", "--form", "skew", "--n", "3", "--q", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "space,group,q,n,orbit_count,expected,match"
    assert lines[1] == "Skew3,B(F_3) congruence,3,3,4,4,true"
    code, out, _ = run(capsys, "census", "--form", "sym", "--n", "2", "--q", "3", "--format", "json")
    data = json.loads(out)
    assert data["invariant_values"] == 5 and data["match"] is True


def test_census_rejects_even_q(capsys):
    code, _, err = run(capsys, "census", "--form", "sym", "--n", "2", "--q", "2")
    assert code == 2
    assert "error" in err


def test_census_determinism(capsys):
    _, out1, _ = run(capsys, "census", "--form", "skew", "--n", "3", "--q", "3", "--format", "json")
    _, out2, _ = run(capsys, "census", "--form", "skew", "--n", "3", "--q", "3", "--format", "json")
    assert out1 == out2


def test_factor_roundtrip(capsys):
    code, out, _ = run(capsys, "factor", "--q", "3", "--matrix", "1,1;1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rook"] == [0, 1]
    from symmon import finite_field as ff
    from symmon.rook import RookElement

    u = ff.fq_matrix(3, data["u"])
    v = ff.fq_matrix(3, data["v"])
    t = ff.fq_matrix(3, [[data["t"][i] if i == j else 0 for j in range(2)] for i in range(2)])
    r = ff.from_rook(RookElement(tuple(data["rook"])), 3)
    assert u @ t @ r @ v == ff.fq_matrix(3, [[1, 1], [1, 1]])


def test_weight_polytope_text_and_off(capsys):
    code, out, _ = run(capsys, "weight-polytope", "--family", "A", "--n", "3", "--lambda", "1,0,1")
    assert code == 0
    assert "f-vector: (12, 24, 14)" in out
    code, out, _ = run(capsys, "weight-polytope", "--family", "A", "--n", "3", "--lambda", "1,0,1", "--format", "off")
    assert code == 0
    assert out.startswith("OFF\n12 14 24")


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--family", "C", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "C" and data["rank"] == 2
    assert len(data["positive_roots"]) == 4
    assert data["cartan"] == [[2, -1], [-2, 2]]


def test_bad_lambda_exits_2(capsys):
    code, _, err = run(capsys, "weight-polytope", "--family", "A", "--n", "2", "--lambda", "1,x")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["renner", "--n", "2", "--bogus"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rooks.txt"
    code = main(["--out", str(target), "renner", "--n", "1", "--list"])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == "0\n1\n"


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--form", "sym", "--n", "-1", "--q", "3"),
        ("renner", "--n", "-2"),
        ("renner", "--n", "-1", "--fpf"),
        ("weight-polytope", "--family", "A", "--n", "4", "--lambda", "1,0,0,0", "--format", "off"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_off_rejects_dimension_before_hull(capsys, monkeypatch):
    from symmon import polytope

    def no_hull(points):
        raise AssertionError("hull must not run")

    monkeypatch.setattr(polytope, "hull", no_hull)
    code, out, err = run(capsys, "weight-polytope", "--family", "A", "--n", "4", "--lambda", "0,1,1,0", "--format", "off")
    assert code == 2
    assert out == ""
    assert err == "error: OFF export needs affine dimension <= 3, got 4\n"


def test_census_work_guard_exits_2(capsys):
    code, out, err = run(capsys, "census", "--form", "sym", "--n", "5", "--q", "3")
    assert code == 2
    assert out == ""
    assert err == (
        "error: Borel orbit work estimate 14348907 points x 9 generators = 129140163 "
        "applications exceeds the limit 1000000\n"
    )


def test_out_file_unwritable_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "--out", str(target), "renner", "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def _cli_stdout(argv, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(Path(symmon.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "symmon.cli", *argv], env=env, capture_output=True, timeout=300, check=True
    )
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("weight-polytope", "--family", "B", "--n", "3", "--lambda", "1,0,1", "--format", "json"),
    ],
)
def test_stdout_bytes_independent_of_hash_seed(argv):
    assert _cli_stdout(argv, "0") == _cli_stdout(argv, "1")
