import hashlib
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


def test_field_is_an_alias_of_q(capsys):
    for cmd in (("census", "--form", "sym", "--n", "2"), ("factor", "--matrix", "1,2;3,4")):
        via_field = run(capsys, *cmd, "--field", "3")
        assert via_field[0] == 0 and via_field == run(capsys, *cmd, "--q", "3")
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--field", "3", "--q", "5"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "matrix,shape",
    [("1,2;3", "2 rows, but row 2 has length 1"), ("1,2,3;4,5", "2 rows, but row 1 has length 3")],
)
def test_factor_rejects_non_square_matrix(capsys, matrix, shape):
    code, out, err = run(capsys, "factor", "--q", "5", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert err == f"error: bad --matrix {matrix!r}: not square: {shape}\n"


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
    # factor takes its size from --matrix and has no --n
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--n", "3", "--q", "3", "--matrix", "1,2;3,4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err


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


def test_verify_writes_through_out(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, _ = run(capsys, "--out", str(target), "verify")
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_STDOUT["verify"]


def test_failing_verify_exits_1_with_its_fail_line_in_out(tmp_path, capsys, monkeypatch):
    from symmon import orbits

    monkeypatch.setattr(orbits, "verify_borel_meets_closure_N", lambda n, q, form: False)
    target = tmp_path / "verify.txt"
    code, out, _ = run(capsys, "--out", str(target), "verify")
    assert code == 1 and out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 10
    assert lines[8] == "[FAIL] criterion 9 orbit invariants meet monomial closure: (2,3,sym): False; (3,3,skew): False"
    assert sum(line.startswith("[PASS]") for line in lines) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--form", "sym", "--n", "-1", "--q", "3"),
        ("renner", "--n", "-2"),
        ("renner", "--n", "-1", "--fpf"),
        ("weight-polytope", "--family", "A", "--n", "4", "--lambda", "1,0,0,0", "--format", "off"),
        ("factor", "--q", "0", "--matrix", "1"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_off_rejects_dimension_before_hull(capsys, monkeypatch):
    from symmon import polytope, root_weight

    def no_facets(*args):
        raise AssertionError("neither a facet search nor an orbit may run")

    monkeypatch.setattr(polytope, "hull", no_facets)
    monkeypatch.setattr(polytope, "_facet_rows", no_facets)
    monkeypatch.setattr(root_weight, "_scaled_orbit", no_facets)
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


def test_rank_guard_exits_2(capsys):
    code, out, err = run(capsys, "roots", "--family", "A", "--n", "7")
    assert (code, out, err) == (2, "", "error: root system rank 7 exceeds the limit 6\n")


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
        ("weight-polytope", "--family", "B", "--n", "3", "--lambda", "1,1,1", "--format", "off"),
        ("roots", "--family", "B", "--n", "4", "--format", "json"),
        ("special-weights", "--family", "DIII", "--n", "5"),
        ("renner", "--n", "4", "--symmetric", "--format", "dot"),
        ("weight-polytope", "--family", "A", "--n", "4", "--lambda", "1,0,0,1"),
        ("census", "--form", "sym", "--n", "3", "--q", "5", "--format", "json"),
    ],
)
def test_stdout_bytes_independent_of_hash_seed(argv):
    assert _cli_stdout(argv, "0") == _cli_stdout(argv, "1")


def test_poset_export_work_guard_exits_2(capsys):
    code, out, err = run(capsys, "renner", "--n", "6", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == (
        "error: Hasse diagram work estimate 13327^2 = 177608929 order comparisons "
        "exceeds the limit 4000000\n"
    )
    code, out, err = run(capsys, "renner", "--n", "8", "--symmetric", "--format", "dot")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "7193^2 = 51739249" in err
    # listing needs no comparisons and stays admitted
    code, out, _ = run(capsys, "renner", "--n", "6")
    assert code == 0 and len(out.splitlines()) == 13327


def test_renner_n4_json_frontier(capsys):
    code, out, _ = run(capsys, "renner", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (len(data["nodes"]), len(data["edges"])) == (209, 746)


# SHA-256 of stdout, recorded on the brute-force hull and Hasse reduction
# before both were replaced by structure-aware algorithms, and on the
# per-matrix mod-q eliminations and slot-loop enumerators before those were
# replaced by one row_reduce and one matrix decoder, on the affine-frame
# weight polytopes before their span and facets were read off the root datum,
# on the Fraction face lattice before it became integer bitmasks, and on the
# per-root Fraction pairings before the Dynkin labels came from integer coroots,
# and on the pairwise Bruhat comparisons and face-lattice f-vectors before the
# up-sets came from threshold bitmasks and the f-vectors from parabolic counts,
# and on the Borel orbit engine that applied every torus generator to every
# point before the torus acted once per U-orbit (the q = 5, 7 censuses),
# and on the Fraction facet normalization and Fraction OFF frame before both
# moved to integers (the half-integer, chi-shifted and planar outputs)
GOLDEN_STDOUT = {
    "verify": "6d4246b5d637953b99d54a81e29fa6c4da7db6117a1c31dea3da537fa15c5116",
    "census --form skew --n 4 --q 3": "4d2a1cc2954cbcba1ec38583e2a9188dbe543dcda9cb2a8666d0931d191fbed5",
    "census --form sym --n 3 --q 3": "97b1c74364e2a1f593fa08cc29f2b82cff85b9b18911cd45b1aa045ea70aff22",
    "census --form sym --n 2 --q 7": "c799dfaece2f6e69a9fd48845c8e24d2926aabe0e1ed0ddcdc588f53f73b53cd",
    "census --form skew --n 3 --q 5": "76dbeb51139432cdc71581d3bf3e36f26e6bca1980206e8634eb5789a768873a",
    "census --form sym --n 3 --q 5 --format json": "43cbca510fc23bbb4d1de94407fb818b48ae7b67fec15154723f960770850d41",
    "census --form sym --n 3 --q 7 --format json": "21657593b60cbe45f97b861a7332298c2e0e42049afb16f6467ec9f915ce85cd",
    "census --form skew --n 4 --q 5 --format json": "f5bc966de575f2afdf1b70071ae6c6d93424222c2c0f9940d8f129763e46e7ba",
    "census --form skew --n 3 --q 3 --format csv": "85832ba311a4f1e90c2d0f0e79623735efa9e985808260b9d565f0f6886fd926",
    "factor --q 5 --matrix 1,2,0;3,4,1;0,1,1 --format json": "2840f01ff65acc79056c6a9092558e9ee06c817ad38d7c5cdc0861c9ec94b990",
    "factor --q 2 --matrix 1,1,0;0,1,1;1,0,1": "9fdb735aa3fe70c2f1262db5605069a2cd1eac2ce33ca0de8a27911ed53ce95e",
    "factor --q 2 --matrix 1,1,0;0,1,1;1,0,1 --format json": "e11ccb21a35744991fc1780cae168cc1f2af149a8a77a4490b86313f91622250",
    "factor --q 3 --matrix 2": "ebe2768a66d43c655fc04f231c9b604ccf854258950899e6dee6530225f95d2b",
    "factor --q 3 --matrix 2 --format json": "b3c57bee190628ed2a0cca329df36600ef59514f9240294127400722e9887046",
    "factor --q 7 --matrix 0,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0": "ee54d4eeea9dfd2b9faf0f318881817bc037473aeb4e71b954ee6992fd030a0e",
    "factor --q 7 --matrix 0,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0 --format json": "822d8ac09ee3d27bab6adcc097f14d84b3f85e256c1a363e2869c9d86bc47069",
    "factor --q 3 --matrix 1,2,0,1,2;2,1,1,0,2;0,2,2,1,1;1,1,0,2,1;2,0,1,1,2": "8a10eb7ba6584ab8e4c97d28dd941be5a8cdf32d7f320e85d10aa0db8b0444bd",
    "factor --q 3 --matrix 1,2,0,1,2;2,1,1,0,2;0,2,2,1,1;1,1,0,2,1;2,0,1,1,2 --format json": "e30518d9771ef4ad773832760f466f26c3bb24be54bce4208b749c93a3f7ec87",
    "renner --n 3 --format json": "02650e2f01c9f69a38850bae1ff7397a7e30e2ac895bd05458af90db00b3f140",
    "renner --n 3 --format dot": "1c9954a3dcc57491479467c6f3d3f46cd93a704a058fbed3087e9296576ae4e0",
    "renner --n 4 --symmetric --format json": "70cd35d89a6aff4a81503300f2642b5b2b510d2256d7b36079ca2e3cb5c4a27a",
    "renner --n 4 --format json": "2f285431bb73a6d9dcfb4772fabde4065ab87c5a20804088c873d87c6b1a2205",
    "renner --n 4 --format dot": "b4bd1bfd0fe9fed076c2218dbfe93af92c988260f9ef4e1d5299deda61db1c8b",
    "renner --n 5 --format json": "fc0f9c4c39c6c6751f12579d91d99b6d8ae21ac0583ce371c85dca3b0d28e3d4",
    "renner --n 6 --symmetric --format json": "8df465b50dbfcf15ce0f51cb3acbde72bc96bca289c5a46b5f6e7422ec2d2cc3",
    "renner --n 6 --fpf --format dot": "9d668b6aa7d5a55f346bdc93b5139468c222d1d9122116afd3de58999058ca7f",
    "weight-polytope --family B --n 4 --lambda 0,1,0,0 --format json": "a49a3f70263b0d4b35fe1a4c9eec9c912aa1eb3900c92c1668bd92477a22d223",
    "weight-polytope --family A --n 4 --lambda 1,0,0,1 --format json": "f926f5b805eeb19fcf24ee719c4e584d0d51b34835d6c88655c0a4e921cd134b",
    "weight-polytope --family B --n 3 --lambda 1,0,1 --format json": "51b9af5de67f3d641358ca9e1e5278520fcab2294ed24f742cc01713f89121b8",
    "weight-polytope --family A --n 3 --lambda 1,0,1 --format off": "380ecc5d248bc0dec1dfb8116c9c18de881bb48eb209fefdf5e660288d82a6b2",
    "weight-polytope --family A --n 4 --lambda 0,1,1,0 --format json": "46ec3e54b8296b3bee8e4ad3f34ee40f17761e4613fb2a6caecaae28dbf7d133",
    "weight-polytope --family B --n 3 --lambda 1,1,1 --format json": "be9983dd6dac8e65eba3edc8aec1a2d32bd4af8cfeea9374e55383850b4e053c",
    "weight-polytope --family A --n 4 --lambda 1,1,1,1 --format json": "24ee6326d4f211c24a684e590625a057bb48847187bd7b8f61d605fc44e23cb0",
    "weight-polytope --family D --n 2 --lambda 1,0 --format json": "442ac6ededb602a524325dbaaf8d8fc7f007e4582941e1a9dccd851ea056e601",
    "weight-polytope --family A --n 3 --lambda 0,0,0 --format json": "5b86656a8a9f6362560726e2d790e87f95eacd342419bdac4ef77322b8cb8313",
    "weight-polytope --family A --n 3 --lambda 1,1,1 --format off": "5075f715d300437b4ec95fa93cc8c4c7f121858075a963c56e47ca75e12a3951",
    "weight-polytope --family B --n 3 --lambda 1,1,1 --format off": "8dc62c1ceadbfd32c48f9746bb1eb93c2b978968cf3b03bf8df875ec90f64764",
    "weight-polytope --family B --n 3 --lambda 0,0,1 --format off": "473b75e5998bd3ebeb1c90b3f4fe7e5f83c86f9d6ae3b0ca83c255f1e92dac57",
    "weight-polytope --family C --n 3 --lambda 1,0,0 --format off": "ae830c515bbb2251393f97b8e52e98bc7f4a6041abc76564d19bcc3e038d71eb",
    "weight-polytope --family D --n 4 --lambda 1,1,1,1 --format json": "2291003f41f34d283aa8581ecff2d93ad762e26170d90665cb5626f02c3cc89b",
    "weight-polytope --family D --n 4 --lambda 0,1,0,0 --format json": "a49a3f70263b0d4b35fe1a4c9eec9c912aa1eb3900c92c1668bd92477a22d223",
    "weight-polytope --family C --n 4 --lambda 0,0,0,1 --format json": "975650daa527dc6954c6f296d97591dbb4f60674967eb4104f346f05f263a436",
    "weight-polytope --family A --n 4 --lambda 1,0,0,1": "0bd20470235de00e3a65e5e5e99da3738d3c684da18cb95cbf49086f33567081",
    "weight-polytope --family A --n 2 --lambda 1,1": "3aa4c493942da0d0a0348d4808550b2d3a42eb86b5d7eb50a486d203d54474ac",
    "weight-polytope --family A --n 1 --lambda 2": "7afba20b7efa40d96adec531c0aaa4aa2ca3ad4db4fc7b57c9cc287519b4e044",
    "weight-polytope --family B --n 2 --lambda 0,0": "22c6032ee9867b894956808e8440d5f01529d5c1636f5173aa3e59c15ef50a21",
    "weight-polytope --family B --n 3 --lambda 0,0,1 --format json": "7a2046b80fe51e44144d8efc42f154d1c8d876c38252a529455151aa3993c775",
    "weight-polytope --family A --n 3 --lambda 0,1,0 --format off": "ae830c515bbb2251393f97b8e52e98bc7f4a6041abc76564d19bcc3e038d71eb",
    "weight-polytope --family A --n 3 --lambda 0,1,0 --format json": "2ecd2bbb8857f11032cbbe8489ba7359127181911b94ae44eef4f55dd2f86945",
    "weight-polytope --family C --n 3 --lambda 0,1,0 --format json": "3e86d401731253c66718c8f933fbaec925a71a268909fd85a7db47e1d2f70db2",
    "weight-polytope --family C --n 3 --lambda 0,1,0 --format off": "38d1db5a4563a828d8f123d8c99fd06fa4b032cb9f8d0123d643dbf9ee37b422",
    "weight-polytope --family A --n 2 --lambda 1,0 --format off": "6762c19f980a701b5664ad4f14687bf05467a00e7990aac73d7053291d13702c",
    "weight-polytope --family A --n 2 --lambda 1,0 --format json": "6a0d2261792727811cd74ace2687c52d78439a218c0b769f31e72b3fe5ca97af",
    "weight-polytope --family B --n 2 --lambda 0,1 --format off": "3d1545cb25faf6cb7929b82ce6217f5f4d0b5ac75309c461b021042e41497596",
    "weight-polytope --family D --n 3 --lambda 0,0,1 --format off": "57e1cf02a79432d15a97658b14b8d77349e0d3c52e6654b9cc1dce3ccc801bf2",
    "weight-polytope --family A --n 1 --lambda 1 --format off": "02e815ddb62c97fe5e978e41e7364fbb8256e78fa7939ce2fe03a81f88b777a3",
    "weight-polytope --family A --n 3 --lambda 2,1,0 --format off": "9061e4b47a23165765f4ef3aa57e3282465d7138d73c5f78662db8c3e83d379a",
    "roots --family B --n 4 --format json": "4cccbcfb512e3329d6cc970991cff845c1667f2ef3103ad1597f3f291d7a5950",
    "roots --family A --n 3 --format json": "447f5243f3b0447a37c582cc4cfae597c20f839c28c4f94263ec09ea158cc5c2",
    "roots --family C --n 3": "8ccb09e41d39f9a427a1c966507cc792be3366e7e8c5b5b4654bb470bf9c4158",
    "roots --family D --n 2": "c397317160f7431aff80b2819f8ec6b6867024a5f0c4a8b6e0aa3fb4dfd28fee",
    "special-weights --family AII --n 3": "75305054125aca28dd13a965c2e540581d71624e15d741df146c0c31b65a31fc",
    "special-weights --family AIII --p 2 --q 3": "112a844754e613fe7b4eab7d1d890327d8a7027652acece8b83cf44da5a9c991",
    "special-weights --family DIII --n 5": "41f068ff56889dbb5c997d59a0503ab4bd488e8270633401b03f18e67929b296",
    "special-weights --family BDI --p 2 --q 5": "46ff163ba227e1197e4db1665584d908458c140f9091c8fbec967756b840e524",
    "special-weights --family BDI --p 3 --q 3": "4752583746afe79fe2a52a56366e93ca4f2befaee26adf556d412966d75e5b25",
    "special-weights --family CII --p 1 --q 3": "87af09e14088c6460c07e2ae5e0041dcaea5bc0434db12f922fb26b2c7200b0e",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_golden_stdout_bytes(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def _golden(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    return hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_parser_built_once_keeps_calls_independent(tmp_path, capsys):
    from symmon.cli import build_parser

    assert build_parser() is build_parser()
    # an argparse error, then a good call
    with pytest.raises(SystemExit) as exc:
        main(["renner", "--n", "3", "--format", "svg"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert _golden(capsys, "renner --n 3 --format json")
    # two different subcommands in a row
    assert _golden(capsys, "weight-polytope --family A --n 2 --lambda 1,1")
    assert _golden(capsys, "factor --q 5 --matrix 1,2,0;3,4,1;0,1,1 --format json")
    # --out, then a call to stdout
    target = tmp_path / "poset.dot"
    assert run(capsys, "--out", str(target), "renner", "--n", "4", "--format", "dot") == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_STDOUT["renner --n 4 --format dot"]
    assert _golden(capsys, "renner --n 4 --format dot")


def test_golden_hull_guard_error(capsys):
    code, out, err = run(capsys, "weight-polytope", "--family", "B", "--n", "4", "--lambda", "1,1,1,1", "--format", "json")
    assert (code, out, err) == (2, "", "error: hull guard: 384 points exceed the limit 200\n")
