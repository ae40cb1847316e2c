import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from periodrel.cli import dispatch
from periodrel.relations import random_action
from periodrel.series import TruncatedSeries


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["ideal", "gens"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "gens", "--g", "0"],
        ["ideal", "radical", "--g", "0"],
        ["ideal", "member", "--poly", "unread.json", "--g", "0"],
        ["symplectic", "sample", "--g", "0"],
        ["symplectic", "sample", "--g", "2", "--mu", "0"],
        ["symplectic", "sample", "--g", "2", "--mu", "1/0"],
    ],
)
def test_out_of_range_arguments_exit_2_with_json(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "periodrel.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == ""
    assert set(doc) == {"error"}
    assert "Traceback" not in proc.stderr


def test_ideal_radical_report(capsys):
    code, doc = run_json(capsys, ["ideal", "radical", "--g", "3"])
    assert code == 0
    assert doc["result"]["rank"] == 3
    assert doc["result"]["verdict"] == "radical"
    assert doc["manifest"]["versions"]["periodrel"]


def test_reports_are_byte_identical_for_same_seed(capsys):
    _, out1 = run(capsys, ["symplectic", "sample", "--g", "2", "--seed", "42"])
    _, out2 = run(capsys, ["symplectic", "sample", "--g", "2", "--seed", "42"])
    assert out1 == out2
    _, out3 = run(capsys, ["symplectic", "sample", "--g", "2", "--seed", "43"])
    assert out1 != out3


def test_ideal_gens_counts(capsys):
    code, doc = run_json(capsys, ["ideal", "gens", "--g", "3"])
    assert code == 0
    assert doc["result"]["count"] == 3
    assert len(doc["result"]["generators"]) == 3


def test_ideal_member_not_in_ideal_embeds_witness(tmp_path, capsys):
    from periodrel.polyalg import MultiPoly, yvar

    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(MultiPoly.variable(yvar(1, 1)).to_json()))
    code, doc = run_json(capsys, ["ideal", "member", "--poly", str(poly_file), "--g", "2"])
    assert code == 0
    res = doc["result"]
    assert res["status"] == "not_in_ideal_certified"
    assert res["witness"]["Y"] == [["1", "0"], ["0", "1"]]
    assert res["value"] == "1"
    assert str(poly_file) in doc["manifest"]["input_digests"]


def test_relation_build_nonarch_roundtrip(tmp_path, capsys):
    act = random_action(2, seed=3, solvable=True)
    act_file = tmp_path / "act.json"
    act_file.write_text(json.dumps(act.to_json()))
    code, doc = run_json(capsys, ["relation", "build-nonarch", "--act", str(act_file), "--seed", "5"])
    assert code == 0
    cert = doc["result"]["certificate"]
    assert cert["degree"] == 3
    assert cert["nontriviality"]["status"] == "not_in_ideal_certified"


def test_relation_scalar_action_fails_cleanly(tmp_path, capsys):
    act_file = tmp_path / "act.json"
    act_file.write_text(
        json.dumps(
            {
                "g": 2,
                "A": [["2", "0"], ["0", "2"]],
                "B": [["0", "0"], ["0", "0"]],
                "D": [["2", "0"], ["0", "2"]],
            }
        )
    )
    code, out = run(capsys, ["relation", "build-nonarch", "--act", str(act_file)])
    assert code == 1
    assert json.loads(out)["error"] == "no relation derivable from scalar endomorphism"


def test_relation_verify_subcommand(tmp_path, capsys):
    from periodrel.relations import build_nonarch_relation, synthesize_period_data

    act = random_action(2, seed=8, solvable=True)
    rel = build_nonarch_relation(act)
    data = synthesize_period_data(act, seed=8)
    rel_file, data_file = tmp_path / "rel.json", tmp_path / "data.json"
    rel_file.write_text(json.dumps(rel.to_json()))
    data_file.write_text(json.dumps(data.to_json()))
    code, doc = run_json(
        capsys, ["relation", "verify", "--rel", str(rel_file), "--data", str(data_file)]
    )
    assert code == 0 and doc["result"]["vanishes"] is True


def test_relation_case3_subcommand(capsys):
    code, doc = run_json(capsys, ["relation", "case3", "--g", "4", "--seed", "3"])
    assert code == 0
    assert doc["result"]["certificate"]["degree"] == 2
    code, out = run(capsys, ["relation", "case3", "--g", "3", "--seed", "3"])
    assert code == 1
    assert "even g > 2" in json.loads(out)["error"]


def test_series_subcommands(tmp_path, capsys):
    f = TruncatedSeries.from_coeffs([0, 1, 1], 6)
    series_file = tmp_path / "s.json"
    series_file.write_text(json.dumps(f.to_json()))
    code, doc = run_json(capsys, ["series", "invert", "--series", str(series_file)])
    assert code == 0
    assert doc["result"]["inverse"]["coeffs"][:4] == ["0", "1", "-1", "2"]

    code, doc = run_json(
        capsys,
        ["series", "radius", "--series", str(series_file), "--place", "7", "--integral"],
    )
    assert code == 0
    assert doc["result"]["lower_bound"] == 1.0 and doc["result"]["certified"]

    exp = TruncatedSeries.from_coeffs(
        [Fraction(1, math.factorial(n)) for n in range(21)], 20
    )
    exp_file = tmp_path / "exp.json"
    exp_file.write_text(json.dumps(exp.to_json()))
    code, doc = run_json(
        capsys, ["series", "gb-scan", "--series", str(exp_file), "--prime-bound", "20"]
    )
    assert code == 0
    assert doc["result"]["verdict"] == "unbounded_evidence"
    assert doc["result"]["witness"] is not None

    geo_file = tmp_path / "geo.json"
    geo_file.write_text(json.dumps(TruncatedSeries.geometric(10).to_json()))
    code, doc = run_json(
        capsys,
        ["series", "eval", "--series", str(geo_file), "--x", "2", "--place", "2", "--integral-tail"],
    )
    assert code == 0
    assert doc["result"]["tail_bound"] == pytest.approx(2.0 ** (-11))


def test_series_eval_outside_disc_fails(tmp_path, capsys):
    geo_file = tmp_path / "geo.json"
    geo_file.write_text(json.dumps(TruncatedSeries.geometric(5).to_json()))
    code, out = run(
        capsys,
        ["series", "eval", "--series", str(geo_file), "--x", "1/2", "--place", "2", "--integral-tail"],
    )
    assert code == 1
    assert "outside certified disc" in json.loads(out)["error"]


def test_gfun_derive_subcommand(tmp_path, capsys):
    from periodrel.gfun import GaussManinCoefficients, GFunMatrix

    f = GFunMatrix.from_series(1, [[TruncatedSeries.geometric(8)]])
    fam = GaussManinCoefficients.identity_family(1, 8)
    f_file, a_file = tmp_path / "F.json", tmp_path / "a.json"
    f_file.write_text(json.dumps(f.to_json()))
    a_file.write_text(json.dumps(fam.to_json()))
    code, doc = run_json(capsys, ["gfun", "derive", "--F", str(f_file), "--a", str(a_file)])
    assert code == 0
    assert doc["result"]["G"]["entries"][0][0]["coeffs"] == ["1"] * 9


def test_gfun_radii_subcommand(tmp_path, capsys):
    from periodrel.gfun import GaussManinCoefficients, GFunMatrix

    f = GFunMatrix.from_series(1, [[TruncatedSeries.geometric(8)]], integral=True)
    fam = GaussManinCoefficients.identity_family(1, 8)
    f_file, a_file = tmp_path / "F.json", tmp_path / "a.json"
    f_file.write_text(json.dumps(f.to_json()))
    a_file.write_text(json.dumps(fam.to_json()))
    code, doc = run_json(
        capsys,
        [
            "gfun", "radii", "--F", str(f_file), "--a", str(a_file),
            "--places", json.dumps([{"kind": "finite", "p": 7}]),
            "--excluded", json.dumps(["7"]),
        ],
    )
    assert code == 0
    entry = doc["result"]["radii"][0]
    assert entry["r"] == pytest.approx(1.0 / 7)


def test_gfun_check_subcommand(tmp_path, capsys):
    from periodrel.gfun import GFunMatrix
    from periodrel.series import padic_partial_sum

    order = 8
    f = GFunMatrix.from_series(1, [[TruncatedSeries.geometric(order)]], integral=True)
    gz = GFunMatrix.from_series(1, [[TruncatedSeries.zero(order)]], integral=True)
    x = Fraction(5)
    ref = padic_partial_sum(TruncatedSeries.geometric(order), x)
    data = {
        "g": 1,
        "M": [["1"]],
        "F": [[f"{ref.numerator}/{ref.denominator}" if ref.denominator != 1 else str(ref.numerator)]],
        "G": [["0"]],
    }
    f_file, g_file, d_file = tmp_path / "F.json", tmp_path / "G.json", tmp_path / "d.json"
    f_file.write_text(json.dumps(f.to_json()))
    g_file.write_text(json.dumps(gz.to_json()))
    d_file.write_text(json.dumps(data))
    code, doc = run_json(
        capsys,
        [
            "gfun", "check", "--F", str(f_file), "--G", str(g_file),
            "--data", str(d_file), "--x", "5", "--place", "5",
        ],
    )
    assert code == 0
    assert doc["result"]["report"]["all_ok"] is True


def test_relation_case3_explicit_input(tmp_path, capsys):
    from periodrel.relations import random_case3_input
    from periodrel import matrices as mx
    from periodrel.scalars import scalar_to_json

    inp = random_case3_input(4, seed=7)
    doc_in = {
        "g": 4,
        "H": mx.matrix_to_json(inp.H),
        "A": mx.matrix_to_json(inp.A),
        "B": mx.matrix_to_json(inp.B),
        "C": mx.matrix_to_json(inp.C),
        "D": mx.matrix_to_json(inp.D),
        "sqrt_e": scalar_to_json(inp.sqrt_e),
    }
    in_file = tmp_path / "case3.json"
    in_file.write_text(json.dumps(doc_in))
    code, doc = run_json(capsys, ["relation", "case3", "--input", str(in_file)])
    assert code == 0
    assert doc["result"]["certificate"]["degree"] == 2


def test_out_file_writing(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, ["ideal", "radical", "--g", "2", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["verdict"] == "radical"
