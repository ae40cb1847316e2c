import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from periodrel.cli import build_parser, dispatch
from periodrel.series import TruncatedSeries

from helpers import identity_family, poly_matrix_to_json, random_action, unfreeze


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def run_process(argv, cwd):
    """One fresh `python -m periodrel.cli` process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "periodrel.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )


MALFORMED_SERIES = {
    "no-coeffs.json": {"order": 3},
    "quad-without-b.json": {"order": 2, "coeffs": ["0", {"d": 5, "a": "1", "b": "0"}, {"d": 5, "a": "1"}]},
    "bad-rational.json": {"order": 1, "coeffs": ["0", "one"]},
}

SERIES = {"order": 2, "coeffs": ["0", "1", "0"]}
DECODE_INPUTS = {
    "F.json": {"g": 1, "entries": [[SERIES]]},
    "a.json": {"g": 1, "N": 0, "a": [[[SERIES]]]},
    "F-without-g.json": {"entries": [[SERIES]]},
    "F-short-row.json": {"g": 2, "entries": [[SERIES, SERIES], [SERIES]]},
    "a-without-N.json": {"g": 1, "a": [[[SERIES]]]},
    "case3-g-only.json": {"g": 4},
    "case3-ragged.json": {"g": 4, "H": [["1", "0", "0", "0"], ["0", "1"]]},
    "act-ragged.json": {"g": 2, "A": [["1", "0"], ["0", "1"]], "B": [["0"]], "D": [["1", "0"], ["0", "1"]]},
    "poly-no-monomial.json": [{"coeff": "1"}],
    "poly-block-q.json": [{"coeff": "1", "monomial": [["Q", 1, 1, 1]]}],
    "rel-no-entries.json": {"rows": 1},
    "poly-outside-g.json": [{"coeff": "1", "monomial": [["Z", 3, 1, 1]]}],
    "poly-row-2-20.json": [{"coeff": "1", "monomial": [["Y", 2**20, 1, 1]]}],
    "rel-outside-g.json": {"rows": 1, "cols": 1, "entries": [[[{"coeff": "1", "monomial": [["Z", 3, 3, 1]]}]]]},
    "data-g1.json": {"g": 1, "M": [["1"]], "F": [["1"]], "G": [["1"]]},
    "F-not-integral.json": {"g": 1, "integral": True, "entries": [[{"order": 3, "coeffs": ["1/2", "1", "0", "0"]}]]},
    "F-mixed-orders.json": {"g": 2, "entries": [[{"order": 3, "coeffs": ["0", "1", "0", "0"]}, SERIES]] * 2},
    "F-integral-number.json": {"g": 1, "integral": 1, "entries": [[SERIES]]},
}
DECODE_ERRORS = {
    ("gfun", "derive", "--F", "F-without-g.json", "--a", "a.json"): "g: missing",
    ("gfun", "derive", "--F", "F-short-row.json", "--a", "a.json"): "entries[1]: expected 2 entries, got 1",
    ("gfun", "derive", "--F", "F.json", "--a", "a-without-N.json"): "N: missing",
    ("gfun", "radii", "--F", "F-without-g.json", "--a", "a.json", "--places", "[]"): "g: missing",
    ("relation", "case3", "--input", "case3-g-only.json"): "H: missing",
    ("relation", "case3", "--input", "case3-ragged.json"): "H: expected 4 entries, got 2",
    ("relation", "build-nonarch", "--act", "act-ragged.json"): "B: expected 2 entries, got 1",
    ("ideal", "member", "--poly", "poly-no-monomial.json", "--g", "2"): "poly[0].monomial: missing",
    ("ideal", "member", "--poly", "poly-block-q.json", "--g", "2"): "poly[0].monomial[0]: unknown block 'Q'",
    ("relation", "verify", "--rel", "rel-no-entries.json", "--data", "unread.json"): "entries: missing",
    ("gfun", "radii", "--F", "F.json", "--a", "a.json", "--places", '[{"kind": "finite"}]'): "--places[0].p: missing",
    ("gfun", "radii", "--F", "F.json", "--a", "a.json", "--places", "[]", "--excluded", "nope"): (
        "--excluded: invalid JSON: Expecting value: line 1 column 1 (char 0)"
    ),
    ("series", "gb-scan", "--series", "unread.json", "--prime-bound", "-5"): "--prime-bound must be >= 2, got -5",
    ("ideal", "member", "--poly", "poly-outside-g.json", "--g", "2"): "poly: Z[3,1] is not a variable of genus 2",
    ("gfun", "radii", "--F", "F.json", "--a", "a.json", "--places", '[{"kind": "finite", "p": 4}]'): (
        "--places[0]: finite place needs a prime, got 4"
    ),
    ("relation", "verify", "--rel", "rel-outside-g.json", "--data", "data-g1.json"): (
        "entries[0][0]: Z[3,3] is not a variable of genus 1"
    ),
    ("ideal", "member", "--poly", "poly-row-2-20.json", "--g", "2"): (
        "poly[0].monomial[0]: variable indices must be below 2^20"
    ),
    ("gfun", "check", "--F", "F-not-integral.json", "--G", "F-not-integral.json", "--data", "data-g1.json",
     "--x", "5", "--place", "5"): "entries: integrality asserted but computed coefficients are not integers",
    ("gfun", "check", "--F", "F-mixed-orders.json", "--G", "F-mixed-orders.json", "--data", "data-g1.json",
     "--x", "5", "--place", "5"): "entries: entries must share one truncation order",
    ("gfun", "derive", "--F", "F-integral-number.json", "--a", "a.json"): "integral: expected a bool or a list",
}


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
        ["series", "invert", "--series", "no-coeffs.json"],
        ["series", "invert", "--series", "quad-without-b.json"],
        ["series", "gb-scan", "--series", "bad-rational.json"],
        ["series", "eval", "--series", "quad-without-b.json", "--x", "2", "--place", "2"],
        *map(list, DECODE_ERRORS),
    ],
)
def test_out_of_range_arguments_exit_2_with_json(argv, tmp_path):
    for name, doc in {**MALFORMED_SERIES, **DECODE_INPUTS}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    proc = run_process(argv, tmp_path)
    assert proc.returncode == 2
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == ""
    assert set(doc) == {"error"}
    assert doc["error"] == DECODE_ERRORS.get(tuple(argv), doc["error"])
    assert "Traceback" not in proc.stderr


def test_case3_input_from_mixed_fields_exits_1_with_json(tmp_path):
    from periodrel import matrices as mx
    from periodrel.relations import random_case3_input
    from periodrel.scalars import QuadScalar, scalar_to_json

    inp = random_case3_input(4, seed=3, d=5)
    h = unfreeze(inp.H)
    h[0][0] = h[0][0] + QuadScalar(7, 0, 1)
    docs = {
        # sqrt_e in Q(sqrt 7), the change of basis in Q(sqrt 5)
        "sqrt-e-mixed.json": (inp.H, QuadScalar(7, 1, 1)),
        # H in Q(sqrt 7): the relation's coefficients meet the change of basis
        "h-mixed.json": (h, inp.sqrt_e),
    }
    for name, (hmat, sqrt_e) in docs.items():
        blocks = {k: mx.matrix_to_json(m) for k, m in zip("HABCD", (hmat, inp.A, inp.B, inp.C, inp.D))}
        (tmp_path / name).write_text(json.dumps({"g": 4, **blocks, "sqrt_e": scalar_to_json(sqrt_e)}))
    errors = []
    for name in docs:
        proc = run_process(["relation", "case3", "--input", name], tmp_path)
        assert proc.returncode == 1
        doc, end = json.JSONDecoder().raw_decode(proc.stdout)
        assert proc.stdout[end:].strip() == "" and set(doc) == {"error"}
        assert "Traceback" not in proc.stderr
        errors.append(doc["error"])
    assert errors == [
        "change of basis is not a sqrt(e)-symplectic similitude",
        "mixed quadratic contexts: sqrt(7) vs sqrt(5)",
    ]


QUADRATIC_DATA = {"g": 1, "M": [["1"]], "F": [[{"d": 5, "a": "1", "b": "1"}]], "G": [["1"]]}  # F = 1 + sqrt 5
QUADRATIC_REFERENCE_ERRORS = {
    ("--x", "5", "--place", "5"): "finite-place absolute value supported for rational values only",
    ("--x", "1/5", "--place", "arch"): "archimedean place needs an embedding selector for quadratic scalars",
}


@pytest.mark.parametrize("flags", list(QUADRATIC_REFERENCE_ERRORS))
def test_gfun_check_quadratic_reference_exits_1_with_json(flags, tmp_path):
    # period data F in Q(sqrt 5) against rational F and G series
    (tmp_path / "F.json").write_text(json.dumps(DECODE_INPUTS["F.json"]))
    (tmp_path / "data.json").write_text(json.dumps(QUADRATIC_DATA))
    proc = run_process(["gfun", "check", "--F", "F.json", "--G", "F.json", "--data", "data.json", *flags], tmp_path)
    assert proc.returncode == 1
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == ""
    assert doc == {"error": QUADRATIC_REFERENCE_ERRORS[flags]}
    assert "Traceback" not in proc.stderr


def test_gfun_check_quadratic_reference_at_an_embedding(tmp_path, capsys):
    (tmp_path / "F.json").write_text(json.dumps(DECODE_INPUTS["F.json"]))
    (tmp_path / "data.json").write_text(json.dumps(QUADRATIC_DATA))
    argv = ["gfun", "check", "--F", str(tmp_path / "F.json"), "--G", str(tmp_path / "F.json"),
            "--data", str(tmp_path / "data.json"), "--x", "1/5"]
    for place, root in (("arch/sigma", math.sqrt(5)), ("arch/tau", -math.sqrt(5))):
        code, doc = run_json(capsys, [*argv, "--place", place])
        assert code == 0
        entry = doc["result"]["report"]["entries"][0]  # the series x at x = 1/5 against 1 + root
        assert entry["which"] == "F" and math.isclose(entry["discrepancy"], abs(0.2 - (1 + root)))


def test_gfun_check_rational_valued_quadratic_reference(tmp_path, capsys):
    # a QuadScalar with b = 0 is compared exactly, in valuation space at p = 5
    f = {"g": 1, "integral": True, "entries": [[SERIES]]}
    data = {"g": 1, "M": [["1"]], "F": [[{"d": 5, "a": "5", "b": "0"}]], "G": [["6"]]}
    (tmp_path / "F.json").write_text(json.dumps(f))
    (tmp_path / "data.json").write_text(json.dumps(data))
    code, doc = run_json(capsys, ["gfun", "check", "--F", str(tmp_path / "F.json"), "--G", str(tmp_path / "F.json"),
                                  "--data", str(tmp_path / "data.json"), "--x", "5", "--place", "5"])
    assert code == 0
    assert [e["ok"] for e in doc["result"]["report"]["entries"]] == [True, False]  # x = 5 against 5, then 6


def test_interleaved_dispatch_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    (tmp_path / "f.json").write_text(json.dumps(TruncatedSeries.from_coeffs([0, 1, 2, -1, 3]).to_json()))
    argvs = [
        ["ideal", "gens", "--g", "2", "--pretty"],
        ["series", "invert", "--series", "f.json"],
        ["symplectic", "sample", "--g", "2", "--seed", "3", "--mu=-7/5", "--word-length", "2"],
        ["series", "invert", "--series", "f.json", "--order", "2", "--pretty"],
        ["ideal", "gens", "--g", "0"],
        ["symplectic", "sample", "--g", "2", "--seed", "3"],
        ["ideal", "gens", "--g", "2"],
    ]
    fresh = [(p.returncode, p.stdout) for p in (run_process(argv, tmp_path) for argv in argvs)]
    monkeypatch.chdir(tmp_path)
    assert [run(capsys, argv) for argv in argvs + argvs] == fresh + fresh
    assert build_parser() is build_parser()


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
    rel_file.write_text(json.dumps(poly_matrix_to_json(rel)))
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


def test_series_eval_float_overflow_exits_1_with_json(tmp_path):
    (tmp_path / "geo.json").write_text(json.dumps(TruncatedSeries.geometric(5).to_json()))
    proc = run_process(["series", "eval", "--series", "geo.json", "--x", "1e300", "--place", "arch"], tmp_path)
    assert proc.returncode == 1
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == "" and "Traceback" not in proc.stderr
    assert doc == {"error": "evaluation at x = 1e300 overflows a float"}


def test_negative_values_may_follow_their_flag(capsys):
    argv = ["symplectic", "sample", "--g", "2", "--seed", "3", "--word-length", "2"]
    joined = run_json(capsys, argv + ["--mu=-7/5"])
    split = run_json(capsys, argv + ["--mu", "-7/5"])
    assert joined[0] == split[0] == 0
    assert joined[1]["result"] == split[1]["result"]
    assert joined[1]["result"]["sample"]["multiplier"] == "-7/5"
    assert split[1]["manifest"]["arguments"] == argv + ["--mu", "-7/5"]


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
    from periodrel.gfun import GFunMatrix

    f = GFunMatrix.from_series(1, [[TruncatedSeries.geometric(8)]])
    fam = identity_family(1, 8)
    f_file, a_file = tmp_path / "F.json", tmp_path / "a.json"
    f_file.write_text(json.dumps(f.to_json()))
    a_file.write_text(json.dumps(fam.to_json()))
    code, doc = run_json(capsys, ["gfun", "derive", "--F", str(f_file), "--a", str(a_file)])
    assert code == 0
    assert doc["result"]["G"]["entries"][0][0]["coeffs"] == ["1"] * 9


def test_gfun_radii_subcommand(tmp_path, capsys):
    from periodrel.gfun import GFunMatrix

    f = GFunMatrix.from_series(1, [[TruncatedSeries.geometric(8)]], integral=True)
    fam = identity_family(1, 8)
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
