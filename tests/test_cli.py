import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from periodrel.cli import build_parser, dispatch
from periodrel.polyalg import DEGREE_CAP
from periodrel.series import TruncatedSeries

from helpers import (
    family_to_json,
    geometric,
    gfun_matrix,
    horner,
    identity_family,
    poly_matrix_to_json,
    random_action,
    series_zero,
    unfreeze,
)


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
# a monomial entry that is not a variable of the Y/Z format -> its error after the entry's path;
# a fifth field is refused, never ignored: ["Y", 1, 1, 1, 1] read as Y[1,1] would change the polynomial
VARIABLE_ENTRIES = {
    "Yp": (["Yp", 1, 1, 1], ": unknown block 'Yp'"),
    "Zp": (["Zp", 1, 1, 1], ": unknown block 'Zp'"),
    "fifth-field-2": (["Y", 1, 1, 1, 2], ": expected 4 entries, got 5"),
    "fifth-field-1": (["Y", 1, 1, 1, 1], ": expected 4 entries, got 5"),
    "three-fields": (["Y", 1, 1], ".exponent: missing"),
}
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
    "poly-row-infinity.json": [{"coeff": "1", "monomial": [["Y", math.inf, 1, 1]]}],  # JSON Infinity
    "rel-outside-g.json": {"rows": 1, "cols": 1, "entries": [[[{"coeff": "1", "monomial": [["Z", 3, 3, 1]]}]]]},
    "data-g1.json": {"g": 1, "M": [["1"]], "F": [["1"]], "G": [["1"]]},
    "F-not-integral.json": {"g": 1, "integral": True, "entries": [[{"order": 3, "coeffs": ["1/2", "1", "0", "0"]}]]},
    "F-mixed-orders.json": {"g": 2, "entries": [[{"order": 3, "coeffs": ["0", "1", "0", "0"]}, SERIES]] * 2},
    "F-integral-number.json": {"g": 1, "integral": 1, "entries": [[SERIES]]},
    "F-g-true.json": {"g": True, "entries": [[SERIES]]},
    "series-order-2.5.json": {"order": 2.5, "coeffs": ["0"]},
    "series-too-long.json": {"order": 1, "coeffs": ["0", "1", "0"]},
    "poly-exponent-1.5.json": [{"coeff": "1", "monomial": [["Y", 1, 1, 1.5]]}],
    **{f"poly-{k}.json": [{"coeff": "1", "monomial": [["Z", 1, 1, 1], e]}] for k, (e, _) in VARIABLE_ENTRIES.items()},
    **{f"rel-{k}.json": {"rows": 1, "cols": 1, "entries": [[[{"coeff": "1", "monomial": [["Z", 1, 1, 1], e]}]]]}
       for k, (e, _) in VARIABLE_ENTRIES.items()},
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
    # a bool or a float with a fractional part is not an integer (int() read them as 1 and 1)
    ("gfun", "derive", "--F", "F-g-true.json", "--a", "a.json"): "g: not an integer: True",
    ("series", "radius", "--series", "series-order-2.5.json", "--place", "arch"): "order: not an integer: 2.5",
    ("ideal", "member", "--poly", "poly-exponent-1.5.json", "--g", "1"): (
        "poly[0].monomial[0].exponent: not an integer: 1.5"
    ),
    ("series", "invert", "--series", "series-too-long.json"): "coeffs: expected at most 2 entries, got 3",
    ("series", "invert", "--series", "unread.json", "--order", "-1"): "--order must be >= 0, got -1",
    ("ideal", "member", "--poly", "unread.json", "--g", "2", "--budget", "-1"): "--budget must be >= 0, got -1",
    ("symplectic", "sample", "--g", "2", "--word-length", "-1"): "--word-length must be >= 0, got -1",
    ("series", "gb-scan", "--series", "unread.json", "--prime-bound", "16777216"): (
        "--prime-bound must be <= 16777215, got 16777216"
    ),
    ("ideal", "member", "--poly", "poly-row-infinity.json", "--g", "2"): (
        "poly[0].monomial[0].row: not an integer: inf"
    ),
    **{("ideal", "member", "--poly", f"poly-{k}.json", "--g", "2"): f"poly[0].monomial[1]{error}"
       for k, (_, error) in VARIABLE_ENTRIES.items()},
    **{("relation", "verify", "--rel", f"rel-{k}.json", "--data", "data-g1.json"): f"entries[0][0][0].monomial[1]{error}"
       for k, (_, error) in VARIABLE_ENTRIES.items()},
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
    assert proc.stderr == ""


def test_an_over_long_coefficient_list_is_refused_before_it_is_read(tmp_path):
    # a million coefficients for an order-1 series: refused on its length,
    # not decoded and dropped
    (tmp_path / "long.json").write_text(json.dumps({"order": 1, "coeffs": ["0"] * 10**6}))
    start = time.perf_counter()
    proc = run_process(["series", "radius", "--series", "long.json", "--place", "arch"], tmp_path)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (
        2, {"error": "coeffs: expected at most 2 entries, got 1000000"}, ""
    )
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "radius", "--series", "series.json", "--place", "arch/foo"],
        ["series", "eval", "--series", "series.json", "--x", "1/2", "--place", "arch/foo"],
        ["gfun", "check", "--F", "F.json", "--G", "F.json", "--data", "data-g1.json", "--x", "1/2",
         "--place", "arch/foo"],
    ],
    ids=["series-radius", "series-eval", "gfun-check"],
)
def test_unknown_embedding_exits_1_with_json(argv, tmp_path):
    for name, doc in {"series.json": SERIES, **DECODE_INPUTS}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    proc = run_process(argv, tmp_path)
    assert proc.returncode == 1
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == ""
    assert doc == {"error": "cannot parse place 'arch/foo'"}
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
        "mixed quadratic contexts: sqrt(7) vs sqrt(5)",
        "mixed quadratic contexts: sqrt(7) vs sqrt(5)",
    ]


def test_two_quadratic_fields_are_refused_up_front(tmp_path):
    from periodrel import matrices as mx
    from periodrel.relations import random_case3_input
    from periodrel.scalars import QuadScalar, scalar_to_json

    # Newton's products never meet sqrt 5 with sqrt 2 to order 4
    two = {"order": 4, "coeffs": ["0", "1", "0", {"d": 5, "a": "0", "b": "1"}, {"d": 2, "a": "0", "b": "1"}]}
    (tmp_path / "two.json").write_text(json.dumps(two))
    inp = random_case3_input(6, seed=5, d=3)
    h = unfreeze(inp.H)
    h[1][0] = h[1][0] + QuadScalar(7, 0, 2)  # the relation's coefficients in Q(sqrt 7), M in Q(sqrt 3)
    blocks = {k: mx.matrix_to_json(m) for k, m in zip("HABCD", (h, inp.A, inp.B, inp.C, inp.D))}
    (tmp_path / "h7.json").write_text(json.dumps({"g": 6, **blocks, "sqrt_e": scalar_to_json(inp.sqrt_e)}))
    # G = a F to order 2 never multiplies the sqrt 5 of F by the sqrt 2 of a
    root = lambda d: {"order": 2, "coeffs": ["0", "0", {"d": d, "a": "0", "b": "1"}]}
    (tmp_path / "F5.json").write_text(json.dumps({"g": 1, "entries": [[root(5)]]}))
    (tmp_path / "a2.json").write_text(json.dumps({"g": 1, "N": 0, "a": [[[root(2)]]]}))
    for argv, error in (
        (["series", "invert", "--series", "two.json"], "mixed quadratic contexts: sqrt(2) vs sqrt(5)"),
        (["relation", "case3", "--input", "h7.json"], "mixed quadratic contexts: sqrt(7) vs sqrt(3)"),
        (["gfun", "derive", "--F", "F5.json", "--a", "a2.json"], "mixed quadratic contexts: sqrt(2) vs sqrt(5)"),
    ):
        proc = run_process(argv, tmp_path)
        assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (1, {"error": error}, "")


@pytest.mark.parametrize("a", ["2", "1/2"])
def test_rational_valued_coefficients_are_read_by_value(a, tmp_path):
    # the object form of a rational coefficient gives the report of its
    # plain rational form, so integrality and the scan read it by value
    (tmp_path / "quad.json").write_text(json.dumps({"order": 2, "coeffs": ["0", {"d": 5, "a": a, "b": "0"}, "1"]}))
    (tmp_path / "plain.json").write_text(json.dumps({"order": 2, "coeffs": ["0", a, "1"]}))
    for argv in (
        ["series", "gb-scan"],
        ["series", "eval", "--x", "3", "--place", "3", "--integral-tail"],
        ["series", "radius", "--place", "3", "--integral"],
    ):
        quad, plain = (run_process(argv + ["--series", f"{name}.json"], tmp_path) for name in ("quad", "plain"))
        assert (quad.stderr, plain.stderr) == ("", "")
        assert quad.returncode == plain.returncode == (0 if a == "2" or argv[1] == "gb-scan" else 1)
        if quad.returncode:
            assert quad.stdout == plain.stdout
        else:
            assert json.loads(quad.stdout)["result"] == json.loads(plain.stdout)["result"]


def test_nonarch_action_over_two_fields_exits_1_with_json(tmp_path):
    act = {  # A holds 1 + sqrt 5, B holds sqrt -7
        "g": 2,
        "A": [[{"d": 5, "a": "1", "b": "1"}, "0"], ["0", "1"]],
        "B": [[{"d": -7, "a": "0", "b": "1"}, "0"], ["0", "0"]],
        "D": [["2", "0"], ["1", "3"]],
    }
    (tmp_path / "act.json").write_text(json.dumps(act))
    proc = run_process(["relation", "build-nonarch", "--act", "act.json"], tmp_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": "mixed quadratic contexts: sqrt(-7) vs sqrt(5)"}
    assert "Traceback" not in proc.stderr


def test_a_rational_past_the_digit_limit_exits_2_with_a_short_error(tmp_path):
    # a valid rational whose denominator has more digits than int() converts,
    # then the same digits as a JSON number literal, in a file and in a flag
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 100)
    (tmp_path / "s.json").write_text(json.dumps({"order": 2, "coeffs": ["0", "1", "1/" + digits]}))
    (tmp_path / "n.json").write_text('{"order": 2, "coeffs": ["0", "1", ' + digits + "]}")
    (tmp_path / "F.json").write_text(json.dumps(DECODE_INPUTS["F.json"]))
    (tmp_path / "a.json").write_text(json.dumps(DECODE_INPUTS["a.json"]))
    cases = {
        ("series", "radius", "--series", "s.json", "--place", "3"): (
            f"coeffs[2]: a number past the limit of {limit} digits: '1/777"
        ),
        ("series", "radius", "--series", "n.json", "--place", "3"): f"n.json: a number past the limit of {limit} digits",
        ("gfun", "radii", "--F", "F.json", "--a", "a.json", "--places", f"[{digits}]"): (
            f"--places: a number past the limit of {limit} digits"
        ),
    }
    for argv, prefix in cases.items():
        proc = run_process(list(argv), tmp_path)
        assert proc.returncode == 2 and proc.stderr == "", argv
        assert len(proc.stdout) < 200
        (error,) = json.loads(proc.stdout).values()
        assert error.startswith(prefix), error


def test_a_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"order": 0, "coeffs": ["\xff"]}')
    code, out = run_json(capsys, ["series", "radius", "--series", str(path), "--place", "3"])
    assert code == 1
    assert out["error"].startswith(f"invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff")


QUADRATIC_DATA = {"g": 1,"M": [["1"]], "F": [[{"d": 5, "a": "1", "b": "1"}]], "G": [["1"]]}  # F = 1 + sqrt 5
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


def test_gfun_check_tolerance_is_a_finite_number_at_least_0(tmp_path, capsys):
    # a reference of 999 against the series x, which an infinite tolerance would pass
    data = {"g": 1, "M": [["1"]], "F": [["999"]], "G": [["999"]]}
    (tmp_path / "F.json").write_text(json.dumps(DECODE_INPUTS["F.json"]))
    (tmp_path / "data.json").write_text(json.dumps(data))
    argv = ["gfun", "check", "--F", str(tmp_path / "F.json"), "--G", str(tmp_path / "F.json"),
            "--data", str(tmp_path / "data.json")]
    for place, x in (("5", "5"), ("arch", "1/5")):
        at = [*argv, "--x", x, "--place", place]
        for tolerance, shown in (("inf", "inf"), ("1e400", "inf"), ("nan", "nan"), ("-1.0", "-1.0"), ("-inf", "-inf")):
            code, doc = run_json(capsys, [*at, f"--tolerance={tolerance}"])
            assert (code, doc) == (2, {"error": f"--tolerance must be a finite number >= 0, got {shown}"})
        for tolerance in ("0", "1e-9", "0.5"):
            code, doc = run_json(capsys, [*at, "--tolerance", tolerance])
            assert code == 0 and doc["result"]["report"]["all_ok"] is False


QUADRATIC_ENTRY = {"d": 5, "a": "0", "b": "1"}  # sqrt 5
MERSENNE_61 = 2**61 - 1  # a prime past the 2^24 caps; trial division to its root would take minutes
ENGINE_ERROR_INPUTS = {
    "S.json": {"order": 3, "coeffs": ["0", "1", "1/2", "1/3"]},
    "Q.json": {"order": 3, "coeffs": ["0", "1", QUADRATIC_ENTRY, "1/3"]},
    "F.json": {"g": 1, "entries": [[{"order": 3, "coeffs": ["1", "1", "1", "1"]}]]},
    "AQ.json": {"g": 1, "N": 0, "a": [[[{"order": 3, "coeffs": ["1", QUADRATIC_ENTRY, "0", "0"]}]]]},
    "A.json": {"g": 1, "N": 0, "a": [[[{"order": 3, "coeffs": ["1", "1/2", "0", "0"]}]]]},
    "G2.json": {"g": 2, "entries": [[SERIES, SERIES], [SERIES, SERIES]]},
    "data-g1.json": DECODE_INPUTS["data-g1.json"],
    "huge.json": {"order": 2, "coeffs": ["0", "1", "1" + "0" * 400]},
}
RADII = ("gfun", "radii", "--F", "F.json", "--a")
ENGINE_ERRORS = {  # a ScalarError each, but for the dimension mismatch, a plain ValueError
    ("series", "radius", "--series", "S.json", "--place", "3", "--integral"): (
        "integrality asserted but computed coefficients are not integers"
    ),
    ("series", "radius", "--series", "Q.json", "--place", "3"): (
        "finite-place absolute value supported for rational values only"
    ),
    ("series", "radius", "--series", "Q.json", "--place", "arch"): (
        "archimedean place needs an embedding selector for quadratic scalars"
    ),
    ("series", "gb-scan", "--series", "Q.json"): "globally-bounded scan is defined over rational coefficients",
    (*RADII, "AQ.json", "--places", '[{"kind":"finite","p":3}]'): (
        "finite-place absolute value supported for rational values only"
    ),
    (*RADII, "AQ.json", "--places", '[{"kind":"arch"}]'): (
        "archimedean place needs an embedding selector for quadratic scalars"
    ),
    (*RADII, "A.json", "--places", '[{"kind":"arch"}]', "--excluded", json.dumps([QUADRATIC_ENTRY])): (
        "archimedean place needs an embedding selector for quadratic scalars"
    ),
    ("series", "radius", "--series", "huge.json", "--place", "arch"): "an absolute value at arch overflows a float",
    ("gfun", "check", "--F", "F.json", "--G", "F.json", "--data", "data-g1.json", "--x", "1e400", "--place", "arch"): (
        "F[1][1]: its value or reference overflows a float"
    ),
    ("gfun", "check", "--F", "F.json", "--G", "G2.json", "--data", "data-g1.json", "--x", "0", "--place", "3"): (
        "dimension mismatch between series matrices and period data"
    ),
    ("series", "radius", "--series", "S.json", "--place", str(MERSENNE_61)): (
        f"cannot parse place '{MERSENNE_61}'"
    ),
}


@pytest.mark.parametrize("argv", list(ENGINE_ERRORS))
def test_engine_errors_exit_1_with_json(argv, tmp_path):
    for name, doc in ENGINE_ERROR_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    proc = run_process(list(argv), tmp_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": ENGINE_ERRORS[argv]}
    assert proc.stderr == ""


CAP_INPUTS = {
    "order-cap.json": {"order": 100001, "coeffs": ["0", "1"]},
    "F-order-cap.json": {"g": 1, "entries": [[{"order": 1000000, "coeffs": ["1"]}]]},
    "a.json": DECODE_INPUTS["a.json"],
    "d-cap.json": {"order": 2, "coeffs": ["0", {"d": MERSENNE_61, "a": "1", "b": "1"}, "1"]},
    "F.json": DECODE_INPUTS["F.json"],
}
CAP_ERRORS = {
    ("ideal", "gens", "--g", "33"): "--g must be <= 32, got 33",
    ("ideal", "radical", "--g", "64"): "--g must be <= 32, got 64",
    ("ideal", "member", "--poly", "unread.json", "--g", "33"): "--g must be <= 32, got 33",
    ("symplectic", "sample", "--g", "33"): "--g must be <= 32, got 33",
    ("relation", "case3", "--g", "34"): "--g must be <= 32, got 34",
    ("series", "radius", "--series", "order-cap.json", "--place", "3"): "order: must be <= 100000, got 100001",
    ("gfun", "derive", "--F", "F-order-cap.json", "--a", "a.json"): (
        "entries[0][0].order: must be <= 100000, got 1000000"
    ),
    ("series", "radius", "--series", "d-cap.json", "--place", "3"): (
        f"coeffs[1].d: |d| must be < 2^24, got {MERSENNE_61}"
    ),
    (*RADII, "a.json", "--places", json.dumps([{"kind": "finite", "p": MERSENNE_61}])): (
        f"--places[0]: finite place needs a prime < 2^24, got {MERSENNE_61}"
    ),
}


@pytest.mark.parametrize("argv", list(CAP_ERRORS))
def test_caps_exit_2_with_json(argv, tmp_path):
    for name, doc in CAP_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    proc = run_process(list(argv), tmp_path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": CAP_ERRORS[argv]}
    assert proc.stderr == ""


def test_caps_admit_their_bounds(tmp_path, capsys):
    for argv in (["ideal", "gens"], ["ideal", "radical"], ["ideal", "member", "--poly", "p.json"],
                 ["symplectic", "sample"], ["relation", "case3"]):
        assert build_parser().parse_args([*argv, "--g", "32"]).g == 32
    (tmp_path / "s.json").write_text(json.dumps({"order": 100000, "coeffs": ["0", "1"]}))
    code, doc = run_json(capsys, ["series", "radius", "--series", str(tmp_path / "s.json"), "--place", "3"])
    assert code == 0
    assert doc["result"]["place"] == {"kind": "finite", "p": 3}


@pytest.mark.parametrize("degree", [DEGREE_CAP, DEGREE_CAP + 1, 10**9])
def test_a_term_past_the_degree_cap_exits_2_before_it_is_expanded(degree, tmp_path):
    # a monomial holds one code per unit of exponent, so the cap is checked first
    (tmp_path / "p.json").write_text(json.dumps([{"coeff": "1", "monomial": [["Y", 1, 1, degree]]}]))
    start = time.perf_counter()
    proc = run_process(["ideal", "member", "--poly", "p.json", "--g", "2"], tmp_path)
    elapsed = time.perf_counter() - start
    assert proc.stderr == ""
    if degree == DEGREE_CAP:
        assert proc.returncode == 0 and json.loads(proc.stdout)["result"]["status"] == "not_in_ideal_certified"
        return
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == ""
    assert (proc.returncode, doc) == (2, {"error": f"poly[0].monomial: degree must be <= {DEGREE_CAP}"})
    assert elapsed < 1


SUBNORMAL = {"order": 2, "coeffs": ["0", str(3**660), "1/3"]}  # |3^660|_3 is a subnormal float
FLOAT_EDGE_INPUTS = {
    "subnormal.json": SUBNORMAL,
    "huge.json": {"order": 2, "coeffs": ["0", "1" + "0" * 400, "1/3"]},
    "F.json": {"g": 1, "entries": [[SERIES]]},
    "a.json": {"g": 1, "N": 0, "a": [[[SUBNORMAL]]]},
}
PLACE_3 = {"kind": "finite", "p": 3}
GB_SCAN_3 = {
    "bad_primes": [3], "positive_radius_everywhere": True, "verdict": "unbounded_evidence", "witness": [2, 3],
}
FLOAT_EDGE_RESULTS = {  # radii from |a_2|_3 = 3; the overflowing bound of a_1 lowers nothing
    ("series", "radius", "--series", "subnormal.json", "--place", "3"): (
        {"certified": False, "lower_bound": 3.0**-0.5, "place": PLACE_3}
    ),
    (*RADII, "a.json", "--places", json.dumps([PLACE_3])): (
        {"radii": [{"certified": False, "place": PLACE_3, "r": 3.0**-0.5}]}
    ),
    ("series", "gb-scan", "--series", "subnormal.json"): GB_SCAN_3,
    ("series", "gb-scan", "--series", "huge.json"): GB_SCAN_3,
}


@pytest.mark.parametrize("argv", list(FLOAT_EDGE_RESULTS))
def test_coefficients_past_a_float_exit_0(argv, tmp_path):
    for name, doc in FLOAT_EDGE_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    proc = run_process(list(argv), tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["result"] == FLOAT_EDGE_RESULTS[argv]


def test_series_eval_arch_reads_a_rational_valued_imaginary_coefficient(tmp_path, capsys):
    # {"d": -1, "a": "1/2", "b": "0"} is the rational 1/2, as series radius already reads it
    quad = {"order": 2, "coeffs": ["1", {"d": -1, "a": "1/2", "b": "0"}, "1"]}
    plain = {"order": 2, "coeffs": ["1", "1/2", "1"]}
    results = []
    for name, doc in (("quad.json", quad), ("plain.json", plain)):
        (tmp_path / name).write_text(json.dumps(doc))
        code, out = run_json(capsys, ["series", "eval", "--series", str(tmp_path / name), "--place", "arch",
                                      "--x", "1/4"])
        assert code == 0
        results.append(out["result"])
    assert results[0] == results[1]
    assert results[0]["value"] == 1.1875


def test_unwritable_out_file_exits_1_with_json(tmp_path):
    proc = run_process(["ideal", "gens", "--g", "1", "--out", str(tmp_path / "missing" / "r.json")], tmp_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"].startswith(f"cannot write {tmp_path / 'missing' / 'r.json'}: ")
    assert proc.stderr == ""


def test_interleaved_dispatch_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    (tmp_path / "f.json").write_text(json.dumps(TruncatedSeries([0, 1, 2, -1, 3]).to_json()))
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


def test_ideal_radical_at_g24(capsys):
    code, doc = run_json(capsys, ["ideal", "radical", "--g", "24"])
    assert code == 0
    assert doc["result"]["verdict"] == "radical"
    assert doc["result"]["rank"] == doc["result"]["generator_count"] == 276


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
    assert doc["manifest"]["input_digests"] == {str(poly_file): hashlib.sha256(poly_file.read_bytes()).hexdigest()}


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
    f = TruncatedSeries([0, 1, 1], 6)
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

    exp = TruncatedSeries(
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
    geo_file.write_text(json.dumps(geometric(10).to_json()))
    code, doc = run_json(
        capsys,
        ["series", "eval", "--series", str(geo_file), "--x", "2", "--place", "2", "--integral-tail"],
    )
    assert code == 0
    assert doc["result"]["tail_bound"] == pytest.approx(2.0 ** (-11))


def test_series_eval_float_overflow_exits_1_with_json(tmp_path):
    (tmp_path / "geo.json").write_text(json.dumps(geometric(5).to_json()))
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
    geo_file.write_text(json.dumps(geometric(5).to_json()))
    code, out = run(
        capsys,
        ["series", "eval", "--series", str(geo_file), "--x", "1/2", "--place", "2", "--integral-tail"],
    )
    assert code == 1
    assert "outside certified disc" in json.loads(out)["error"]


def test_gfun_derive_subcommand(tmp_path, capsys):
    from periodrel.gfun import GFunMatrix

    f = gfun_matrix(1, [[geometric(8)]])
    fam = identity_family(1, 8)
    f_file, a_file = tmp_path / "F.json", tmp_path / "a.json"
    f_file.write_text(json.dumps(f.to_json()))
    a_file.write_text(json.dumps(family_to_json(fam)))
    code, doc = run_json(capsys, ["gfun", "derive", "--F", str(f_file), "--a", str(a_file)])
    assert code == 0
    assert doc["result"]["G"]["entries"][0][0]["coeffs"] == ["1"] * 9


def test_gfun_radii_subcommand(tmp_path, capsys):
    from periodrel.gfun import GFunMatrix

    f = gfun_matrix(1, [[geometric(8)]], integral=True)
    fam = identity_family(1, 8)
    f_file, a_file = tmp_path / "F.json", tmp_path / "a.json"
    f_file.write_text(json.dumps(f.to_json()))
    a_file.write_text(json.dumps(family_to_json(fam)))
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

    order = 8
    f = gfun_matrix(1, [[geometric(order)]], integral=True)
    gz = gfun_matrix(1, [[series_zero(order)]], integral=True)
    x = Fraction(5)
    ref = horner(geometric(order).coeffs, x)
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


POWERS_OF_3 = {"order": 3, "coeffs": ["1", "3", "9"]}
NON_BOOLEAN_FLAGS = {  # which file carries a string flag -> (F, a, the refusal)
    "a": ({"g": 1, "integral": True, "entries": [[POWERS_OF_3]]},
          {"g": 1, "N": 0, "integral": "no", "a": [[[POWERS_OF_3]]]}, "integral: expected a bool"),
    "F": ({"g": 1, "integral": [["false"]], "entries": [[POWERS_OF_3]]},
          {"g": 1, "N": 0, "integral": True, "a": [[[POWERS_OF_3]]]}, "integral[0][0]: expected a bool"),
}


@pytest.mark.parametrize("which", list(NON_BOOLEAN_FLAGS))
def test_integrality_flags_must_be_json_booleans(which, tmp_path):
    # a string flag used to count as true, and "no" certified r = 1 at p = 3
    f, a, message = NON_BOOLEAN_FLAGS[which]
    (tmp_path / "F.json").write_text(json.dumps(f))
    (tmp_path / "a.json").write_text(json.dumps(a))
    proc = run_process([*RADII, "a.json", "--places", json.dumps([PLACE_3])], tmp_path)
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (2, {"error": message}, "")


def test_radii_say_when_an_excluded_value_underflows_a_float(tmp_path):
    f, a, _ = NON_BOOLEAN_FLAGS["a"]
    (tmp_path / "F.json").write_text(json.dumps(f))
    (tmp_path / "a.json").write_text(json.dumps({**a, "integral": True}))
    argv = [*RADII, "a.json", "--places", json.dumps([PLACE_3]), "--excluded", json.dumps([str(3**700)])]
    proc = run_process(argv, tmp_path)  # |3^700|_3 = 3^-700 is below a double's range
    want = {"error": "the radius at p=3 underflows a float"}
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (1, want, "")


def test_gb_scan_factors_each_distinct_denominator_once(tmp_path):
    # 2000 equal denominators, each once trial-divided to 10^5 (about 10 s in all)
    (tmp_path / "s.json").write_text(json.dumps({"order": 2000, "coeffs": ["1/1000000000039"] * 2000}))
    start = time.perf_counter()
    proc = run_process(["series", "gb-scan", "--series", "s.json"], tmp_path)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stderr == ""
    want = {"bad_primes": [], "positive_radius_everywhere": True, "verdict": "bounded", "witness": None}
    assert json.loads(proc.stdout)["result"] == want
    assert elapsed < 2.0


def test_ideal_member_budget_draws_no_sample_for_a_member(tmp_path):
    # a member's zero remainder decides before any sample: --budget 20000 once
    # cost about 10 s on a g=3 member; it now bounds only a witness search
    from periodrel.trivial_ideal import generators

    ideal = generators(3)
    member = ideal.generator(1, 2) * ideal.generator(1, 3) + ideal.generator(2, 3)
    (tmp_path / "p.json").write_text(json.dumps(member.to_json()))
    start = time.perf_counter()
    proc = run_process(["ideal", "member", "--poly", "p.json", "--g", "3", "--budget", "20000"], tmp_path)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stderr == ""
    result = json.loads(proc.stdout)["result"]
    assert (result["status"], result["samples_tested"], result["remainder"]) == ("in_ideal_certified", 4, [])
    assert elapsed < 1.0
