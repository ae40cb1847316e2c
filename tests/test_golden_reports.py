"""Golden report digests: a fixed list of `cli.dispatch` argvs whose exit
codes and `result` objects (the error object when there is none) must stay
byte-identical.  The manifest is left out, since it names input paths.

Each digest is the SHA-256 of ``json.dumps([exit code, result])``.  The
inputs cover nonarch certificates at g = 1..3 over Q, Q(sqrt 5) and
Q(sqrt -7) with mixed entry types and every witness case (an action with
A = D stops at its singular Sylvester system), case-3
certificates from seeds and from mixed-type input files, small ideal and
symplectic runs, every relation error path, series inversions over Z, Q,
Q(sqrt 5) (rational values in both input forms), Q(sqrt -7) and mixed
input, `series radius`, `series gb-scan` and `series eval` at finite and
archimedean places, `ideal gens`, `relation verify` on vanishing and
non-vanishing data, `gfun radii`, and `gfun derive`/`gfun check` over Q and
Q(sqrt 5).  Every parser leaf has a case.  Output is
canonical: a rational value prints as "num/den" whatever its type.  After an
intended report change, GOLDEN is the output of :func:`report_digests` on
the new code.
"""

import hashlib
import json
import random
from fractions import Fraction

from periodrel import matrices as mx
from periodrel.cli import build_parser, dispatch
from periodrel.relations import (
    Case3Input,
    EndomorphismAction,
    build_nonarch_relation,
    random_case3_input,
    synthesize_period_data,
)
from periodrel.scalars import QuadScalar, scalar_to_json
from periodrel.trivial_ideal import generators

from helpers import mixed_action, mixed_case3_input


def _case3_json(inp: Case3Input) -> dict:
    blocks = {k: mx.matrix_to_json(getattr(inp, k)) for k in "HABCD"}
    return {"g": inp.g, **blocks, "sqrt_e": scalar_to_json(inp.sqrt_e)}


def _with(act: EndomorphismAction, **blocks) -> EndomorphismAction:
    return EndomorphismAction(act.g, *(blocks.get(k, getattr(act, k)) for k in "ABD"))


def _shifted(m, c):
    """m + c I."""
    return mx.mat_add(m, mx.scalar_mul(c, mx.identity(len(m))))


def _inputs() -> tuple[dict, list]:
    """(file name -> JSON document, [(case name, argv)])."""
    files, cases = {}, []
    for g in (1, 2, 3):
        for d in (None, 5, -7):
            rng = random.Random(1000 * g + (d or 0))
            for k in range(3):
                act = mixed_action(rng, g, d)
                zero = mx.zeros(g, g)
                variants = {
                    "B": act,  # B != 0: witness (I, 0)
                    "AD": _with(act, B=zero, A=_shifted(act.D, Fraction(2))),  # A != D: witness (I, I)
                    "AA": _with(act, B=zero, D=act.A),  # A = D: spectra meet
                }
                if g > 1:
                    late = [[Fraction(0)] * g for _ in range(g)]
                    late[g - 1][g - 2] = QuadScalar(d, 1, 1) if d else Fraction(3)
                    variants["Blate"] = _with(act, B=mx.freeze(late))  # first nonzero entry not (1, 1)
                    variants["ADlate"] = _with(act, B=zero, A=mx.mat_add(act.D, mx.freeze(late)))
                for name, a in variants.items():
                    fname = f"act-{g}-{d}-{k}-{name}.json"
                    files[fname] = a.to_json()
                    for seed in ("0", "7"):
                        cases.append((f"nonarch-{fname}-{seed}", ["relation", "build-nonarch", "--act", fname, "--seed", seed]))
    off = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    diag = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    for name, a in (("offdiag", off), ("diag", diag), ("scalar", [[2, 0, 0], [0, 2, 0], [0, 0, 2]])):
        a = mx.freeze([[Fraction(x) for x in row] for row in a])
        files[f"act-{name}.json"] = EndomorphismAction(3, a, mx.zeros(3, 3), a).to_json()
        cases.append((f"nonarch-{name}", ["relation", "build-nonarch", "--act", f"act-{name}.json"]))
    eye5 = mx.identity(5)
    files["act-g5-scalar.json"] = EndomorphismAction(5, eye5, mx.zeros(5, 5), eye5).to_json()
    files["act-g5.json"] = mixed_action(random.Random(5), 5, 5).to_json()
    cases += [(f"nonarch-{n}", ["relation", "build-nonarch", "--act", f"act-{n}.json"]) for n in ("g5-scalar", "g5")]

    for g in (4, 6):
        for seed in range(4):
            cases.append((f"case3-{g}-{seed}", ["relation", "case3", "--g", str(g), "--seed", str(seed)]))
    cases.append(("case3-g3", ["relation", "case3", "--g", "3"]))
    for k, (g, seed) in enumerate([(4, 0), (4, 1), (4, 2), (4, 3), (6, 4), (6, 5), (8, 6)]):
        files[f"case3-mixed-{k}.json"] = _case3_json(mixed_case3_input(g, seed))
    base = random_case3_input(4, seed=41)
    bad_b = [list(row) for row in base.B]
    bad_b[0][0] += 1
    root = QuadScalar(base.sqrt_e.d, 1, 1)
    fitted = [mx.scalar_mul(base.sqrt_e / root, m) for m in (base.A, base.B, base.C, base.D)]
    two_fields = [list(row) for row in base.B]
    two_fields[0][0] = QuadScalar(2 if base.sqrt_e.d != 2 else 3, 0, 1)
    rejected = {
        "odd-g": Case3Input(5, *(mx.identity(5),) * 5, base.sqrt_e),
        "g2": Case3Input(2, *(mx.identity(2),) * 5, base.sqrt_e),
        "degenerate-H": Case3Input(4, mx.zeros(4, 4), base.A, base.B, base.C, base.D, base.sqrt_e),
        "not-similitude": Case3Input(4, base.H, base.A, mx.freeze(bad_b), base.C, base.D, base.sqrt_e),
        "irrational-square": Case3Input(4, base.H, base.A, base.B, base.C, base.D, root),
        "irrational-e": Case3Input(4, base.H, *fitted, root),
        "two-fields": Case3Input(4, base.H, base.A, mx.freeze(two_fields), base.C, base.D, base.sqrt_e),
    }
    for name, inp in rejected.items():
        files[f"case3-{name}.json"] = _case3_json(inp)
    for fname in sorted(f for f in files if f.startswith("case3-")):
        cases.append((fname, ["relation", "case3", "--input", fname]))

    ideal2, ideal3 = generators(2), generators(3)
    files["member-2.json"] = ideal2.generator(1, 2).to_json()
    files["member-3.json"] = (ideal3.generator(1, 3) * ideal3.generator(2, 3)).to_json()
    files["nonmember-2.json"] = [{"coeff": "1", "monomial": [["Y", 1, 1, 1], ["Z", 1, 1, 1]]}]
    files["hidden-2.json"] = [{"coeff": "1", "monomial": [["Y", 1, 2, 1], ["Z", 2, 1, 1]]}]
    for fname in ("member-2.json", "nonmember-2.json", "hidden-2.json"):
        cases.append((f"member-{fname}", ["ideal", "member", "--poly", fname, "--g", "2", "--budget", "4"]))
    cases.append(("member-3", ["ideal", "member", "--poly", "member-3.json", "--g", "3", "--budget", "2", "--seed", "5"]))
    for g in (1, 2, 3, 6, 8):
        cases.append((f"radical-{g}", ["ideal", "radical", "--g", str(g), "--seed", "3"]))
    for g in (1, 2, 3):
        cases.append((f"sample-{g}", ["symplectic", "sample", "--g", str(g), "--seed", str(g)]))
    cases.append(("sample-mu", ["symplectic", "sample", "--g", "2", "--mu", "-7/5", "--word-length", "3"]))
    cases.append(("sample-6-w20", ["symplectic", "sample", "--g", "6", "--seed", "6", "--word-length", "20"]))
    _series_inputs(files, cases)
    _leaf_inputs(files, cases)
    return files, cases


def _q(d, a, b=0) -> dict:
    """a + b sqrt(d) in the object form, also for b = 0: input accepts it."""
    return {"d": d, "a": str(Fraction(a)), "b": str(Fraction(b))}


def _series_json(coeffs) -> dict:
    return {"order": len(coeffs) - 1, "coeffs": [c if isinstance(c, dict) else str(c) for c in coeffs]}


def _series_inputs(files: dict, cases: list) -> None:
    """`series invert`, `gfun derive` and `gfun check` cases."""
    rng = random.Random(12)
    files["inv-z.json"] = _series_json([0, 1] + [rng.randint(-3, 3) for _ in range(119)])
    for order in (1, 2, 60, 120):
        cases.append((f"invert-z-{order}", ["series", "invert", "--series", "inv-z.json", "--order", str(order)]))
    files["inv-q.json"] = _series_json(
        [0, Fraction(-3, 2)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(24)]
    )
    # Q(sqrt 5) and Q(sqrt -7): dense, and sparse with rational values in the object form
    files["inv-q5-dense.json"] = _series_json(
        [_q(5, 0), _q(5, 1)] + [_q(5, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(29)]
    )
    files["inv-q5-cancel.json"] = _series_json([_q(5, c) for c in (0, 1, 1, 1, 0)])
    files["inv-q5-plain.json"] = _series_json([_q(5, c) for c in (0, 1, 0, 1, 0)])
    files["inv-q5-sparse.json"] = _series_json(
        ["0", _q(5, 2, 1)] + [_q(5, rng.choice((0, 0, 1)), rng.choice((0,) * 5 + (1,))) for _ in range(23)]
    )
    r29 = random.Random(29)  # its inverse has zeros past X^1, reached by nonzero products or not
    files["inv-q5-rational.json"] = _series_json(
        [_q(5, 0), _q(5, 1)] + [_q(5, r29.choice((0, 0, 1, -1)), r29.choice((0,) * 9 + (1,))) for _ in range(19)]
    )
    files["inv-q-7-sparse.json"] = _series_json(
        [_q(-7, 0), _q(-7, 1)] + [_q(-7, rng.choice((0, 0, -1)), rng.choice((0,) * 5 + (1,))) for _ in range(19)]
    )
    files["inv-mixed.json"] = _series_json(
        [0, _q(5, 1, 1)] + [rng.choice((rng.randint(-3, 3), _q(5, 1, rng.randint(-2, 2)))) for _ in range(11)]
    )
    files["inv-two-fields.json"] = _series_json([0, _q(5, 1), _q(2, 0, 1), 1])
    for name in ("q", "q5-dense", "q5-cancel", "q5-plain", "q5-sparse", "q5-rational", "q-7-sparse", "mixed", "two-fields"):
        cases.append((f"invert-{name}", ["series", "invert", "--series", f"inv-{name}.json"]))

    hyp = [Fraction(1)]
    for n in range(24):
        hyp.append(hyp[-1] * Fraction((2 * n + 1) ** 2, (2 * n + 2) ** 2))
    c = [[2, -1], [1, 3]]
    files["gfun-F.json"] = {
        "g": 2, "entries": [[_series_json([c[l][j] * x for x in hyp]) for j in range(2)] for l in range(2)]
    }
    files["gfun-F-q5.json"] = {
        "g": 2,
        "entries": [
            [_series_json([_q(5, c[l][j] * x, x if j else 0) for x in hyp]) for j in range(2)] for l in range(2)
        ],
    }

    def a_json(entry, order) -> dict:
        return {
            "g": 2, "N": 2,
            "a": [[[_series_json([entry(i, k, l, n) for n in range(order + 1)]) for l in range(2)] for k in range(3)] for i in range(2)],
        }

    # zero a-series at (i, k, l) = (0, 1, *) and (1, 2, 0), and an a-order below F's
    files["gfun-a.json"] = a_json(
        lambda i, k, l, n: 0 if (i, k) == (0, 1) or (i, k, l) == (1, 2, 0) else Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
        18,
    )
    files["gfun-a-q5.json"] = a_json(lambda i, k, l, n: _q(5, rng.randint(-2, 2), rng.randint(-1, 1)), 24)
    files["gfun-a-zero.json"] = a_json(lambda i, k, l, n: 0, 24)
    for fname, aname in (("F", "a"), ("F", "a-q5"), ("F-q5", "a"), ("F", "a-zero")):
        cases.append(
            (f"derive-{fname}-{aname}", ["gfun", "derive", "--F", f"gfun-{fname}.json", "--a", f"gfun-{aname}.json"])
        )

    grids = {
        k: [[[rng.randint(-5, 5) for _ in range(13)] for _ in range(2)] for _ in range(2)] for k in "FG"
    }
    x, tail = Fraction(5), Fraction(5) ** 13
    refs = {
        k: [[str(sum(cf * x**n for n, cf in enumerate(s)) + rng.choice((0, 1, -2)) * tail) for s in row] for row in grid]
        for k, grid in grids.items()
    }
    for k, grid in grids.items():
        files[f"check-{k}.json"] = {"g": 2, "integral": True, "entries": [[_series_json(s) for s in row] for row in grid]}
    files["check-data.json"] = {"g": 2, "M": [["1", "0"], ["0", "1"]], **refs}
    check = ["gfun", "check", "--F", "check-F.json", "--G", "check-G.json", "--data", "check-data.json"]
    cases.append(("check-p5", check + ["--x", "5", "--place", "5"]))
    cases.append(("check-outside-disc", check + ["--x", "1/5", "--place", "5"]))
    cases.append(("check-arch", check + ["--x", "1/7", "--place", "arch"]))


def _leaf_inputs(files: dict, cases: list) -> None:
    """`ideal gens`, `relation verify`, `gfun radii` and the `series` reports
    other than `invert`, on the series files above and a few more."""
    for g in (1, 2, 3):
        cases.append((f"gens-{g}", ["ideal", "gens", "--g", str(g)]))

    for name, d in (("q", None), ("q5", 5)):
        act = mixed_action(random.Random(31), 2, d)
        rel = build_nonarch_relation(act)
        files[f"rel-{name}.json"] = {"rows": 2, "cols": 2, "entries": [[e.to_json() for e in row] for row in rel]}
        files[f"data-{name}.json"] = synthesize_period_data(act, 3).to_json()
    for rel, data in (("q", "q"), ("q5", "q5"), ("q", "q5")):
        cases.append((f"verify-{rel}-{data}", ["relation", "verify", "--rel", f"rel-{rel}.json", "--data", f"data-{data}.json"]))

    places = '[{"kind": "arch"}, {"kind": "finite", "p": 3}, {"kind": "finite", "p": 5}]'
    sigma = '[{"kind": "arch", "embedding": "sigma"}]'
    for name, aname, place_list, excluded in (
        ("radii-a", "a", places, "[]"),
        ("radii-a-excluded", "a", places, '["1/5", "2", "0"]'),
        ("radii-a-q5", "a-q5", sigma, '["3"]'),
    ):
        radii = ["gfun", "radii", "--F", "gfun-F.json", "--a", f"gfun-{aname}.json", "--places", place_list]
        cases.append((name, radii + ["--excluded", excluded]))

    files["log.json"] = _series_json([0] + [Fraction(1, n) for n in range(1, 31)])
    files["eval-q5.json"] = _series_json([_q(5, 1, 1), Fraction(2, 3), _q(5, 0, -1), _q(2, 1), 1, 2, 3, 4, 5])
    for fname, place, extra in (
        ("inv-z", "3", ["--integral"]),
        ("inv-q", "3", []),
        ("inv-q", "arch", []),
        ("log", "7", []),
        ("inv-q5-dense", "arch/sigma", []),
        ("inv-q-7-sparse", "arch", []),
        ("inv-q5-dense", "5", []),
    ):
        cases.append((f"radius-{fname}-{place}{''.join(extra)}", ["series", "radius", "--series", f"{fname}.json", "--place", place, *extra]))
    for fname, extra in (("inv-z", []), ("inv-q", []), ("log", []), ("log", ["--prime-bound", "5"]), ("inv-q5-dense", [])):
        cases.append((f"gb-scan-{fname}{''.join(extra)}", ["series", "gb-scan", "--series", f"{fname}.json", *extra]))
    for fname, x, place, extra in (
        ("inv-q", "3", "3", []),
        ("inv-z", "3", "3", ["--integral-tail"]),
        ("inv-z", "1/3", "3", ["--integral-tail"]),
        ("log", "1/7", "arch", []),
        ("eval-q5", "3/5", "3", []),
        ("inv-q5-dense", "1/7", "arch/sigma", []),
    ):
        cases.append((f"eval-{fname}-{x}-{place}{''.join(extra)}", ["series", "eval", "--series", f"{fname}.json", "--x", x, "--place", place, *extra]))


def report_digests(tmp_path, capsys) -> dict:
    """{case name: digest} for every golden argv, run in tmp_path."""
    files, cases = _inputs()
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out = {}
    for name, argv in cases:
        code = dispatch([a if a not in files else str(tmp_path / a) for a in argv])
        doc = json.loads(capsys.readouterr().out)
        payload = json.dumps([code, doc.get("result", doc)], sort_keys=True)
        out[name] = hashlib.sha256(payload.encode()).hexdigest()
    return out


GOLDEN = {
    "nonarch-act-1-None-0-B.json-0": "9da617fe3d769294a034659dc7da7e6978f54b3f003a8e9aad54b28c711a95b7",
    "nonarch-act-1-None-0-B.json-7": "ec0b7204d3bb0c909109f2e50a8813408d8aa665589a3f0d627a36d48cc1ebf9",
    "nonarch-act-1-None-0-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1-None-0-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1-None-0-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-None-0-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-None-1-B.json-0": "859bf7d6efc71de21c2d2b1ad20976a0791063ac65f33d3f3411304231e523d3",
    "nonarch-act-1-None-1-B.json-7": "62c544bbc69afeb1330b438cbb60b59b8456dc661edb7f4e559bb0fa330b096c",
    "nonarch-act-1-None-1-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1-None-1-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1-None-1-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-None-1-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-None-2-B.json-0": "4a3f95c292127a1e1788755d13769044b9c94cd1fc66fd33fcb7fe41b8eeaeb2",
    "nonarch-act-1-None-2-B.json-7": "fcae04cef34718e2772ccf5862c9bd2e66de6b2f3ee24d9e734671b467ed0834",
    "nonarch-act-1-None-2-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1-None-2-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1-None-2-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-None-2-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-0-B.json-0": "c417805ee038974c3ee369716154908ba6deaab6c6da9c39f21b07d4ff17b059",
    "nonarch-act-1-5-0-B.json-7": "0ca5353f51453f7c29df5474a96cb3277b021dfd0a740ad5f694388bd6e7db88",
    "nonarch-act-1-5-0-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1-5-0-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1-5-0-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-0-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-1-B.json-0": "fec78bef357b244b3a24f9f0f392508cfdcd129c119974d45b89fd76949e594d",
    "nonarch-act-1-5-1-B.json-7": "9e4c068cf3990236b5a2abdb0cc56bb41ccc66dedba167b6373756585c085345",
    "nonarch-act-1-5-1-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1-5-1-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1-5-1-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-1-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-2-B.json-0": "282e81867a3b06b56aa8a3a5e147f683051c9a5130a67bc17a3960f951103bf3",
    "nonarch-act-1-5-2-B.json-7": "d20941ee88e1ce19bac19d8a1d99c8725868b528388a634f1947f4fe7f582fa2",
    "nonarch-act-1-5-2-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1-5-2-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1-5-2-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-2-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-0-B.json-0": "23e6f81d542842d82e138ed8ca87c1b1a639df7b169791aa15158aacb1b4e4da",
    "nonarch-act-1--7-0-B.json-7": "8c6a37223a37084f8f684d118db402909fe07c9679dc4502d975aded931c3b66",
    "nonarch-act-1--7-0-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1--7-0-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1--7-0-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-0-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-1-B.json-0": "50d56ad8d0e584acf09603fd45d8768d77c84b18401b147bf2e96ca49b6bec24",
    "nonarch-act-1--7-1-B.json-7": "a45c3336cc524cc0d663e37292faa40703d2ad00158ce4e71abf6e7f5a69c82e",
    "nonarch-act-1--7-1-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1--7-1-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1--7-1-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-1-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-2-B.json-0": "fae349d10e19b64b0f9673a14722ec38343fc7a8817591b8f71e7cd9bf9b5faa",
    "nonarch-act-1--7-2-B.json-7": "ee074877da01bff4b8ad8cca9f71eb531ee5eec3325416e0cfbf9017f34239d9",
    "nonarch-act-1--7-2-AD.json-0": "8bfe5353e9dfe5b93c478a133becf326c562bd8ed6190fd0711d7414d87c70fa",
    "nonarch-act-1--7-2-AD.json-7": "38624fe631736af810744b0e232d055e4edaff82c2eb3ff7b3dc39c4367df909",
    "nonarch-act-1--7-2-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-2-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-2-None-0-B.json-0": "60952f744dc33e99b05a9c85fc9eeabe9a17f1f2105264629de71e2999d09363",
    "nonarch-act-2-None-0-B.json-7": "4c25060bb146de83ce8c4e1db20c334cc949edf056a97ad7ff30190c0f677e62",
    "nonarch-act-2-None-0-AD.json-0": "c8bd8d6834fa87a82b987d6a2b388e54fa3a33a3693aee298bba807b188314a3",
    "nonarch-act-2-None-0-AD.json-7": "db2413c96d372e23fdbd6f3d2b4730323351be78b6ba269fab98489c067f3a84",
    "nonarch-act-2-None-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-None-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-None-0-Blate.json-0": "522de855008fa3d42ecc7d04f87a5a37c75a96f0b957916573ae60e71172d939",
    "nonarch-act-2-None-0-Blate.json-7": "850d00e0950acc1d17713e377090c00542b97999a35a5019e5848daaa2d7d6a6",
    "nonarch-act-2-None-0-ADlate.json-0": "ee1da76edef2dfd36f35500b16a2e86c965178b04e707a67466fc4b35571f288",
    "nonarch-act-2-None-0-ADlate.json-7": "7d7d73cd7f99e38e1bf47f55e0455d0fd58db967af2817c95b016151cde315ec",
    "nonarch-act-2-None-1-B.json-0": "edc9cad91d717663d6278e92478f05e585082d42a0286c27351eaeb2cfd8b4da",
    "nonarch-act-2-None-1-B.json-7": "32bbf3abcfc4146c212b39043362f8a508f4b7f52e628b040c18a075775568a4",
    "nonarch-act-2-None-1-AD.json-0": "32eb292dc7122f87ac2370f2435240938502e2785890d938d26f5f19d6e70a62",
    "nonarch-act-2-None-1-AD.json-7": "d7b4191fa1231d8bf239798ed84cb4a2f83144dad520d494e05056d73602fdb9",
    "nonarch-act-2-None-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-None-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-None-1-Blate.json-0": "6b23a0f906a6ebfaaa9ae305b7360e50dba4a89b6b487279d2e78ab6d2c5b9dc",
    "nonarch-act-2-None-1-Blate.json-7": "d7891faf7bc0f72b4284f15618f88a06d389d31806d92079a557dfae68cc5317",
    "nonarch-act-2-None-1-ADlate.json-0": "7c0a853f614aaff163cf263ee027c3234188b2487e7420e500bfb44af627a7f0",
    "nonarch-act-2-None-1-ADlate.json-7": "e970a3eed074a94bec8a62173645969fc93070abe68853ca61801e16bd6e9734",
    "nonarch-act-2-None-2-B.json-0": "72a178b40d83f741a7f06e8c5133788d712bba95cae175a436fce2fa4d91514a",
    "nonarch-act-2-None-2-B.json-7": "1d6cdee60233291d51ba4afa75913ec7c34990bc2f84e0c8eb415e921843cfc5",
    "nonarch-act-2-None-2-AD.json-0": "897237da184d7b9e653d6b2475d4c3d98f89166cde7e48dd9d6c2d549608320c",
    "nonarch-act-2-None-2-AD.json-7": "b9c65593dfbabc29eb7a320a8c0e3455288dd292ea50bd73ac697493a0be3202",
    "nonarch-act-2-None-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-None-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-None-2-Blate.json-0": "0c0a26e733cea9a402d49792e808a6c374f8b371cd20c5b4cb9d52d0e3b1f5d4",
    "nonarch-act-2-None-2-Blate.json-7": "005b77448256140b99582a79f44df832b6cf2db4da7c2d6f2b5ff71544f03a08",
    "nonarch-act-2-None-2-ADlate.json-0": "0b25cb449e56483e318fb2a87623c44a6a74d34ec8345d154af8ba02d1386a79",
    "nonarch-act-2-None-2-ADlate.json-7": "eb2000a1d6dccb2894b08cadd311588f465a0131ae0228d2dad5a6d4ac702be4",
    "nonarch-act-2-5-0-B.json-0": "a5664276dd5656808d58a827a0f8b0e6a4d7f333f179d02955ce43347ffd50b1",
    "nonarch-act-2-5-0-B.json-7": "d3f1132d2f5061cc2dd9c25f2fd267da3f9c337fd056a7badcf1110e8f3f1259",
    "nonarch-act-2-5-0-AD.json-0": "8667e3aacc05cd38652d653ca4f1527ebf478b8a94ef5595acc9e89369f274ab",
    "nonarch-act-2-5-0-AD.json-7": "832988b4248f3bdec9bc4d558e6cf580983f6fbefe0a79af73dbf98651109aa7",
    "nonarch-act-2-5-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-0-Blate.json-0": "d052e683f6cb05e47b63de55ed7d0b3674bda449eaf9fb4d5adcc22a65ef96a2",
    "nonarch-act-2-5-0-Blate.json-7": "b051ef5629e9ecce7d3998dc5474a7f3e55307dd707ab93bb7052958844a4148",
    "nonarch-act-2-5-0-ADlate.json-0": "c00525d5597bd86738ce290a74a6570ea6d07f5b81806c4c9db32746d0f42ceb",
    "nonarch-act-2-5-0-ADlate.json-7": "fd5818189feb1e60b634e90c740074e306afb950ff3db3065380bb3cb2d5de3f",
    "nonarch-act-2-5-1-B.json-0": "4133fa027ca83a7f40a21bbe018b397a1e1fe11bf683b80a8a754e9c14f7dcef",
    "nonarch-act-2-5-1-B.json-7": "1dadc7b9ece9c9643986e266d97fd90aaf812700272e0024cbcc3d6729e01de0",
    "nonarch-act-2-5-1-AD.json-0": "bb93e2d6587094ade0e87ab3b2fe7a91b04f376dd22aba59b422ab707a4dce3c",
    "nonarch-act-2-5-1-AD.json-7": "0249e6a88d3f7a4c911396293071cceaae663800e4f3356a2ce9b3e2d844a500",
    "nonarch-act-2-5-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-1-Blate.json-0": "3b3082ebc5d5875d040e6d5db4c4c1c9036a324f0901796fda03fceb00eba009",
    "nonarch-act-2-5-1-Blate.json-7": "89f9fd196d3deb71db1a94e08eb646de0b40af6999ad1d9c0ebe0e9cbd424cce",
    "nonarch-act-2-5-1-ADlate.json-0": "a1318d0f300239317b478ddd7c9625607f3be81a030340996a0d40dfa107f9b7",
    "nonarch-act-2-5-1-ADlate.json-7": "c2c2976d60bfc3b2d8051e17035fac75fa8af1e80efa5444109b79762c4c8ca2",
    "nonarch-act-2-5-2-B.json-0": "8ecb7ee745a3dbb888c2679ed98b0674fcfcc6d8ccb1557010527e1bc3e88b96",
    "nonarch-act-2-5-2-B.json-7": "f49b93b59d312935127ff5c535a131ee352a848f8be3422edab39782a99a6f7e",
    "nonarch-act-2-5-2-AD.json-0": "dbce14762085750ce4e1f445b38c396d80487c2fca43e25b8915602362d5759b",
    "nonarch-act-2-5-2-AD.json-7": "05f70b636e322c3aae07dc4f6615beacff8e68b36322993f1db9f385db9088dd",
    "nonarch-act-2-5-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-2-Blate.json-0": "bd28838748796ea176d660c1d58f2b4d57c620835e136be313729ac375681bcd",
    "nonarch-act-2-5-2-Blate.json-7": "b921d01a83862d131e0ea2963a7803817a15de417568a113b2e00888de1487f2",
    "nonarch-act-2-5-2-ADlate.json-0": "02d2f2455f7ab92a3dbc2d665a4e48d4b3f432b12ad70bf24a00ca86de4d51c4",
    "nonarch-act-2-5-2-ADlate.json-7": "1b92f6ab2b3e8ad9234c870a886ca917a052b647a98d1950262be3911750a7ec",
    "nonarch-act-2--7-0-B.json-0": "82d7402d627a87aa46bd6a15595d5fad5936fca13a1cb783307d468f6e294513",
    "nonarch-act-2--7-0-B.json-7": "0c9d9087f6648101f78fafc8843798cdde16b333a99b667e11de263d5431979f",
    "nonarch-act-2--7-0-AD.json-0": "06162369dad8f623e47fb072a09b3d25617a41df7cec584eac9e9f1c035e2152",
    "nonarch-act-2--7-0-AD.json-7": "ad256b030cd850870b58ad4ca8817f159a3728c69150254a29b14582da641e38",
    "nonarch-act-2--7-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-0-Blate.json-0": "6574019cc82311a9f547849d391ea2fdc9720cc360f4a7c01f0333d9c782c39f",
    "nonarch-act-2--7-0-Blate.json-7": "1514b54dccff8afcb1a8e6b732b49e2bc41d95899d2c4bc64567ddfb821b02c7",
    "nonarch-act-2--7-0-ADlate.json-0": "04e51d34f00fc26853b79027c41964fdd8cafd1c6ca01bd3c68d5a2864ca140a",
    "nonarch-act-2--7-0-ADlate.json-7": "2fde3ffe754492c4813eb0ef92d20741f99fe654706072d036daa84bfb4ef654",
    "nonarch-act-2--7-1-B.json-0": "6cb440afaa6a7c84800109eaf3cfb524c6f7ff245de2265ed88997f3aa24698e",
    "nonarch-act-2--7-1-B.json-7": "62c9969fa6be5b59cec7c0efc0bf9b06e7c83cdbce944291de6305066d9e40c4",
    "nonarch-act-2--7-1-AD.json-0": "43cc99752fabb03f8782fbaa3058b78825b859fd83290d01f7b89d1a77311863",
    "nonarch-act-2--7-1-AD.json-7": "6e474fbb036e9ed145c29a723bda1581873060da1636b566978ae2450fae92bf",
    "nonarch-act-2--7-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-1-Blate.json-0": "3a84f13b66e155d01dc8dd09d4c25556be7f4eadfbfe603792e8f302d506a5b9",
    "nonarch-act-2--7-1-Blate.json-7": "e614e3bb0b590fa6bf08ea566faf0d9523a295a4fde3a737650da46c51d0dda8",
    "nonarch-act-2--7-1-ADlate.json-0": "fa1a40b91373e1302678b27871f728067fbf48a2bdb244f8db7649daac1bf29e",
    "nonarch-act-2--7-1-ADlate.json-7": "1434b967de7a4f2561d507334ba8dbd2ea50c9c48c1ace06877f2c9c090609fc",
    "nonarch-act-2--7-2-B.json-0": "3a26b3e9d69dec32d756cc180b8acc5e33b3ad5eb32d9b33c3afbc90242d5702",
    "nonarch-act-2--7-2-B.json-7": "73fce90780414ae95d87f8659cfbdd2e0809dc48c00bdb507e6274b03bd41b52",
    "nonarch-act-2--7-2-AD.json-0": "65fc92d9aaf4120e610890e65dc6c47386c6c7ba0a5fc56424a3ce45cc25e523",
    "nonarch-act-2--7-2-AD.json-7": "2bd234b733e48b1312e464b597e365b098c56be2e24717939276b2ddc11b4131",
    "nonarch-act-2--7-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-2-Blate.json-0": "79223fbd6a6e0f6b4ee3d1b34965953af7448a3e18e042a554432e55ec00b0e7",
    "nonarch-act-2--7-2-Blate.json-7": "3a5c917a974c00656920a3a5986b4a0d8bb4e5acf73770562f07f33ed5137a59",
    "nonarch-act-2--7-2-ADlate.json-0": "cfc5ec01d25d7c7a5692c64d21d98d2473770d61dd8e19ca0f7cb4e0c96af358",
    "nonarch-act-2--7-2-ADlate.json-7": "4e5638ccd5f602cb243c9ee121d73d7e90db642774d85f682929d19af81aedbe",
    "nonarch-act-3-None-0-B.json-0": "75239fcf597652b92ae3496d6703d354b2f0067ef22acb149648bfff28dd0652",
    "nonarch-act-3-None-0-B.json-7": "8f6197bd4f012c1f2a80e3958c33a1009219250ea8f9c91ab6088a9bb3fb2097",
    "nonarch-act-3-None-0-AD.json-0": "39c98dabb042c694695675f1b05629d951f9b43708c1eec14ad9e65b233014ed",
    "nonarch-act-3-None-0-AD.json-7": "211c2175a90ea0d1d9075f6322f60bbe2ecb03e9ceb410331b68f040a4a2cc32",
    "nonarch-act-3-None-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-None-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-None-0-Blate.json-0": "371efa96e217e11bbb4ce7445c3196902863d0115e030b13964a78e364986ef5",
    "nonarch-act-3-None-0-Blate.json-7": "4d2160942cfd75a934f45ccafb674e5b56b7beed5f750a868b876c395ee280e5",
    "nonarch-act-3-None-0-ADlate.json-0": "4c02d5390f6d63f1c29da813ae55c4b35f1ca5bcc8b6698c8e3be088fa218200",
    "nonarch-act-3-None-0-ADlate.json-7": "95f37e31315a4eb3395b3314549f579b8cec23e60633ea5ab2851c3555cc7c1e",
    "nonarch-act-3-None-1-B.json-0": "81a42ce66e7e9f43fc456aaa9305b116236279fc80bcdaf05a12831babf5b49d",
    "nonarch-act-3-None-1-B.json-7": "d884b4eb9c2aa875154cf0efea433ea090ae4f91d63c0537002c0af5bcc0c75d",
    "nonarch-act-3-None-1-AD.json-0": "c09673fa65848ffc7f074a7556545bc19dc1750e380ac88bb277086e09557666",
    "nonarch-act-3-None-1-AD.json-7": "0cda2dddbd121b4f59fe3d51a880f78c322ef2c68972d587d92ff953821e5127",
    "nonarch-act-3-None-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-None-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-None-1-Blate.json-0": "4bfc6e01672d743aff2f48cf70c030d851e06b7977b67559d4f6f277a51ae921",
    "nonarch-act-3-None-1-Blate.json-7": "04987bbf4ebc747c38eb25999b8b71aba1f15d2099b416d0077716fc0460066f",
    "nonarch-act-3-None-1-ADlate.json-0": "7df20dce2c808fb1bead453599c8fc145d0f77d450bfe9261f2b0e7adcb5e513",
    "nonarch-act-3-None-1-ADlate.json-7": "d32a89101576d7a69ba990761ef03702298b4217b6dcb07baae1dda550933d69",
    "nonarch-act-3-None-2-B.json-0": "2615b88c285b675cc32af0e8278a6943c1da412a256692b39179f1b47d85e7e9",
    "nonarch-act-3-None-2-B.json-7": "276b5fff0249bec544e0b801221272cea9648da86716383914ed18ddba62fac7",
    "nonarch-act-3-None-2-AD.json-0": "9fee037f070c2832700449a9409fca4fd3412d7bf338937fc7a364e770fdffee",
    "nonarch-act-3-None-2-AD.json-7": "5b283637bd0e2e7e87e2d9aa5bb060eb0531aa878b0538679f57fffab65f6edd",
    "nonarch-act-3-None-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-None-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-None-2-Blate.json-0": "09e0ab35d5528579cff3b76f483b6e0c425ee33f6871bb72d82a04ba9b4cde39",
    "nonarch-act-3-None-2-Blate.json-7": "407fde024c3c2b08864216fd812b9fd482e16105b7b8502b3227df6ff39a6a1f",
    "nonarch-act-3-None-2-ADlate.json-0": "2ba29438d3944375abe8fe6903896d4771fcb0cb207a32158f6a9350efc5a1d0",
    "nonarch-act-3-None-2-ADlate.json-7": "3f5ff34b93660a11d7bb1d44d0e8141c0223434b34e7a16842aecd09b1ed7f39",
    "nonarch-act-3-5-0-B.json-0": "af97063ee68b5ce587679ffdae87adc0e6fbb0c9e8fcd7dabad7914f2104dd62",
    "nonarch-act-3-5-0-B.json-7": "4a583a673dad08e8654dc93f2e4ce023cf916d4614140c2ebcb346851c9df6d8",
    "nonarch-act-3-5-0-AD.json-0": "745ac1d6d45dc970e5bae4d0785b3536bf57ece1803d128df73ca7ab44d83bc0",
    "nonarch-act-3-5-0-AD.json-7": "e5701baed6890993c4f59c8f12fba22d0c6b6b7780c8b0e27904d339f7567943",
    "nonarch-act-3-5-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-0-Blate.json-0": "15234fca734c3db122f9b77f088e6cc6cf19b909b84f2967db408b49e4f0e99e",
    "nonarch-act-3-5-0-Blate.json-7": "7dea354bda1c5b123323effd66887a468a4ef1efb3fcbf2f1e16a0bdb264b846",
    "nonarch-act-3-5-0-ADlate.json-0": "300ebdad443c5230349942cdc8009f27e408e6fa2f2a30b76b4cc6bf9fc597ce",
    "nonarch-act-3-5-0-ADlate.json-7": "830f850c40c5dada4213d7fe05adb7b91bbc2b4845c3df24788ae2ff19e45820",
    "nonarch-act-3-5-1-B.json-0": "a3d3968f47daf3a05cca25dc20848a43d4bb49729792d08785cccee8f6281e8c",
    "nonarch-act-3-5-1-B.json-7": "c6868c9731c9eb961ca9ed10605a1e90b71e6312f2c1d4a1e705f134a8dc0ba6",
    "nonarch-act-3-5-1-AD.json-0": "eb295d2bcf8a4c9919881efe5d1ca7a27dfd2a7d44589b74ce0aadf9b3fd9395",
    "nonarch-act-3-5-1-AD.json-7": "ad42c44ffcda6ee060e6c7ff4ebf03329148d5715db3bd3fadc7fe54e42a7b07",
    "nonarch-act-3-5-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-1-Blate.json-0": "9e432d7fdab7c5efd8cdb4c07b796b0f4b7a8cc21b037b85b06840809a90a7d9",
    "nonarch-act-3-5-1-Blate.json-7": "4fd2f374107914a809f4439bb9adf3f3b26781cf0dfa8d06487671e024faa97d",
    "nonarch-act-3-5-1-ADlate.json-0": "3e7dbf1c6fcefcb5f4fb55ee330712c1a4b43f1a47fa6e40358e3f6b8881d187",
    "nonarch-act-3-5-1-ADlate.json-7": "e76d4a0f075c68e294332c1035d5f0cabbecd17029dd52db9ced27ff10d81cb6",
    "nonarch-act-3-5-2-B.json-0": "633641b277cf4a9a3b6e2f9a0898b6dc6f35af107850acb1ccc082e252516f68",
    "nonarch-act-3-5-2-B.json-7": "d744897b02d101b3db1e8948f37ffaa0254e5bf223d7546136e84f2a108de3d7",
    "nonarch-act-3-5-2-AD.json-0": "9af5d63678354e92613618ff5a36388c668d5353e1f19c136fdb51f9e398ba40",
    "nonarch-act-3-5-2-AD.json-7": "54f0c0967da95de80fd9dda908e40f78d43ea0de9cf574ca2e2d0d007e5c3dd8",
    "nonarch-act-3-5-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-2-Blate.json-0": "ffd783b394dac9ceb661b552cffbd45921eae561b448a2b5907ba319a6de5837",
    "nonarch-act-3-5-2-Blate.json-7": "3c7bf15f7a1e76ad896d529916e15d9d0fe3e5cd88e4d65bb00decdf83fcc93e",
    "nonarch-act-3-5-2-ADlate.json-0": "7c936f68f5c75cb3d472b4fd94dcf5314cfe8924dd946e91191f07202d66e5dc",
    "nonarch-act-3-5-2-ADlate.json-7": "5aa3ace92982b10c32181ff4569f2cb6ed4bf82b921746b431650465433ae2d5",
    "nonarch-act-3--7-0-B.json-0": "d9e812521d4e709ec8793f26bb4d92b2d937f7fa616dc658901bc3f49042baec",
    "nonarch-act-3--7-0-B.json-7": "a634630c2029ff28af027104991a0312fb487332e60d0c917483ce4d3fee843a",
    "nonarch-act-3--7-0-AD.json-0": "356bb46d4204e3d69823852ff31cc522892a041b84d78d0fbbfd9ec421328c03",
    "nonarch-act-3--7-0-AD.json-7": "abb11e4e2a7d26690b2270b059d2443a4af6b8967e0f55eac08ec29b76e78df0",
    "nonarch-act-3--7-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-0-Blate.json-0": "cc8727bcfae3dbe9af226bac5b465ff60e5961d605eaf23cde9facd97a1743c8",
    "nonarch-act-3--7-0-Blate.json-7": "29b88e2f4bd2bca58a4184d0053f2b08a47dfb22db1b3dc2e2ccd1bcca1f9eea",
    "nonarch-act-3--7-0-ADlate.json-0": "0cd9ca3ca44367bb378b6b1391ef4661dee389388dc9e449fe86af8caa01ea69",
    "nonarch-act-3--7-0-ADlate.json-7": "dd169e60e0ae9abe172fe9c0878ce15d67723689a7ca208b8345686c88513f56",
    "nonarch-act-3--7-1-B.json-0": "4f13403d0c654a8b12b7ea3243a5aec05910d79b321fb4f28dab5a93bc1e1326",
    "nonarch-act-3--7-1-B.json-7": "4f555db6ce9508bbe2d070faf27fed0576826675902de3db890f1623afee4eb6",
    "nonarch-act-3--7-1-AD.json-0": "5ead0c641afe1e9519ac9b8787134213ca7cb8289f987aa15bb22235b36efeb7",
    "nonarch-act-3--7-1-AD.json-7": "4b3613e6f920cb179f54570b8d4b907e4302d67cd8c726daf8f952ad7999a8a9",
    "nonarch-act-3--7-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-1-Blate.json-0": "ef9cf9a0dcf8d919f873625b8fe6e6ed67496b967f3d3167d122b09a2e6afcac",
    "nonarch-act-3--7-1-Blate.json-7": "39c82c16f76a0a75684391eda9f435cdb1371e2caba526f06321f89a97f89808",
    "nonarch-act-3--7-1-ADlate.json-0": "5e0e1f1eeec29ffa8d6e64c38321accf6f6a480d4fa9001b4e94c46972606138",
    "nonarch-act-3--7-1-ADlate.json-7": "480a46cfb679a0c6f461007802611322074b15a33b54e0b7a7f35497139679b8",
    "nonarch-act-3--7-2-B.json-0": "fd2240c69b85ff84b891ffc4443a9216b723ffebcdce283dc387543dacb52717",
    "nonarch-act-3--7-2-B.json-7": "c874dd24a6ab0ebf44fbaaf81e17ecf6396b735e022b8a30a948515390724869",
    "nonarch-act-3--7-2-AD.json-0": "7869af0188a8dd58b4662165d29a7eeb26452971171d3a575a729d6154016ee0",
    "nonarch-act-3--7-2-AD.json-7": "565caae246f2d98ec914d6bd584305c17600baff037047c34d012cdbf3e1ee10",
    "nonarch-act-3--7-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-2-Blate.json-0": "1b189ec99e94fe25dd3cd2207d7586084ed1f47ce69f4b7f44ae6b8abe72c587",
    "nonarch-act-3--7-2-Blate.json-7": "455bc313cb9d00db286a887ad0dd90c8df70979ba4b705519acd78e53bbb3716",
    "nonarch-act-3--7-2-ADlate.json-0": "4b11385a4a7196b600b5672c4e05571b094ee475ab89b339f3c0264e7dfd1314",
    "nonarch-act-3--7-2-ADlate.json-7": "47591c1f22dd609eaeb24520976fcb86e6889b7c3326c9f2ac574f697d308b81",
    "nonarch-offdiag": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-diag": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-scalar": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-g5-scalar": "3b4bfc2f1387d23df4c6d41f95973045260fe37b6a04cff5f4d9cc505e69de51",
    "nonarch-g5": "3b4bfc2f1387d23df4c6d41f95973045260fe37b6a04cff5f4d9cc505e69de51",
    "case3-4-0": "0e639fec39eba0d434dbd2c6701ba4fd93f2e96bd95c8894d06980a767e714e5",
    "case3-4-1": "e10659defb592b03365c30795dddc7a1ed6c9d1f5632f99a1101b9f77649a228",
    "case3-4-2": "e1ddbaa0295988703ddd3ff35b85a898b2abf8520f81e8930eecf8811b8796d8",
    "case3-4-3": "e9913ba6b075a6ada759f190e7f10e6db0d46f146e48f10682ca78b4fc7961eb",
    "case3-6-0": "eb8227bef7c8b0e8d3825ad5265d1fc99074a7921d1cf5bf16289739c302a8c8",
    "case3-6-1": "c918759e41ce2704c5cca96f27e294a285b8a92e93d36a70b665f70b8c73d984",
    "case3-6-2": "c8e07166f93a2888bbac97648f13592f3720b2946a9fa6df191a8337c61a35d2",
    "case3-6-3": "ba5835fb64097dcdaa5b8cf9cacdff0f1f8216d5f9b992176380ade5644c4de5",
    "case3-g3": "d75f710e731499f2510f4d824df7106d412a4337a00f76bcc9fabb84e604d5a5",
    "case3-degenerate-H.json": "6281cf326466c05ccd0b708e7857bf4dde7df9120a864ef8a8abd162814522cc",
    "case3-g2.json": "d75f710e731499f2510f4d824df7106d412a4337a00f76bcc9fabb84e604d5a5",
    "case3-irrational-e.json": "7d4dc2e89b1fbfb3ba71389ad06937521bbd815aedaa42f94aa01748689d991b",
    "case3-irrational-square.json": "62759f78497b905cfe488ca9917f3b00924b9e119e1a297d3b533b52a99f4fa8",
    "case3-mixed-0.json": "2c049548fc865869b2c0a25a72f537a886cf6aa4ec5c1e8b5bb4163c8ac11787",
    "case3-mixed-1.json": "defb861c49a2f1dba74c38b9e8e9198ab942eca029215cbf8ae05ad0e560bb7b",
    "case3-mixed-2.json": "57d90ef2d22b7c3dd1cb1e24f085dbe9257fde2be4ff9da448e28c320e1bb8a1",
    "case3-mixed-3.json": "ca349f3aa3624f526e8982462ac2724bb2477bffdef179b4c937e97554248abd",
    "case3-mixed-4.json": "87373a926cb3543d148934146c502b80872a245b0e00faf6f3716cdd58f102e6",
    "case3-mixed-5.json": "1fcbde5f4aca1db09dd3b9b6d9d2d491e3da1254c37118b3f3be8b1d256ce974",
    "case3-mixed-6.json": "99f6e6a684b20d34bb18ac12ed3f42733c5ab70243eabb82886b5cd65c4caba9",
    "case3-not-similitude.json": "62759f78497b905cfe488ca9917f3b00924b9e119e1a297d3b533b52a99f4fa8",
    "case3-odd-g.json": "d75f710e731499f2510f4d824df7106d412a4337a00f76bcc9fabb84e604d5a5",
    "case3-two-fields.json": "2ccf7172e3b619b476a6cad392897d08c404501108be7514874ebb9708406d5b",
    "member-member-2.json": "61e943a3e1b456c5306ce9ab1ce4ee2669cfd4feaf78b873a8e7adb5a5fece76",
    "member-nonmember-2.json": "f8a20f777310c3ea8c5a1702199ccf2ff28a1e8bd81729f7cdd06f50deadcdf7",
    "member-hidden-2.json": "faba598ab6c539f4de1d8f6104154e07bb533b36ab18710f5415c3dfe0c1a061",
    "member-3": "61e943a3e1b456c5306ce9ab1ce4ee2669cfd4feaf78b873a8e7adb5a5fece76",
    "radical-1": "c7c946c641fd2a2e48c9c9bf1c63feceb6c69a3184241b00c533eb9be3a61720",
    "radical-2": "adf05944cfa9b3f588c02a198f3a141cc001d7b25920af68b83f9f259aa7baba",
    "radical-3": "bb519613e9fa37012a5b0d3389b61bd3d686ad1095546f8095d79acdba04b5af",
    "radical-6": "6ad562ca05cc9b17b0a93d91fba05b751b8d9be3c80df1597e225e2fd7445942",
    "radical-8": "7d667118943e58f536d834d78e9d11ed88979381fbf2fd4b2c9eef63685d4c05",
    "sample-1": "fbc8f34ad3b684661adcbc2a4cae1e9f5e82bf96920e7c8ddd3ddaa56b1dcfda",
    "sample-2": "0fabd8389e47189983673b4f6fcad58c2e5a68d25b10674c153b252ce38569c6",
    "sample-3": "07ec653c820f18e2fdea2cbc289b49acc076997a0fa63def297a9b3c731412bb",
    "sample-mu": "0c2d99b9d963afe6e30cfcd628c3f398b5d9e63e32faee0da2094c0e0a0efbce",
    "sample-6-w20": "4f4de9438524d3b59985734b6d0aa7c9eb6cb727a04572b6e02774887e2b5c34",
    "invert-z-1": "5639d9d3c1fe349630ca21b21bd0d0e6dd1207b38e522457e2fb8138f67e0196",
    "invert-z-2": "9609b285158f811cf1ef3442bcd0ded88a2e6413f7da01a39e3dc109c0860828",
    "invert-z-60": "56ad6e598f841e0a02ef1f7d18cb7ddd0a8dc28ec42c3d4884e2b9a894a57736",
    "invert-z-120": "365dd21a8c18fa93437e0976dd35fd1a89160effec1251dc242c4bc45c0963e1",
    "invert-q": "a7ad51a6efed6bb90bdfb8eee494fe4c2a98dfba09fe06a78f8ac6649f488d68",
    "invert-q5-dense": "b3b00755e76606789f1f454719eda3af6c50f0a53228b6d054d96cd9b6278470",
    "invert-q5-cancel": "fe463e81447ad4d1a5def58fff39c4f156c33c9a6184e4e50cc05431dd3b1a5f",
    "invert-q5-plain": "c9b96617bd64a09d0b0647ed96545ffbee6c5ab4a2cad13388b8ebd67690ab3c",
    "invert-q5-sparse": "433205759344dc4e7cba5264b5de2e4bb1b6e592d17d8264acb81215a3ca0a51",
    "invert-q5-rational": "272f4e0dd064506877ed86f7af058c8a7c346acbe37974a67d0561b5097c2474",
    "invert-q-7-sparse": "f1cc86aed494b6a989d8f6f42d3b9cfd13775467288db773c330ce869f3c9271",
    "invert-mixed": "2d0f5a5d2dad067b4b7778f07c1671be386166dd817b88de3d3386de59fe7cfb",
    "invert-two-fields": "03cc821aefc28826ab05b64c264957586a499a85c28e2668aa9e2144aeced938",
    "derive-F-a": "a8d5a016a98b1fbae62e8f817f9d8d7fc8310ce8fc491d5b1ccedf0a324bf75b",
    "derive-F-a-q5": "44678b674934f9609e818ec4195e723b8980177a1a5a5d263c27e2e1c9ba3f87",
    "derive-F-q5-a": "d49f24e933820691a72deccc7756cb9161f060ed00e1ae70edd9801726e995e5",
    "derive-F-a-zero": "6322ca45e13dba491aee3c6023690aa36bf0f17701167c38dd4d47ca9402da83",
    "check-p5": "10e37d7cfbffcbf55e01ca6da260934e0f62c7b2825ad44150783da04d4db219",
    "check-outside-disc": "764a1c6674a047f3b859f74ac096c84050f32b37cf96331db19d76b408720ea4",
    "check-arch": "3fd7327a792f14c5ea5bad7d633b0d4ac51f726d45fbba7771a8c8328ae3d525",
    "gens-1": "fde51d4a2bc887856083d76261dc835fb33bbbf9539bc9b9ce8da13a5a035b96",
    "gens-2": "4f84d16d9d17f111449e40a89ab2eb89992ce5534e63244ba2bdf55d1c2baa83",
    "gens-3": "3e69be48c4cca4200387a1fec5514e8ea0656a0b84df739b0c3604299432a87a",
    "verify-q-q": "6215ae26cbaa6b57668ed772320464991cfb2bfac92d4bab9af508b80b3b9a3c",
    "verify-q5-q5": "6215ae26cbaa6b57668ed772320464991cfb2bfac92d4bab9af508b80b3b9a3c",
    "verify-q-q5": "3fd70cf1f8a2cff54f1c8f2150bd783f74ad3b0a2a8e14bde06d67e4518f28b2",
    "radii-a": "3c3eebd05d6c50a4a9d8ae361a2fa433e56533736074c9adc49b5347a08b065c",
    "radii-a-excluded": "ae1402d043cceebc5d692ac9222ac8ddaf28de35942e9f502a82d7fe3c1ac413",
    "radii-a-q5": "467ae10cf0fe6596f472ddbb8a58ab59ee726ee98f40e39cbcb730a4e005ab7e",
    "radius-inv-z-3--integral": "9f05957bb58c8a2a79b737257ced325f8348e235a5f2f2fedffc279a1e6d1004",
    "radius-inv-q-3": "2df57b6d37e2f780db73c536ca0e2896082fad1ae0e1312f60fb6878dd5f908d",
    "radius-inv-q-arch": "e10e457683172d56e672b87da684f7fd29a1eb6404b4048359939c9a9de42d3a",
    "radius-log-7": "529c2534919f5d8f45d96b2d6ed63e6fe4cdd722f1f1264dd593e66ea85a0f77",
    "radius-inv-q5-dense-arch/sigma": "ef7648cfc3b8235dda53c4dc7daed665417a333e90e4bd1396597060317717ab",
    "radius-inv-q-7-sparse-arch": "8d531e4379dfa941d1bd619812c96d3d787798f7272d0fd4d464fc298b3f94cf",
    "radius-inv-q5-dense-5": "ddebd15970059f6aaf6b1539c11f8fe4eefc678bfad50d5c0f675369bf02cd5d",
    "gb-scan-inv-z": "0e0fdef9092474ce7a623dbaab3f3dfaa26e3a3eec9da08d64c71d8bfb02979e",
    "gb-scan-inv-q": "c66a361691058b63805f59dd3a9280019c8f096f5e5fe8c2b3be698048dee907",
    "gb-scan-log": "d82fe7fac14f2f17ab4933a26580efceb3d82d64bbba15f2f45f1a4081c883ab",
    "gb-scan-log--prime-bound5": "ad5d32bdad24ab55afa91530b80adf8f4f3835a8ba1323249b3954e790f4737a",
    "gb-scan-inv-q5-dense": "62e1d78f6528aa914f38448db0f1e549ea704e45441813d379adc5fa6d25e0c5",
    "eval-inv-q-3-3": "e7f6becb9576b688d857e96d22472c75185112666a3824ffeec018311d640f4b",
    "eval-inv-z-3-3--integral-tail": "bcf54153bd0aa9979ade276a8e37e08f67f6e323335a83cf2199ee3c902028b5",
    "eval-inv-z-1/3-3--integral-tail": "764a1c6674a047f3b859f74ac096c84050f32b37cf96331db19d76b408720ea4",
    "eval-log-1/7-arch": "f62b84e39bcf08e7447ba106235c28a3c544082b03b85b813712b3bc3a131b78",
    "eval-eval-q5-3/5-3": "a585e670dc5d2cbdc00de476de522a90f0b8c07aab0a9f7e13c2482e58d804eb",
    "eval-inv-q5-dense-1/7-arch/sigma": "a060d895f4fd5c5c2fa9598b477d4e0e200486f5fed7ca3740e8b17549dfde66",
}


def test_reports_match_their_golden_digests(tmp_path, capsys):
    assert report_digests(tmp_path, capsys) == GOLDEN


def test_every_subcommand_has_a_golden_case():
    groups = build_parser()._subparsers._group_actions[0].choices
    names = {f"{cmd} {sub}" for cmd, p in groups.items() for sub in p._subparsers._group_actions[0].choices}
    assert names == {f"{argv[0]} {argv[1]}" for _, argv in _inputs()[1]}
