"""Golden report digests: a fixed list of `cli.dispatch` argvs whose exit
codes and `result` objects (the error object when there is none) must stay
byte-identical.  The manifest is left out, since it names input paths.

Each digest is the SHA-256 of ``json.dumps([exit code, result])``.  The
inputs cover nonarch certificates at g = 1..3 over Q, Q(sqrt 5) and
Q(sqrt -7) with mixed entry types and every witness case (an action with
A = D stops at its singular Sylvester system), case-3
certificates from seeds and from mixed-type input files, small ideal and
symplectic runs, every relation error path, series inversions over Z, Q,
Q(sqrt 5) (zeros in both encodings), Q(sqrt -7) and mixed input, and
`gfun derive`/`gfun check` over Q and Q(sqrt 5).  After an intended report
change, GOLDEN is the output of :func:`report_digests` on the new code.
"""

import hashlib
import json
import random
from fractions import Fraction

from periodrel import matrices as mx
from periodrel.cli import dispatch
from periodrel.relations import Case3Input, EndomorphismAction, random_case3_input
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
    return files, cases


def _q(d, a, b=0) -> dict:
    return scalar_to_json(QuadScalar(d, Fraction(a), Fraction(b)))


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
    # Q(sqrt 5) and Q(sqrt -7): dense, and sparse with zeros in both encodings
    files["inv-q5-dense.json"] = _series_json(
        [_q(5, 0), _q(5, 1)] + [_q(5, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(29)]
    )
    files["inv-q5-cancel.json"] = _series_json([_q(5, c) for c in (0, 1, 1, 1, 0)])
    files["inv-q5-plain.json"] = _series_json([_q(5, c) for c in (0, 1, 0, 1, 0)])
    files["inv-q5-sparse.json"] = _series_json(
        ["0", _q(5, 2, 1)] + [_q(5, rng.choice((0, 0, 1)), rng.choice((0,) * 5 + (1,))) for _ in range(23)]
    )
    r29 = random.Random(29)  # its inverse has a plain 0 and a quadratic zero past X^1
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
    "nonarch-act-1-5-0-B.json-0": "6810ba8b8ba5c6e8faf49fdd83184bac1089b573eff54bf9385ecb3eae7368a2",
    "nonarch-act-1-5-0-B.json-7": "57c476cdf7873835bde0014a6cfe46ff9ddcb8ba38d69aa2368c5009a7b6cb4e",
    "nonarch-act-1-5-0-AD.json-0": "fc1dad2f520bb450d0342c1b14614578cab0846ab99030282c8134748731ad7c",
    "nonarch-act-1-5-0-AD.json-7": "d462cb9862c4ec1d849b0b792b3622bc0db3b8943db54bc86bfdaeabd9563990",
    "nonarch-act-1-5-0-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-0-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-1-B.json-0": "3d89313183afeb36da9d5c9d7c130d41da6122125073655ef00cf3cab39af5bd",
    "nonarch-act-1-5-1-B.json-7": "68ec7323b3502543978f9465f28bebe666d3dbb8dc9eec9b361669b2c51ab9a5",
    "nonarch-act-1-5-1-AD.json-0": "fc1dad2f520bb450d0342c1b14614578cab0846ab99030282c8134748731ad7c",
    "nonarch-act-1-5-1-AD.json-7": "d462cb9862c4ec1d849b0b792b3622bc0db3b8943db54bc86bfdaeabd9563990",
    "nonarch-act-1-5-1-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-1-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-2-B.json-0": "6b1058f33c43805f0bd92fc52fed81fee32eee469af77c83d621c7c34c26aaf3",
    "nonarch-act-1-5-2-B.json-7": "cc94693a3ba1970333ef6d8b4c604a28f4383ef8b028128ec73087020faf4735",
    "nonarch-act-1-5-2-AD.json-0": "fc1dad2f520bb450d0342c1b14614578cab0846ab99030282c8134748731ad7c",
    "nonarch-act-1-5-2-AD.json-7": "d462cb9862c4ec1d849b0b792b3622bc0db3b8943db54bc86bfdaeabd9563990",
    "nonarch-act-1-5-2-AA.json-0": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1-5-2-AA.json-7": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-act-1--7-0-B.json-0": "f2b989ace947111a74ae09b7e095c0b866b0bdab693992c4484bde7664b5e7d9",
    "nonarch-act-1--7-0-B.json-7": "7e0d8ab0a13ddcdd2f4a338a14a769ca720b0464e1943dff3318b77b603b09cd",
    "nonarch-act-1--7-0-AD.json-0": "a2ea8930803a8d9dc53ccd25c2f92bcbb067a84e9e524fce837e05c930811cea",
    "nonarch-act-1--7-0-AD.json-7": "4bb4088d474da3475da2d627edb3c4d10f903c5ecabe89dccfdfe6ba06f4fb9c",
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
    "nonarch-act-1--7-2-AD.json-0": "a2ea8930803a8d9dc53ccd25c2f92bcbb067a84e9e524fce837e05c930811cea",
    "nonarch-act-1--7-2-AD.json-7": "4bb4088d474da3475da2d627edb3c4d10f903c5ecabe89dccfdfe6ba06f4fb9c",
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
    "nonarch-act-2-5-0-B.json-0": "087a2aa960150d0c3bc74b757594365adee817a83e7d25bf2a5a233b59fde4bb",
    "nonarch-act-2-5-0-B.json-7": "042068b3689221aee445f833b58c5707b8f3b068769132ff6c1629f33739f322",
    "nonarch-act-2-5-0-AD.json-0": "6cc8349f2eb188741aa386140a7c1a1d2a94eff90c23c71d14693702f08c3e27",
    "nonarch-act-2-5-0-AD.json-7": "b65e2eb20c7c1290a7f996b90fdee9f627181a1f6e28dfc97cf19f48166f4be6",
    "nonarch-act-2-5-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-0-Blate.json-0": "b0b124ae5dc8bc48715782dd5fe7787e4da2a0bafe8bbbf543bc7fd30d4a5cf7",
    "nonarch-act-2-5-0-Blate.json-7": "aa88a9b6c2cddb844d4937299b7bafae0fb1dee1ae9145c077c454866a2c9ae8",
    "nonarch-act-2-5-0-ADlate.json-0": "c00525d5597bd86738ce290a74a6570ea6d07f5b81806c4c9db32746d0f42ceb",
    "nonarch-act-2-5-0-ADlate.json-7": "fd5818189feb1e60b634e90c740074e306afb950ff3db3065380bb3cb2d5de3f",
    "nonarch-act-2-5-1-B.json-0": "dd44c3831228ee854782ad26254ac24506b905118de55995373f845bb3a53f42",
    "nonarch-act-2-5-1-B.json-7": "bf7dff25a08c31125e7c33a7228a88908ddcc7e6293d4c1be49944cbd7e5727a",
    "nonarch-act-2-5-1-AD.json-0": "c2ae6c42ff078409c88797530f2f70eda091636d4ad42652a769877df122c092",
    "nonarch-act-2-5-1-AD.json-7": "4d1d9592c9fd8670ad76c6a0cf05ed052bc7cb462c620ddb6f8d9781a531b782",
    "nonarch-act-2-5-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-1-Blate.json-0": "9f908826df3da4cdf2a0560657f57e40c27f6b52713bf6a61bdf01cf5a85f450",
    "nonarch-act-2-5-1-Blate.json-7": "df4b1e51dd16d6ea9778798d321d54979e359e9f82748784250c8214d3f43904",
    "nonarch-act-2-5-1-ADlate.json-0": "cf766fe13a139d503d4ca75783d980bd5537ca0e0744f9c85c7fc20e90f213fd",
    "nonarch-act-2-5-1-ADlate.json-7": "9e4ffd98c199817564fbfd27f9708d4742c8f7667996ac5aba84d3481e3f40dc",
    "nonarch-act-2-5-2-B.json-0": "efc917181783841c1ac29be64e50d8d363fc42463303068e0afe5689d510eb59",
    "nonarch-act-2-5-2-B.json-7": "f26320a013234d69a7716e4430d55b2c619d752b7513501b6dc07966e30ec649",
    "nonarch-act-2-5-2-AD.json-0": "8d5bfcbe47c7c5f881830fd9bbf4436c7445c93392ccbc14382eab5eb82f7561",
    "nonarch-act-2-5-2-AD.json-7": "dd09d658a605d60016ac6e94130a80b2596b3bc1613143481bee925efe5524b6",
    "nonarch-act-2-5-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2-5-2-Blate.json-0": "99e2300ec5e7aa83483ce9b18c3386ab090fb6ce55f79729982f8e10a438a20b",
    "nonarch-act-2-5-2-Blate.json-7": "572d7e095a9c54c7133d3f27861f42d450b6d8e24415a5828aa37fc0157ca851",
    "nonarch-act-2-5-2-ADlate.json-0": "02d2f2455f7ab92a3dbc2d665a4e48d4b3f432b12ad70bf24a00ca86de4d51c4",
    "nonarch-act-2-5-2-ADlate.json-7": "1b92f6ab2b3e8ad9234c870a886ca917a052b647a98d1950262be3911750a7ec",
    "nonarch-act-2--7-0-B.json-0": "9c58a60d183aabff311c6a22c7df0bd943dd3def25759c0340d892b7d5c71310",
    "nonarch-act-2--7-0-B.json-7": "af7a18f2032d003b37dc2a6ffbf2fa99b96e39abe846511498498d09fc6804e0",
    "nonarch-act-2--7-0-AD.json-0": "8948cc5cc017e48ad50447cde3a08cf5eb0b9bcec46600b378e4e3e2c5a704cd",
    "nonarch-act-2--7-0-AD.json-7": "f2d350d0e29a28f0a5b4b3b61eb179b78917d4ab833d2dac639612c00109b55d",
    "nonarch-act-2--7-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-0-Blate.json-0": "69376064d54cbe24a2761a5bbd6a8da0d2320dfcce9968585f6411030a416bfc",
    "nonarch-act-2--7-0-Blate.json-7": "566297669383d652856678a5f517768bb56638ebdb970adabec7d398069fdbb8",
    "nonarch-act-2--7-0-ADlate.json-0": "6aaa3dbdd2fe6b66836acaa0d50dc872abf707aa05e72ad55f01c169095d1ea3",
    "nonarch-act-2--7-0-ADlate.json-7": "4984effaf2053b0591c1f1841e30477064dd3e0bf1e56c4e7a8b9efffb6b334e",
    "nonarch-act-2--7-1-B.json-0": "334de4bb6a6f9d9635705c8ba12fedd8462f02860da6a84e51c8f9d75cdbb60e",
    "nonarch-act-2--7-1-B.json-7": "4a4b2a2cbb9368115cebb4f341c924b6b40bdd20bf3cc86986417b9855c2b215",
    "nonarch-act-2--7-1-AD.json-0": "d047092e2c54fee81845261f411bba25c52e403ca08d69dea879712c2a0e2ce3",
    "nonarch-act-2--7-1-AD.json-7": "211bcc60842afe7a6ee645403d099e8edb4e6dababf81dfbd978551788768df8",
    "nonarch-act-2--7-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-1-Blate.json-0": "bba684544bcc793655a6a56d22697d2628609e964865300c52607e9677260135",
    "nonarch-act-2--7-1-Blate.json-7": "627cd6497bfa9850f18952acf6e265078d598c3480697597b81548d971260986",
    "nonarch-act-2--7-1-ADlate.json-0": "4a3447691038ef656b8cc07e33aed8e7f560760cc9518f9bc872def6794e9ba5",
    "nonarch-act-2--7-1-ADlate.json-7": "b6a80ecc65a652b18fa9fb4e1ce24a5b4e31c3f30149be09e9d04669d681049a",
    "nonarch-act-2--7-2-B.json-0": "66d4cc7ace49f8cc9675cdda3172965b04de364792287a1ba485f879840b602d",
    "nonarch-act-2--7-2-B.json-7": "879136230462c2827d2729e14704ff867830adef919fdc349e4ba021d76d50ac",
    "nonarch-act-2--7-2-AD.json-0": "185da1a256c278e55afb7ff49211109b3e8534a4c734eddf25e485dbf86eb838",
    "nonarch-act-2--7-2-AD.json-7": "7a105f19d9b284ee6f640455ca2d72bbcd6141d464a9641dcdd1fe6d56710e61",
    "nonarch-act-2--7-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-2--7-2-Blate.json-0": "db6747a55949da6302243380992dbc2a4ec301e8f51298e62ee0af1e31fd95c8",
    "nonarch-act-2--7-2-Blate.json-7": "13542a0533c50d130b4a062c67088b787bcfbbe60941e046505ffb219a4001c8",
    "nonarch-act-2--7-2-ADlate.json-0": "d147d6fe663999bb3df7bf1be6d4edea4d7366fb3bc2848373ba7e6a196a3681",
    "nonarch-act-2--7-2-ADlate.json-7": "c6687568ddb1f34631f9706191caeca4ec31b6d8679e568e1782d681f74b757c",
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
    "nonarch-act-3-5-0-B.json-0": "30f07984cd6d14ff4c34634eb7f61c0d506c0bb5b8fa4c9de33461f945d74e23",
    "nonarch-act-3-5-0-B.json-7": "8179491369781ddafc0cc6705f7f399f79d474106f71dad96711cadb581adc17",
    "nonarch-act-3-5-0-AD.json-0": "5b11c2912968a8e895acbc9ec792716d8273f24fda22e47895670d19aca168e9",
    "nonarch-act-3-5-0-AD.json-7": "4d99d04b192c232487468d4d4a2f6f2253eaf5f83dbf51a54e680e1014b44843",
    "nonarch-act-3-5-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-0-Blate.json-0": "7683272f73e56c4a71a05cc3075b6240fa5728e3ba907b33cbac79c4b67beb8f",
    "nonarch-act-3-5-0-Blate.json-7": "85d0dda600439b0c4ad56cd14e702abef97739abbfad232e57d655edfd86ea4f",
    "nonarch-act-3-5-0-ADlate.json-0": "bf923f06b889fb9fdeb318caea9584e6ff67308d92522c7873cd99a54fc018b6",
    "nonarch-act-3-5-0-ADlate.json-7": "e36e92dfae0de34cbd17faf646f74002660b5c31cce297a1a7711b922f71930d",
    "nonarch-act-3-5-1-B.json-0": "c59eedb77105f669449e4928a69a71c3c0dcdf261c714e064f9f3afeeb4dd066",
    "nonarch-act-3-5-1-B.json-7": "2d00c5956638a7ad7c13b12eb9dc3188fe770375978201e6ac90a3ec361bce10",
    "nonarch-act-3-5-1-AD.json-0": "fbb8f39e62eaedcabb5393586c2a4956d7289b825dcd21faf932cae8ba13a4cd",
    "nonarch-act-3-5-1-AD.json-7": "e0c81ba7ff00c4848365441528457e491b2dae33403d344a619ceaf1e4d0d779",
    "nonarch-act-3-5-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-1-Blate.json-0": "fc418b140cfec4967298866dacd45f4b77356ede27ead81d8a2600f20128fb95",
    "nonarch-act-3-5-1-Blate.json-7": "aabd0fca5a7ed4e6d9fd7f9b0af0d5a4b088dc01575d08a40a32683f51c6104d",
    "nonarch-act-3-5-1-ADlate.json-0": "e70186eb63e937e204c0ef4849659e6356dab96ad029777050ebd59f16d98e2b",
    "nonarch-act-3-5-1-ADlate.json-7": "69c1491d4c2d36b335ba2e8fd4daaea57499ed4958a4132f9be5e1e788d4e21a",
    "nonarch-act-3-5-2-B.json-0": "cc20d9a30b330f80ad7a053579a614aee999281b2e51b8241a51e89a82d4ae5d",
    "nonarch-act-3-5-2-B.json-7": "ab59ab199d567b13493dc32bf6a3df6491ff887916c3d8da158f68bca2e0a824",
    "nonarch-act-3-5-2-AD.json-0": "4c2cc5497f80d927447b216daeae0cf6c4ba965bbab368a0cae165959544e803",
    "nonarch-act-3-5-2-AD.json-7": "b2d200551d243fb3edde20ad9440368fcbf3b3f28ba1c6726cc5e31a11ccfbe4",
    "nonarch-act-3-5-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3-5-2-Blate.json-0": "82d0eb68a875b446c6b6b040c02a8b69b6b714088471afa30d23d7dbed12b5de",
    "nonarch-act-3-5-2-Blate.json-7": "21ddc23989020a56a2d68e3d38e5f3e300af263a21ab77fbcc412cd842fb15c0",
    "nonarch-act-3-5-2-ADlate.json-0": "96b4179c8898646ca57d05dddcc3e10d3a5355a2e48897e6e9217cd6bc8f569a",
    "nonarch-act-3-5-2-ADlate.json-7": "b2a6ef71ec9885a2bcbf3bb43cc6ba6d21a15297e5ab49f3862f79373154b5b9",
    "nonarch-act-3--7-0-B.json-0": "63d8b64b79db1142bf727762ab8429f49a50db901a242fb2099314ec03352136",
    "nonarch-act-3--7-0-B.json-7": "7cbdc775786db3f8f53040eb4507c449a1b0f41da3c505d82d5dd9ba7428e8fb",
    "nonarch-act-3--7-0-AD.json-0": "4efe039637cd2f02d65e67a3198daebf13410b8a7047b2bffa85d78c7cff5490",
    "nonarch-act-3--7-0-AD.json-7": "7f9fac0958c8bcd9a6e8548ce83af9b6f666e1c9412347de772ccd57f7f522a5",
    "nonarch-act-3--7-0-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-0-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-0-Blate.json-0": "9fb36af22c6ee6b16a4312ad2a38706c1ef7b1f346dfdd6f63648474f88a2f3d",
    "nonarch-act-3--7-0-Blate.json-7": "0965360511f9a765239c9968a3ab482a0101ae9f0eb05764ff31f05fdc668762",
    "nonarch-act-3--7-0-ADlate.json-0": "ac3fd37e06c6f0fc2302899e841e2c972eaf14bcddd153534d65ec44104905b6",
    "nonarch-act-3--7-0-ADlate.json-7": "7ae7f4ce3a596732264eb616fc518c32bd429b51c36693bacdf22009aef50d17",
    "nonarch-act-3--7-1-B.json-0": "1a3606ea094cf09e7853c3d85f2577e65c29b0e4a761ed96b1428d4326aa7c1c",
    "nonarch-act-3--7-1-B.json-7": "536a9020c75f7505d5bdf0c6a0da431b9bd535929236a574c87c2fcfb12173c0",
    "nonarch-act-3--7-1-AD.json-0": "6c711725fe8d0c3fe9265465490018b86754e460aa504cd629b3a565ca417ddc",
    "nonarch-act-3--7-1-AD.json-7": "42e8bb985f0b0ec4e3c40626c222b6ad1a1f8907a4cb7016a35aadb166867cb2",
    "nonarch-act-3--7-1-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-1-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-1-Blate.json-0": "37a038447353157f09d95b64950f6b137d26f0eb38f254f1a4ed3df60e3e2fb4",
    "nonarch-act-3--7-1-Blate.json-7": "eb28b11e47e9bbd5388df960001b8127db1315600d179bcbe374c1f6c55a4308",
    "nonarch-act-3--7-1-ADlate.json-0": "a93bf1293d5f283fb6ff60d0003deac71d053eade141973d8ffeabaf187e65ac",
    "nonarch-act-3--7-1-ADlate.json-7": "7d9e6587b566d9203da424f405ba430fb19c7744cd230d399c3953b28f20c357",
    "nonarch-act-3--7-2-B.json-0": "a276e3df0e71ccdf819c08c11bd3e36f18e3d146092a689481bdb2f73f9137c4",
    "nonarch-act-3--7-2-B.json-7": "d3faf55ed8e035126350171461b25f3c18189b75e94b836363976a5fa01209b7",
    "nonarch-act-3--7-2-AD.json-0": "571a70ca79dc7bea127eaef4b5a7429ce8b98b63731af769e060c28d591fdc16",
    "nonarch-act-3--7-2-AD.json-7": "31c1d13b0b814e77867e58e16a37608836e892570b292a7f9b6632a4918e7cea",
    "nonarch-act-3--7-2-AA.json-0": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-2-AA.json-7": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-act-3--7-2-Blate.json-0": "480d515c74b97f790dc22f24334959692390e7aa55a2f4d33cb07e15e9332f31",
    "nonarch-act-3--7-2-Blate.json-7": "5958a9b08f322959cb33cb55bdb9b7adc7afaf140781b94fbd34e2e93c17a645",
    "nonarch-act-3--7-2-ADlate.json-0": "be55030aea4629c412838d9d98f85aca5affdcc5f871b055a24dbf53ab90f479",
    "nonarch-act-3--7-2-ADlate.json-7": "c93efbad301df5c6ee9771887441ce6c55ef6f4c8fa7d228202dc5be5fe143ce",
    "nonarch-offdiag": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-diag": "7555a3194af8330023ec1c04869c200554bb3511eba9a4b8409fccc6ca211d0b",
    "nonarch-scalar": "177adfc0baadba44fab49f58d7d1f7a6a7677abe7a75dac9a56f7fd7ae20fd73",
    "nonarch-g5-scalar": "3b4bfc2f1387d23df4c6d41f95973045260fe37b6a04cff5f4d9cc505e69de51",
    "nonarch-g5": "3b4bfc2f1387d23df4c6d41f95973045260fe37b6a04cff5f4d9cc505e69de51",
    "case3-4-0": "4850e6cf8825488a252ecad43c711605e1270852c6113450363c528e57364700",
    "case3-4-1": "0b0072eb8046d30cc5dc80a07da014aaaff4da171ccd5e6275b22b60c763f792",
    "case3-4-2": "ae26c799e7edad1bc76bf47600974fdc47737b5d3fba3cf8da981f7cd142402c",
    "case3-4-3": "4955c07f544544acee89a0b560996aa24354da09a44ea7c948530508328590b8",
    "case3-6-0": "9cce114941721cd8d07c2666f1ce4ff3b386769e61c87f7769b9b282ca771d09",
    "case3-6-1": "225e1653891e1a833a0de290fbb935d663cb5ca7b0f3d3c4314d1a110b2ac385",
    "case3-6-2": "c12ac10226389f93d6fbfc358cbf49cd0dfdb0d5bb5ca8fd893ef2b6b4ed345c",
    "case3-6-3": "572d2411c29fe3f71729c87fa18fe9f675f60674ec2eb6075d719cf4a1eba1eb",
    "case3-g3": "d75f710e731499f2510f4d824df7106d412a4337a00f76bcc9fabb84e604d5a5",
    "case3-degenerate-H.json": "6281cf326466c05ccd0b708e7857bf4dde7df9120a864ef8a8abd162814522cc",
    "case3-g2.json": "d75f710e731499f2510f4d824df7106d412a4337a00f76bcc9fabb84e604d5a5",
    "case3-irrational-e.json": "7d4dc2e89b1fbfb3ba71389ad06937521bbd815aedaa42f94aa01748689d991b",
    "case3-irrational-square.json": "62759f78497b905cfe488ca9917f3b00924b9e119e1a297d3b533b52a99f4fa8",
    "case3-mixed-0.json": "2c049548fc865869b2c0a25a72f537a886cf6aa4ec5c1e8b5bb4163c8ac11787",
    "case3-mixed-1.json": "1d749c9503eb21abb5d64c0fb4bc2582a244554b43b52719093228a90748a044",
    "case3-mixed-2.json": "faa49b5a42c45a9d9679523c6c349068392dda6ea255e8633c34987dbe84e4e1",
    "case3-mixed-3.json": "ca349f3aa3624f526e8982462ac2724bb2477bffdef179b4c937e97554248abd",
    "case3-mixed-4.json": "14be633a4d63db216803779569e8f451ceb5b95b8bdcea23617d8378fac83018",
    "case3-mixed-5.json": "1fcbde5f4aca1db09dd3b9b6d9d2d491e3da1254c37118b3f3be8b1d256ce974",
    "case3-mixed-6.json": "965d5686989e3b23b1008d11d44d3a8e12a89570e5adb689538d8bbe25667fe1",
    "case3-not-similitude.json": "62759f78497b905cfe488ca9917f3b00924b9e119e1a297d3b533b52a99f4fa8",
    "case3-odd-g.json": "d75f710e731499f2510f4d824df7106d412a4337a00f76bcc9fabb84e604d5a5",
    "case3-two-fields.json": "f8d670242d66a1af3c8dbe0bbad459ce617fc34ebb82f6f950ac90ea0d16cf8b",
    "member-member-2.json": "07305fcfd5f4853590462955cd800a8b5de990dc5189235b38946c7264754e14",
    "member-nonmember-2.json": "f8a20f777310c3ea8c5a1702199ccf2ff28a1e8bd81729f7cdd06f50deadcdf7",
    "member-hidden-2.json": "faba598ab6c539f4de1d8f6104154e07bb533b36ab18710f5415c3dfe0c1a061",
    "member-3": "11b3727de6d33d0f8b76b5b112db5e09eded65a3da79ac909b98e5eb270d72d0",
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
    "invert-q5-dense": "69f23dac5ee4343820e6fe0d8f97394cc8b9ad7941dee2022ec6cc8e7e2dbc43",
    "invert-q5-cancel": "968e28bf5fc34cd3eb8707bd806fb732949225c655c693baa0e83b09f6d3a3a5",
    "invert-q5-plain": "ea170b04e00045e23ae8038acf653c766b4b1d30b32f13cfc474fa17a3062c5b",
    "invert-q5-sparse": "433205759344dc4e7cba5264b5de2e4bb1b6e592d17d8264acb81215a3ca0a51",
    "invert-q5-rational": "47e8dc1505579c56b4de1b4bc41dd2afb276853b0d9ce2b1529408b35ad75811",
    "invert-q-7-sparse": "a12d4bbe50aee663d26f05ba698065a7e16774d2f3d7ae3013fa42fe7176ba5c",
    "invert-mixed": "2d0f5a5d2dad067b4b7778f07c1671be386166dd817b88de3d3386de59fe7cfb",
    "invert-two-fields": "fe5f2f306f63bbe8e06b397b8b16160cc279b2cbe1b4493699cfad5e71eaa946",
    "derive-F-a": "a8d5a016a98b1fbae62e8f817f9d8d7fc8310ce8fc491d5b1ccedf0a324bf75b",
    "derive-F-a-q5": "44678b674934f9609e818ec4195e723b8980177a1a5a5d263c27e2e1c9ba3f87",
    "derive-F-q5-a": "b62e62db169de7ee2bfbbbeb71c034d5d98167a4580db01c61c1ab5e1a0d9b5d",
    "derive-F-a-zero": "6322ca45e13dba491aee3c6023690aa36bf0f17701167c38dd4d47ca9402da83",
    "check-p5": "10e37d7cfbffcbf55e01ca6da260934e0f62c7b2825ad44150783da04d4db219",
    "check-outside-disc": "764a1c6674a047f3b859f74ac096c84050f32b37cf96331db19d76b408720ea4",
    "check-arch": "3fd7327a792f14c5ea5bad7d633b0d4ac51f726d45fbba7771a8c8328ae3d525",
}


def test_reports_match_their_golden_digests(tmp_path, capsys):
    assert report_digests(tmp_path, capsys) == GOLDEN
