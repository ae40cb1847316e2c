"""The CLI contract under fuzzed input: every call of ``cli.dispatch`` with a
well-formed flag set exits 0, 1 or 2 and prints exactly one JSON document,
``{"manifest", "result"}`` on exit 0 and ``{"error"}`` otherwise, and no
exception escapes it.

Flag values and input files are drawn from strategies that stay near valid
input and then break it: missing keys, wrong types, scalars from one
quadratic field or from two, rational-valued quadratic scalars, singular and
scalar matrices, non-prime and quadratic places, values past a float's
range, missing and non-JSON files.  ``--g`` stays at most 5, since
``ideal gens`` and ``ideal radical`` have no cap, and series orders at most
30.
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from periodrel import matrices as mx
from periodrel.cli import dispatch
from periodrel.relations import synthesize_period_data
from periodrel.scalars import scalar_to_json

from helpers import mixed_action, mixed_case3_input

MAX_G = 5
MAX_ORDER = 30
JUNK = (None, "x", [], {}, -1, 0, 2, True, 1.5, "1/0", {"d": 4, "a": "1", "b": "1"})

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=25)


# ---------------------------------------------------------------------------
# values


def _rational(n: int, den: int) -> str:
    return str(n) if den == 1 else f"{n}/{den}"


small_rational = st.builds(_rational, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 13)))
# past a float's range at the archimedean place, or at the 2-adic one; |2^1060|_2 is subnormal
huge_rational = st.sampled_from(
    ("1" + "0" * 400, f"1/{10**400}", f"{10**400 + 1}/{10**399}", f"1/{2**1100}", str(2**1060))
)


@st.composite
def scalars(draw, fields: tuple):
    """A scalar JSON: a rational, or an element of one of ``fields``,
    rational-valued (b = 0) now and then."""
    if not draw(st.integers(0, 19)):
        return draw(huge_rational)
    if not fields or draw(st.booleans()):
        return draw(st.one_of(small_rational, st.integers(-9, 9)))
    b = draw(st.one_of(st.just("0"), small_rational))
    return {"d": draw(st.sampled_from(fields)), "a": draw(small_rational), "b": b}


field_sets = st.sampled_from(((), (5,), (-3,), (5, -3), (2, 5)))


@st.composite
def mutated(draw, doc):
    """``doc``, or a copy with one key dropped or one value of the wrong type."""
    if draw(st.integers(0, 3)):
        return doc
    doc = json.loads(json.dumps(doc))
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            slots.append((node, key))
            walk(child)

    walk(doc)
    if not slots:
        return draw(st.sampled_from(JUNK))
    node, key = draw(st.sampled_from(slots))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.sampled_from(JUNK))
    return doc


@st.composite
def matrices(draw, g: int, fields: tuple):
    """A g x g scalar matrix: random, zero, scalar, or of rank at most one."""
    kind = draw(st.sampled_from(("random", "zero", "scalar", "rank1")))
    if kind == "zero":
        return [["0"] * g for _ in range(g)]
    if kind == "scalar":
        c = draw(scalars(fields))
        return [[c if i == j else "0" for j in range(g)] for i in range(g)]
    if kind == "rank1":
        row = [draw(st.integers(-3, 3)) for _ in range(g)]
        return [[str(r * c) for c in row] for r in row]
    return [[draw(scalars(fields)) for _ in range(g)] for _ in range(g)]


@st.composite
def series_docs(draw, fields: tuple, order: int | None = None, integral: bool = False):
    if order is None:
        order = draw(st.integers(0, MAX_ORDER))
    slopes = ("1", "-1", "2", "2" if integral else "1/2")
    coeffs = [draw(st.sampled_from(("0", "0", "1", "-1"))), draw(st.sampled_from(slopes))]
    coeffs += [draw(st.integers(-9, 9) if integral else scalars(fields)) for _ in range(order - 1)]
    coeffs = coeffs[: order + 1 - draw(st.sampled_from((0, 0, 0, 1)))]  # now and then one short
    return {"order": order, "coeffs": coeffs}


@st.composite
def mostly(draw, good, bad):
    """A value from ``good`` three times in four, else one from ``bad``."""
    return draw(good if draw(st.integers(0, 3)) else bad)


place_texts = mostly(
    st.sampled_from(("arch", "inf", "arch/sigma", "arch/tau", "2", "3", "5", '{"kind": "finite", "p": 5}',
                     '{"kind": "arch", "embedding": "tau"}')),
    st.sampled_from(("arch/foo", "4", "1", "0", "-3", "x", "3/1", '{"kind": "finite", "p": 4}', '{"kind": "finite"}',
                     '{"d": 5, "a": "3", "b": "0"}', '{"d": 5, "a": "0", "b": "1"}', "1" * 5000)),
)
place_docs = mostly(
    st.sampled_from(({"kind": "finite", "p": 3}, {"kind": "arch"}, {"kind": "arch", "embedding": "sigma"})),
    st.sampled_from(({"kind": "finite", "p": 6}, {"kind": "finite", "p": -5}, {"kind": "arch", "embedding": "x"},
                     {"kind": "padic", "p": 3}, {"d": 5, "a": "0", "b": "1"}, "3", 7)),
)
x_texts = mostly(small_rational, st.one_of(huge_rational, st.sampled_from(("0", "1/0", "x", "1e300", '{"d": 5}'))))
genus = st.integers(-1, MAX_G)
seeds = st.integers(0, 9)


@st.composite
def poly_docs(draw, g: int, fields: tuple):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        index = st.sampled_from([*range(1, g + 1)] * 3 + [g + 1, 0])
        mono = [
            [draw(st.sampled_from("YYYZZZQ")), draw(index), draw(index), draw(st.integers(0, 2))]
            for _ in range(draw(st.integers(0, 3)))
        ]
        terms.append({"coeff": draw(scalars(fields)), "monomial": mono})
    return terms


def _flag(draw, name: str, values) -> list:
    """``[name, value]`` or nothing: the flag is optional."""
    return [name, str(draw(values))] if draw(st.booleans()) else []


# ---------------------------------------------------------------------------
# one strategy per subcommand: (argv, {file name: JSON document})


@st.composite
def series_command(draw, sub: str):
    fields = draw(field_sets)
    files = {"f.json": draw(mutated(draw(series_docs(fields))))}
    argv = ["series", sub, "--series", "f.json"]
    if sub == "invert":
        argv += _flag(draw, "--order", st.integers(-1, MAX_ORDER))
    elif sub == "radius":
        argv += ["--place", draw(place_texts)] + (["--integral"] if draw(st.booleans()) else [])
    elif sub == "gb-scan":
        argv += _flag(draw, "--prime-bound", st.integers(-1, 60))
    else:
        argv += ["--x", draw(x_texts), "--place", draw(place_texts)]
        argv += ["--integral-tail"] if draw(st.booleans()) else []
    return argv, files


@st.composite
def symplectic_command(draw):
    argv = ["symplectic", "sample", "--g", str(draw(genus))]
    argv += _flag(draw, "--seed", seeds)
    argv += _flag(draw, "--mu", st.one_of(small_rational, st.sampled_from(("0", "1/0", "-7/5"))))
    argv += _flag(draw, "--word-length", st.integers(-1, 10))
    return argv, {}


@st.composite
def ideal_command(draw, sub: str):
    g = draw(genus)
    if sub == "gens":
        return ["ideal", "gens", "--g", str(g)], {}
    if sub == "radical":
        return ["ideal", "radical", "--g", str(g)] + _flag(draw, "--seed", seeds), {}
    files = {"p.json": draw(mutated(draw(poly_docs(max(g, 1), draw(field_sets)))))}
    argv = ["ideal", "member", "--poly", "p.json", "--g", str(g)]
    return argv + _flag(draw, "--budget", st.integers(-1, 5)) + _flag(draw, "--seed", seeds), files


@st.composite
def action_docs(draw):
    g, fields = draw(st.integers(1, 3)), draw(field_sets)
    if draw(st.booleans()):  # mixed Fraction and quadratic entries of one field
        act = mixed_action(random.Random(draw(seeds)), g, fields[0] if fields else None)
        return {"g": g, **{k: mx.matrix_to_json(m) for k, m in zip("ABD", (act.A, act.B, act.D))}}
    return {"g": g, **{k: draw(matrices(g, fields)) for k in "ABD"}}


@st.composite
def period_data_docs(draw, g: int):
    fields = draw(field_sets)
    if draw(st.booleans()):
        act = mixed_action(random.Random(draw(seeds)), g, None)
        if not act.is_scalar():
            with contextlib.suppress(ValueError):  # a singular Sylvester system
                return synthesize_period_data(act, draw(seeds)).to_json()
    return {"g": g, **{k: draw(matrices(g, fields)) for k in "MFG"}}


@st.composite
def relation_command(draw, sub: str):
    if sub == "build-nonarch":
        argv = ["relation", "build-nonarch", "--act", "act.json"] + _flag(draw, "--seed", seeds)
        return argv, {"act.json": draw(mutated(draw(action_docs())))}
    if sub == "verify":
        g, fields = draw(st.integers(1, 3)), draw(field_sets)
        n = draw(st.integers(1, 2))
        rel = {"rows": n, "cols": n, "entries": [[draw(poly_docs(g, fields)) for _ in range(n)] for _ in range(n)]}
        files = {"rel.json": draw(mutated(rel)), "data.json": draw(mutated(draw(period_data_docs(g))))}
        return ["relation", "verify", "--rel", "rel.json", "--data", "data.json"], files
    if draw(st.booleans()):
        return ["relation", "case3"] + _flag(draw, "--g", genus) + _flag(draw, "--seed", seeds), {}
    inp = mixed_case3_input(4, draw(seeds))
    doc = {"g": 4, **{k: mx.matrix_to_json(getattr(inp, k)) for k in "HABCD"}, "sqrt_e": scalar_to_json(inp.sqrt_e)}
    if draw(st.booleans()):
        doc["H"] = draw(matrices(4, draw(field_sets)))
    return ["relation", "case3", "--input", "case3.json"], {"case3.json": draw(mutated(doc))}


@st.composite
def gfun_docs(draw, g: int | None = None):
    """(g, F, a): a g x g series matrix and a coefficient family a[i][k][l]."""
    g = draw(st.integers(1, 2)) if g is None else g
    n, order = draw(st.integers(0, 2)), draw(st.integers(0, 12))
    fields, integral = draw(field_sets), draw(st.sampled_from((False, False, True, [[True] * g] * g)))
    grid = [[draw(series_docs(fields, order, bool(integral))) for _ in range(g)] for _ in range(g)]
    f = {"g": g, "entries": grid, "integral": integral}
    a = {"g": g, "N": n, "a": [[[draw(series_docs(fields, order)) for _ in range(g)] for _ in range(n + 1)]
                               for _ in range(g)], "integral": draw(st.booleans())}
    return g, draw(mutated(f)), draw(mutated(a))


@st.composite
def gfun_command(draw, sub: str):
    g, f, a = draw(gfun_docs())
    if sub == "derive":
        return ["gfun", "derive", "--F", "F.json", "--a", "a.json"], {"F.json": f, "a.json": a}
    if sub == "radii":
        places = json.dumps(draw(st.lists(place_docs, max_size=3)))
        excluded = json.dumps(draw(st.lists(scalars(draw(field_sets)), max_size=3)))
        argv = ["gfun", "radii", "--F", "F.json", "--a", "a.json"]
        argv += ["--places", draw(st.sampled_from((places,) * 4 + ("{}", "x")))]
        argv += _flag(draw, "--excluded", st.sampled_from((excluded,) * 4 + ("[]", "3")))
        return argv, {"F.json": f, "a.json": a}
    _, G, _ = draw(gfun_docs(draw(st.sampled_from((g, g, g, 3 - g)))))  # now and then of another size
    files = {"F.json": f, "G.json": G, "data.json": draw(mutated(draw(period_data_docs(g))))}
    argv = ["gfun", "check", "--F", "F.json", "--G", "G.json", "--data", "data.json",
            "--x", draw(x_texts), "--place", draw(place_texts)]
    return argv + _flag(draw, "--tolerance", st.sampled_from((0.0, 1e-9, 1.0, -1.0))), files


NOT_JSON = object()


@st.composite
def with_file_faults(draw, command):
    """A command whose files are now and then missing or not JSON."""
    argv, files = draw(command)
    if files and not draw(st.integers(0, 7)):
        name = draw(st.sampled_from(sorted(files)))
        if draw(st.booleans()):
            del files[name]
        else:
            files[name] = NOT_JSON
    return argv, files


COMMANDS = {
    "series invert": series_command("invert"),
    "series radius": series_command("radius"),
    "series gb-scan": series_command("gb-scan"),
    "series eval": series_command("eval"),
    "symplectic sample": symplectic_command(),
    "ideal gens": ideal_command("gens"),
    "ideal radical": ideal_command("radical"),
    "ideal member": ideal_command("member"),
    "relation build-nonarch": relation_command("build-nonarch"),
    "relation verify": relation_command("verify"),
    "relation case3": relation_command("case3"),
    "gfun derive": gfun_command("derive"),
    "gfun radii": gfun_command("radii"),
    "gfun check": gfun_command("check"),
}


def test_every_subcommand_is_fuzzed():
    from periodrel.cli import build_parser

    parser = build_parser()
    groups = parser._subparsers._group_actions[0].choices
    names = {f"{cmd} {sub}" for cmd, p in groups.items() for sub in p._subparsers._group_actions[0].choices}
    assert names == set(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_dispatch_keeps_the_contract(command):
    @CONTRACT
    @given(with_file_faults(COMMANDS[command]))
    def check(case):
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, doc in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write("{" if doc is NOT_JSON else json.dumps(doc))
            argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv)
        assert code in (0, 1, 2)
        doc = json.loads(out.getvalue())  # exactly one document: trailing text fails to parse
        assert set(doc) == ({"manifest", "result"} if code == 0 else {"error"})
        assert err.getvalue() == ""

    check()
