"""Seeded inputs for the three workloads.

``build(workload, seed, folder)`` writes every input file into ``folder`` and
returns the plan: a list of warm-up ops and one round of timed ops.  Each op
carries the argv handed to ``periodrel.cli.dispatch`` and the data its check
needs; the program receives only the generated files and arguments.

A round always holds the same ops in the same interleaved order, so every
run attempts whole rounds and the share of failed ops is fixed.  The counts
per kind are chosen so that op_p50_ms and op_p90_ms fall inside one op kind's
block of latencies, never on the jump between two kinds.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from exact import (
    block,
    frac_str,
    identity,
    inverse,
    mat_mul,
    mat_sub,
    quad_json,
    transpose,
    zeros,
)

WORKLOADS = ("ideal", "relations", "series")


class Plan:
    def __init__(self, folder: str):
        self.folder = folder
        self.warmup: list[dict] = []
        self.round: list[dict] = []
        self._files = 0

    def write(self, stem: str, obj) -> str:
        self._files += 1
        path = os.path.join(self.folder, f"{self._files:03d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    @staticmethod
    def op(kind: str, argv: list, check: dict) -> dict:
        return {"kind": kind, "argv": [str(a) for a in argv], "check": check}

    def to_json(self) -> dict:
        return {"warmup": self.warmup, "round": self.round}


def _interleave(groups: list[list]) -> list:
    """Spread the ops of each kind evenly through the round."""
    keyed = []
    for group in groups:
        n = len(group)
        keyed += [((k + 0.5) / n, len(keyed), op) for k, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed)]


def _enc(m) -> list:
    """A rational matrix in periodrel's JSON form."""
    return [[frac_str(x) for x in row] for row in m]


def build(workload: str, seed: int, folder: str) -> Plan:
    plan = Plan(folder)
    rng = random.Random(f"{workload}:{seed}")
    {"ideal": _ideal, "relations": _relations, "series": _series}[workload](plan, rng)
    return plan


# ---------------------------------------------------------------------------
# ideal: membership and radicality of the trivial-relations ideal


def _var(block_name: str, i: int, j: int) -> tuple:
    return (block_name, i, j)


def _generator(g: int, i: int, j: int) -> dict:
    """f_ij = sum_k Y[k,i] Z[k,j] - Z[k,i] Y[k,j] as {monomial: coeff}."""
    out: dict = {}
    for k in range(1, g + 1):
        _add(out, {_var("Y", k, i): 1, _var("Z", k, j): 1}, Fraction(1))
        _add(out, {_var("Z", k, i): 1, _var("Y", k, j): 1}, Fraction(-1))
    return out


def _key(mono: dict) -> tuple:
    return tuple(sorted(mono.items()))


def _add(poly: dict, mono: dict, c: Fraction) -> None:
    k = _key(mono)
    s = poly.get(k, Fraction(0)) + c
    if s:
        poly[k] = s
    else:
        poly.pop(k, None)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = dict(m1)
            for v, e in m2:
                mono[v] = mono.get(v, 0) + e
            _add(out, mono, c1 * c2)
    return out


def _poly_json(poly: dict) -> list:
    return [
        {"coeff": frac_str(c), "monomial": [[v[0], v[1], v[2], e] for v, e in mono]}
        for mono, c in sorted(poly.items())
    ]


def _random_form(rng: random.Random, g: int, degree: int, terms: int) -> dict:
    out: dict = {}
    while not out:
        for _ in range(terms):
            mono: dict = {}
            for _ in range(degree):
                v = _var(rng.choice("YZ"), rng.randint(1, g), rng.randint(1, g))
                mono[v] = mono.get(v, 0) + 1
            _add(out, mono, Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
    return out


def _member(rng: random.Random, g: int) -> dict:
    """A seeded combination sum h_ij f_ij with h_ij of degree 1 or 2."""
    total: dict = {}
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            h = _random_form(rng, g, rng.choice((1, 2)), rng.randint(1, 3))
            for m, c in _mul(h, _generator(g, i, j)).items():
                _add(total, dict(m), c)
    return total


def _nonmember(rng: random.Random, g: int, structured: bool) -> dict:
    """A member plus one monomial outside the ideal.

    With ``structured`` the monomial is nonzero at one of the structured
    witnesses (I, Z) that membership tries first; otherwise it carries an
    off-diagonal Y entry, which vanishes at every structured witness, so only
    a sampled point can decide it.
    """
    p = _member(rng, g)
    a, b = rng.sample(range(1, g + 1), 2)
    if structured:
        extra = rng.choice(
            ({_var("Y", a, a): 1}, {_var("Y", a, a): 1, _var("Z", b, b): 1}, {_var("Z", a, b): 1, _var("Y", b, b): 1})
        )
    else:
        extra = {_var("Y", a, b): 1, _var(rng.choice("YZ"), b, rng.randint(1, g)): 1}
        if len(extra) == 1:
            extra = {_var("Y", a, b): 2}
    _add(p, extra, Fraction(rng.choice((-2, -1, 1, 2))))
    return p


# Fixed g=4 member, independent of the seed: membership stops at g <= 3, so
# every run reports it undecided and counts it failed until that cap lifts.
def _g4_member() -> dict:
    p: dict = {}
    for h, (i, j) in (
        ({_key({_var("Y", 1, 1): 1}): Fraction(1)}, (1, 2)),
        ({_key({_var("Z", 2, 3): 1}): Fraction(-2)}, (3, 4)),
        ({_key({_var("Y", 4, 4): 1}): Fraction(1)}, (1, 3)),
    ):
        for m, c in _mul(h, _generator(4, i, j)).items():
            _add(p, dict(m), c)
    return p


def _member_op(plan: Plan, g: int, poly: dict, expect: str, pseed: int):
    doc = _poly_json(poly)
    path = plan.write(f"member-g{g}", doc)
    return plan.op(
        f"member_g{g}_{expect}",
        ["ideal", "member", "--poly", path, "--g", g, "--budget", IDEAL_BUDGET, "--seed", pseed],
        {"type": "member", "g": g, "poly": doc, "expect": expect},
    )


def _radical_op(plan: Plan, g: int, pseed: int):
    return plan.op(
        f"radical_g{g}",
        ["ideal", "radical", "--g", g, "--seed", pseed],
        {"type": "radical", "g": g},
    )


IDEAL_BUDGET = 8  # sampled points per membership query


def _ideal(plan: Plan, rng: random.Random) -> None:
    def pseed():
        return rng.randrange(10**6)

    def members(g, n_in, n_struct, n_sampled):
        polys = [(_member(rng, g), "in") for _ in range(n_in)]
        polys += [(_nonmember(rng, g, True), "out") for _ in range(n_struct)]
        polys += [(_nonmember(rng, g, False), "out") for _ in range(n_sampled)]
        rng.shuffle(polys)
        return [_member_op(plan, g, p, e, pseed()) for p, e in polys]

    plan.warmup = [
        _member_op(plan, 2, _member(rng, 2), "in", pseed()),
        _radical_op(plan, 2, pseed()),
    ]
    # Latency order: member g=2 < non-member g=3 < member g=3 < member g=4
    # < radical g=3 < g=4 < g=5.  Of 50 ops, members g=3 cover ranks 15-40
    # (p50 near their middle) and radical g=3 ranks 42-48 (p90 at their
    # median).
    plan.round = _interleave(
        [
            members(2, 2, 2, 2),
            members(3, 26, 4, 4),
            [_member_op(plan, 4, _g4_member(), "in", 0)],
            [_radical_op(plan, 3, pseed()) for _ in range(7)],
            [_radical_op(plan, 4, pseed())],
            [_radical_op(plan, 5, pseed())],
        ]
    )


# ---------------------------------------------------------------------------
# relations: nonarch adjugate construction and the case-3 quadratic one


def _rand_int_matrix(rng, g, lo, hi):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(g)] for _ in range(g)]


def _unimodular(rng, g):
    """Integer matrix of determinant 1, a product of elementary shears."""
    u = identity(g)
    for _ in range(g + 2):
        i, j = rng.sample(range(g), 2)
        c = rng.choice((-1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _triangular(rng, diag):
    g = len(diag)
    t = zeros(g, g)
    for i in range(g):
        t[i][i] = Fraction(diag[i])
        for j in range(i + 1, g):
            t[i][j] = Fraction(rng.randint(-2, 2))
    return t


def _nonarch_input(rng: random.Random, g: int) -> tuple[dict, list, list]:
    """An action (A, B, D) with an exact period pair (F, G) of its own.

    A and D get disjoint spectra, F is invertible, G is arbitrary,
    M = F^t A F^-t and B = F^-t (M G^t - G^t D); then M F^t = F^t A and
    M G^t = F^t B + G^t D hold by construction.
    """
    eig = rng.sample(range(-4, 5), 2 * g)
    u, v = _unimodular(rng, g), _unimodular(rng, g)
    a = mat_mul(mat_mul(u, _triangular(rng, eig[:g])), inverse(u))
    d = mat_mul(mat_mul(v, _triangular(rng, eig[g:])), inverse(v))
    while True:
        f = _rand_int_matrix(rng, g, -3, 3)
        ft_inv = inverse(transpose(f))
        if ft_inv is not None:
            break
    gm = _rand_int_matrix(rng, g, -3, 3)
    ft, gt = transpose(f), transpose(gm)
    m = mat_mul(mat_mul(ft, a), ft_inv)
    b = mat_mul(ft_inv, mat_sub(mat_mul(m, gt), mat_mul(gt, d)))
    return {"g": g, "A": _enc(a), "B": _enc(b), "D": _enc(d)}, f, gm


def _symplectic_word(rng: random.Random, g: int) -> list:
    """Integer S with S^t J S = J: linear * shear * J * shear with random
    factors.  The fixed pattern and the shears' nonzero entries keep S
    dense, so the cost of the case-3 build swings less with the seed."""
    eye, zero = identity(g), zeros(g, g)
    j = block(zero, eye, [[-x for x in row] for row in eye], zero)
    s = identity(2 * g)
    for kind in ("linear", "shear", "swap", "shear"):
        if kind == "linear":
            u = _unimodular(rng, g)
            fac = block(u, zero, zero, transpose(inverse(u)))
        elif kind == "shear":
            sym = zeros(g, g)
            for r in range(g):
                for c in range(r, g):
                    sym[r][c] = sym[c][r] = Fraction(rng.choice((-2, -1, 1, 2)))
            fac = block(eye, sym, zero, eye)
        else:
            fac = j
        s = mat_mul(s, fac)
    return s


def _case3_input(rng: random.Random, g: int) -> tuple[dict, list]:
    """Case-3 data (H, (A B; C D) = S / sqrt(e), sqrt(e)) and the rational
    point w = S^-t (Y'; Z') at which the transported relation must vanish:
    the top g/2 rows of Y' and Z' are the two halves of H's rows, the rest
    are arbitrary.  H has no zero entry, for the same reason as S."""
    h = g // 2
    while True:
        hm = [[Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for _ in range(g)] for _ in range(g)]
        if inverse(hm) is not None:
            break
    s = _symplectic_word(rng, g)
    d = rng.choice((2, 3, 5, 7, 11, 13))
    b = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    # 1/sqrt(e) = 1/(b sqrt(d)) = sqrt(d) / (b d)
    scale = 1 / (b * d)
    cob = [[quad_json(d, 0, x * scale) for x in row] for row in s]
    doc = {"g": g, "H": _enc(hm), "sqrt_e": quad_json(d, 0, b)}
    for name, r0, c0 in (("A", 0, 0), ("B", 0, g), ("C", g, 0), ("D", g, g)):
        doc[name] = [row[c0 : c0 + g] for row in cob[r0 : r0 + g]]
    target = [
        (hm[k] if k < h else [Fraction(rng.randint(-3, 3)) for _ in range(g)]) for k in range(g)
    ] + [(hm[h + k] if k < h else [Fraction(rng.randint(-3, 3)) for _ in range(g)]) for k in range(g)]
    w = mat_mul(inverse(transpose(s)), target)
    return doc, w


def _nonarch_op(plan: Plan, rng, g: int):
    act, f, gm = _nonarch_input(rng, g)
    path = plan.write(f"act-g{g}", act)
    return plan.op(
        f"nonarch_g{g}",
        ["relation", "build-nonarch", "--act", path, "--seed", rng.randrange(10**6)],
        {"type": "nonarch", "g": g, "F": _enc(f), "G": _enc(gm)},
    )


def _case3_op(plan: Plan, rng, g: int):
    doc, w = _case3_input(rng, g)
    path = plan.write(f"case3-g{g}", doc)
    return plan.op(
        f"case3_g{g}",
        ["relation", "case3", "--input", path],
        {"type": "case3", "g": g, "w": _enc(w)},
    )


def _relations(plan: Plan, rng: random.Random) -> None:
    plan.warmup = [_nonarch_op(plan, rng, 2), _case3_op(plan, rng, 4)]
    # Latency order: nonarch g=2 < g=3 < case 3 g=4 < g=6.  Of 100 ops,
    # nonarch g=3 covers ranks 21-80 (p50 at their median) and case 3 g=4
    # ranks 81-98 (p90 near their median).  A case-3 build's cost varies
    # about twofold with its input, so the round holds 18 and 2 of them to
    # keep p90 and ops_per_s from following one seed's few inputs.
    plan.round = _interleave(
        [
            [_nonarch_op(plan, rng, 2) for _ in range(20)],
            [_nonarch_op(plan, rng, 3) for _ in range(60)],
            [_case3_op(plan, rng, 4) for _ in range(18)],
            [_case3_op(plan, rng, 6) for _ in range(2)],
        ]
    )


# ---------------------------------------------------------------------------
# series: inversion over Z and Q(sqrt 5), scans, evaluation, gfun


def _int_series(rng, order: int, lo=-3, hi=3, unit_linear=False) -> list:
    c = [Fraction(rng.randint(lo, hi)) for _ in range(order + 1)]
    if unit_linear:
        c[0], c[1] = Fraction(0), Fraction(rng.choice((-1, 1)))
    return c


def _series_json(coeffs: list) -> dict:
    return {
        "order": len(coeffs) - 1,
        "coeffs": [c if isinstance(c, dict) else frac_str(c) for c in coeffs],
    }


def _invert_int_op(plan: Plan, rng, order: int):
    f = _int_series(rng, order, unit_linear=True)
    path = plan.write(f"invert-z{order}", _series_json(f))
    return plan.op(
        f"invert_z{order}",
        ["series", "invert", "--series", path, "--order", order],
        {"type": "invert", "f": _series_json(f)},
    )


def _invert_quad_op(plan: Plan, rng, order: int):
    d = 5
    coeffs = [quad_json(d, 0, 0), quad_json(d, 1, 0)]
    coeffs += [quad_json(d, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(order - 1)]
    path = plan.write(f"invert-q{order}", _series_json(coeffs))
    return plan.op(
        f"invert_q5_{order}",
        ["series", "invert", "--series", path, "--order", order],
        {"type": "invert", "f": _series_json(coeffs)},
    )


def _gbscan_op(plan: Plan, rng, order: int, bounded: bool):
    if bounded:
        coeffs = _int_series(rng, order, -9, 9)
    else:
        # a_n = +-1/n: every prime up to the order enters the denominators
        coeffs = [Fraction(rng.choice((-1, 1)), max(n, 1)) for n in range(order + 1)]
    bound = 50
    path = plan.write("gbscan", _series_json(coeffs))
    return plan.op(
        "gb_scan",
        ["series", "gb-scan", "--series", path, "--prime-bound", bound],
        {"type": "gb_scan", "f": _series_json(coeffs), "bounded": bounded, "prime_bound": bound},
    )


def _eval_op(plan: Plan, rng, order: int):
    coeffs = _int_series(rng, order, -9, 9)
    p = rng.choice((2, 3, 5, 7))
    x = Fraction(p * rng.choice((1, 2, 4)), rng.choice((1, 11, 13)))
    path = plan.write("eval", _series_json(coeffs))
    return plan.op(
        "eval_p",
        ["series", "eval", "--series", path, "--x", frac_str(x), "--place", p, "--integral-tail"],
        {"type": "eval", "f": _series_json(coeffs), "x": frac_str(x), "p": p},
    )


def _hypergeometric(order: int) -> list:
    """sum C(2n,n)^2 (X/16)^n from its coefficient recurrence."""
    c = [Fraction(1)]
    for n in range(order):
        c.append(c[-1] * Fraction((2 * n + 1) ** 2, (2 * n + 2) ** 2))
    return c


# X(1-X) F'' + (1-2X) F' - F/4 = 0 annihilates the fixture above.
PICARD_FUCHS = ([Fraction(-1, 4)], [Fraction(1), Fraction(-2)], [Fraction(0), Fraction(1), Fraction(-1)])


def _pad(c: list, order: int) -> list:
    return list(c) + [Fraction(0)] * (order + 1 - len(c))


def _gfun_derive_op(plan: Plan, rng, order: int):
    """F[l][j] = c_lj * hyp and a[i][k][l] = PF_k * m_il, so G = m PF(hyp) c = 0."""
    g = 2
    hyp = _hypergeometric(order)
    c = [[rng.choice((-2, -1, 1, 2, 3)) for _ in range(g)] for _ in range(g)]
    m = [[rng.choice((-2, -1, 1, 2, 3)) for _ in range(g)] for _ in range(g)]
    fj = {
        "g": g,
        "integral": False,
        "entries": [[_series_json([c[l][j] * x for x in hyp]) for j in range(g)] for l in range(g)],
    }
    aj = {
        "g": g,
        "N": 2,
        "integral": False,
        "a": [
            [[_series_json(_pad([m[i][l] * x for x in pf], order)) for l in range(g)] for pf in PICARD_FUCHS]
            for i in range(g)
        ],
    }
    return plan.op(
        "gfun_derive",
        ["gfun", "derive", "--F", plan.write("gfun-F", fj), "--a", plan.write("gfun-a", aj)],
        {"type": "gfun_derive", "g": g, "order": order - 2},
    )


def _gfun_check_op(plan: Plan, rng, order: int):
    """Integral F, G at a finite place; the references are the exact partial
    sums, some moved by a multiple of p^((N+1) v_p(x)) that the tail bound
    allows."""
    g = 2
    p = rng.choice((3, 5, 7))
    x = Fraction(p * rng.choice((1, 2)))
    tail = x ** (order + 1)
    grids, refs = {}, {}
    for name in ("F", "G"):
        series = [[_int_series(rng, order, -5, 5) for _ in range(g)] for _ in range(g)]
        grids[name] = series
        refs[name] = [
            [sum(cf * x**n for n, cf in enumerate(s)) + rng.choice((0, 0, 1, -2)) * tail for s in row]
            for row in series
        ]
    series_json = {k: [[_series_json(s) for s in row] for row in v] for k, v in grids.items()}
    data = {"g": g, "M": _enc(identity(g)), "F": _enc(refs["F"]), "G": _enc(refs["G"])}
    argv = ["gfun", "check"]
    for name in ("F", "G"):
        argv += [f"--{name}", plan.write(f"check-{name}", {"g": g, "integral": True, "entries": series_json[name]})]
    argv += ["--data", plan.write("check-data", data), "--x", frac_str(x), "--place", p]
    return plan.op(
        "gfun_check",
        argv,
        {"type": "gfun_check", "x": frac_str(x), "p": p, "series": series_json, "refs": data},
    )


def _series(plan: Plan, rng: random.Random) -> None:
    plan.warmup = [
        _invert_int_op(plan, rng, 12),
        _invert_quad_op(plan, rng, 6),
        _gbscan_op(plan, rng, 40, True),
        _eval_op(plan, rng, 40),
        _gfun_derive_op(plan, rng, 12),
        _gfun_check_op(plan, rng, 12),
    ]

    def many(n, make, *args):
        return [make(plan, rng, *args) for _ in range(n)]

    # Latency order: gb-scan ~ eval < gfun check < gfun derive < integer
    # invert at order 60 ~ Q(sqrt 5) invert at order 30 < integer invert at
    # order 120.  Of 100 ops, gfun check covers ranks 37-66 and the order-60
    # and Q(sqrt 5) inversions ranks 84-99, so p50 and p90 each fall at the
    # median of one block; the two inversion paths share the time about
    # equally.
    plan.round = _interleave(
        [
            many(8, _gbscan_op, 40, True),
            many(7, _gbscan_op, 40, False),
            many(21, _eval_op, 40),
            many(30, _gfun_check_op, 20),
            many(17, _gfun_derive_op, 30),
            many(8, _invert_int_op, 60),
            many(8, _invert_quad_op, 30),
            many(1, _invert_int_op, 120),
        ]
    )
