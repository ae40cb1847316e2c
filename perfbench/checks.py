"""Independent checks of every report, and the corruptions that must fail them.

``check(spec, code, text)`` returns ``"ok"``, ``"failed"`` (an error report,
an exception, or ``undecided`` where a certificate is due: the op counts as
failed) or raises ``WrongOutput`` (the report is wrong: the run fails).  The
checks use only exact arithmetic from ``exact.py`` and the data the benchmark
built the input from, never periodrel.

``corrupt(spec, doc)`` changes one coefficient or one witness entry of a real
report; every run feeds one corrupted report per op kind back through
``check`` and fails if it is accepted.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

from exact import (
    frac_str,
    is_isotropic,
    poly_degrees,
    poly_eval,
    poly_terms,
    rank,
    scalar,
    series_compose,
    valuation,
)


class WrongOutput(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _frac_matrix(obj) -> list:
    return [[Fraction(x) for x in row] for row in obj]


def _coeffs(series_json: dict) -> list:
    return [scalar(c) for c in series_json["coeffs"]]


def check(spec: dict, code: int, text: str) -> str:
    try:
        doc = json.loads(text.strip().splitlines()[-1]) if text.strip() else None
    except json.JSONDecodeError:
        doc = None
    if code != 0 or not isinstance(doc, dict) or "result" not in doc:
        return "failed"
    return _run_check(spec, doc["result"])


def _run_check(spec: dict, result) -> str:
    try:
        return CHECKS[spec["type"]](spec, result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise WrongOutput(f"malformed report: {exc!r}") from None


# ---------------------------------------------------------------------------
# ideal


def _check_member(spec, r) -> str:
    if r["status"] == "undecided":
        return "failed"
    require(isinstance(r.get("samples_tested"), int), "samples_tested missing")
    if spec["expect"] == "in":
        # members are in the ideal by construction
        require(r["status"] == "in_ideal_certified", f"member reported {r['status']}")
        require(r.get("remainder") == [], "member certified with a nonzero remainder")
        return "ok"
    require(r["status"] == "not_in_ideal_certified", f"non-member reported {r['status']}")
    if "witness" in r:
        y, z = _frac_matrix(r["witness"]["Y"]), _frac_matrix(r["witness"]["Z"])
        require(is_isotropic(y, z), "membership witness is not isotropic")
        val = poly_eval(spec["poly"], y, z)
        require(val != 0, "polynomial vanishes at the non-membership witness")
        require(val == scalar(r["value"]), "reported witness value differs from the polynomial's")
    else:
        require(bool(r.get("remainder")), "non-member certified without witness or remainder")
    return "ok"


def jacobian_rank(g: int, y, z) -> int:
    """Rank of the Jacobian of f_ij = sum_k Y[k,i]Z[k,j] - Z[k,i]Y[k,j], i < j,
    at (Y, Z); columns are Y[k,l] then Z[k,l]."""
    rows = []
    for i in range(g):
        for j in range(i + 1, g):
            dy = [[Fraction(0)] * g for _ in range(g)]
            dz = [[Fraction(0)] * g for _ in range(g)]
            for k in range(g):
                dy[k][i] += z[k][j]
                dz[k][j] += y[k][i]
                dz[k][i] -= y[k][j]
                dy[k][j] -= z[k][i]
            rows.append([x for row in dy for x in row] + [x for row in dz for x in row])
    return rank(rows) if rows else 0


def _check_radical(spec, r) -> str:
    g = spec["g"]
    m = g * (g - 1) // 2
    require(r["verdict"] == "radical", f"radicality verdict {r['verdict']}")
    require(r["generator_count"] == m and r["rank"] == m, "rank or generator count is not g(g-1)/2")
    y, z = _frac_matrix(r["witness"]["Y"]), _frac_matrix(r["witness"]["Z"])
    require(is_isotropic(y, z), "radicality witness is not isotropic")
    require(jacobian_rank(g, y, z) == m, "Jacobian rank at the witness is not g(g-1)/2")
    return "ok"


# ---------------------------------------------------------------------------
# relations


def _check_witness(v: dict, poly: list) -> None:
    require(v["status"] == "not_in_ideal_certified", f"non-triviality status {v['status']}")
    y, z = _frac_matrix(v["witness"]["Y"]), _frac_matrix(v["witness"]["Z"])
    require(is_isotropic(y, z), "non-triviality witness is not isotropic")
    val = poly_eval(poly, y, z)
    require(val != 0, "relation vanishes at its non-triviality witness")
    require(val == scalar(v["value"]), "reported witness value differs from the polynomial's")


def _check_nonarch(spec, r) -> str:
    c = r["certificate"]
    g = spec["g"]
    require(c["kind"] == "nonarch" and c["degree"] == g + 1, "nonarch certificate kind or degree")
    require(poly_degrees(c["polynomial"]) == {g + 1}, "relation is not homogeneous of degree g+1")
    f, gm = _frac_matrix(spec["F"]), _frac_matrix(spec["G"])
    require(poly_eval(c["polynomial"], f, gm) == 0, "relation does not vanish at the benchmark's (F, G)")
    _check_witness(c["nontriviality"], c["polynomial"])
    return "ok"


def _check_case3(spec, r) -> str:
    c = r["certificate"]
    g = spec["g"]
    require(c["kind"] == "case3" and c["degree"] == 2, "case-3 certificate kind or degree")
    require(poly_degrees(c["polynomial"]) == {2}, "case-3 relation is not homogeneous of degree 2")
    require(c["nontriviality"]["status"] == "not_in_ideal_certified", "case-3 non-triviality status")
    w = _frac_matrix(spec["w"])
    require(poly_eval(c["polynomial"], w[:g], w[g:]) == 0, "case-3 relation does not vanish at S^-t (Y'; Z')")
    return "ok"


# ---------------------------------------------------------------------------
# series and gfun


def _check_invert(spec, r) -> str:
    f = _coeffs(spec["f"])
    g = _coeffs(r["inverse"])
    n = spec["f"]["order"]
    require(r["order"] == n and len(g) == n + 1, "inverse has the wrong order")
    if all(isinstance(c, Fraction) and c.denominator == 1 for c in f) and abs(f[1]) == 1:
        require(all(c.denominator == 1 for c in g), "integer series with unit slope inverted to non-integers")
        f, g = [int(c) for c in f], [int(c) for c in g]  # same check, in machine-fast ints
    comp = series_compose(f, g, n)
    require(all(c == (1 if k == 1 else 0) for k, c in enumerate(comp)), "f(g(X)) != X to the order")
    return "ok"


def _check_gb_scan(spec, r) -> str:
    if spec["bounded"]:
        require(r["verdict"] == "bounded" and r["witness"] is None, "integer series not reported bounded")
        return "ok"
    require(r["verdict"] == "unbounded_evidence", f"gb-scan verdict {r['verdict']}")
    n, p = r["witness"]
    f = _coeffs(spec["f"])
    require(0 <= n < len(f), "witness n is outside the series")
    require(2 <= p <= spec["prime_bound"] and all(p % q for q in range(2, p)), "witness p is not a prime in range")
    require(f[n] != 0 and valuation(f[n], p) < 0, "witness (n, p) does not have v_p(a_n) < 0")
    return "ok"


def _partial_sum(coeffs: list, x: Fraction) -> Fraction:
    return sum((c * x**n for n, c in enumerate(coeffs)), Fraction(0))


def _check_eval(spec, r) -> str:
    f = _coeffs(spec["f"])
    x, p = Fraction(spec["x"]), spec["p"]
    require(r["heuristic"] is False, "integral-tail evaluation flagged heuristic")
    require(scalar(r["value"]) == _partial_sum(f, x), "partial sum differs")
    tail = float(p) ** (-(len(f)) * valuation(x, p))
    require(abs(r["tail_bound"] - tail) <= 1e-12 * tail, "tail bound is not p^-(N+1) v_p(x)")
    return "ok"


def _check_gfun_derive(spec, r) -> str:
    grid = r["G"]
    g = spec["g"]
    require(grid["g"] == g and len(grid["entries"]) == g, "derived matrix has the wrong size")
    for row in grid["entries"]:
        for s in row:
            require(s["order"] == spec["order"], "derived series has the wrong order")
            require(all(c == 0 for c in _coeffs(s)), "Picard-Fuchs family does not annihilate the fixture")
    return "ok"


def _check_gfun_check(spec, r) -> str:
    rep = r["report"]
    x = Fraction(spec["x"])
    require(rep["all_ok"] is True, "period equation check failed on exact data")
    seen = set()
    for e in rep["entries"]:
        which, i, j = e["which"], e["i"], e["j"]
        seen.add((which, i, j))
        series = _coeffs(spec["series"][which][i - 1][j - 1])
        require(scalar(e["value"]) == _partial_sum(series, x), f"{which}[{i},{j}] partial sum differs")
        require(scalar(e["reference"]) == Fraction(spec["refs"][which][i - 1][j - 1]), "reference echoed wrongly")
        require(e["ok"] is True, "entry within its tail bound reported not ok")
    g = len(spec["refs"]["F"])
    require(len(seen) == 2 * g * g, "period check did not cover every entry")
    return "ok"


CHECKS = {
    "member": _check_member,
    "radical": _check_radical,
    "nonarch": _check_nonarch,
    "case3": _check_case3,
    "invert": _check_invert,
    "gb_scan": _check_gb_scan,
    "eval": _check_eval,
    "gfun_derive": _check_gfun_derive,
    "gfun_check": _check_gfun_check,
}


# ---------------------------------------------------------------------------
# Corruptions for the self-test


def _bump(x) -> object:
    """x + 1 in periodrel's scalar JSON."""
    if isinstance(x, dict):
        return {**x, "a": frac_str(Fraction(x["a"]) + 1)}
    return frac_str(Fraction(str(x)) + 1)


def _bump_live_term(poly: list, y, z) -> None:
    """Raise the coefficient of a term whose monomial is nonzero at (y, z)."""
    blocks = {"Y": y, "Z": z}
    for term, (_, mono) in zip(poly, poly_terms(poly)):
        val = Fraction(1)
        for blk, r, c, e in mono:
            val *= blocks[blk][r - 1][c - 1] ** e
        if val:
            term["coeff"] = _bump(term["coeff"])
            return
    raise WrongOutput("no term of the relation is live at the check point")


def corrupt(spec: dict, doc: dict) -> dict | None:
    """A copy of the report with one coefficient or witness entry changed, or
    None when this report has nothing the check could tell apart."""
    doc = copy.deepcopy(doc)
    r = doc["result"]
    kind = spec["type"]
    if kind == "member":
        if "witness" in r:
            r["value"] = _bump(r["value"])
        else:
            r["remainder"] = [{"coeff": "1", "monomial": []}] + r["remainder"]
    elif kind == "radical":
        r["witness"]["Z"][0][1] = _bump(r["witness"]["Z"][0][1])
    elif kind == "nonarch":
        poly = r["certificate"]["polynomial"]
        _bump_live_term(poly, _frac_matrix(spec["F"]), _frac_matrix(spec["G"]))
    elif kind == "case3":
        w = _frac_matrix(spec["w"])
        g = spec["g"]
        _bump_live_term(r["certificate"]["polynomial"], w[:g], w[g:])
    elif kind == "invert":
        r["inverse"]["coeffs"][-1] = _bump(r["inverse"]["coeffs"][-1])
    elif kind == "gb_scan":
        if r["witness"] is None:
            return None
        r["witness"][0] += 1
    elif kind == "eval":
        r["value"] = _bump(r["value"])
    elif kind == "gfun_derive":
        s = r["G"]["entries"][0][0]
        s["coeffs"][0] = _bump(s["coeffs"][0])
    elif kind == "gfun_check":
        e = r["report"]["entries"][0]
        e["value"] = _bump(e["value"])
    return doc


def rejects(spec: dict, doc: dict) -> bool:
    try:
        return _run_check(spec, doc["result"]) != "ok"
    except WrongOutput:
        return True
