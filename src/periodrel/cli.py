"""Command-line front end with JSON I/O and seeded reproducibility.

Every invocation emits a report whose manifest records the command, the
arguments, the seed, the package version, and SHA-256 digests of all input
files, so that identical seeds and inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .gfun import GaussManinCoefficients, GFunMatrix, check_period_equation, compute_radii, derive_G
from .polyalg import MONOMIAL_ORDER, MultiPoly, ResourceCapExceeded, poly_matrix_from_json
from .relations import (
    Case3Input,
    EndomorphismAction,
    RelationError,
    SyntheticPeriodData,
    build_case3_relation,
    build_nonarch_certificate,
    random_case3_input,
    verify_relation_on_data,
)
from .scalars import DecodeError, Place, ScalarError, json_list, scalar_from_json, scalar_to_json
from .series import (
    TruncatedSeries,
    compositional_inverse,
    eval_with_tail_bound,
    globally_bounded_scan,
    radius_lower_bound,
)
from .symplectic import project_to_V, sample_symplectic, with_multiplier
from .trivial_ideal import generators, membership, radicality_certificate, witness_to_json


class ComputationFailed(RuntimeError):
    def __init__(self, message: str, **extra):
        super().__init__(message)
        self.extra = extra


class UsageError(Exception):
    """An out-of-range argument: exit 2 with error JSON.  Not a ValueError,
    which argparse would turn into a usage message on stderr."""


def _at_least(flag: str, low: int):
    """An argparse type: an int >= low, else a UsageError naming the flag."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise UsageError(f"{flag} must be >= {low}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its own errors
    return parse


def _multiplier(text: str) -> Fraction:
    try:
        mu = Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"--mu has a zero denominator: {text}")
    if mu == 0:
        raise UsageError("--mu must be nonzero")
    return mu


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--mu -7/5`` as ``--mu=-7/5``: argparse reads a value that starts with
    ``-`` as an option unless it is a plain negative number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _check_genus(poly: MultiPoly, g: int, path: str) -> None:
    """Reject a variable that is not Y[i,j] or Z[i,j] with i, j <= g."""
    for v in sorted(poly.variables()):
        if v.block not in ("Y", "Z") or v.copy != 1 or max(v.row, v.col) > g:
            raise DecodeError(f"{path}: {v} is not a variable of genus {g}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str, digests: dict) -> object:
    try:
        digests[path] = _digest(path)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ComputationFailed(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ComputationFailed(f"invalid JSON in {path}: {exc}")


def _json_list_arg(text: str, flag: str) -> list:
    """The JSON list given as an argument's text."""
    try:
        return json_list(json.loads(text), flag)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"{flag}: invalid JSON: {exc}")


def _summarise(report: dict) -> str:
    for key in ("verdict", "status", "vanishes", "all_ok"):
        if key in report:
            return f"{key}={report[key]}"
        for sub in report.values():
            if isinstance(sub, dict) and key in sub:
                return f"{key}={sub[key]}"
    return "success"


def _parse_place(text: str) -> Place:
    if text in ("arch", "inf"):
        return Place.arch()
    if text.startswith("arch/"):
        return Place.arch(text.split("/", 1)[1])
    try:
        obj = json.loads(text)
        if isinstance(obj, dict):
            return Place.from_json(obj)
    except (json.JSONDecodeError, DecodeError):
        pass
    try:
        return Place.finite(int(text))
    except (ValueError, ScalarError):
        raise ComputationFailed(f"cannot parse place {text!r}")


def _emit(args, report: dict, digests: dict) -> None:
    manifest = {
        "command": report.pop("_command"),
        "arguments": report.pop("_arguments"),
        "seed": getattr(args, "seed", None),
        "versions": {"periodrel": __version__, "report_format": 1},
        "input_digests": digests,
        "outcome": _summarise(report),
    }
    doc = {"manifest": manifest, "result": report}
    text = json.dumps(doc, sort_keys=True, indent=2 if args.pretty else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)


# ---------------------------------------------------------------------------
# series subcommands


def cmd_series_invert(args, digests):
    f = TruncatedSeries.from_json(_load_json(args.series, digests))
    if args.order is not None:
        f = f.truncate(args.order)
    try:
        g = compositional_inverse(f)
    except ValueError as exc:
        raise ComputationFailed(str(exc))
    return {"inverse": g.to_json(), "order": g.order}


def cmd_series_radius(args, digests):
    f = TruncatedSeries.from_json(_load_json(args.series, digests))
    v = _parse_place(args.place)
    rep = radius_lower_bound(f, v, integral_coefficients=args.integral)
    return {
        "place": v.to_json(),
        "lower_bound": rep.lower_bound,
        "certified": rep.certified,
    }


def cmd_series_gb_scan(args, digests):
    f = TruncatedSeries.from_json(_load_json(args.series, digests))
    rep = globally_bounded_scan(f, args.prime_bound)
    return {
        "verdict": rep.verdict,
        "bad_primes": list(rep.bad_primes),
        "positive_radius_everywhere": rep.positive_radius_everywhere,
        "witness": list(rep.witness) if rep.witness else None,
    }


def cmd_series_eval(args, digests):
    f = TruncatedSeries.from_json(_load_json(args.series, digests))
    v = _parse_place(args.place)
    x = scalar_from_json(args.x, "--x")
    try:
        res = eval_with_tail_bound(f, x, v, integral_tail=args.integral_tail)
    except ScalarError as exc:
        raise ComputationFailed(str(exc))
    except OverflowError:
        raise ComputationFailed(f"evaluation at x = {args.x} overflows a float")
    value = res.value if isinstance(res.value, float) else scalar_to_json(res.value)
    return {"value": value, "tail_bound": res.tail_bound, "heuristic": res.heuristic}


# ---------------------------------------------------------------------------
# symplectic subcommand


def cmd_symplectic_sample(args, digests):
    s = sample_symplectic(args.g, args.seed, args.word_length)
    if args.mu != Fraction(1):
        s = with_multiplier(s, args.mu)
    frame = project_to_V(s)
    return {
        "sample": s.to_json(),
        "verified": s.verify(),
        "frame_isotropic": frame.verify(),
    }


# ---------------------------------------------------------------------------
# ideal subcommands


def cmd_ideal_gens(args, digests):
    ideal = generators(args.g)
    return {
        "g": args.g,
        "count": ideal.generator_count,
        "monomial_order": MONOMIAL_ORDER,
        "generators": [
            {"i": i, "j": j, "poly": ideal.generator(i, j).to_json()}
            for i, j in ideal.pairs()
        ],
    }


def cmd_ideal_radical(args, digests):
    cert = radicality_certificate(generators(args.g), seed=args.seed)
    return {
        "g": args.g,
        "generator_count": cert.generator_count,
        "rank": cert.rank,
        "verdict": cert.verdict,
        "witness": witness_to_json(cert.witness),
        "witness_on_variety": cert.witness_on_variety,
        "note": "irreducibility of the variety is assumed, not certified",
    }


def cmd_ideal_member(args, digests):
    poly = MultiPoly.from_json(_load_json(args.poly, digests))
    _check_genus(poly, args.g, "poly")
    ideal = generators(args.g)
    verdict = membership(poly, ideal, sample_budget=args.budget, seed=args.seed)
    out = {
        "status": verdict.status,
        "evidence": verdict.evidence_kind,
        "samples_tested": verdict.samples_tested,
    }
    if verdict.witness is not None:
        out["witness"] = witness_to_json(verdict.witness)
        out["value"] = scalar_to_json(verdict.value)
    if verdict.remainder is not None:
        out["remainder"] = verdict.remainder.to_json()
    if verdict.detail:
        out["detail"] = verdict.detail
    return out


# ---------------------------------------------------------------------------
# relation subcommands


def cmd_relation_build_nonarch(args, digests):
    act = EndomorphismAction.from_json(_load_json(args.act, digests))
    try:
        cert = build_nonarch_certificate(act, seed=args.seed)
    except RelationError as exc:
        raise ComputationFailed(str(exc))
    return {"certificate": cert.to_json()}


def cmd_relation_verify(args, digests):
    rel = poly_matrix_from_json(_load_json(args.rel, digests))
    data = SyntheticPeriodData.from_json(_load_json(args.data, digests))
    for i, row in enumerate(rel):
        for j, e in enumerate(row):
            _check_genus(e, data.g, f"entries[{i}][{j}]")
    ok = verify_relation_on_data(rel, data)
    return {"vanishes": ok}


def cmd_relation_case3(args, digests):
    if args.input:
        inp = Case3Input.from_json(_load_json(args.input, digests))
    else:
        if args.g % 2 != 0 or args.g <= 2:
            raise ComputationFailed("Case 3 construction requires even g > 2")
        inp = random_case3_input(args.g, args.seed)
    try:
        cert = build_case3_relation(inp)
    except (RelationError, ScalarError) as exc:
        raise ComputationFailed(str(exc))
    return {"certificate": cert.to_json()}


# ---------------------------------------------------------------------------
# gfun subcommands


def cmd_gfun_derive(args, digests):
    f = GFunMatrix.from_json(_load_json(args.F, digests))
    a = GaussManinCoefficients.from_json(_load_json(args.a, digests))
    try:
        g = derive_G(f, a)
    except ValueError as exc:
        raise ComputationFailed(str(exc))
    return {"G": g.to_json()}


def cmd_gfun_radii(args, digests):
    GFunMatrix.from_json(_load_json(args.F, digests))  # validated and digested; radii need only a
    a = GaussManinCoefficients.from_json(_load_json(args.a, digests))
    excluded = _json_list_arg(args.excluded, "--excluded")
    places = _json_list_arg(args.places, "--places")
    excluded = [scalar_from_json(x, f"--excluded[{i}]") for i, x in enumerate(excluded)]
    places = [Place.from_json(p, f"--places[{i}]") for i, p in enumerate(places)]
    radii = compute_radii(a, excluded, places)
    return {"radii": radii.to_json()}


def cmd_gfun_check(args, digests):
    f = GFunMatrix.from_json(_load_json(args.F, digests))
    g = GFunMatrix.from_json(_load_json(args.G, digests))
    data = SyntheticPeriodData.from_json(_load_json(args.data, digests))
    v = _parse_place(args.place)
    x = scalar_from_json(args.x, "--x")
    try:
        report = check_period_equation(f, g, data.F, data.G, x, v, tolerance=args.tolerance)
    except ScalarError as exc:
        raise ComputationFailed(str(exc))
    return {"report": report.to_json()}


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="periodrel",
        description="exact period-relation certificates, trivial-relation ideal checks, and places-aware series",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")
    common.add_argument("--out", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, **kw):
        return group.add_parser(name, parents=[common], **kw)

    p_series = sub.add_parser("series", help="truncated power series tools")
    s_sub = p_series.add_subparsers(dest="subcommand", required=True)
    p = leaf(s_sub, "invert", help="compositional inverse")
    p.add_argument("--series", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_series_invert)
    p = leaf(s_sub, "radius", help="per-place radius lower bound")
    p.add_argument("--series", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--integral", action="store_true", help="assert integer coefficients structurally")
    p.set_defaults(func=cmd_series_radius)
    p = leaf(s_sub, "gb-scan", help="globally-bounded denominator scan")
    p.add_argument("--series", required=True)
    p.add_argument("--prime-bound", type=_at_least("--prime-bound", 2), default=50)
    p.set_defaults(func=cmd_series_gb_scan)
    p = leaf(s_sub, "eval", help="evaluate with a tail bound")
    p.add_argument("--series", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--integral-tail", action="store_true")
    p.set_defaults(func=cmd_series_eval)

    p_sym = sub.add_parser("symplectic", help="exact similitude sampling")
    y_sub = p_sym.add_subparsers(dest="subcommand", required=True)
    p = leaf(y_sub, "sample")
    p.add_argument("--g", type=_at_least("--g", 1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=_multiplier, default=Fraction(1))
    p.add_argument("--word-length", type=int, default=8)
    p.set_defaults(func=cmd_symplectic_sample)

    p_ideal = sub.add_parser("ideal", help="trivial-relations ideal")
    i_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p = leaf(i_sub, "gens")
    p.add_argument("--g", type=_at_least("--g", 1), required=True)
    p.set_defaults(func=cmd_ideal_gens)
    p = leaf(i_sub, "radical")
    p.add_argument("--g", type=_at_least("--g", 1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ideal_radical)
    p = leaf(i_sub, "member")
    p.add_argument("--poly", required=True)
    p.add_argument("--g", type=_at_least("--g", 1), required=True)
    p.add_argument("--budget", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ideal_member)

    p_rel = sub.add_parser("relation", help="period-relation certificates")
    r_sub = p_rel.add_subparsers(dest="subcommand", required=True)
    p = leaf(r_sub, "build-nonarch")
    p.add_argument("--act", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_relation_build_nonarch)
    p = leaf(r_sub, "verify")
    p.add_argument("--rel", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_relation_verify)
    p = leaf(r_sub, "case3")
    p.add_argument("--g", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None, help="explicit Case3 input JSON")
    p.set_defaults(func=cmd_relation_case3)

    p_gfun = sub.add_parser("gfun", help="period series pipeline")
    g_sub = p_gfun.add_subparsers(dest="subcommand", required=True)
    p = leaf(g_sub, "derive")
    p.add_argument("--F", required=True)
    p.add_argument("--a", required=True)
    p.set_defaults(func=cmd_gfun_derive)
    p = leaf(g_sub, "radii")
    p.add_argument("--F", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--places", required=True, help="JSON list of places")
    p.add_argument("--excluded", default="[]", help="JSON list of excluded scalar values")
    p.set_defaults(func=cmd_gfun_radii)
    p = leaf(g_sub, "check")
    p.add_argument("--F", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--tolerance", type=float, default=0.0)
    p.set_defaults(func=cmd_gfun_check)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    digests: dict[str, str] = {}
    try:
        report = args.func(args, digests)
    except DecodeError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    except ComputationFailed as exc:
        err = {"error": str(exc), **exc.extra}
        print(json.dumps(err, sort_keys=True))
        return 1
    except ResourceCapExceeded as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1
    report["_command"] = f"{args.command} {getattr(args, 'subcommand', '')}".strip()
    report["_arguments"] = list(argv)
    _emit(args, report, digests)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
