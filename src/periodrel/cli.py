"""Command-line front end with JSON I/O and seeded reproducibility.

Every invocation emits a report whose manifest records the command, the
arguments, the seed, the package version, and SHA-256 digests of all input
files, so that identical seeds and inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

try:  # CPython's built-in SHA-256 (to 3.11): hashlib loads OpenSSL, 3.6 MB resident
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .gfun import GaussManinCoefficients, GFunMatrix, check_period_equation, compute_radii, derive_G
from .polyalg import MONOMIAL_ORDER, MultiPoly, ResourceCapExceeded, poly_matrix_from_json
from .relations import (
    Case3Input,
    EndomorphismAction,
    SyntheticPeriodData,
    build_case3_relation,
    build_nonarch_certificate,
    random_case3_input,
    verify_relation_on_data,
)
from .scalars import TRIAL_DIVISION_CAP, DecodeError, Place, json_list, scalar_from_json, scalar_to_json
from .series import (
    TruncatedSeries,
    compositional_inverse,
    eval_with_tail_bound,
    globally_bounded_scan,
    radius_lower_bound,
)
from .symplectic import sample_symplectic, with_multiplier
from .trivial_ideal import generators, membership, radicality_certificate, witness_to_json


class ComputationFailed(RuntimeError):
    """A computation that cannot finish on its input: exit 1 with error JSON."""


class UsageError(Exception):
    """An out-of-range argument: exit 2 with error JSON.  Not a ValueError,
    which argparse would turn into a usage message on stderr."""


GENUS_CAP = 32  # every --g flag: past it, ideal gens and radical take seconds and hundreds of MB


def _int_in(flag: str, low: int | None = None, high: int | None = None):
    """An argparse type: an int in [low, high], either end open when None,
    else a UsageError naming the flag."""

    def parse(text: str) -> int:
        n = int(text)
        if low is not None and n < low:
            raise UsageError(f"{flag} must be >= {low}, got {n}")
        if high is not None and n > high:
            raise UsageError(f"{flag} must be <= {high}, got {n}")
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


def _parse_json(text: str, where: str) -> object:
    """json.loads, with a number literal past the int-string digit limit as
    a DecodeError naming where it was read.  JSONDecodeError passes through;
    the digit limit is the one other ValueError that json.loads raises."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise DecodeError(f"{where}: a number past the limit of {sys.get_int_max_str_digits()} digits")


def _load_json(path: str, digests: dict) -> object:
    """The file's JSON, read once: its bytes are digested, then decoded as
    UTF-8 and parsed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ComputationFailed(f"cannot read {path}: {exc}")
    digests[path] = sha256(raw).hexdigest()
    try:
        return _parse_json(raw.decode("utf-8"), path)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ComputationFailed(f"invalid JSON in {path}: {exc}")


def _json_list_arg(text: str, flag: str) -> list:
    """The JSON list given as an argument's text."""
    try:
        return json_list(_parse_json(text, flag), flag)
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
    """``arch``, ``inf``, ``arch/<embedding>``, a place's JSON object or a prime."""
    try:
        if text in ("arch", "inf"):
            return Place.arch()
        if text.startswith("arch/"):
            return Place.arch(text.split("/", 1)[1])
        if text.lstrip().startswith("{"):
            return Place.from_json(json.loads(text))
        return Place.finite(int(text))
    except ValueError:  # JSON, DecodeError, ScalarError or int()
        raise ComputationFailed(f"cannot parse place {text!r}")


def _emit(args, argv: list[str], report: dict, digests: dict) -> None:
    manifest = {
        "command": f"{args.command} {getattr(args, 'subcommand', '')}".strip(),
        "arguments": list(argv),
        "seed": getattr(args, "seed", None),
        "versions": {"periodrel": __version__, "report_format": 1},
        "input_digests": digests,
        "outcome": _summarise(report),
    }
    doc = {"manifest": manifest, "result": report}
    text = json.dumps(doc, sort_keys=True, indent=2 if args.pretty else None)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ComputationFailed(f"cannot write {args.out}: {exc}")
        print(f"report written to {args.out}")
    else:
        print(text)


# ---------------------------------------------------------------------------
# series subcommands


def cmd_series_invert(args, digests):
    f = TruncatedSeries.from_json(_load_json(args.series, digests))
    if args.order is not None:
        f = f.truncate(args.order)
    g = compositional_inverse(f)
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
    # a sample is checked to satisfy M^t J M = mu J when it is built, and the
    # top-left block of that identity is the isotropy of its first g columns
    return {"sample": s.to_json(), "verified": True, "frame_isotropic": True}


# ---------------------------------------------------------------------------
# ideal subcommands


def cmd_ideal_gens(args, digests):
    ideal = generators(args.g)
    return {
        "g": args.g,
        "count": ideal.generator_count,
        "monomial_order": MONOMIAL_ORDER,
        "generators": [
            {"i": i, "j": j, "poly": f.to_json()} for (i, j), f in zip(ideal.pairs(), ideal.generators)
        ],
    }


def cmd_ideal_radical(args, digests):
    cert = radicality_certificate(generators(args.g))
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
    return membership(poly, generators(args.g), sample_budget=args.budget, seed=args.seed).to_json()


# ---------------------------------------------------------------------------
# relation subcommands


def cmd_relation_build_nonarch(args, digests):
    act = EndomorphismAction.from_json(_load_json(args.act, digests))
    cert = build_nonarch_certificate(act, seed=args.seed)
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
    cert = build_case3_relation(inp)
    return {"certificate": cert.to_json()}


# ---------------------------------------------------------------------------
# gfun subcommands


def cmd_gfun_derive(args, digests):
    f = GFunMatrix.from_json(_load_json(args.F, digests))
    a = GaussManinCoefficients.from_json(_load_json(args.a, digests))
    g = derive_G(f, a)
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
    report = check_period_equation(f, g, data.F, data.G, x, v, tolerance=args.tolerance)
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
    p.add_argument("--order", type=_int_in("--order", 0), default=None)
    p.set_defaults(func=cmd_series_invert)
    p = leaf(s_sub, "radius", help="per-place radius lower bound")
    p.add_argument("--series", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--integral", action="store_true", help="assert integer coefficients structurally")
    p.set_defaults(func=cmd_series_radius)
    p = leaf(s_sub, "gb-scan", help="globally-bounded denominator scan")
    p.add_argument("--series", required=True)
    p.add_argument("--prime-bound", type=_int_in("--prime-bound", 2, TRIAL_DIVISION_CAP - 1), default=50)
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
    p.add_argument("--g", type=_int_in("--g", 1, GENUS_CAP), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=_multiplier, default=Fraction(1))
    p.add_argument("--word-length", type=_int_in("--word-length", 0), default=8)
    p.set_defaults(func=cmd_symplectic_sample)

    p_ideal = sub.add_parser("ideal", help="trivial-relations ideal")
    i_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p = leaf(i_sub, "gens")
    p.add_argument("--g", type=_int_in("--g", 1, GENUS_CAP), required=True)
    p.set_defaults(func=cmd_ideal_gens)
    p = leaf(i_sub, "radical")
    p.add_argument("--g", type=_int_in("--g", 1, GENUS_CAP), required=True)
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest; the certificate draws nothing")
    p.set_defaults(func=cmd_ideal_radical)
    p = leaf(i_sub, "member")
    p.add_argument("--poly", required=True)
    p.add_argument("--g", type=_int_in("--g", 1, GENUS_CAP), required=True)
    p.add_argument("--budget", type=_int_in("--budget", 0), default=25)
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
    p.add_argument("--g", type=_int_in("--g", high=GENUS_CAP), default=4)
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
    """Run one command and return its exit code; the one place that maps an
    exception to an exit code.  Bad input exits 2 and a computation that
    cannot finish exits 1, each printing one ``{"error": ...}`` on stdout.
    DecodeError is a ValueError, so its clause comes first.  A failed
    self-check (AssertionError) is not caught, and argparse's own usage
    errors exit 2 through SystemExit."""
    digests: dict[str, str] = {}
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
        _emit(args, argv, args.func(args, digests), digests)
    except (DecodeError, UsageError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    except (ComputationFailed, ResourceCapExceeded, ValueError) as exc:  # ScalarError, RelationError
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
