"""Series pipeline for period matrices: derived series and per-place radii.

The inputs are a g x g matrix of truncated series (the primary period
series) and a family of coefficient series a[i][k][l] expressing the
secondary classes through derivatives of the primary ones.  The module is
geometry-free: both arrive as data (synthetic or oracle-generated), and the
content here is the exact series algebra and the honest radius bookkeeping.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .scalars import (
    DecodeError,
    Frozen,
    Place,
    Scalar,
    ScalarError,
    abs_at_place,
    arch_value,
    json_field,
    json_int,
    json_list,
    scalar_to_json,
    valuation,
)
from .series import (
    EvalResult,
    TruncatedSeries,
    _kparts,
    _matmul_trunc,
    eval_with_tail_bound,
    radius_lower_bound,
    series_field,
)


def _json_bool(x, path: str) -> bool:
    """An integrality flag, which only a JSON ``true`` or ``false`` sets."""
    if not isinstance(x, bool):
        raise DecodeError(f"{path}: expected a bool")
    return x


class GFunMatrix(Frozen):
    """A g x g grid of TruncatedSeries of one order; ``integral`` asserts per
    entry that all coefficients (tail included) lie in Z, a bool for all."""

    __slots__ = ("g", "entries", "integral")

    def __init__(self, g: int, entries: tuple, integral: tuple | bool = False) -> None:
        if len(entries) != g or any(len(r) != g for r in entries):
            raise ValueError(f"need a {g}x{g} grid of series")
        orders = {s.order for row in entries for s in row}
        if len(orders) > 1:
            raise ValueError("entries must share one truncation order")
        if isinstance(integral, bool):
            flags = tuple((integral,) * g for _ in range(g))
        else:
            flags = tuple(tuple(bool(x) for x in row) for row in integral)
        if len(flags) != g or any(len(r) != g for r in flags):
            raise ValueError("integrality flags must match the grid")
        self._set(g, entries, flags)
        for i in range(g):
            for j in range(g):
                if flags[i][j] and not entries[i][j].is_integral():
                    raise ScalarError("integrality asserted but computed coefficients are not integers")

    @property
    def order(self) -> int:
        return self.entries[0][0].order

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "integral": [list(row) for row in self.integral],
            "entries": [[s.to_json() for s in row] for row in self.entries],
        }

    @staticmethod
    def from_json(obj: dict) -> "GFunMatrix":
        g = json_int(obj, "g", low=1)
        flags = obj.get("integral", False)
        if isinstance(flags, list):
            flags = tuple(
                tuple(_json_bool(x, f"integral[{i}][{j}]")
                      for j, x in enumerate(json_list(row, f"integral[{i}]", g)))
                for i, row in enumerate(json_list(flags, "integral", g))
            )
        elif not isinstance(flags, bool):
            raise DecodeError("integral: expected a bool or a list")
        entries = tuple(
            tuple(
                TruncatedSeries.from_json(s, f"entries[{i}][{j}]")
                for j, s in enumerate(json_list(row, f"entries[{i}]", g))
            )
            for i, row in enumerate(json_list(json_field(obj, "entries"), "entries", g))
        )
        try:
            return GFunMatrix(g, entries, flags)
        except ValueError as exc:  # mixed truncation orders, or integrality that fails
            raise DecodeError(f"entries: {exc}")


class GaussManinCoefficients(Frozen):
    """Coefficient family a[i][k][l], 1-based i, l in 1..g and k in 0..N:
    ``series[i-1][k][l-1]``, N = ``deriv_order``."""

    __slots__ = ("g", "deriv_order", "series", "integral")

    def __init__(self, g: int, deriv_order: int, series: tuple, integral: bool = False) -> None:
        if len(series) != g:
            raise ValueError("first index must run over 1..g")
        for block in series:
            if len(block) != deriv_order + 1:
                raise ValueError("second index must run over 0..N")
            for row in block:
                if len(row) != g:
                    raise ValueError("third index must run over 1..g")
        self._set(g, deriv_order, series, integral)

    def a(self, i: int, k: int, l: int) -> TruncatedSeries:
        return self.series[i - 1][k][l - 1]

    def all_series(self):
        for block in self.series:
            for row in block:
                yield from row

    @staticmethod
    def from_json(obj: dict) -> "GaussManinCoefficients":
        g = json_int(obj, "g", low=1)
        n = json_int(obj, "N", low=0)
        return GaussManinCoefficients(
            g,
            n,
            tuple(
                tuple(
                    tuple(
                        TruncatedSeries.from_json(s, f"a[{i}][{k}][{l}]")
                        for l, s in enumerate(json_list(row, f"a[{i}][{k}]", g))
                    )
                    for k, row in enumerate(json_list(block, f"a[{i}]", n + 1))
                )
                for i, block in enumerate(json_list(json_field(obj, "a"), "a", g))
            ),
            _json_bool(obj.get("integral", False), "integral"),
        )


def derive_G(f: GFunMatrix, a: GaussManinCoefficients) -> GFunMatrix:
    """G[i][j] = sum_k sum_l a[i][k][l] * d^k/dX^k F[l][j].

    Differentiating k <= N times costs N orders of truncation; the result
    carries order min(F.order - N, a-order).

    G = A R, where A[i][(k, l)] = a[i][k][l] and R[(k, l)][j] = d^k F[l][j],
    over the field of :func:`series.series_field`, found before any work.
    Row i of A is brought to P_i + Q_i sqrt(d) over L_i, the lcm of its
    series' denominators, and column j of R to P'_j + Q'_j sqrt(d) over L'_j,
    so L_i L'_j G[i][j] is read off one product of integer series matrices:
    rows [P_i, d Q_i] and [Q_i, P_i] times the column [P'_j; Q'_j] (over Q,
    P_i times P'_j).  The k-th derivative's numerators are (t+1)..(t+k) times
    those of F.
    """
    if f.g != a.g:
        raise ValueError("dimension mismatch between series matrix and coefficients")
    n = a.deriv_order
    if f.order < n:
        raise ValueError("insufficient precision: truncation order below derivative order")
    out_order = min(f.order - n, min(s.order for s in a.all_series()))
    d = series_field([s for row in f.entries for s in row] + list(a.all_series()))
    g, m, width = f.g, out_order + 1, 1 if d is None else 2
    right = [[None] * g for _ in range(width * (n + 1) * g)]  # rows (part, k, l)
    col_dens = []
    for j in range(g):
        parts, den = _common([row[j] for row in f.entries], d, m + n)
        col_dens.append(den)
        for h, part in enumerate(parts):
            for l, s in enumerate(part):
                for k in range(n + 1):
                    right[(h * (n + 1) + k) * g + l][j] = s[:m]
                    s = [(t + 1) * x for t, x in enumerate(s[1:])]
    left, row_dens = [], []
    for i in range(1, g + 1):
        parts, den = _common([a.a(i, k, l) for k in range(n + 1) for l in range(1, g + 1)], d, m)
        row_dens.append(den)
        if d is None:
            left += parts
        else:
            p, q = parts
            left += [p + [[d * x for x in s] for s in q], q + p]
    prod = _matmul_trunc(left, right, m)
    out = []
    for i, rden in enumerate(row_dens):
        rows = prod[width * i : width * i + width]  # the rational part, then the sqrt(d) part
        out.append([TruncatedSeries._over(out_order, d, [r[j] for r in rows], [rden * cden] * m)
                    for j, cden in enumerate(col_dens)])
    return GFunMatrix(g, tuple(map(tuple, out)))


def _common(series, d: int | None, m: int) -> tuple[list, int]:
    """The parts (P,) or (P, Q) of the series, P and Q their rows of m
    numerators over one denominator, the lcm of theirs, and that lcm."""
    den = math.lcm(*[s.den for s in series])
    rows = [[[x * (den // s.den) for x in part[:m]] for part in _kparts(s, d)] for s in series]
    return [list(part) for part in zip(*rows)], den


# ---------------------------------------------------------------------------
# Radii


class PlaceRadii(NamedTuple):
    radii: tuple  # tuple of (Place, float, certified)

    def to_json(self) -> list:
        return [
            {"place": p.to_json(), "r": r, "certified": c} for p, r, c in self.radii
        ]


def compute_radii(
    a: GaussManinCoefficients,
    excluded_values: Sequence[Scalar],
    places: Sequence[Place],
) -> PlaceRadii:
    """Per-place radius r_v = min(1, coefficient-series radii, |x|_v of the
    excluded values); certified only when every contributing bound is.

    The radius never exceeds 1 and only shrinks as inputs are added.
    """
    out = []
    for v in places:
        candidates: list[tuple[float, bool]] = [(1.0, True)]
        for s in a.all_series():
            rep = radius_lower_bound(s, v, integral_coefficients=a.integral and v.is_finite())
            candidates.append((rep.lower_bound, rep.certified))
        for x in excluded_values:
            if x == 0:
                continue
            # exact absolute values of explicit algebraic numbers count as certified
            candidates.append((abs_at_place(x, v), v.is_finite()))
        r = min(c[0] for c in candidates)
        if r <= 0:  # only a nonzero excluded |x|_v below a double's range gives 0.0
            raise ValueError(f"the radius at {v} underflows a float")
        certified = all(c[1] for c in candidates)
        out.append((v, r, certified))
    return PlaceRadii(tuple(out))


# ---------------------------------------------------------------------------
# Period-equation check


class EntryCheck(NamedTuple):
    i: int
    j: int
    which: str  # "F" | "G"
    value: Scalar | float
    reference: Scalar | float
    discrepancy: float
    tail_bound: float
    ok: bool


class PeriodCheckReport(NamedTuple):
    entries: tuple
    all_ok: bool

    def to_json(self) -> dict:
        def enc(x):
            return x if isinstance(x, float) else scalar_to_json(x)

        return {
            "all_ok": self.all_ok,
            "entries": [
                {
                    "i": e.i,
                    "j": e.j,
                    "which": e.which,
                    "value": enc(e.value),
                    "reference": enc(e.reference),
                    "discrepancy": e.discrepancy,
                    "tail_bound": e.tail_bound,
                    "ok": e.ok,
                }
                for e in self.entries
            ],
        }


def check_period_equation(
    f: GFunMatrix,
    g: GFunMatrix,
    ref_f,
    ref_g,
    x_value: Scalar,
    v: Place,
    tolerance: float = 0.0,
) -> PeriodCheckReport:
    """Evaluate both series matrices at x and compare against reference
    period matrices entrywise; each discrepancy is held against the tail
    bound plus the caller's tolerance."""
    if not f.g == g.g == len(ref_f) == len(ref_g):
        raise ValueError("dimension mismatch between series matrices and period data")
    checks = []
    for which, mat, ref in (("F", f, ref_f), ("G", g, ref_g)):
        for i in range(mat.g):
            for j in range(mat.g):
                try:
                    res: EvalResult = eval_with_tail_bound(
                        mat.entries[i][j], x_value, v,
                        integral_tail=mat.integral[i][j] and v.is_finite(),
                    )
                    disc = _discrepancy(res.value, ref[i][j], v)
                except OverflowError:
                    raise ScalarError(f"{which}[{i + 1}][{j + 1}]: its value or reference overflows a float")
                if res.tail_valuation is not None and not isinstance(res.value, float):
                    # exact comparison in valuation space, no float boundary
                    diff = res.value - ref[i][j]
                    ok = diff == 0 or valuation(diff, v.p) >= res.tail_valuation
                    if tolerance > 0:
                        ok = ok or disc <= res.tail_bound + tolerance
                else:
                    ok = disc <= res.tail_bound + tolerance
                checks.append(
                    EntryCheck(i + 1, j + 1, which, res.value, ref[i][j], disc, res.tail_bound, ok)
                )
    return PeriodCheckReport(tuple(checks), all(c.ok for c in checks))


def _discrepancy(value, reference, v: Place) -> float:
    if v.is_finite():
        return abs_at_place(value - reference, v)  # a ScalarError unless rational-valued
    value, reference = (x if isinstance(x, float) else arch_value(x, v) for x in (value, reference))
    return abs(value - reference)
