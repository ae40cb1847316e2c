"""Series pipeline for period matrices: derived series and per-place radii.

The inputs are a g x g matrix of truncated series (the primary period
series) and a family of coefficient series a[i][k][l] expressing the
secondary classes through derivatives of the primary ones.  The module is
geometry-free: both arrive as data (synthetic or oracle-generated), and the
content here is the exact series algebra and the honest radius bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import (
    DecodeError,
    Place,
    Scalar,
    ScalarError,
    abs_at_place,
    arch_value,
    cleared,
    json_field,
    json_int,
    json_list,
    quadratic_field,
    scalar_to_json,
    uncleared,
    valuation,
)
from .series import (
    EvalResult,
    TruncatedSeries,
    _matmul_trunc,
    eval_with_tail_bound,
    radius_lower_bound,
)


def _json_bool(x, path: str) -> bool:
    """An integrality flag, which only a JSON ``true`` or ``false`` sets."""
    if not isinstance(x, bool):
        raise DecodeError(f"{path}: expected a bool")
    return x


@dataclass(frozen=True)
class GFunMatrix:
    g: int
    entries: tuple  # g x g of TruncatedSeries, uniform truncation order
    # per-entry structural assertion that all coefficients (tail included)
    # lie in Z; a plain bool broadcasts to the whole grid
    integral: tuple | bool = False

    def __post_init__(self) -> None:
        if len(self.entries) != self.g or any(len(r) != self.g for r in self.entries):
            raise ValueError(f"need a {self.g}x{self.g} grid of series")
        orders = {s.order for row in self.entries for s in row}
        if len(orders) > 1:
            raise ValueError("entries must share one truncation order")
        flags = self.integral
        if isinstance(flags, bool):
            flags = tuple((flags,) * self.g for _ in range(self.g))
        else:
            flags = tuple(tuple(bool(x) for x in row) for row in flags)
        if len(flags) != self.g or any(len(r) != self.g for r in flags):
            raise ValueError("integrality flags must match the grid")
        object.__setattr__(self, "integral", flags)
        for i in range(self.g):
            for j in range(self.g):
                if flags[i][j] and not self.entries[i][j].is_integral():
                    raise ScalarError("integrality asserted but computed coefficients are not integers")

    @property
    def order(self) -> int:
        return self.entries[0][0].order

    def integral_at(self, i: int, j: int) -> bool:
        return self.integral[i][j]

    @staticmethod
    def from_series(
        g: int, grid: Sequence[Sequence[TruncatedSeries]], integral: tuple | bool = False
    ) -> "GFunMatrix":
        return GFunMatrix(g, tuple(tuple(row) for row in grid), integral)

    def __add__(self, other: "GFunMatrix") -> "GFunMatrix":
        if self.g != other.g:
            raise ValueError("dimension mismatch")
        flags = tuple(
            tuple(a and b for a, b in zip(ra, rb))
            for ra, rb in zip(self.integral, other.integral)
        )
        return GFunMatrix(
            self.g,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            flags,
        )

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


@dataclass(frozen=True)
class GaussManinCoefficients:
    """Coefficient family a[i][k][l], 1-based i, l in 1..g and k in 0..N."""

    g: int
    deriv_order: int
    series: tuple  # series[i-1][k][l-1]
    integral: bool = False

    def __post_init__(self) -> None:
        if len(self.series) != self.g:
            raise ValueError("first index must run over 1..g")
        for block in self.series:
            if len(block) != self.deriv_order + 1:
                raise ValueError("second index must run over 0..N")
            for row in block:
                if len(row) != self.g:
                    raise ValueError("third index must run over 1..g")

    def a(self, i: int, k: int, l: int) -> TruncatedSeries:
        return self.series[i - 1][k][l - 1]

    def all_series(self):
        for block in self.series:
            for row in block:
                yield from row

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "N": self.deriv_order,
            "integral": self.integral,
            "a": [
                [[s.to_json() for s in row] for row in block] for block in self.series
            ],
        }

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
    over Q or the one Q(sqrt d) of :func:`quadratic_field`; coefficients from
    two quadratic fields raise ScalarError before any work.  Row i of A is
    cleared to P_i + Q_i sqrt(d) over one denominator L_i and column j of R
    to P'_j + Q'_j sqrt(d) over L'_j, so L_i L'_j G[i][j] is read off one
    product of integer series matrices: rows [P_i, d Q_i] and [Q_i, P_i]
    times the column [P'_j; Q'_j] (over Q, P_i times P'_j).  Each
    coefficient becomes a scalar once.  Over one denominator the k-th
    derivative's numerators are (t+1)..(t+k) times those of F.
    """
    if f.g != a.g:
        raise ValueError("dimension mismatch between series matrix and coefficients")
    n = a.deriv_order
    if f.order < n:
        raise ValueError("insufficient precision: truncation order below derivative order")
    out_order = min(f.order - n, min(s.order for s in a.all_series()))
    inputs = [s for row in f.entries for s in row] + list(a.all_series())
    d = quadratic_field(c for s in inputs for c in s.coeffs)
    g, m, width = f.g, out_order + 1, 1 if d is None else 2
    right = [[None] * g for _ in range(width * (n + 1) * g)]  # rows (part, k, l)
    col_dens = []
    for j in range(g):
        parts, den = cleared([row[j].coeffs[: m + n] for row in f.entries], d)
        col_dens.append(den)
        for h, part in enumerate(parts):
            for l, s in enumerate(part):
                for k in range(n + 1):
                    right[(h * (n + 1) + k) * g + l][j] = s[:m]
                    s = [(t + 1) * x for t, x in enumerate(s[1:])]
    left, row_dens = [], []
    for i in range(1, g + 1):
        parts, den = cleared([a.a(i, k, l).coeffs[:m] for k in range(n + 1) for l in range(1, g + 1)], d)
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
        out.append([TruncatedSeries(uncleared([r[j] for r in rows], [rden * cden] * m, d), out_order)
                    for j, cden in enumerate(col_dens)])
    return GFunMatrix.from_series(g, out)


# ---------------------------------------------------------------------------
# Radii


@dataclass(frozen=True)
class PlaceRadii:
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


@dataclass(frozen=True)
class EntryCheck:
    i: int
    j: int
    which: str  # "F" | "G"
    value: Scalar | float
    reference: Scalar | float
    discrepancy: float
    tail_bound: float
    ok: bool


@dataclass(frozen=True)
class PeriodCheckReport:
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
                        integral_tail=mat.integral_at(i, j) and v.is_finite(),
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
