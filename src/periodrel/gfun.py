"""Series pipeline for period matrices: derived series and per-place radii.

The inputs are a g x g matrix of truncated series (the primary period
series) and a family of coefficient series a[i][k][l] expressing the
secondary classes through derivatives of the primary ones.  The module is
geometry-free: both arrive as data (synthetic or oracle-generated), and the
content here is the exact series algebra and the honest radius bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import (
    DecodeError,
    Place,
    QuadScalar,
    Scalar,
    ScalarError,
    abs_at_place,
    json_field,
    json_int,
    json_list,
    valuation,
)
from .series import (
    EvalResult,
    TruncatedSeries,
    eval_with_tail_bound,
    radius_lower_bound,
)


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

    def truncate(self, order: int) -> "GFunMatrix":
        return GFunMatrix(
            self.g,
            tuple(tuple(s.truncate(order) for s in row) for row in self.entries),
            self.integral,
        )

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
                tuple(bool(x) for x in json_list(row, f"integral[{i}]", g))
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
            bool(obj.get("integral", False)),
        )


def derive_G(f: GFunMatrix, a: GaussManinCoefficients) -> GFunMatrix:
    """G[i][j] = sum_k sum_l a[i][k][l] * d^k/dX^k F[l][j].

    Differentiating k <= N times costs N orders of truncation; the result
    carries order min(F.order - N, a-order).
    """
    if f.g != a.g:
        raise ValueError("dimension mismatch between series matrix and coefficients")
    n = a.deriv_order
    if f.order < n:
        raise ValueError("insufficient precision: truncation order below derivative order")
    a_order = min(s.order for s in a.all_series())
    out_order = min(f.order - n, a_order)
    g = f.g
    # derivs[l-1][j-1][k] = d^k F[l][j] truncated, each built once from d^(k-1)
    derivs = []
    for row in f.entries:
        derivs.append([])
        for s in row:
            chain = [s]
            for _ in range(n):
                chain.append(chain[-1].derivative())
            derivs[-1].append([c.truncate(out_order) for c in chain])
    out = []
    for i in range(1, g + 1):
        row = []
        for j in range(1, g + 1):
            acc = TruncatedSeries.zero(out_order)
            for k in range(0, n + 1):
                for l in range(1, g + 1):
                    coeff = a.a(i, k, l)
                    if coeff.is_zero():
                        continue
                    term = coeff.truncate(out_order) * derivs[l - 1][j - 1][k]
                    acc = acc + term
            row.append(acc)
        out.append(row)
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
        if r <= 0:
            raise ValueError("radius collapsed to zero; excluded value at the centre?")
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
        from .scalars import scalar_to_json

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
    checks = []
    for which, mat, ref in (("F", f, ref_f), ("G", g, ref_g)):
        for i in range(mat.g):
            for j in range(mat.g):
                res: EvalResult = eval_with_tail_bound(
                    mat.entries[i][j], x_value, v,
                    integral_tail=mat.integral_at(i, j) and v.is_finite(),
                )
                disc = _discrepancy(res.value, ref[i][j], v)
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
    value, reference = (_arch_float(x, v) for x in (value, reference))
    return abs(value - reference)


def _arch_float(x, v: Place) -> float | complex:
    """A value or reference as a number at the archimedean place v."""
    if isinstance(x, QuadScalar) and x.b != 0:
        if v.embedding is None:
            raise ScalarError("archimedean place needs an embedding selector for quadratic scalars")
        return x.embed(v.embedding)  # complex over an imaginary field
    x = x.a if isinstance(x, QuadScalar) else x
    return x if isinstance(x, float) else float(Fraction(x))
