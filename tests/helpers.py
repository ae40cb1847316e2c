"""Seeded inputs and predicted values that only the tests use."""

import random
from dataclasses import dataclass
from fractions import Fraction

from periodrel import matrices as mx
from periodrel.gfun import GaussManinCoefficients, PlaceRadii
from periodrel.polyalg import VarId
from periodrel.relations import EndomorphismAction, SelectedEntry
from periodrel.scalars import Place, scalar_to_json
from periodrel.series import TruncatedSeries
from periodrel.trivial_ideal import _iter_sampled_points


def sampled_points(g: int, budget: int, seed: int) -> list[tuple]:
    """The first ``budget`` sampled isotropic points that membership tries."""
    return list(_iter_sampled_points(g, budget, seed))


def unfreeze(m) -> list:
    """A mutable copy of a frozen matrix."""
    return [list(row) for row in m]


def radius_at(radii: PlaceRadii, v: Place) -> tuple[float, bool]:
    """The (radius, certified) pair that ``radii`` holds for the place v."""
    for place, r, cert in radii.radii:
        if place == v:
            return r, cert
    raise KeyError(f"no radius for place {v}")


def sylvester_solvable(act: EndomorphismAction) -> bool:
    """Whether the period-data Sylvester system is nonsingular.

    Singularity happens exactly when the spectra of A and D meet, which no
    choice of F can repair; checked via the Kronecker linearization.
    """
    eye = mx.identity(act.g)
    lin = mx.mat_sub(mx.kron(eye, act.A), mx.kron(mx.transpose(act.D), eye))
    return mx.rank(lin) == act.g * act.g


def random_action(g: int, seed: int, lo: int = -3, hi: int = 3, solvable: bool = False) -> EndomorphismAction:
    """Random non-scalar action with small integer entries (deterministic).

    With ``solvable`` the draw is repeated until the synthetic-period
    Sylvester system is nonsingular.
    """
    rng = random.Random(seed)
    while True:
        make = lambda: mx.freeze([[Fraction(rng.randint(lo, hi)) for _ in range(g)] for _ in range(g)])
        act = EndomorphismAction(g, make(), make(), make())
        if act.is_scalar():
            continue
        if solvable and not sylvester_solvable(act):
            continue
        return act


def expected_witness_value(act: EndomorphismAction, entry: SelectedEntry):
    """The case table's predicted value matrix at the witness."""
    if entry.case == "B_nonzero":
        return mx.scalar_mul(Fraction(-1), act.B)
    if entry.case == "A_ne_D":
        return mx.mat_sub(act.A, act.D)
    z = entry.witness_z
    return mx.mat_sub(mx.mat_mul(act.A, z), mx.mat_mul(z, act.D))


def identity_family(g: int, order: int) -> GaussManinCoefficients:
    """a[i][0][l] = delta_il, no derivative terms: derived matrix = input."""
    series = tuple(
        (tuple(TruncatedSeries.constant(Fraction(int(i == l)), order) for l in range(1, g + 1)),)
        for i in range(1, g + 1)
    )
    return GaussManinCoefficients(g, 0, series, integral=True)


@dataclass(frozen=True)
class PairMonomial:
    """The former monomial encoding, kept as the oracle for polyalg.Monomial:
    a tuple of (VarId, positive exponent) pairs sorted by ``VarId.key``, with
    degrevlex as a scan over the variables."""

    exps: tuple

    @staticmethod
    def of(*pairs: tuple) -> "PairMonomial":
        return PairMonomial(_by_key((v, e) for v, e in pairs if e != 0))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, v: VarId) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def __mul__(self, other: "PairMonomial") -> "PairMonomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return PairMonomial(_by_key(merged.items()))

    def divides(self, other: "PairMonomial") -> bool:
        it = dict(other.exps)
        return all(it.get(v, 0) >= e for v, e in self.exps)

    def __truediv__(self, other: "PairMonomial") -> "PairMonomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            r = merged.get(v, 0) - e
            if r < 0:
                raise ValueError("monomial division with negative exponent")
            if r == 0:
                merged.pop(v, None)
            else:
                merged[v] = r
        return PairMonomial(_by_key(merged.items()))

    def lcm(self, other: "PairMonomial") -> "PairMonomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = max(merged.get(v, 0), e)
        return PairMonomial(_by_key(merged.items()))

    def __lt__(self, other: "PairMonomial") -> bool:
        # degrevlex: compare total degree, then scan variables upward from
        # the smallest; the monomial with the *larger* exponent at the first
        # difference is the smaller one.
        ds, do = self.degree(), other.degree()
        if ds != do:
            return ds < do
        if self.exps == other.exps:
            return False
        for v in sorted({v for v, _ in self.exps} | {v for v, _ in other.exps}, key=VarId.key):
            es, eo = self.exponent(v), other.exponent(v)
            if es != eo:
                return es > eo
        return False


def _by_key(pairs) -> tuple:
    return tuple(sorted(pairs, key=lambda p: p[0].key()))


def pair_poly_to_json(terms: dict) -> list:
    """MultiPoly.to_json for a {PairMonomial: coefficient} dict."""
    out = []
    for m in sorted(terms, reverse=True):
        mono = [[v.block, v.row, v.col, e] + ([v.copy] if v.copy != 1 else []) for v, e in m.exps]
        out.append({"coeff": scalar_to_json(terms[m]), "monomial": mono})
    return out
