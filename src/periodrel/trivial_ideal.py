"""The ideal of trivial relations between period-matrix blocks.

Generated by the entries of Y^t Z - Z^t Y: the degree-2 relations that hold
for *every* isotropic period configuration.  This module provides the
generators, the Jacobian-rank radicality certificate, exact and sampling
(non-)membership, and the simultaneous row-permutation criterion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from . import matrices as mx
from .polyalg import (
    Monomial,
    MultiPoly,
    ResourceCapExceeded,
    VarId,
    ideal_remainder,
    yvar,
    zvar,
)
from .scalars import Scalar, scalar_to_json
from .symplectic import project_to_V, sample_symplectic


def generator_poly(g: int, i: int, j: int) -> MultiPoly:
    """f_{ij} = sum_k Y[k,i] Z[k,j] - Z[k,i] Y[k,j]."""
    terms: dict[Monomial, Scalar] = {}
    for k in range(1, g + 1):
        terms[Monomial.of((yvar(k, i), 1), (zvar(k, j), 1))] = Fraction(1)
        m = Monomial.of((zvar(k, i), 1), (yvar(k, j), 1))
        terms[m] = terms.get(m, Fraction(0)) - 1
    return MultiPoly(terms)


class TrivialIdeal(NamedTuple):
    g: int
    generators: tuple  # f_{ij} for i < j, ordered (1,2), (1,3), ..., (g-1,g)

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.g + 1) for j in range(i + 1, self.g + 1)]

    def generator(self, i: int, j: int) -> MultiPoly:
        """The full antisymmetric family: f_ji = -f_ij, f_ii = 0."""
        if i == j:
            return MultiPoly.zero()
        if i < j:
            return self.generators[self.pairs().index((i, j))]
        return -self.generators[self.pairs().index((j, i))]

    def variables(self) -> list[VarId]:
        out = [yvar(i, j) for i in range(1, self.g + 1) for j in range(1, self.g + 1)]
        out += [zvar(i, j) for i in range(1, self.g + 1) for j in range(1, self.g + 1)]
        return out


def generators(g: int) -> TrivialIdeal:
    if g < 1:
        raise ValueError("g must be >= 1")
    gens = tuple(
        generator_poly(g, i, j)
        for i in range(1, g + 1)
        for j in range(i + 1, g + 1)
    )
    return TrivialIdeal(g, gens)


# ---------------------------------------------------------------------------
# Point helpers


def point_assignment(y, z) -> dict[VarId, Scalar]:
    """Y[i,j] -> y[i-1][j-1] and Z[i,j] -> z[i-1][j-1] for two blocks of one
    shape (g x g at a point, h x g for the top half of a period matrix)."""
    out: dict[VarId, Scalar] = {}
    for i, (yrow, zrow) in enumerate(zip(y, z), 1):
        for j, (yv, zv) in enumerate(zip(yrow, zrow), 1):
            out[yvar(i, j)] = yv
            out[zvar(i, j)] = zv
    return out


def witness_to_json(point: tuple) -> dict:
    """A witness point (y, z) as the reports write it."""
    return {"Y": mx.matrix_to_json(point[0]), "Z": mx.matrix_to_json(point[1])}


def structured_witnesses(g: int) -> list[tuple]:
    """Deterministic isotropic points: (I,0), (I,I), (I, symmetric)."""
    eye = mx.identity(g)
    zero = mx.zeros(g, g)
    diag = mx.freeze(
        [[Fraction(i + 1) if i == j else Fraction(0) for j in range(g)] for i in range(g)]
    )
    ones = mx.freeze([[Fraction(1)] * g for _ in range(g)])
    return [(eye, zero), (eye, eye), (eye, diag), (eye, ones)]


def _iter_sampled_points(g: int, budget: int, seed: int) -> Iterator[tuple]:
    """Projected symplectic samples k = 0 .. budget-1, each seeded on its own
    (seed + 7919 k) and built only when the consumer asks for it."""
    for k in range(budget):
        frame = project_to_V(sample_symplectic(g, seed + 7919 * k))
        yield frame.y_block, frame.z_block


# ---------------------------------------------------------------------------
# Jacobian rank and radicality


def jacobian_rank_at(ideal: TrivialIdeal, point: tuple) -> int:
    """Exact rank over Q of the m x 2g^2 Jacobian of the generators at a point.

    f_ij is bilinear, so its row is read off the point: Y[k,i] gets z[k][j],
    Y[k,j] gets -z[k][i], Z[k,j] gets y[k][i] and Z[k,i] gets -y[k][j], in
    the column order of :meth:`TrivialIdeal.variables`."""
    y, z = point
    g = ideal.g
    rows = []
    for i, j in ideal.pairs():
        row = [Fraction(0)] * (2 * g * g)
        for k in range(g):
            yk, zk = k * g - 1, (g + k) * g - 1  # Y[k+1, c] is column yk + c, Z[k+1, c] zk + c
            row[yk + i] += z[k][j - 1]
            row[yk + j] -= z[k][i - 1]
            row[zk + j] += y[k][i - 1]
            row[zk + i] -= y[k][j - 1]
        rows.append(row)
    return mx.rank(mx.freeze(rows))


class RadicalityCertificate(NamedTuple):
    g: int
    generator_count: int
    witness: tuple
    witness_on_variety: bool
    rank: int
    verdict: str  # "radical"


def radicality_certificate(ideal: TrivialIdeal) -> RadicalityCertificate:
    """Certify radicality: generator count m equals the exact Jacobian rank
    at the point (I, 0), which is isotropic and so on the variety.  There
    the row of f_ij is e(Z[i,j]) - e(Z[j,i]), so the m rows have disjoint
    supports and the rank is m at every g; a different rank is a bug."""
    g, m = ideal.g, ideal.generator_count
    witness = (mx.identity(g), mx.zeros(g, g))
    rank = jacobian_rank_at(ideal, witness)
    if rank != m:
        raise AssertionError(f"Jacobian rank {rank} at (I, 0), expected {m}")
    return RadicalityCertificate(g, m, witness, True, rank, "radical")


# ---------------------------------------------------------------------------
# Membership


class MembershipVerdict(NamedTuple):
    status: str  # "in_ideal_certified" | "not_in_ideal_certified" | "undecided"
    evidence_kind: str  # "witness_point" | "groebner_remainder" | "row_permutation" | "none"
    witness: tuple | None = None  # (y, z)
    value: Scalar | None = None
    remainder: MultiPoly | None = None
    samples_tested: int = 0
    detail: str = ""

    def to_json(self) -> dict:
        """The verdict as the reports write it; unset fields are left out."""
        out = {"status": self.status, "evidence": self.evidence_kind, "samples_tested": self.samples_tested}
        if self.witness is not None:
            out["witness"] = witness_to_json(self.witness)
        if self.value is not None:
            out["value"] = scalar_to_json(self.value)
        if self.remainder is not None:
            out["remainder"] = self.remainder.to_json()
        if self.detail:
            out["detail"] = self.detail
        return out


def membership(
    p: MultiPoly, ideal: TrivialIdeal, sample_budget: int = 25, seed: int = 0
) -> MembershipVerdict:
    """Decide membership of p in the trivial-relations ideal.

    One nonzero value at an exact isotropic point proves nonmembership, so the
    four structured witnesses come first.  If they vanish, the degrevlex normal
    form (:func:`~periodrel.polyalg.ideal_remainder`) decides; a zero one
    certifies a member with no sample drawn.  Otherwise at most ``sample_budget``
    sampled points follow, each built only when reached, up to the first nonzero
    value; past the column cap with no witness the verdict is "undecided".
    """
    g, rem, detail, tested = ideal.g, None, "", 0

    def points() -> Iterator[tuple]:
        nonlocal rem, detail
        yield from structured_witnesses(g)
        try:
            rem = ideal_remainder(p, ideal.generators)
        except ResourceCapExceeded as exc:
            detail = str(exc)
        if rem is None or rem:
            yield from _iter_sampled_points(g, sample_budget, seed)

    for y, z in points():
        tested += 1
        val = p.evaluate(point_assignment(y, z))
        if val != 0:
            return MembershipVerdict(
                "not_in_ideal_certified", "witness_point", witness=(y, z), value=val, samples_tested=tested
            )
    if rem is None:
        return MembershipVerdict("undecided", "none", samples_tested=tested, detail=detail)
    if not rem:
        return MembershipVerdict("in_ideal_certified", "groebner_remainder", remainder=rem, samples_tested=tested)
    return MembershipVerdict(
        "not_in_ideal_certified", "groebner_remainder", remainder=rem, samples_tested=tested,
        detail="nonzero normal form; no sampled witness found",
    )


# ---------------------------------------------------------------------------
# Row-permutation criterion


def row_permutation_test(p: MultiPoly, permutation: Sequence[int]) -> bool:
    """Apply the simultaneous row permutation to Y and Z indices.

    Returns True iff the permuted polynomial differs from p.  Scalar
    combinations of the generators are invariant under every such
    permutation, so a changed result is evidence against membership for
    polynomials that the structural argument requires to be invariant.
    """
    perm = list(permutation)
    gmax = max((v.row for v in p.variables()), default=0)
    if len(perm) < gmax:
        raise ValueError("permutation shorter than the rows in use")
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("not a permutation of 1..g")

    def rename(v: VarId) -> VarId:
        return VarId(v.block, perm[v.row - 1], v.col)

    return p.rename_variables(rename) != p


def row_swap_permutation(g: int) -> list[int]:
    """The permutation exchanging the first and last rows."""
    perm = list(range(1, g + 1))
    perm[0], perm[-1] = perm[-1], perm[0]
    return perm
