"""Period-relation polynomials from endomorphism data.

Two constructions are provided, with exact verification throughout:

* the adjugate construction, which turns a block-triangular endomorphism
  action (A, B; 0, D) on cohomology into a g x g matrix of homogeneous
  degree-(g+1) relation polynomials vanishing on any period pair (F, G)
  satisfying the intertwining equations M F^t = F^t A and
  M G^t = F^t B + G^t D;

* the even-genus quadratic construction over a real quadratic field (or
  Q x Q), which produces a degree-2 relation from the skew pairing of a
  synthetic period matrix and transports it through an exact quadratic
  change of basis.

Synthetic period data realises the intertwining equations exactly via a
Sylvester solve, so the vanishing statements are checked with zero
tolerance rather than numerically.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from . import matrices as mx
from .polyalg import (
    MONOMIAL_ORDER,
    Monomial,
    MultiPoly,
    VarId,
    adjugate,
    determinant,
    symbolic_matrix,
)
from .scalars import QuadScalar, Scalar, cleared, json_field, json_int, quadratic_field, scalar_from_json
from .symplectic import sample_symplectic, standard_form
from .trivial_ideal import (
    MembershipVerdict,
    generator_poly,
    point_assignment,
    row_permutation_test,
    row_swap_permutation,
)


class RelationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Endomorphism actions


@dataclass(frozen=True)
class EndomorphismAction:
    """Block matrix (A, B; 0, D) of an endomorphism acting on cohomology."""

    g: int
    A: tuple
    B: tuple
    D: tuple

    def __post_init__(self) -> None:
        for name, m in (("A", self.A), ("B", self.B), ("D", self.D)):
            if mx.shape(m) != (self.g, self.g):
                raise RelationError(f"block {name} must be {self.g}x{self.g}")

    def is_scalar(self) -> bool:
        """True when the 2g x 2g block matrix is lambda * identity."""
        scalar = mx.scalar_mul(self.A[0][0], mx.identity(self.g))
        return mx.is_zero_matrix(self.B) and mx.mat_eq(self.A, scalar) and mx.mat_eq(self.D, scalar)

    def to_json(self) -> dict:
        return {"g": self.g, **{k: mx.matrix_to_json(getattr(self, k)) for k in "ABD"}}

    @staticmethod
    def from_json(obj: dict) -> "EndomorphismAction":
        g = json_int(obj, "g", low=1)
        return EndomorphismAction(g, *_square_blocks(obj, "ABD", g))


def _square_blocks(obj: dict, keys, g: int) -> list:
    """The g x g matrices obj[key] for each key, decoded with their paths."""
    return [mx.matrix_from_json(json_field(obj, k), k, g) for k in keys]


# ---------------------------------------------------------------------------
# Non-archimedean construction


@functools.cache
def _symbolic_blocks(g: int) -> tuple:
    """(Y^t, Z^t, adj(Y^t), det(Y)) at genus g, built once per g: they depend
    on g alone, and no MultiPoly operation mutates its terms.  det(Y) comes
    first, so past SYMBOLIC_DET_CAP the cap is raised before any adjugate."""
    y = symbolic_matrix("Y", g)
    det_y = determinant(y)
    yt = mx.transpose(y)
    return yt, mx.transpose(symbolic_matrix("Z", g)), adjugate(yt), det_y


def _relation_row(act: EndomorphismAction, i: int) -> tuple:
    """Row i (0-based) of the relation matrix: the products of the whole
    matrix restricted to row i of Y^t and Z^t, in mat_mul's operand order."""
    yt, zt, adj_yt, det_y = _symbolic_blocks(act.g)
    y_row, z_row = (yt[i],), (zt[i],)
    lhs = mx.mat_mul(mx.mat_mul(mx.mat_mul(y_row, act.A), adj_yt), zt)[0]
    rhs = mx.mat_add(mx.mat_mul(y_row, act.B), mx.mat_mul(z_row, act.D))[0]
    return tuple(x - e * det_y for x, e in zip(lhs, rhs))


def build_nonarch_relation(act: EndomorphismAction) -> mx.Matrix:
    """The relation matrix Y^t A adj(Y^t) Z^t - det(Y) (Y^t B + Z^t D), a
    g x g tuple of polynomials.

    Every nonzero entry is homogeneous of degree g+1.  The adjugate identity
    Y^t adj(Y^t) = det(Y) I that the construction relies on depends on g
    alone; the tests check it symbolically for every g up to SYMBOLIC_DET_CAP.
    """
    return tuple(_relation_row(act, i) for i in range(act.g))


@dataclass(frozen=True)
class SelectedEntry:
    i: int  # 1-based entry indices
    j: int
    witness_y: tuple
    witness_z: tuple
    value: Scalar
    case: str  # "B_nonzero" | "A_ne_D" | "A_non_scalar"


def select_nontrivial_entry(p, act: EndomorphismAction) -> SelectedEntry:
    """Pick an entry of the relation matrix p together with an exact witness
    (y, z) that is isotropic and gives a nonzero value; only that entry of p
    is evaluated, for its value (see :func:`_witness_entry`)."""
    i, j, wy, wz, case = _witness_entry(act)
    return SelectedEntry(i + 1, j + 1, wy, wz, p[i][j].evaluate(point_assignment(wy, wz)), case)


def _witness_entry(act: EndomorphismAction) -> tuple:
    """(i, j, y, z, case): the case witness (y, z) and the 0-based position
    of the first nonzero entry of the relation matrix there.

    The three-case witness table: B != 0 gives (I, 0) with value -B;
    B = 0, A != D gives (I, I) with value A - D; otherwise A = D is
    non-scalar and a symmetric z not commuting with A gives value Az - zD.
    At y = I, where adj(I) = I and det(I) = 1, the matrix is A z^t - B - z^t D,
    so the position is read off that scalar matrix.  It is never zero there:
    it is -B, A - D or Az - zA, and a scalar action, which has no such z,
    is refused by :func:`_noncommuting_symmetric`.
    """
    g = act.g
    eye, zero = mx.identity(g), mx.zeros(g, g)
    if not mx.is_zero_matrix(act.B):
        wy, wz, case = eye, zero, "B_nonzero"
    elif not mx.mat_eq(act.A, act.D):
        wy, wz, case = eye, eye, "A_ne_D"
    else:
        wy, wz, case = eye, _noncommuting_symmetric(act.A), "A_non_scalar"
    zt = mx.transpose(wz)
    at_witness = mx.mat_sub(mx.mat_sub(mx.mat_mul(act.A, zt), act.B), mx.mat_mul(zt, act.D))
    i, j = next((i, j) for i, row in enumerate(at_witness) for j, x in enumerate(row) if x != 0)
    return i, j, wy, wz, case


def _noncommuting_symmetric(a) -> tuple:
    """Symmetric z with Az != zA, following the explicit choice rule:
    z = E_ii at a non-diagonal entry's column, else z = E_ij + E_ji at a
    pair of distinct diagonal entries."""
    g = len(a)

    def unit(*cells) -> tuple:
        return mx.freeze([[Fraction(int((r, c) in cells)) for c in range(g)] for r in range(g)])

    col = next((j for j in range(g) for i in range(g) if i != j and a[i][j] != 0), None)
    if col is not None:
        return unit((col, col))
    for i in range(g):
        for j in range(i + 1, g):
            if a[i][i] != a[j][j]:
                return unit((i, j), (j, i))
    raise RelationError("no relation derivable from scalar endomorphism")


# ---------------------------------------------------------------------------
# Synthetic period data


@dataclass(frozen=True)
class SyntheticPeriodData:
    g: int
    M: tuple
    F: tuple
    G: tuple

    def verify(self, act: EndomorphismAction) -> bool:
        ft, gt = mx.transpose(self.F), mx.transpose(self.G)
        eq1 = mx.mat_eq(mx.mat_mul(self.M, ft), mx.mat_mul(ft, act.A))
        eq2 = mx.mat_eq(mx.mat_mul(self.M, gt), mx.mat_add(mx.mat_mul(ft, act.B), mx.mat_mul(gt, act.D)))
        return eq1 and eq2

    def to_json(self) -> dict:
        return {"g": self.g, **{k: mx.matrix_to_json(getattr(self, k)) for k in "MFG"}}

    @staticmethod
    def from_json(obj: dict) -> "SyntheticPeriodData":
        g = json_int(obj, "g", low=1)
        return SyntheticPeriodData(g, *_square_blocks(obj, "MFG", g))


MAX_F_DRAWS = 50  # random F tried before giving up on an invertible one


def synthesize_period_data(act: EndomorphismAction, seed: int, F=None) -> SyntheticPeriodData:
    """Produce (M, F, G) satisfying the intertwining equations exactly.

    Draws a random invertible F, sets M = F^t A (F^t)^{-1}, and solves the
    Sylvester system M G^t - G^t D = F^t B as g^2 linear equations.
    The system is singular exactly when the spectra of M (hence A)
    and D overlap; since resampling F cannot move spectra, a singular system
    is reported after its first solve rather than perturbed.
    """
    if act.is_scalar():
        raise RelationError("no relation derivable from scalar endomorphism")
    g = act.g
    rng = random.Random(seed)
    for _ in range(MAX_F_DRAWS):
        f = mx.freeze(F if F is not None else [[Fraction(rng.randint(-4, 4)) for _ in range(g)] for _ in range(g)])
        ft = mx.transpose(f)
        ft_inv = mx.inverse(ft)
        if ft_inv is not None:
            break
        if F is not None:
            raise RelationError("supplied F is singular")
    else:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    m = mx.mat_mul(mx.mat_mul(ft, act.A), ft_inv)
    # M X - X D = F^t B for X = G^t: equation (i, j) is row j*g + i, and X[k][l]
    # is unknown l*g + k, so row j of G is unknowns j*g .. j*g + g - 1
    lin = []
    for j in range(g):
        for i in range(g):
            row = [Fraction(0)] * (g * g)
            row[j * g : j * g + g] = m[i]
            for l in range(g):
                row[l * g + i] = row[l * g + i] - act.D[l][j]
            lin.append(row)
    fb = mx.mat_mul(ft, act.B)
    sol = mx.solve_nonsingular(lin, [fb[i][j] for j in range(g) for i in range(g)])
    if sol is None:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    data = SyntheticPeriodData(g, m, f, mx.freeze(sol[j * g : j * g + g] for j in range(g)))
    if not data.verify(act):
        raise AssertionError("synthesized data violates the intertwining equations")
    return data


def verify_relation_on_data(p, data: SyntheticPeriodData) -> bool:
    """True iff every entry of the relation matrix p vanishes exactly at (F, G)."""
    assignment = point_assignment(data.F, data.G)
    return all(e.evaluate(assignment) == 0 for row in p for e in row)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class RelationCertificate:
    polynomial: MultiPoly
    degree: int
    construction_kind: str  # "nonarch" | "case3" | "product"
    nontriviality: MembershipVerdict
    vanishing_evidence: tuple = ()
    parts: tuple = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.polynomial.is_homogeneous():
            raise RelationError("relation certificates must be homogeneous")
        if self.polynomial.degree() != self.degree:
            raise RelationError("stated degree disagrees with the polynomial")

    def to_json(self) -> dict:
        return {
            "kind": self.construction_kind,
            "degree": self.degree,
            "monomial_order": MONOMIAL_ORDER,
            "polynomial": self.polynomial.to_json(),
            "nontriviality": _verdict_json(self.nontriviality),
            "vanishing_evidence": list(self.vanishing_evidence),
            "notes": self.notes,
        }


def _verdict_json(v: MembershipVerdict) -> dict:
    """The membership verdict under the certificate format's key ``samples``."""
    out = v.to_json()
    out["samples"] = out.pop("samples_tested")
    return out


def build_nonarch_certificate(act: EndomorphismAction, seed: int = 0) -> RelationCertificate:
    """Full pipeline: synthesize period data, select a non-trivial entry with
    its exact witness, and build only the row of the relation matrix that
    holds it.  The data satisfies the intertwining equations, so the matrix
    there is det(F) (M G^t - F^t B - G^t D) = 0; only the printed entry is
    evaluated at it.  The symbolic blocks come first, so the symbolic-size
    cap precedes every other error."""
    _symbolic_blocks(act.g)
    data = synthesize_period_data(act, seed)
    i, j, wy, wz, case = _witness_entry(act)
    poly = _relation_row(act, i)[j]
    value = poly.evaluate(point_assignment(wy, wz))
    if poly.evaluate(point_assignment(data.F, data.G)) != 0:
        raise AssertionError("relation matrix failed to vanish on its own period data")
    verdict = MembershipVerdict(
        "not_in_ideal_certified",
        "witness_point",
        witness=(wy, wz),
        value=value,
        samples_tested=1,
        detail=f"case {case}",
    )
    return RelationCertificate(
        polynomial=poly,
        degree=act.g + 1,
        construction_kind="nonarch",
        nontriviality=verdict,
        vanishing_evidence=((f"seed={seed}", "all entries vanish exactly"),),
        notes=f"entry ({i + 1},{j + 1})",
    )


# ---------------------------------------------------------------------------
# Case 3: real-quadratic / split quadratic endomorphism algebra, even g > 2


@dataclass(frozen=True)
class Case3Input:
    """Synthetic data for the quadratic archimedean construction.

    H plays the role of a g x g period matrix; (A, B; C, D) is a change of
    basis over a quadratic field whose sqrt(e)-rescaling is exactly
    symplectic.
    """

    g: int
    H: tuple
    A: tuple
    B: tuple
    C: tuple
    D: tuple
    sqrt_e: QuadScalar

    @property
    def e(self) -> Fraction:
        sq = self.sqrt_e * self.sqrt_e
        if isinstance(sq, QuadScalar) and not sq.is_rational():
            raise RelationError("sqrt_e must square to a rational")
        return sq.a if isinstance(sq, QuadScalar) else Fraction(sq)

    def change_of_basis(self):
        return mx.block(self.A, self.B, self.C, self.D)

    def verify_similitude(self) -> bool:
        """sqrt(e) * M is exactly symplectic, M = (A B; C D): checked as
        M^t J M = (1/sqrt(e)^2) J."""
        sq = self.sqrt_e * self.sqrt_e
        return sq != 0 and mx.is_similitude(self.change_of_basis(), 1 / sq, self.g)

    @staticmethod
    def from_json(obj: dict) -> "Case3Input":
        g = json_int(obj, "g", low=1)
        blocks = _square_blocks(obj, "HABCD", g)
        return Case3Input(g, *blocks, scalar_from_json(json_field(obj, "sqrt_e"), "sqrt_e"))


def quadratic_relation_polys(g: int) -> tuple[MultiPoly, MultiPoly]:
    """The two degree-2 polynomials reading off the (1,2) and (1, g/2+2)
    entries of the skew pairing of a stacked period matrix, written in the
    top-half Y and Z variables: sum_{k <= g/2} Y[k,1] Z[k,col] - Z[k,1] Y[k,col]."""
    if g % 2 != 0 or g <= 2:
        raise RelationError("Case 3 construction requires even g > 2")
    h = g // 2
    return generator_poly(h, 1, 2), generator_poly(h, 1, h + 2)


def _transport(q: MultiPoly, m) -> MultiPoly:
    """q after Phi: W[k, c] -> sum_s M[s][k] W[s, c] on the stacked W = (Y; Z),
    i.e. Y -> A^t Y + C^t Z and Z -> B^t Y + D^t Z for M = (A B; C D).

    Over the one Q(sqrt d) of M's entries and q's coefficients (Q when d is
    None), M = (P + Q sqrt d)/D and the quadratic form q is
    sum ((n + n' sqrt d)/L) v w: the products of the images of v and w sum as
    int pairs (u, w), and each coefficient (u + w sqrt d)/(L D^2) is built
    once, a Fraction when w = 0."""
    d = quadratic_field([*(x for row in m for x in row), *q.terms.values()])
    e, g, forms, out = d or 0, len(m) // 2, {}, {}
    parts, den = cleared(m, d)
    p, r = parts if d is not None else (*parts, [[0] * len(m)] * len(m))
    for v in q.variables():
        k = v.row - 1 + (g if v.block == "Z" else 0)
        cells = ((VarId("Z" if s >= g else "Y", s % g + 1, v.col).code, p[s][k], r[s][k]) for s in range(2 * g))
        forms[v.code] = [(code, a, b, e * b) for code, a, b in cells if a or b]
    coeffs, lcm = cleared([list(q.terms.values())], d)
    nums, roots = [row for row, in coeffs] if d is not None else (coeffs[0][0], repeat(0))
    for (v1, v2), n, n2 in zip(q.terms, nums, roots):
        for x, a1, b1, db1 in forms[v1]:
            a1, b1 = n * a1 + n2 * db1, n * b1 + n2 * a1  # (n + n' sqrt d)(a1 + b1 sqrt d)
            for y, a2, b2, db2 in forms[v2]:
                pair = out.setdefault((x, y) if x <= y else (y, x), [0, 0])
                pair[0] += a1 * a2 + b1 * db2
                pair[1] += a1 * b2 + b1 * a2
    ldd = lcm * den * den
    terms = {Monomial(t): QuadScalar._trusted(d, Fraction(u, ldd), Fraction(w, ldd)) if w else Fraction(u, ldd)
             for t, (u, w) in out.items() if u or w}
    return MultiPoly(terms, _clean=False)


def generator_transform_scalar(inp: Case3Input) -> Scalar:
    """The exact scalar c with Phi(Y^t Z - Z^t Y) = c * (Y^t Z - Z^t Y).

    For sqrt(e) * (A B; C D) symplectic this is 1/e.  Phi acts on the stacked
    (Y; Z) by M^t with M = (A B; C D), so Phi(Y^t Z - Z^t Y) is
    (Y; Z)^t M J M^t (Y; Z) and the identity holds exactly when
    M J M^t = (1/e) J.  That matrix identity is checked exactly and an
    AssertionError is raised if it fails.  build_case3_relation does not call
    this: the identity follows from the M^t J M = (1/e) J it checks.
    """
    c = Fraction(1) / inp.e
    if not mx.is_similitude(mx.transpose(inp.change_of_basis()), c, inp.g):
        raise AssertionError("generator matrix does not transform by the expected scalar")
    return c


def build_case3_relation(inp: Case3Input) -> RelationCertificate:
    """Quadratic relation from a synthetic period matrix at even g > 2.

    Computes the skew pairing M' = H^t J H, kills the (1,2)/(1,g/2+2) pair
    of entries by an exact rational (lambda, mu), verifies the resulting
    degree-2 polynomial vanishes at H, transports it through the change of
    basis, and attaches non-triviality evidence (row-swap sensitivity plus
    the scalar 1/e by which the change of basis scales the ideal's
    generators).  That scalar rests on M J M^t = (1/e) J, which follows from
    the checked M^t J M = (1/e) J, so it is not checked again.
    """
    g = inp.g
    if g % 2 != 0 or g <= 2:
        raise RelationError("Case 3 construction requires even g > 2")
    if mx.rank(inp.H) < g:
        raise RelationError("degenerate period matrix")
    if not inp.verify_similitude():
        raise RelationError("change of basis is not a sqrt(e)-symplectic similitude")
    h = g // 2
    mprime = mx.mat_mul(mx.mat_mul(mx.transpose(inp.H), standard_form(h)), inp.H)
    m12 = mprime[0][1]
    m1h2 = mprime[0][h + 1]
    if m12 == 0:
        lam, mu = Fraction(1), Fraction(0)
    elif m1h2 == 0:
        lam, mu = Fraction(0), Fraction(1)
    else:
        lam, mu = m1h2, m12
    r, s = quadratic_relation_polys(g)
    q = r.scale(lam) - s.scale(mu)
    if q.evaluate(point_assignment(inp.H[:h], inp.H[h:])) != 0:
        raise AssertionError("quadratic relation failed to vanish at the period matrix")
    phi_scalar = Fraction(1) / inp.e
    p_final = _transport(q, inp.change_of_basis())
    if not row_permutation_test(q, row_swap_permutation(g)):
        raise AssertionError("row-swap test unexpectedly left the relation unchanged")
    verdict = MembershipVerdict(
        "not_in_ideal_certified",
        "row_permutation",
        samples_tested=0,
        detail=(
            "top-half support changes under the first/last row swap; "
            f"change of basis preserves the ideal (generator scalar {phi_scalar})"
        ),
    )
    return RelationCertificate(
        polynomial=p_final,
        degree=2,
        construction_kind="case3",
        nontriviality=verdict,
        vanishing_evidence=(("Q(H)", "0 exactly"),),
        notes=f"lambda={lam}, mu={mu}",
    )


def random_case3_input(g: int, seed: int, d: int | None = None) -> Case3Input:
    """Deterministic synthetic Case-3 data: random invertible rational H and
    a change of basis (1/sqrt(e)) * S with S exactly symplectic and
    sqrt(e) = b * sqrt(d) a genuinely quadratic scalar."""
    rng = random.Random(seed)
    if d is None:
        d = rng.choice((2, 3, 5, 7, 11, 13))
    while True:
        hmat = mx.freeze(
            [[Fraction(rng.randint(-4, 4)) for _ in range(g)] for _ in range(g)]
        )
        if mx.rank(hmat) == g:
            break
    b = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    sqrt_e = QuadScalar(d, Fraction(0), b)
    s = sample_symplectic(g, seed + 1, word_length=4).matrix
    inv = sqrt_e.inverse()
    cob = mx.scalar_mul(inv, s)
    halves = (range(g), range(g, 2 * g))
    return Case3Input(g, hmat, *(mx.submatrix(cob, rows, cols) for rows in halves for cols in halves), sqrt_e)


# ---------------------------------------------------------------------------
# Global assembly


def assemble_global_relation(parts: Sequence[RelationCertificate]) -> RelationCertificate:
    """Product of certified-non-trivial factors.

    Degree adds; non-triviality of the product is inherited from primality
    of the trivial-relations ideal, which is recorded as an assumed fact
    with each factor's own certificate attached rather than re-verified.
    """
    if not parts:
        raise RelationError("nothing to assemble")
    for part in parts:
        if not part.nontriviality.certified_nontrivial():
            raise RelationError("every factor needs a non-triviality certificate")
    if len(parts) == 1:
        return parts[0]
    poly = parts[0].polynomial
    for part in parts[1:]:
        poly = poly * part.polynomial
    verdict = MembershipVerdict(
        "not_in_ideal_certified",
        "none",
        detail="product of non-members of a prime ideal; primality assumed, factor certificates attached",
    )
    return RelationCertificate(
        polynomial=poly,
        degree=sum(p.degree for p in parts),
        construction_kind="product",
        nontriviality=verdict,
        parts=tuple(parts),
        notes=f"{len(parts)} factors",
    )
