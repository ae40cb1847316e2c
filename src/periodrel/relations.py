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

import random
from dataclasses import dataclass
from fractions import Fraction
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
    yvar,
    zvar,
)
from .scalars import QuadScalar, Scalar, json_field, json_int, scalar_from_json, scalar_to_json
from .symplectic import sample_symplectic, standard_form
from .trivial_ideal import (
    MembershipVerdict,
    point_assignment,
    row_permutation_test,
    row_swap_permutation,
    witness_to_json,
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
        if not mx.is_zero_matrix(self.B):
            return False
        lam = self.A[0][0]
        for i in range(self.g):
            for j in range(self.g):
                want = lam if i == j else 0
                if self.A[i][j] != want or self.D[i][j] != want:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "A": mx.matrix_to_json(self.A),
            "B": mx.matrix_to_json(self.B),
            "D": mx.matrix_to_json(self.D),
        }

    @staticmethod
    def from_json(obj: dict) -> "EndomorphismAction":
        g = json_int(obj, "g", low=1)
        return EndomorphismAction(g, *_square_blocks(obj, "ABD", g))


def _square_blocks(obj: dict, keys, g: int) -> list:
    """The g x g matrices obj[key] for each key, decoded with their paths."""
    return [mx.matrix_from_json(json_field(obj, k), k, g) for k in keys]


# ---------------------------------------------------------------------------
# Non-archimedean construction


def build_nonarch_relation(act: EndomorphismAction) -> mx.Matrix:
    """The relation matrix Y^t A adj(Y^t) Z^t - det(Y) (Y^t B + Z^t D), a
    g x g tuple of polynomials.

    Every nonzero entry is homogeneous of degree g+1.  The adjugate identity
    Y^t adj(Y^t) = det(Y) I that the construction relies on is re-verified
    symbolically before returning.
    """
    g = act.g
    y = symbolic_matrix("Y", g)
    yt = mx.transpose(y)
    zt = mx.transpose(symbolic_matrix("Z", g))
    adj_yt = adjugate(yt)
    det_y = determinant(y)
    if not mx.mat_eq(mx.mat_mul(yt, adj_yt), mx.scalar_mul(det_y, mx.identity(g))):
        raise AssertionError("adjugate identity failed symbolically")
    lhs = mx.mat_mul(mx.mat_mul(mx.mat_mul(yt, act.A), adj_yt), zt)
    rhs = mx.mat_add(mx.mat_mul(yt, act.B), mx.mat_mul(zt, act.D))
    return mx.mat_sub(lhs, mx.freeze([[e * det_y for e in row] for row in rhs]))


@dataclass(frozen=True)
class SelectedEntry:
    i: int  # 1-based entry indices
    j: int
    witness_y: tuple
    witness_z: tuple
    value: Scalar
    case: str  # "B_nonzero" | "A_ne_D" | "A_non_scalar"


def select_nontrivial_entry(p, act: EndomorphismAction) -> SelectedEntry:
    """Pick an entry of the relation matrix together with an exact witness
    (y, z) that is isotropic and gives a nonzero value.

    The three-case witness table: B != 0 gives (I, 0) with value -B;
    B = 0, A != D gives (I, I) with value A - D; otherwise A = D is
    non-scalar and a symmetric z not commuting with A gives value Az - zD.
    """
    if act.is_scalar():
        raise RelationError("no relation derivable from scalar endomorphism")
    g = act.g
    eye, zero = mx.identity(g), mx.zeros(g, g)
    if not mx.is_zero_matrix(act.B):
        wy, wz, case = eye, zero, "B_nonzero"
    elif not mx.mat_eq(act.A, act.D):
        wy, wz, case = eye, eye, "A_ne_D"
    else:
        wy, wz, case = eye, _noncommuting_symmetric(act.A), "A_non_scalar"
    assignment = point_assignment(wy, wz)
    for i in range(g):
        for j in range(g):
            val = p[i][j].evaluate(assignment)
            if val != 0:
                return SelectedEntry(i + 1, j + 1, wy, wz, val, case)
    raise RelationError("relation matrix vanished at the case witness; action is effectively scalar")


def _noncommuting_symmetric(a) -> tuple:
    """Symmetric z with Az != zA, following the explicit choice rule:
    z = E_ii at a non-diagonal entry's column, else z = E_ij + E_ji at a
    pair of distinct diagonal entries."""
    g = len(a)
    for j in range(g):
        for i in range(g):
            if i != j and a[i][j] != 0:
                e = [[Fraction(0)] * g for _ in range(g)]
                e[j][j] = Fraction(1)
                return mx.freeze(e)
    for i in range(g):
        for j in range(i + 1, g):
            if a[i][i] != a[j][j]:
                e = [[Fraction(0)] * g for _ in range(g)]
                e[i][j] = Fraction(1)
                e[j][i] = Fraction(1)
                return mx.freeze(e)
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
        ft = mx.transpose(self.F)
        gt = mx.transpose(self.G)
        eq1 = mx.mat_eq(mx.mat_mul(self.M, ft), mx.mat_mul(ft, act.A))
        eq2 = mx.mat_eq(
            mx.mat_mul(self.M, gt),
            mx.mat_add(mx.mat_mul(ft, act.B), mx.mat_mul(gt, act.D)),
        )
        return eq1 and eq2

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "M": mx.matrix_to_json(self.M),
            "F": mx.matrix_to_json(self.F),
            "G": mx.matrix_to_json(self.G),
        }

    @staticmethod
    def from_json(obj: dict) -> "SyntheticPeriodData":
        g = json_int(obj, "g", low=1)
        return SyntheticPeriodData(g, *_square_blocks(obj, "MFG", g))


MAX_F_DRAWS = 50  # random F tried before giving up on an invertible one


def synthesize_period_data(act: EndomorphismAction, seed: int, F=None) -> SyntheticPeriodData:
    """Produce (M, F, G) satisfying the intertwining equations exactly.

    Draws a random invertible F, sets M = F^t A (F^t)^{-1}, and solves the
    Sylvester system M G^t - G^t D = F^t B via its g^2 x g^2 linearization.
    The linearization is singular exactly when the spectra of M (hence A)
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
    # linearize M X - X D = F^t B for X = G^t (column-major vec)
    eye = mx.identity(g)
    lin = mx.mat_sub(mx.kron(eye, m), mx.kron(mx.transpose(act.D), eye))
    sol = mx.solve_nonsingular(lin, mx.vec_cols(mx.mat_mul(ft, act.B)))
    if sol is None:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    data = SyntheticPeriodData(g, m, f, mx.transpose(mx.unvec_cols(sol, g, g)))
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
    out = {"status": v.status, "evidence": v.evidence_kind, "samples": v.samples_tested}
    if v.witness is not None:
        out["witness"] = witness_to_json(v.witness)
    if v.value is not None:
        out["value"] = scalar_to_json(v.value)
    if v.detail:
        out["detail"] = v.detail
    return out


def build_nonarch_certificate(act: EndomorphismAction, seed: int = 0) -> RelationCertificate:
    """Full pipeline: build the relation matrix, verify it on synthetic data,
    select a non-trivial entry with its exact witness."""
    p = build_nonarch_relation(act)
    if not verify_relation_on_data(p, synthesize_period_data(act, seed)):
        raise AssertionError("relation matrix failed to vanish on its own period data")
    entry = select_nontrivial_entry(p, act)
    poly = p[entry.i - 1][entry.j - 1]
    verdict = MembershipVerdict(
        "not_in_ideal_certified",
        "witness_point",
        witness=(entry.witness_y, entry.witness_z),
        value=entry.value,
        samples_tested=1,
        detail=f"case {entry.case}",
    )
    return RelationCertificate(
        polynomial=poly,
        degree=act.g + 1,
        construction_kind="nonarch",
        nontriviality=verdict,
        vanishing_evidence=((f"seed={seed}", "all entries vanish exactly"),),
        notes=f"entry ({entry.i},{entry.j})",
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
    top-half Y and Z variables."""
    if g % 2 != 0 or g <= 2:
        raise RelationError("Case 3 construction requires even g > 2")
    h = g // 2
    r = MultiPoly.zero()
    s = MultiPoly.zero()
    for k in range(1, h + 1):
        r = r + MultiPoly({Monomial.of((yvar(k, 1), 1), (zvar(k, 2), 1)): Fraction(1)})
        r = r - MultiPoly({Monomial.of((zvar(k, 1), 1), (yvar(k, 2), 1)): Fraction(1)})
        s = s + MultiPoly({Monomial.of((yvar(k, 1), 1), (zvar(k, h + 2), 1)): Fraction(1)})
        s = s - MultiPoly({Monomial.of((zvar(k, 1), 1), (yvar(k, h + 2), 1)): Fraction(1)})
    return r, s


def phi_substitution(inp: Case3Input) -> dict[VarId, MultiPoly]:
    """Y -> A^t Y + C^t Z, Z -> B^t Y + D^t Z as a variable substitution."""
    g = inp.g
    mapping: dict[VarId, MultiPoly] = {}
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            py = MultiPoly.zero()
            pz = MultiPoly.zero()
            for k in range(1, g + 1):
                ay = inp.A[k - 1][i - 1]
                cz = inp.C[k - 1][i - 1]
                by = inp.B[k - 1][i - 1]
                dz = inp.D[k - 1][i - 1]
                if ay != 0:
                    py = py + MultiPoly({Monomial.var(yvar(k, j)): ay})
                if cz != 0:
                    py = py + MultiPoly({Monomial.var(zvar(k, j)): cz})
                if by != 0:
                    pz = pz + MultiPoly({Monomial.var(yvar(k, j)): by})
                if dz != 0:
                    pz = pz + MultiPoly({Monomial.var(zvar(k, j)): dz})
            mapping[yvar(i, j)] = py
            mapping[zvar(i, j)] = pz
    return mapping


def generator_transform_scalar(inp: Case3Input) -> Scalar:
    """The exact scalar c with Phi(Y^t Z - Z^t Y) = c * (Y^t Z - Z^t Y).

    For sqrt(e) * (A B; C D) symplectic this is 1/e.  Phi acts on the stacked
    (Y; Z) by M^t with M = (A B; C D), so Phi(Y^t Z - Z^t Y) is
    (Y; Z)^t M J M^t (Y; Z) and the identity holds exactly when
    M J M^t = (1/e) J.  That matrix identity is checked exactly and an
    AssertionError is raised if it fails, so callers may rely on Phi
    preserving the trivial ideal.
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
    the exact ideal-preservation identity for the change of basis).
    """
    g = inp.g
    if g % 2 != 0 or g <= 2:
        raise RelationError("Case 3 construction requires even g > 2")
    if mx.inverse(inp.H) is None:
        raise RelationError("degenerate period matrix")
    if not inp.verify_similitude():
        raise RelationError("change of basis is not a sqrt(e)-symplectic similitude")
    h = g // 2
    j = standard_form(h)
    mprime = mx.mat_mul(mx.mat_mul(mx.transpose(inp.H), j), inp.H)
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
    if q.is_zero():
        raise AssertionError("quadratic relation degenerated to zero")
    qval = q.evaluate(point_assignment(inp.H[:h], inp.H[h:]))
    if qval != 0:
        raise AssertionError("quadratic relation failed to vanish at the period matrix")
    phi_scalar = generator_transform_scalar(inp)
    p_final = q.substitute(phi_substitution(inp))
    swap = row_swap_permutation(g)
    changed = row_permutation_test(q, swap)
    if not changed:
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
        if mx.inverse(hmat) is not None:
            break
    b = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    sqrt_e = QuadScalar(d, Fraction(0), b)
    s = sample_symplectic(g, seed + 1, word_length=4).matrix
    inv = sqrt_e.inverse()
    cob = mx.scalar_mul(inv, s)
    a = mx.submatrix(cob, range(g), range(g))
    bb = mx.submatrix(cob, range(g), range(g, 2 * g))
    c = mx.submatrix(cob, range(g, 2 * g), range(g))
    dd = mx.submatrix(cob, range(g, 2 * g), range(g, 2 * g))
    return Case3Input(g, hmat, a, bb, c, dd, sqrt_e)


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
