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
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

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
from .scalars import Frozen, QuadScalar, Scalar, cleared, json_field, json_int, quadratic_field, scalar_from_json, uncleared
from .symplectic import pairing, sample_symplectic
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


class EndomorphismAction(Frozen):
    """Block matrix (A, B; 0, D) of an endomorphism acting on cohomology."""

    __slots__ = ("g", "A", "B", "D")

    def __init__(self, g: int, A: tuple, B: tuple, D: tuple) -> None:
        for name, m in (("A", A), ("B", B), ("D", D)):
            if mx.shape(m) != (g, g):
                raise RelationError(f"block {name} must be {g}x{g}")
        self._set(g, A, B, D)

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
    """(-det(Y), adj(Y^t) Z^t) at genus g as lists of (monomial, int) terms,
    built once per g: they depend on g alone.  det(Y) comes first, so past
    SYMBOLIC_DET_CAP the cap is raised before any adjugate."""
    y = symbolic_matrix("Y", g)
    det_y = determinant(y)
    w = mx.mat_mul(adjugate(mx.transpose(y)), mx.transpose(symbolic_matrix("Z", g)))
    ints = lambda p, sign=1: [(m, sign * c.numerator) for m, c in p.terms.items()]
    return ints(det_y, -1), [[ints(e) for e in row] for row in w]


@functools.cache
def _entry_cells(g: int, i: int, j: int) -> tuple:
    """Entry (i, j) of the relation matrix as a linear form in the action:
    (r, c, int terms of its coefficient) per cell (r, c) of (A; B; D), that is
    y_l W[k][j] at A[l][k], -y_k det(Y) at B[k][j] and -z_k det(Y) at D[k][j]
    for y_l = Y[l,i], z_k = Z[k,i] and W = adj(Y^t) Z^t."""
    neg_det, w = _symbolic_blocks(g)
    y, z = ([VarId(b, k + 1, i + 1).code for k in range(g)] for b in "YZ")
    cells = [(l, k, y[l], w[k][j]) for l in range(g) for k in range(g)]
    cells += [(r * g + k, j, v[k], neg_det) for r, v in ((1, y), (2, z)) for k in range(g)]
    return tuple((r, c, [(Monomial(sorted((*m, v))), n) for m, n in terms]) for r, c, v, terms in cells)


def _relation_entry(act: EndomorphismAction, i: int, j: int) -> MultiPoly:
    """Entry (i, j) (0-based) of the relation matrix, linear in the action
    (:func:`_entry_cells`).  (A; B; D) is cleared once over its one Q(sqrt d)
    (Q when d is None) as (P + Q sqrt d)/L, each monomial sums one int pair
    (u, w), and each coefficient (u + w sqrt d)/L is built once, a Fraction
    when w = 0."""
    d = quadratic_field(x for m in (act.A, act.B, act.D) for row in m for x in row)
    parts, den = cleared([*act.A, *act.B, *act.D], d)
    out = {}
    for k, part in enumerate(parts):
        for r, c, terms in _entry_cells(act.g, i, j):
            if x := part[r][c]:
                for m, n in terms:
                    out.setdefault(m, [0, 0])[k] += n * x
    terms = {m: QuadScalar._trusted(d, Fraction(u, den), Fraction(w, den)) if w else Fraction(u, den)
             for m, (u, w) in out.items() if u or w}
    return MultiPoly(terms, _clean=False)


def build_nonarch_relation(act: EndomorphismAction) -> mx.Matrix:
    """The relation matrix Y^t A adj(Y^t) Z^t - det(Y) (Y^t B + Z^t D), a
    g x g tuple of polynomials, entry by entry.

    Every nonzero entry is homogeneous of degree g+1.  The adjugate identity
    Y^t adj(Y^t) = det(Y) I that the construction relies on depends on g
    alone; the tests check it symbolically for every g up to SYMBOLIC_DET_CAP.
    """
    return tuple(tuple(_relation_entry(act, i, j) for j in range(act.g)) for i in range(act.g))


def _witness_entry(act: EndomorphismAction) -> tuple:
    """(i, j, y, z, case): the case witness (y, z) and the 0-based position
    of the first nonzero entry of the relation matrix there.

    At y = I, where adj(I) = I and det(I) = 1, the matrix is A z^t - B - z^t D:
    B != 0 gives (I, 0) with value -B, and otherwise (I, I) gives A - D.
    That is never zero: :func:`synthesize_period_data`, which runs first,
    refuses A = D, whose spectra coincide.
    """
    g, eye = act.g, mx.identity(act.g)
    if not mx.is_zero_matrix(act.B):
        wz, case, at_witness = mx.zeros(g, g), "B_nonzero", act.B
    else:
        wz, case, at_witness = eye, "A_ne_D", mx.mat_sub(act.A, act.D)
    i, j = next((i, j) for i, row in enumerate(at_witness) for j, x in enumerate(row) if x != 0)
    return i, j, eye, wz, case


# ---------------------------------------------------------------------------
# Synthetic period data


class SyntheticPeriodData(NamedTuple):
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

    Draws a random invertible integer F and sets M = F^t A (F^t)^{-1}; then
    solves the Sylvester system M G^t - G^t D = F^t B as g^2 linear
    equations.  The system is singular exactly when the spectra of M (hence
    A) and D overlap; since resampling F cannot move spectra, a singular
    system is reported after its first solve rather than perturbed.

    On integers: for F^t = P_F / L_F, (A; B; D) = (P + Q sqrt d)/L and
    (F^t)^{-1} = X / u, M = P_F P_A X / (L_F L u), and the Sylvester rows
    times L_F L u are int rows, one set per P and Q.
    """
    if act.is_scalar():
        raise RelationError("no relation derivable from scalar endomorphism")
    g = act.g
    rng = random.Random(seed)
    for _ in range(MAX_F_DRAWS):
        f = mx.freeze(F if F is not None else [[rng.randint(-4, 4) for _ in range(g)] for _ in range(g)])
        ft_inv = mx.inverse(mx.transpose(f))
        if ft_inv is not None:
            break
        if F is not None:
            raise RelationError("supplied F is singular")
    else:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    ((ft,), lf), ((inv,), u) = cleared(mx.transpose(f), None), cleared(ft_inv, None)
    d = quadratic_field(x for m in (act.A, act.B, act.D) for row in m for x in row)
    parts, den = cleared([*act.A, *act.B, *act.D], d)
    nums, lin = [], [[] for _ in parts]
    for rows, part in zip(lin, parts):
        a, b, dd = part[:g], part[g : 2 * g], part[2 * g :]
        n, fb = mx.mat_mul(mx.mat_mul(ft, a), inv), mx.mat_mul(ft, b)
        nums.append(n)
        # M X - X D = F^t B for X = G^t: equation (i, j) is row j*g + i, and X[k][l]
        # is unknown l*g + k, so row j of G is unknowns j*g .. j*g + g - 1
        for j in range(g):
            for i in range(g):
                row = [0] * (g * g) + [u * fb[i][j]]
                row[j * g : j * g + g] = n[i]
                for l in range(g):
                    row[l * g + i] -= lf * u * dd[l][j]
                rows.append(row)
    sol, r = mx.solve_cleared(lin, d, g * g)
    if r < g * g:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    m = mx.freeze(uncleared([n[k] for n in nums], repeat(lf * den * u), d) for k in range(g))
    data = SyntheticPeriodData(g, m, f, mx.freeze([x for x, in sol[j * g : j * g + g]] for j in range(g)))
    if not data.verify(act):
        raise AssertionError("synthesized data violates the intertwining equations")
    return data


def verify_relation_on_data(p, data: SyntheticPeriodData) -> bool:
    """True iff every entry of the relation matrix p vanishes exactly at (F, G)."""
    assignment = point_assignment(data.F, data.G)
    return all(e.evaluate(assignment) == 0 for row in p for e in row)


# ---------------------------------------------------------------------------
# Certificates


class RelationCertificate(Frozen):
    __slots__ = ("polynomial", "degree", "construction_kind", "nontriviality", "vanishing_evidence", "notes")

    def __init__(self, polynomial: MultiPoly, degree: int, construction_kind: str,  # "nonarch" | "case3"
                 nontriviality: MembershipVerdict, vanishing_evidence: tuple = (), notes: str = "") -> None:
        if not polynomial.is_homogeneous():
            raise RelationError("relation certificates must be homogeneous")
        if polynomial.degree() != degree:
            raise RelationError("stated degree disagrees with the polynomial")
        self._set(polynomial, degree, construction_kind, nontriviality, vanishing_evidence, notes)

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
    its exact witness, and build only that entry of the relation matrix.
    The data satisfies the intertwining equations, so the matrix
    there is det(F) (M G^t - F^t B - G^t D) = 0; only the printed entry is
    evaluated at it.  The symbolic blocks come first, so the symbolic-size
    cap precedes every other error."""
    _symbolic_blocks(act.g)
    data = synthesize_period_data(act, seed)
    i, j, wy, wz, case = _witness_entry(act)
    poly = _relation_entry(act, i, j)
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


class Case3Input(NamedTuple):
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

    Reads the (1,2) and (1,g/2+2) entries of the skew pairing H^t J H as the
    pairings <h_1, h_2> and <h_1, h_(g/2+2)> of columns of H, kills that pair
    by an exact (lambda, mu), verifies the resulting degree-2 polynomial
    vanishes at H, transports it through the change of basis, and attaches
    non-triviality evidence (row-swap sensitivity plus the scalar 1/e by
    which the change of basis scales the ideal's generators).  That scalar
    rests on M J M^t = (1/e) J, which follows from the checked
    M^t J M = (1/e) J, so it is not checked again.
    """
    g = inp.g
    if g % 2 != 0 or g <= 2:
        raise RelationError("Case 3 construction requires even g > 2")
    if mx.rank(inp.H) < g:
        raise RelationError("degenerate period matrix")
    if not inp.verify_similitude():
        raise RelationError("change of basis is not a sqrt(e)-symplectic similitude")
    h = g // 2
    cols = mx.transpose(inp.H)
    m12, m1h2 = pairing(cols[0], cols[1]), pairing(cols[0], cols[h + 1])
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
