"""Seeded inputs and predicted values that only the tests use."""

import functools
import operator
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from periodrel import matrices as mx
from periodrel import series
from periodrel.gfun import GaussManinCoefficients, GFunMatrix, PlaceRadii
from periodrel.polyalg import DEGREE_CAP, Monomial, MultiPoly, ResourceCapExceeded, VarId, ideal_remainder, yvar, zvar
from periodrel.polyalg import adjugate, determinant, symbolic_matrix
from periodrel.relations import (
    MAX_F_DRAWS,
    Case3Input,
    EndomorphismAction,
    RelationCertificate,
    RelationError,
    quadratic_relation_polys,
)
from periodrel.scalars import QUOTE_CAP, DecodeError, Place, QuadScalar, Scalar, ScalarError, json_field, json_int, json_list
from periodrel.scalars import scalar_from_json, scalar_to_json, valuation
from periodrel.series import MAX_ORDER, TruncatedSeries
from periodrel.symplectic import IsotropicFrame, SymplecticSample, pairing, sample_symplectic
from periodrel.trivial_ideal import (
    MembershipVerdict,
    TrivialIdeal,
    _iter_sampled_points,
    point_assignment,
    structured_witnesses,
)


def sampled_points(g: int, budget: int, seed: int) -> list[tuple]:
    """The first ``budget`` sampled isotropic points that membership tries."""
    return list(_iter_sampled_points(g, budget, seed))


def jacobian_rows(ideal: TrivialIdeal, point: tuple) -> list[list]:
    """The Jacobian of the generators at (y, z) by symbolic differentiation
    and evaluation: the oracle for the rows jacobian_rank_at reads off."""
    assignment = point_assignment(*point)
    variables = ideal.variables()
    return [[f.partial(v).evaluate(assignment) for v in variables] for f in ideal.generators]


def evaluate_term_by_term(p: MultiPoly, assignment):
    """The value of p at the assignment, one exact term at a time: the oracle
    for the one-denominator int sum of ``MultiPoly.evaluate``."""
    total = Fraction(0)
    for m, c in p.terms.items():
        for v, e in m.exps:
            c = c * assignment[v] ** e
        total = total + c
    return total


def horner(coeffs, x):
    """sum c_n x^n by Horner over the scalars themselves, from the top: the
    oracle for the int Horner of ``series.eval_with_tail_bound``."""
    total = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        total = total * x + c
    return total


def series_zero(order: int) -> TruncatedSeries:
    return TruncatedSeries([], order)


def series_constant(c, order: int) -> TruncatedSeries:
    return TruncatedSeries([c], order)


def series_x(order: int) -> TruncatedSeries:
    return TruncatedSeries([0, 1], order)


def geometric(order: int) -> TruncatedSeries:
    """1/(1-X) truncated."""
    return TruncatedSeries([1] * (order + 1), order)


def series_add(f: TruncatedSeries, g: TruncatedSeries, sign: int = 1) -> TruncatedSeries:
    """f + g, or f - g for sign -1, coefficient by coefficient over the
    scalars, to the shorter order."""
    n = min(f.order, g.order)
    return TruncatedSeries(tuple(a + sign * b for a, b in zip(f.coeffs[: n + 1], g.coeffs)), n)


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f g to the shorter order by schoolbook scalar products, any scalar
    kind: the former ``TruncatedSeries.__mul__``, kept as the oracle for the
    packed kernel."""
    n = min(f.order, g.order)
    out = [Fraction(0)] * (n + 1)
    mine, theirs = f.coeffs, g.coeffs
    for i, a in enumerate(mine[: n + 1]):
        if a == 0:
            continue
        for j in range(0, n + 1 - i):
            b = theirs[j]
            if b != 0:
                out[i + j] = out[i + j] + a * b
    return TruncatedSeries(tuple(out), n)


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """d/dX f, to one order less (order 0 stays 0)."""
    cs = f.coeffs
    return TruncatedSeries([(i + 1) * cs[i + 1] for i in range(f.order)], max(f.order - 1, 0))


def gfun_matrix(g: int, grid, integral=False) -> GFunMatrix:
    """A GFunMatrix of a nested list of series."""
    return GFunMatrix(g, tuple(tuple(row) for row in grid), integral)


def gfun_add(f: GFunMatrix, g: GFunMatrix) -> GFunMatrix:
    """The entrywise sum, integral where both entries are."""
    flags = tuple(tuple(a and b for a, b in zip(ra, rb)) for ra, rb in zip(f.integral, g.integral))
    entries = tuple(tuple(series_add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(f.entries, g.entries))
    return GFunMatrix(f.g, entries, flags)


def family_to_json(fam: GaussManinCoefficients) -> dict:
    """A coefficient family in the JSON form ``GaussManinCoefficients.from_json`` reads."""
    a = [[[s.to_json() for s in row] for row in block] for block in fam.series]
    return {"g": fam.g, "N": fam.deriv_order, "integral": fam.integral, "a": a}


def frac_by_fraction(s, path: str) -> Fraction:
    """The former ``scalars._frac_parse``, every string through ``Fraction``
    but a plain integer: the oracle for the one ASCII parser."""
    if isinstance(s, int):
        return Fraction(s)
    try:
        if isinstance(s, str) and (s[1:] if s[:1] == "-" else s).isdecimal():
            return Fraction(int(s))
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        quoted = repr(s)
        quoted = quoted if len(quoted) <= QUOTE_CAP else quoted[:QUOTE_CAP] + "..."
        limit = sys.get_int_max_str_digits()
        if limit and max(map(len, re.findall(r"\d+", str(s))), default=0) > limit:
            raise DecodeError(f"{path}: a number past the limit of {limit} digits: {quoted}")
        raise DecodeError(f"{path}: not a rational number: {quoted}")


def scalar_by_fraction(obj, path: str) -> Scalar:
    """The former ``scalars.scalar_from_json``, on :func:`frac_by_fraction`."""
    if not isinstance(obj, dict):
        return frac_by_fraction(obj, path)
    for key in ("d", "a", "b"):
        if key not in obj:
            raise DecodeError(f"{path}.{key}: missing")
    try:
        d = int(obj["d"])
    except (TypeError, ValueError):
        raise DecodeError(f"{path}.d: not an integer: {obj['d']!r}")
    a, b = frac_by_fraction(obj["a"], f"{path}.a"), frac_by_fraction(obj["b"], f"{path}.b")
    try:
        return QuadScalar(d, a, b)
    except ScalarError as exc:
        raise DecodeError(f"{path}.d: {exc}")


def series_by_scalars(obj, path: str = "") -> tuple:
    """(order, coefficients) by the former ``TruncatedSeries.from_json``, one
    scalar per coefficient, zero-padded; with the refusal of a list longer
    than order + 1 that the cleared decoder added.  The oracle for it."""
    at = (path + ".") if path else ""
    if not isinstance(obj, dict):
        raise DecodeError(f"{path or 'series'}: expected an object")
    order = json_int(obj, "order", at, low=0, high=MAX_ORDER)
    coeffs = json_list(json_field(obj, "coeffs", at), f"{at}coeffs")
    if len(coeffs) > order + 1:
        raise DecodeError(f"{at}coeffs: expected at most {order + 1} entries, got {len(coeffs)}")
    values = [scalar_by_fraction(c, f"{at}coeffs[{i}]") for i, c in enumerate(coeffs)]
    return order, tuple(values + [Fraction(0)] * (order + 1 - len(values)))


def series_json_by_scalars(order: int, values) -> dict:
    """The former ``TruncatedSeries.to_json``, one scalar at a time."""
    return {"order": order, "coeffs": [scalar_to_json(c) for c in values]}


def integral_by_scalars(values) -> bool:
    """The former ``TruncatedSeries.is_integral``, whatever the scalars' types."""
    return all(c.denominator == 1 if type(c) is Fraction else c.b == 0 and c.a.denominator == 1 for c in values)


def gfun_by_scalars(obj) -> list:
    """The entries of a gfun document whose ``g`` and ``integral`` are well
    formed, each by :func:`series_by_scalars`, and then GFunMatrix's checks
    in its order: one truncation order, then the integrality asserted."""
    entries = [[series_by_scalars(s, f"entries[{i}][{j}]") for j, s in enumerate(row)] for i, row in enumerate(obj["entries"])]
    if len({order for row in entries for order, _ in row}) > 1:
        raise DecodeError("entries: entries must share one truncation order")
    if obj.get("integral") is True and not all(integral_by_scalars(v) for row in entries for _, v in row):
        raise DecodeError("entries: integrality asserted but computed coefficients are not integers")
    return entries


def compose_generic(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g) by Horner over schoolbook scalar products, any scalar kind: the
    former generic path of ``series.compose``, kept as the oracle for its
    packed kernel."""
    n = min(f.order, g.order)
    g = g.truncate(n)
    # Horner from the top coefficient down
    acc = series_constant(f.coeffs[n], n)
    for i in range(n - 1, -1, -1):
        acc = series_add(series_mul(acc, g), series_constant(f.coeffs[i], n))
    return acc


def derive_generic(f: GFunMatrix, a: GaussManinCoefficients, out_order: int) -> GFunMatrix:
    """derive_G by schoolbook series products, any scalar kind: the former
    generic path of ``gfun.derive_G``, kept as the oracle for its packed
    kernel."""
    g, n = f.g, a.deriv_order
    # derivs[l-1][j-1][k] = d^k F[l][j] truncated, each built once from d^(k-1)
    derivs = []
    for row in f.entries:
        derivs.append([])
        for s in row:
            chain = [s]
            for _ in range(n):
                chain.append(derivative(chain[-1]))
            derivs[-1].append([c.truncate(out_order) for c in chain])
    out = []
    for i in range(1, g + 1):
        row = []
        for j in range(1, g + 1):
            acc = series_zero(out_order)
            for k in range(0, n + 1):
                for l in range(1, g + 1):
                    coeff = a.a(i, k, l)
                    if not any(coeff.coeffs):
                        continue
                    term = series_mul(coeff.truncate(out_order), derivs[l - 1][j - 1][k])
                    acc = series_add(acc, term)
            row.append(acc)
        out.append(row)
    return gfun_matrix(g, out)


def inverse_generic(f: TruncatedSeries) -> TruncatedSeries:
    """Newton iteration with doubling precision over schoolbook scalar
    arithmetic, any scalar kind: the former generic path of
    ``series.compositional_inverse``, kept as the oracle for its packed
    kernel."""
    n = f.order
    c1 = f.coeffs[1]
    inv1 = Fraction(1) / c1 if isinstance(c1, Fraction) else c1.inverse()
    # zero-pad the derivative to order n: with doubling precision the padded
    # coefficient only ever multiplies into orders beyond the truncation
    fprime = TruncatedSeries(list(derivative(f).coeffs), n)
    g = TruncatedSeries([0, inv1], 1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        gk = TruncatedSeries(list(g.coeffs), prec)
        err = series_add(compose_generic(f.truncate(prec), gk), series_x(prec), -1)
        corr = series_mul(err, series.reciprocal(compose_generic(fprime.truncate(prec), gk)))
        g = series_add(gk, corr, -1)
    return g


def solve(a, rhs) -> list | None:
    """Solve a x = rhs exactly; None when the system has no solution.  An
    underdetermined system gets the solution whose free variables are zero,
    pivots scanned in column order."""
    x = mx._solve(a, [[y] for y in rhs])[0]
    return None if x is None else [v for v, in x]


def solve_nonsingular(a, rhs) -> list | None:
    """Solve a square system a x = rhs in one elimination; None when a is singular."""
    x, r = mx._solve(a, [[y] for y in rhs])
    return [v for v, in x] if r == len(a) else None


def unfreeze(m) -> list:
    """A mutable copy of a frozen matrix."""
    return [list(row) for row in m]


def matrix_at(p, assignment) -> tuple:
    """The value of every entry of a polynomial matrix at one assignment."""
    return mx.freeze([[e.evaluate(assignment) for e in row] for row in p])


def constant_matrix(m) -> tuple:
    """A scalar matrix as a matrix of constant polynomials."""
    return mx.freeze([[MultiPoly.constant(x) for x in row] for row in m])


def poly_matrix_to_json(p) -> dict:
    """A polynomial matrix in the relation-matrix JSON format."""
    return {"rows": len(p), "cols": len(p[0]) if p else 0, "entries": [[e.to_json() for e in row] for row in p]}


def radius_at(radii: PlaceRadii, v: Place) -> tuple[float, bool]:
    """The (radius, certified) pair that ``radii`` holds for the place v."""
    for place, r, cert in radii.radii:
        if place == v:
            return r, cert
    raise KeyError(f"no radius for place {v}")


def gauss(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """In-place Gauss-Jordan over a field: (rows, pivot columns).  The
    former field engine of ``matrices``, kept as the oracle for its Bareiss
    kernel."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def det_gauss(m):
    """The determinant by Gaussian elimination over the entries' own field:
    the former field determinant of ``matrices``, kept as an oracle."""
    n = len(m)
    rows = [list(row) for row in m]
    out = None
    sign = 1
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if rows[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        p = rows[k][k]
        out = p if out is None else out * p
        for i in range(k + 1, n):
            if rows[i][k] != 0:
                f = rows[i][k] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return out if sign == 1 else -out


def kron(a, b) -> tuple:
    """The Kronecker product a (x) b, entry by entry a[i][j] * b[k][l]."""
    (ra, ca), (rb, cb) = mx.shape(a), mx.shape(b)
    return mx.freeze([[a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb)] for i in range(ra * rb)])


def sylvester_solvable(act: EndomorphismAction) -> bool:
    """Whether the period-data Sylvester system is nonsingular.

    Singularity happens exactly when the spectra of A and D meet, which no
    choice of F can repair; checked via the Kronecker linearization.
    """
    eye = mx.identity(act.g)
    lin = mx.mat_sub(kron(eye, act.A), kron(mx.transpose(act.D), eye))
    return mx.rank(lin) == act.g * act.g


def standard_form(g: int):
    """J = [[0, I], [-I, 0]] as an exact 2g x 2g matrix."""
    top = mx.hstack(mx.zeros(g, g), mx.identity(g))
    bottom = mx.hstack(mx.scalar_mul(Fraction(-1), mx.identity(g)), mx.zeros(g, g))
    return mx.vstack(top, bottom)


def similitude_defect(m, mu, g: int):
    """M^t J M - mu J over the matrices' own scalars: the oracle for
    ``matrices.is_similitude``, zero exactly when M is a mu-similitude.

    J M is a signed row swap of M (its last g rows, then its first g rows
    negated), so the defect takes one matrix product.
    """
    jm = [*m[g:], *([-x for x in row] for row in m[:g])]
    return mx.mat_sub(mx.mat_mul(mx.transpose(m), jm), mx.scalar_mul(mu, standard_form(g)))


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


def mixed_action(rng, g: int, d: int | None) -> EndomorphismAction:
    """A random action over Q (d None), or over Q(sqrt d) with entries mixing
    Fraction, rational-valued QuadScalar and genuinely quadratic values."""

    def entry():
        a = Fraction(rng.randint(-3, 3)) / rng.randint(1, 2)
        kind = rng.randrange(3) if d else 0
        return a if kind == 0 else QuadScalar(d, a, Fraction(0) if kind == 1 else Fraction(rng.choice((-2, -1, 1, 2))) / 2)

    make = lambda: mx.freeze([[entry() for _ in range(g)] for _ in range(g)])
    return EndomorphismAction(g, make(), make(), make())


def mixed_case3_input(g: int, seed: int) -> Case3Input:
    """Case-3 data whose blocks mix Fraction, rational-valued QuadScalar and
    genuinely quadratic entries of one Q(sqrt d), with sqrt_e rational or
    quadratic (deterministic).

    The change of basis is S diag(R, (1/e) R^-1) for a symplectic S and a
    diagonal R of mixed entries, a similitude with multiplier 1/e; then
    entries of equal value are retyped at random between Fraction and
    rational-valued QuadScalar, some of them tagged with another d.  H
    mixes the same kinds of entries, with zeros common enough that both
    pairing entries the construction reads vanish now and then.
    """
    rng = random.Random(seed)
    d = rng.choice((2, 3, 5, 7))
    s = sample_symplectic(g, seed, word_length=rng.randint(1, 6)).matrix
    sqrt_e = rng.choice(
        (Fraction(2), Fraction(1, 3), QuadScalar(d, 3, 0), QuadScalar(11, 2, 0),
         QuadScalar(d, 0, 1), QuadScalar(d, 0, Fraction(1, 2)), QuadScalar(d, 0, 3))
    )
    e = (sqrt_e * sqrt_e).a if isinstance(sqrt_e, QuadScalar) else sqrt_e * sqrt_e
    kinds = (Fraction(1), Fraction(-2), QuadScalar(d, 3, 0), QuadScalar(d, 0, 1), QuadScalar(d, 1, -1))
    r = [rng.choice(kinds) for _ in range(g)]
    scale = r + [1 / (e * x) for x in r]

    def retype(x):
        if isinstance(x, QuadScalar) and x.b == 0 and rng.random() < 0.5:
            return x.a
        if isinstance(x, Fraction) and rng.random() < 0.3:
            return QuadScalar(rng.choice((d, 11)), x, 0)
        return x

    m = [[retype(s[i][j] * scale[j]) for j in range(2 * g)] for i in range(2 * g)]
    h_kinds = (Fraction(0), Fraction(0), Fraction(1), Fraction(-2), QuadScalar(d, 1, 0), QuadScalar(11, 3, 0),
               QuadScalar(d, 0, 1))
    while True:
        hmat = mx.freeze([[rng.choice(h_kinds) for _ in range(g)] for _ in range(g)])
        if mx.det(hmat) != 0:
            break
    blocks = [mx.submatrix(m, rows, cols) for rows in (range(g), range(g, 2 * g)) for cols in (range(g), range(g, 2 * g))]
    return Case3Input(g, hmat, *blocks, sqrt_e)


def phi_substitution(inp: Case3Input) -> dict[VarId, MultiPoly]:
    """Y -> A^t Y + C^t Z, Z -> B^t Y + D^t Z as a variable substitution: the
    oracle for the case-3 transport of the quadratic relation."""
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


def case3_quadratic(inp: Case3Input) -> MultiPoly:
    """lambda r - mu s, the quadratic that the case-3 construction reads off
    the pairing H^t J H before the change of basis, by its (lambda, mu) rule:
    the oracle for its two column pairings, from the full matrix product."""
    h = inp.g // 2
    pairing = mx.mat_mul(mx.mat_mul(mx.transpose(inp.H), standard_form(h)), inp.H)
    m12, m1h2 = pairing[0][1], pairing[0][h + 1]
    lam, mu = (Fraction(1), Fraction(0)) if m12 == 0 else (Fraction(0), Fraction(1)) if m1h2 == 0 else (m1h2, m12)
    r, s = quadratic_relation_polys(inp.g)
    return r.scale(lam) - s.scale(mu)


def mat_mul_generic(a, b) -> tuple:
    """The schoolbook product over any entries: the oracle for the cleared
    rational path of matrices.mat_mul."""
    return mx.freeze([functools.reduce(operator.add, map(operator.mul, row, col)) for col in zip(*b)] for row in a)


@functools.cache
def _symbolic_chain_blocks(g: int) -> tuple:
    yt, zt = (mx.transpose(symbolic_matrix(block, g)) for block in "YZ")
    return yt, zt, mat_mul_generic(adjugate(yt), zt), determinant(mx.transpose(yt))


def nonarch_relation_by_products(act: EndomorphismAction) -> tuple:
    """The relation matrix Y^t A adj(Y^t) Z^t - det(Y) (Y^t B + Z^t D) as the
    former chain of MultiPoly products over the action's scalars: the oracle
    for relations._relation_entry."""
    yt, zt, adj_zt, det_y = _symbolic_chain_blocks(act.g)
    lhs = mat_mul_generic(mat_mul_generic(yt, act.A), adj_zt)
    rhs = mx.mat_add(mat_mul_generic(yt, act.B), mat_mul_generic(zt, act.D))
    return mx.freeze([x - e * det_y for x, e in zip(lrow, rrow)] for lrow, rrow in zip(lhs, rhs))


def synthesize_by_fractions(act: EndomorphismAction, seed: int) -> tuple:
    """(M, F, G) by the former path of synthesize_period_data, on the
    action's scalars: F^t A (F^t)^-1 by schoolbook products and the Sylvester
    system as scalar rows.  The oracle for its integer path."""
    if act.is_scalar():
        raise RelationError("no relation derivable from scalar endomorphism")
    g, rng = act.g, random.Random(seed)
    for _ in range(MAX_F_DRAWS):
        f = mx.freeze([[Fraction(rng.randint(-4, 4)) for _ in range(g)] for _ in range(g)])
        ft, ft_inv = mx.transpose(f), mx.inverse(mx.transpose(f))
        if ft_inv is not None:
            break
    else:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    m = mat_mul_generic(mat_mul_generic(ft, act.A), ft_inv)
    lin = []
    for j in range(g):
        for i in range(g):
            row = [Fraction(0)] * (g * g)
            row[j * g : j * g + g] = m[i]
            for l in range(g):
                row[l * g + i] = row[l * g + i] - act.D[l][j]
            lin.append(row)
    fb = mat_mul_generic(ft, act.B)
    sol = solve_nonsingular(lin, [fb[i][j] for j in range(g) for i in range(g)])
    if sol is None:
        raise RelationError("endomorphism spectra force coupling; supply F manually")
    return m, f, mx.freeze(sol[j * g : j * g + g] for j in range(g))


def verify_by_fractions(data, act: EndomorphismAction) -> bool:
    """SyntheticPeriodData.verify by schoolbook products."""
    ft, gt = mx.transpose(data.F), mx.transpose(data.G)
    eq1 = mx.mat_eq(mat_mul_generic(data.M, ft), mat_mul_generic(ft, act.A))
    rhs = mx.mat_add(mat_mul_generic(ft, act.B), mat_mul_generic(gt, act.D))
    return eq1 and mx.mat_eq(mat_mul_generic(data.M, gt), rhs)


@dataclass(frozen=True)
class SelectedEntry:
    i: int  # 1-based entry indices
    j: int
    witness_y: tuple
    witness_z: tuple
    value: Scalar
    case: str  # "B_nonzero" | "A_ne_D" | "A_non_scalar"


def select_nontrivial_entry(p, act: EndomorphismAction) -> SelectedEntry:
    """An entry of the relation matrix p together with the exact witness
    (y, z) of the three-case table, which is isotropic and gives a nonzero
    value; only that entry of p is evaluated.

    B != 0 gives (I, 0) with value -B; B = 0, A != D gives (I, I) with value
    A - D; otherwise A = D is non-scalar and a symmetric z not commuting with
    A gives value Az - zD.  At y = I the matrix is A z^t - B - z^t D, so the
    position is read off that scalar matrix.  The certificate's two-row table
    (``relations._witness_entry``) drops the last row, which its period data
    synthesis always refuses first; the relation matrix itself has it."""
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
    return SelectedEntry(i + 1, j + 1, wy, wz, p[i][j].evaluate(point_assignment(wy, wz)), case)


def _noncommuting_symmetric(a) -> tuple:
    """Symmetric z with Az != zA, following the explicit choice rule:
    z = E_ii at a non-diagonal entry's column, else z = E_ij + E_ji at a
    pair of distinct diagonal entries.  A scalar a has none."""
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


def expected_witness_value(act: EndomorphismAction, entry: SelectedEntry):
    """The case table's predicted value matrix at the witness."""
    if entry.case == "B_nonzero":
        return mx.scalar_mul(Fraction(-1), act.B)
    if entry.case == "A_ne_D":
        return mx.mat_sub(act.A, act.D)
    z = entry.witness_z
    return mx.mat_sub(mx.mat_mul(act.A, z), mx.mat_mul(z, act.D))


class ProductCertificate(RelationCertificate):
    """A product of relation certificates, with its factors in ``parts``."""

    def __init__(self, *args, parts: tuple = (), **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "parts", parts)


def assemble_global_relation(parts) -> RelationCertificate:
    """Product of certified-non-trivial factors.

    Degree adds; non-triviality of the product is inherited from primality
    of the trivial-relations ideal, which is recorded as an assumed fact
    with each factor's own certificate attached rather than re-verified.
    """
    if not parts:
        raise RelationError("nothing to assemble")
    for part in parts:
        if part.nontriviality.status != "not_in_ideal_certified":
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
    return ProductCertificate(
        polynomial=poly,
        degree=sum(p.degree for p in parts),
        construction_kind="product",
        nontriviality=verdict,
        parts=tuple(parts),
        notes=f"{len(parts)} factors",
    )


def complete_to_symplectic_basis(frame: IsotropicFrame) -> SymplecticSample:
    """Extend an independent isotropic frame to a full symplectic sample.

    Greedy symplectic Gram-Schmidt: the dual vector for each frame column is
    found by an exact linear solve whose pivot scan follows the standard
    basis in index order, then corrected against previously built duals; the
    output is deterministic given the frame, the first g columns equal the
    input columns, and the multiplier is 1.
    """
    g = frame.g
    n = 2 * g
    cols = [[frame.columns[r][c] for r in range(n)] for c in range(g)]
    if mx.rank(mx.freeze([[cols[c][r] for c in range(g)] for r in range(n)])) != g:
        raise ValueError("frame not full rank")
    if not frame.verify():
        raise ValueError("frame not isotropic")
    duals: list[list[Fraction]] = []
    for jj in range(g):
        # <w_k, u> = delta_{k jj} for all k
        system = mx.freeze([[_jrow(cols[k], c) for c in range(n)] for k in range(g)])
        rhs = [Fraction(int(k == jj)) for k in range(g)]
        u = solve(system, rhs)
        if u is None:
            raise ValueError("frame not full rank")
        # kill pairings with already-built duals by adding frame columns
        for i, ui in enumerate(duals):
            c = pairing(ui, u)
            if c != 0:
                u = [x + c * w for x, w in zip(u, cols[i])]
        duals.append(u)
    full = [[(cols[c][r] if c < g else duals[c - g][r]) for c in range(2 * g)] for r in range(n)]
    return SymplecticSample(full, Fraction(1))


def _jrow(w, c: int) -> Fraction:
    """Coefficient of unknown u_c in <w, u> = w^t J u: J has 1 at (i, g+i)
    and -1 at (g+i, i)."""
    g = len(w) // 2
    return w[c - g] if c >= g else -w[g + c]


def padic_abs_exact(x: Fraction | int, p: int) -> Fraction:
    """|x|_p as an exact rational (for exact tail-bound comparisons)."""
    if x == 0:
        return Fraction(0)
    v = valuation(x, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def conjugate(x: Scalar) -> Scalar:
    """Galois conjugate: a + b*sqrt(d) -> a - b*sqrt(d); rationals are fixed."""
    if isinstance(x, QuadScalar):
        return x.conjugate()
    return Fraction(x)


def identity_family(g: int, order: int) -> GaussManinCoefficients:
    """a[i][0][l] = delta_il, no derivative terms: derived matrix = input."""
    series = tuple(
        (tuple(series_constant(Fraction(int(i == l)), order) for l in range(1, g + 1)),)
        for i in range(1, g + 1)
    )
    return GaussManinCoefficients(g, 0, series, integral=True)


def horner_kcompose(f: tuple, g: tuple, d: int | None) -> tuple:
    """The former packed-kernel composition, kept as the oracle for
    series._kcompose: f(g) by Horner to len(g) coefficients, one truncated
    product per coefficient of f; g has zero constant term."""
    m = len(g[0])
    acc = tuple([part[m - 1]] for part in f)
    for i in range(m - 2, -1, -1):
        acc = series._kmul(acc, g, m, d)
        for part, fpart in zip(acc, f):
            part[0] += fpart[i]
    return acc


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
        for v in sorted({v for v, _ in self.exps} | {v for v, _ in other.exps}, key=_var_key):
            es, eo = self.exponent(v), other.exponent(v)
            if es != eo:
                return es > eo
        return False


def _var_key(v: VarId) -> tuple:
    """The variable order Y[1,1] < ... < Y[g,g] < Z[1,1] < ..., read off the
    names rather than the int codes."""
    return "YZ".index(v.block), v.row, v.col


def _by_key(pairs) -> tuple:
    return tuple(sorted(pairs, key=lambda p: _var_key(p[0])))


def pair_poly_to_json(terms: dict) -> list:
    """MultiPoly.to_json for a {PairMonomial: coefficient} dict."""
    out = []
    for m in sorted(terms, reverse=True):
        mono = [[v.block, v.row, v.col, e] for v, e in m.exps]
        out.append({"coeff": scalar_to_json(terms[m]), "monomial": mono})
    return out


def poly_from_json_by_varid(obj, path: str = "poly") -> MultiPoly:
    """The former ``MultiPoly.from_json``, one :class:`VarId` per variable
    occurrence: the oracle for the decoder that reads int codes directly."""
    total: dict = {}
    for k, term in enumerate(json_list(obj, path)):
        at, exps = f"{path}[{k}].", {}
        for n, ent in enumerate(json_list(json_field(term, "monomial", at), f"{at}monomial")):
            p, keys = f"{at}monomial[{n}]", ("block", "row", "col", "exponent")
            named = dict(zip(keys, json_list(ent, p)))
            row, col, e = (json_int(named, key, p + ".", low=0) for key in keys[1:])
            json_list(ent, p, len(keys))
            try:
                v = VarId(named["block"], row, col)
            except ValueError as exc:
                raise DecodeError(f"{p}: {exc}")
            exps[v] = exps.get(v, 0) + e
        if sum(exps.values()) > DEGREE_CAP:
            raise DecodeError(f"{at}monomial: degree must be <= {DEGREE_CAP}")
        m = Monomial.of(*exps.items())
        c = scalar_from_json(json_field(term, "coeff", at), f"{at}coeff")
        total[m] = total.get(m, Fraction(0)) + c
    return MultiPoly(total)


def membership_samples_first(p: MultiPoly, ideal: TrivialIdeal, sample_budget: int = 25, seed: int = 0):
    """The former ``trivial_ideal.membership``: the structured witnesses,
    then every sampled point, then the remainder.  The oracle for the
    remainder-first order, whose verdicts agree except that a member's
    ``samples_tested`` is 4, not 4 + budget."""
    g = ideal.g
    points = chain(structured_witnesses(g), _iter_sampled_points(g, sample_budget, seed))
    tested = 0
    for y, z in points:
        tested += 1
        val = p.evaluate(point_assignment(y, z))
        if val != 0:
            return MembershipVerdict(
                "not_in_ideal_certified", "witness_point", witness=(y, z), value=val, samples_tested=tested
            )
    try:
        rem = ideal_remainder(p, ideal.generators)
    except ResourceCapExceeded as exc:
        return MembershipVerdict("undecided", "none", samples_tested=tested, detail=str(exc))
    if not rem:
        return MembershipVerdict("in_ideal_certified", "groebner_remainder", remainder=rem, samples_tested=tested)
    return MembershipVerdict(
        "not_in_ideal_certified",
        "groebner_remainder",
        remainder=rem,
        samples_tested=tested,
        detail="nonzero normal form; no sampled witness found",
    )
