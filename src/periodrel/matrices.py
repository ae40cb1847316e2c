"""Dense exact linear algebra over the scalar fields.

Matrices are plain tuples of tuples (immutable) or lists of lists during
construction; entries are Fractions or QuadScalars.  Everything here is
exact.  Matrices over Q or one Q(sqrt d) run on cleared integer rows: Bareiss
elimination for rank, solve, inverse and det, and integer products for the
similitude test.  Other entries take the generic field path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .scalars import QuadScalar, Scalar, json_list, scalar_from_json, scalar_to_json

Matrix = tuple  # tuple[tuple[Scalar, ...], ...]


def freeze(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def shape(m) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def identity(n: int) -> Matrix:
    return freeze([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def zeros(r: int, c: int) -> Matrix:
    return freeze([[Fraction(0)] * c for _ in range(r)])


def transpose(m) -> Matrix:
    r, c = shape(m)
    return freeze([[m[i][j] for i in range(r)] for j in range(c)])


def mat_mul(a, b) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"dimension mismatch: {ra}x{ca} * {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            s = a[i][0] * b[0][j]
            for k in range(1, ca):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return freeze(out)


def mat_add(a, b) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError("dimension mismatch in addition")
    return freeze([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_sub(a, b) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError("dimension mismatch in subtraction")
    return freeze([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def scalar_mul(c: Scalar, m) -> Matrix:
    return freeze([[c * x for x in row] for row in m])


def is_zero_matrix(m) -> bool:
    return all(x == 0 for row in m for x in row)


def mat_eq(a, b) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def hstack(a, b) -> Matrix:
    return freeze([list(ra) + list(rb) for ra, rb in zip(a, b)])


def vstack(a, b) -> Matrix:
    return freeze(list(a) + list(b))


def block(tl, tr, bl, br) -> Matrix:
    return vstack(hstack(tl, tr), hstack(bl, br))


def submatrix(m, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return freeze([[m[i][j] for j in cols] for i in rows])


def kron(a, b) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = [[a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb)] for i in range(ra * rb)]
    return freeze(out)


def vec_cols(m) -> list:
    """Column-major stacking (so vec(AXB) = kron(B^t, A) vec(X))."""
    r, c = shape(m)
    return [m[i][j] for j in range(c) for i in range(r)]


def unvec_cols(v: Sequence[Scalar], rows: int, cols: int) -> Matrix:
    return freeze([[v[j * rows + i] for j in range(cols)] for i in range(rows)])


# ---------------------------------------------------------------------------
# Exact integer kernel: matrices over Q or one Q(sqrt d), denominators cleared


def clear_denominators(m):
    """Write m as (P + Q sqrt(d)) / D with P, Q int rows and D > 0.

    Returns (d, P, Q, D), d None when every entry is rational-valued, or None
    when entries lie in two quadratic fields or are not scalars.  Rows may
    differ in length, so a scalar can ride along as a row of its own.
    """
    d = None
    for row in m:
        for x in row:
            if isinstance(x, QuadScalar):
                if x.b and x.d != d:
                    if d is not None:
                        return None
                    d = x.d
            elif not isinstance(x, (int, Fraction)):
                return None
    parts = [[(x.a, x.b) if isinstance(x, QuadScalar) else (x, 0) for x in row] for row in m]
    den = lcm(*(y.denominator for row in parts for pair in row for y in pair))
    p = [[a.numerator * (den // a.denominator) for a, _ in row] for row in parts]
    q = [[b.numerator * (den // b.denominator) for _, b in row] for row in parts]
    return d, p, q, den


def is_similitude(m, mu, g: int) -> bool:
    """Whether M^t J M = mu J exactly, J = [[0, I], [-I, 0]] of size 2g.

    Over Q or one Q(sqrt d), M = (P + Q sqrt d)/D and mu = (u + v sqrt d)/D,
    and the identity splits into two over the integers:
    P^t J P + d Q^t J Q = u D J and P^t J Q + Q^t J P = v D J.  J X is a
    signed row swap of X, and both sides are skew, so only entries above the
    diagonal are compared.  Entries from two quadratic fields take the
    generic product M^t (J M) instead.
    """
    n = 2 * g
    cleared = clear_denominators([*m, (mu,)])
    if cleared is None:
        prod = mat_mul(transpose(m), [*m[g:], *([-x for x in row] for row in m[:g])])
        return all(
            prod[i][j] - (mu if j == i + g else -mu if i == j + g else 0) == 0
            for i in range(n)
            for j in range(n)
        )
    d, p, q, den = cleared
    (u,), (v,) = p.pop(), q.pop()
    pc, qc = list(zip(*p)), list(zip(*q))
    jp = [c[g:] + tuple(-x for x in c[:g]) for c in pc]  # columns of J P
    jq = [c[g:] + tuple(-x for x in c[:g]) for c in qc]
    return all(
        sum(map(mul, pc[i], jp[j])) + (d or 0) * sum(map(mul, qc[i], jq[j])) == (u * den if j == i + g else 0)
        and sum(map(mul, pc[i], jq[j])) + sum(map(mul, qc[i], jp[j])) == (v * den if j == i + g else 0)
        for i in range(n)
        for j in range(i + 1, n)
    )


def _int_rows(rows) -> tuple[list[list[int]], int] | None:
    """(the rows times their common denominator D, as ints; D), or None
    unless every entry is an int or a Fraction."""
    if all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        _, p, _, den = clear_denominators(rows)
        return p, den
    return None


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of int rows, in place (Bareiss).

    Pivots are taken as in :func:`_gauss`.  After each step the rows below
    hold minors of the input and the rows above their reduced rows times the
    new pivot, so every division by the previous pivot is exact.  Returns
    (pivot columns, last pivot, sign of the row permutation); the rows end
    as the reduced row echelon form times the last pivot.
    """
    pivots = []
    prev = sign = 1
    n = len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pr = rows[r]
        piv = pr[c]
        for i in range(n):
            if i != r:
                f = rows[i][c]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], pr)]
        pivots.append(c)
        prev = piv
    return pivots, prev, sign


def _gauss(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """In-place row echelon over a field; returns (rows, pivot column list)."""
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


def _reduce(rows: list[list], ncols: int) -> tuple[list[list], list[int], int | None]:
    """Reduced row echelon form in the first ncols columns: (rows, pivots, unit).

    Rows of ints and Fractions are cleared and run through :func:`_bareiss`,
    and a reduced entry x stands for x / unit.  Other scalars run
    :func:`_gauss`, and unit is None.
    """
    cleared = _int_rows(rows)
    if cleared is None:
        return *_gauss(rows, ncols), None
    pivots, unit, _ = _bareiss(cleared[0], ncols)
    return cleared[0], pivots, unit


def rank(m) -> int:
    return len(_reduce([list(row) for row in m], shape(m)[1])[1])


def _solve(a, rhs: Sequence[Scalar]) -> tuple[list | None, int]:
    """(the solution of solve(a, rhs), rank of a) from one elimination."""
    r, c = shape(a)
    rows, pivots, unit = _reduce([list(row) + [rhs[i]] for i, row in enumerate(a)], c)
    # consistency: a zero row with nonzero augment
    if any(row[c] != 0 for row in rows[len(pivots):]):
        return None, len(pivots)
    x = [Fraction(0)] * c
    for rix, col in enumerate(pivots):
        x[col] = rows[rix][c] if unit is None else Fraction(rows[rix][c], unit)
    return x, len(pivots)


def solve(a, rhs: Sequence[Scalar]):
    """Solve a x = rhs exactly; None when the system has no solution.

    For underdetermined consistent systems returns the particular solution
    with all free variables set to zero (pivot scan in column index order,
    hence deterministic).
    """
    return _solve(a, rhs)[0]


def solve_nonsingular(a, rhs: Sequence[Scalar]):
    """Solve a square system a x = rhs in one elimination; None when a is singular."""
    x, r = _solve(a, rhs)
    return x if r == len(a) else None


def inverse(m):
    """Exact inverse, or None when singular."""
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse of non-square matrix")
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots, unit = _reduce(rows, n)
    if len(pivots) != n:
        return None
    return freeze([[x if unit is None else Fraction(x, unit) for x in row[n:]] for row in rows])


def det(m) -> Scalar:
    """Exact determinant; Bareiss on cleared denominators for rationals."""
    n, c = shape(m)
    if n != c:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    cleared = _int_rows(m)
    if cleared is None:
        return _det_gauss(m)
    pivots, last, sign = _bareiss(cleared[0], n)
    return Fraction(sign * last, cleared[1] ** n) if len(pivots) == n else Fraction(0)


def _det_gauss(m) -> Scalar:
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


# ---------------------------------------------------------------------------
# JSON (row-major, scalar-encoded entries)


def matrix_to_json(m) -> list:
    return [[scalar_to_json(x) for x in row] for row in m]


def matrix_from_json(obj, path: str = "matrix", n: int | None = None) -> Matrix:
    """Decode a matrix, n x n when n is given; a malformed one raises
    :class:`DecodeError` naming its path, e.g. ``H[1]: expected 4 entries``."""
    return freeze(
        [scalar_from_json(x, f"{path}[{i}][{j}]") for j, x in enumerate(json_list(row, f"{path}[{i}]", n))]
        for i, row in enumerate(json_list(obj, path, n))
    )
