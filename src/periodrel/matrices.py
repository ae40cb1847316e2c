"""Dense exact linear algebra over the scalar fields.

Matrices are plain tuples of tuples (immutable) or lists of lists during
construction; entries are Fractions or QuadScalars.  Everything here is
exact; Bareiss elimination keeps rational determinants fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .scalars import Scalar, json_list, scalar_from_json, scalar_to_json

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
# Elimination-based kernels


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


def rank(m) -> int:
    r, c = shape(m)
    if r == 0 or c == 0:
        return 0
    rows = [list(row) for row in m]
    _, pivots = _gauss(rows, c)
    return len(pivots)


def solve(a, rhs: Sequence[Scalar]):
    """Solve a x = rhs exactly; None when the system has no solution.

    For underdetermined consistent systems returns the particular solution
    with all free variables set to zero (pivot scan in column index order,
    hence deterministic).
    """
    r, c = shape(a)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(a)]
    rows, pivots = _gauss(rows, c)
    # consistency: a zero row with nonzero augment
    for row in rows:
        if all(x == 0 for x in row[:c]) and row[c] != 0:
            return None
    x = [Fraction(0)] * c
    for rix, col in enumerate(pivots):
        x[col] = rows[rix][c]
    return x


def inverse(m):
    """Exact inverse, or None when singular."""
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse of non-square matrix")
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = _gauss(rows, n)
    if len(pivots) != n:
        return None
    return freeze([row[n:] for row in rows])


def det(m) -> Scalar:
    """Exact determinant; Bareiss on cleared denominators for rationals."""
    n, c = shape(m)
    if n != c:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    if all(isinstance(x, (int, Fraction)) for row in m for x in row):
        return _det_bareiss(m)
    return _det_gauss(m)


def _det_bareiss(m) -> Fraction:
    n = len(m)
    scale = Fraction(1)
    rows = []
    for row in m:
        den = 1
        for x in row:
            f = Fraction(x)
            den = den * f.denominator // gcd(den, f.denominator)
        scale *= den
        rows.append([int(Fraction(x) * den) for x in row])
    # fraction-free elimination on the integer matrix
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return Fraction(sign * rows[n - 1][n - 1], 1) / scale


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
