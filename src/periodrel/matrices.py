"""Dense exact linear algebra over Q and one Q(sqrt d).

Matrices are plain tuples of tuples (immutable) or lists of lists during
construction; entries are ints, Fractions or QuadScalars.  One Bareiss kernel
eliminates on cleared denominators: over the integers, a matrix over
Q(sqrt d) in its rational block form, except det over Q(sqrt d), which runs
on the entries P + Q sqrt d.  Entries from two quadratic fields are refused
before any work."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Sequence

from .scalars import Scalar, cleared, json_list, quadratic_field, uncleared
from .scalars import scalar_from_json, scalar_to_json

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
    """a b.  Rational operands (Fraction entries, and int) are cleared once
    each and multiplied as int matrices, each entry built once over the two
    denominators; others (QuadScalar, MultiPoly, ints alone) loop generically."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"dimension mismatch: {ra}x{ca} * {rb}x{cb}")
    kinds = {type(x) for m in (a, b) for row in m for x in row}
    if Fraction in kinds and kinds <= {Fraction, int}:
        ((pa,), da), ((pb,), db) = cleared(a, None), cleared(b, None)
        cols = list(zip(*pb))
        return freeze([Fraction(sum(map(mul, row, col)), da * db) for col in cols] for row in pa)
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


# ---------------------------------------------------------------------------
# Exact integer kernel: matrices over Q or one Q(sqrt d), denominators cleared


def is_similitude(m, mu, g: int) -> bool:
    """Whether M^t J M = mu J exactly, J = [[0, I], [-I, 0]] of size 2g.

    Over Q or one Q(sqrt d), M = (P + Q sqrt d)/D and mu = (u + v sqrt d)/D,
    and the identity splits into two over the integers:
    P^t J P + d Q^t J Q = u D J and P^t J Q + Q^t J P = v D J.  J X is a
    signed row swap of X, and both sides are skew, so only entries above the
    diagonal are compared.  Entries from two quadratic fields raise
    ScalarError.
    """
    n = 2 * g
    d = quadratic_field(x for row in (*m, (mu,)) for x in row)
    parts, den = cleared([*m, (mu,)], d)
    p, q = parts if d is not None else (*parts, [[0] * len(row) for row in parts[0]])
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


def _bareiss(rows: list[list], ncols: int, field: bool = False) -> tuple[list[int], object, int]:
    """Fraction-free Gauss-Jordan elimination of int rows, in place (Bareiss).

    A column's pivot is its first nonzero entry at or below the current row.
    After each step the rows below hold minors and the rows above are reduced
    times the new pivot, so every division by the previous pivot is exact (by
    ``/`` when the rows hold ``field`` elements).  Returns (pivot columns,
    last pivot, sign of the row permutation); the rows end as the reduced
    row echelon form times the last pivot."""
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
            f = rows[i][c]
            if i != r and (f or piv != prev):  # else the step leaves row i as it is
                if field:
                    rows[i] = [(piv * x - f * y) / prev for x, y in zip(rows[i], pr)]
                else:
                    rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], pr)]
        pivots.append(c)
        prev = piv
    return pivots, prev, sign


def _echelon(parts: tuple, d: int | None, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """(int rows, pivots, unit): cleared rows (P,) over Q (d None) or (P, Q)
    over Q(sqrt d) as int rows with the same solutions, reduced by
    :func:`_bareiss`; a reduced entry x stands for x / unit.  Over Q(sqrt d)
    an entry p + q sqrt d of the first ncols columns becomes the block
    [[p, dq], [q, p]] on (u_j, v_j), x_j = u_j + v_j sqrt d, and a later
    (right-hand side) entry the column (p, q).  The columns interleave as
    (u_0, v_0, u_1, ...), so a column is free exactly when both of its
    rational columns are."""
    ints = parts[0]
    if d is not None:
        ints = []
        for pr, qr in zip(*parts):
            ints.append([y for j in range(ncols) for y in (pr[j], d * qr[j])] + pr[ncols:])
            ints.append([y for j in range(ncols) for y in (qr[j], pr[j])] + qr[ncols:])
    pivots, unit, _ = _bareiss(ints, ncols if d is None else 2 * ncols)
    return ints, pivots, unit


def rank(m) -> int:
    d = quadratic_field(x for row in m for x in row)
    return len(_echelon(cleared(m, d)[0], d, shape(m)[1])[1]) // (1 if d is None else 2)


def _solve(a, b) -> tuple[list[list] | None, int]:
    """(X, rank of a) for a X = b, from one elimination of the rows of
    [a | b]: X is None when the system has no solution, else the solution
    whose free variables are zero."""
    rows = [[*ra, *rb] for ra, rb in zip(a, b)]
    d = quadratic_field(x for row in rows for x in row)
    return solve_cleared(cleared(rows, d)[0], d, shape(a)[1])


def solve_cleared(parts: tuple, d: int | None, c: int) -> tuple[list[list] | None, int]:
    """:func:`_solve` on the rows [a | b] of c columns of a, given as the
    int parts (P,) or (P, Q) of (P + Q sqrt d) / D; any D > 0 gives the
    same solutions."""
    rows, pivots, unit = _echelon(parts, d, c)
    step = 1 if d is None else 2
    w = step * c
    if any(any(row[w:]) for row in rows[len(pivots) :]):  # a zero row with nonzero augment
        return None, len(pivots) // step
    x = [[Fraction(0)] * (len(rows[0]) - w) for _ in range(c)]
    for i in range(0, len(pivots), step):
        x[pivots[i] // step] = list(uncleared([row[w:] for row in rows[i : i + step]], repeat(unit), d))
    return x, len(pivots) // step


def inverse(m):
    """Exact inverse, or None when singular."""
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse of non-square matrix")
    x, r = _solve(m, identity(n))
    return freeze(x) if r == n else None


def det(m) -> Scalar:
    """Exact determinant by Bareiss on cleared denominators.  Over Q(sqrt d)
    the elimination runs on the entries (P + Q sqrt d) themselves."""
    n, c = shape(m)
    if n != c:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    d = quadratic_field(x for row in m for x in row)
    parts, den = cleared(m, d)
    rows = parts[0] if d is None else [list(uncleared(pq, repeat(1), d)) for pq in zip(*parts)]
    pivots, last, sign = _bareiss(rows, n, field=d is not None)
    return sign * last * Fraction(1, den**n) if len(pivots) == n else Fraction(0)


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
