"""Exact arithmetic the benchmark uses to build inputs and check outputs.

Written apart from periodrel on purpose: the checks must not trust the code
they check.  Rationals are ``fractions.Fraction``; a + b*sqrt(d) is ``Quad``.
Matrices are lists of lists; polynomials are read straight from the JSON
term lists that periodrel prints.
"""

from __future__ import annotations

from fractions import Fraction


class Quad:
    """a + b*sqrt(d) over Q with a fixed squarefree d."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a, b):
        self.d, self.a, self.b = d, Fraction(a), Fraction(b)

    def _lift(self, other) -> "Quad":
        if isinstance(other, Quad):
            if other.d != self.d and other.b and self.b:
                raise ValueError("mixed quadratic fields")
            return other
        return Quad(self.d, other, 0)

    def __add__(self, other):
        o = self._lift(other)
        d = self.d if self.b else o.d
        return Quad(d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Quad(self.d, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        d = self.d if self.b else o.d
        return Quad(d, self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._lift(other)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a or self.b)

    __hash__ = None


def scalar(obj):
    """Parse periodrel's scalar JSON: "num/den", an int, or {"d", "a", "b"}."""
    if isinstance(obj, dict):
        return Quad(int(obj["d"]), Fraction(str(obj["a"])), Fraction(str(obj["b"])))
    return Fraction(str(obj))


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def quad_json(d: int, a, b) -> dict:
    return {"d": d, "a": frac_str(a), "b": frac_str(b)}


def valuation(x: Fraction, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v, n, m = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while m % p == 0:
        m //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# Matrices


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list:
    return [[Fraction(0)] * c for _ in range(r)]


def transpose(m) -> list:
    return [list(col) for col in zip(*m)]


def mat_mul(a, b) -> list:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def block(tl, tr, bl, br) -> list:
    return [ra + rb for ra, rb in zip(tl, tr)] + [ra + rb for ra, rb in zip(bl, br)]


def _echelon(rows: list) -> tuple[list, list]:
    """Reduced row echelon form over Q in place; returns (rows, pivot columns)."""
    pivots, r = [], 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / Fraction(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m) -> int:
    return len(_echelon([list(row) for row in m])[1])


def inverse(m):
    """Exact inverse over Q, or None when m is singular."""
    n = len(m)
    rows, pivots = _echelon([list(row) + identity(n)[i] for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def is_isotropic(y, z) -> bool:
    """Y^t Z = Z^t Y exactly."""
    return mat_mul(transpose(y), z) == mat_mul(transpose(z), y)


# ---------------------------------------------------------------------------
# Polynomials in the period-matrix variables, as periodrel's JSON term lists


def poly_terms(poly_json: list) -> list:
    """[(coeff, [(block, row, col, exp), ...]), ...] from the JSON form."""
    out = []
    for term in poly_json:
        mono = []
        for ent in term["monomial"]:
            if len(ent) > 4 and int(ent[4]) != 1:
                raise ValueError("only the first copy of each block is expected here")
            mono.append((ent[0], int(ent[1]), int(ent[2]), int(ent[3])))
        out.append((scalar(term["coeff"]), mono))
    return out


def poly_degrees(poly_json: list) -> set:
    return {sum(e for _, _, _, e in mono) for _, mono in poly_terms(poly_json)}


def poly_eval(poly_json: list, y, z):
    """Value of the polynomial at Y = y, Z = z (1-based variable indices)."""
    blocks = {"Y": y, "Z": z}
    total = Fraction(0)
    for c, mono in poly_terms(poly_json):
        val = c
        for blk, r, col, e in mono:
            val = val * blocks[blk][r - 1][col - 1] ** e
        total = total + val
    return total


# ---------------------------------------------------------------------------
# Truncated power series as coefficient lists


def series_mul(a: list, b: list, n: int) -> list:
    """Product of two coefficient lists truncated after X^n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def series_compose(f: list, g: list, n: int) -> list:
    """f(g(X)) truncated after X^n, by Horner; g(0) must be 0."""
    acc = [0] * (n + 1)
    for c in reversed(f[: n + 1]):
        acc = series_mul(acc, g, n)
        acc[0] = acc[0] + c
    return acc
