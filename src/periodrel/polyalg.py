"""Sparse multivariate polynomials in the period-matrix variables.

Variables live in two g x g blocks, Y and Z; the monomial order is
degrevlex over the fixed variable order
Y[1,1] < ... < Y[g,g] < Z[1,1] < ... < Z[g,g], which every certificate
records implicitly by construction.  Inside, a variable is an int
code that sorts in that order and a monomial is the sorted tuple of its codes,
one per unit of exponent, so products, degrees, hashing and the order run on
plain tuples; :class:`VarId` names a variable only at the JSON and display
boundary.  Coefficients are exact
(Fraction or QuadScalar).  Ideal membership is decided by exact linear
algebra (:func:`ideal_remainder`), past whose column cap the answer is a
clean "undecided"; a small Buchberger engine stays as its test oracle.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import matrices as mx
from .scalars import DecodeError, Frozen, QuadScalar, Scalar, json_field, json_int, json_list
from .scalars import scalar_from_json, scalar_to_json

BLOCKS = ("Y", "Z")

MONOMIAL_ORDER = "degrevlex(Y[1,1] < ... < Z[g,g])"  # as recorded in reports

DEGREE_CAP = 64  # of a decoded term: a monomial holds one code per unit of exponent


class ResourceCapExceeded(RuntimeError):
    """Raised when an exact engine passes its size cap: the membership column
    cap, the symbolic determinant size, or the Buchberger pair cap."""


class VarId(Frozen):
    """A variable block[row, col]: the public name of a variable, used at
    the JSON and display boundary only.  Its int ``code`` follows from the
    other fields."""

    __slots__ = ("block", "row", "col", "code")

    def __init__(self, block: str, row: int, col: int) -> None:
        self._set(block, row, col, _code(block, row, col))

    def __lt__(self, other: "VarId") -> bool:
        return self.code < other.code

    def __str__(self) -> str:
        return f"{self.block}[{self.row},{self.col}]"


_FIELD = (1 << 20) - 1  # the row and col fields of a code


def _code(block, row: int, col: int) -> int:
    """The int code of block[row, col] (see :class:`Monomial`), or ValueError."""
    if block not in BLOCKS:
        raise ValueError(f"unknown block {block!r}")
    if row < 1 or col < 1:
        raise ValueError("variable indices are 1-based")
    if row > _FIELD or col > _FIELD:
        raise ValueError("variable indices must be below 2^20")
    return BLOCKS.index(block) << 40 | row << 20 | col


@functools.cache
def _var_of(code: int) -> VarId:
    """The variable behind an int code."""
    return VarId(BLOCKS[code >> 40], code >> 20 & _FIELD, code & _FIELD)


@functools.cache
def yvar(i: int, j: int) -> VarId:
    return VarId("Y", i, j)


@functools.cache
def zvar(i: int, j: int) -> VarId:
    return VarId("Z", i, j)


# ---------------------------------------------------------------------------
# Monomials


def _degrevlex(m: "Monomial") -> tuple:
    """Sort key of the monomial order: degree, then the code tuple."""
    return len(m), *m


def _runs(m: "Monomial") -> list[tuple[int, int]]:
    """The (code, exponent) pairs of m, smallest variable first."""
    return [(c, m.count(c)) for c in dict.fromkeys(m)]


class Monomial(tuple):
    """Sorted tuple of int variable codes, one code per unit of exponent:
    Y[1,1]^2 * Z[1,2] is ``(c, c, c')``.

    A variable's code is ``block index << 40 | row << 20 | col``
    (:attr:`VarId.code`), so codes sort as the variable order does.  At equal
    degree the plain tuple order is degrevlex (the first differing code is a
    variable the smaller monomial holds more often, and every smaller
    variable has equal exponents in both), so ``(len(m), *m)`` is the order's
    key, which < and > compare.  Product, degree, hash, equality, <= and >=
    are the tuple's own; the (VarId, exponent) pairs exist only as :attr:`exps`.
    """

    __slots__ = ()

    @staticmethod
    def one() -> "Monomial":
        return Monomial()

    @staticmethod
    def of(*pairs: tuple[VarId, int]) -> "Monomial":
        return Monomial(sorted(c for v, e in pairs for c in (v.code,) * e))

    @staticmethod
    def var(v: VarId, e: int = 1) -> "Monomial":
        return Monomial((v.code,) * e)

    @property
    def exps(self) -> tuple:
        """The sorted (variable, positive exponent) pairs."""
        return tuple((_var_of(c), e) for c, e in _runs(self))

    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(sorted(self + other))

    def divides(self, other: "Monomial") -> bool:
        rest = iter(other)  # a sorted sub-multiset is a subsequence
        return all(c in rest for c in self)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        out = list(self)
        for c in other:
            if c not in out:
                raise ValueError("monomial division with negative exponent")
            out.remove(c)
        return Monomial(out)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(sorted((Counter(self) | Counter(other)).elements()))

    def coprime(self, other: "Monomial") -> bool:
        return set(self).isdisjoint(other)

    def __lt__(self, other: "Monomial") -> bool:
        return _degrevlex(self) < _degrevlex(other)

    def __gt__(self, other: "Monomial") -> bool:
        return _degrevlex(self) > _degrevlex(other)

    def __str__(self) -> str:
        if not self:
            return "1"
        return "*".join(f"{v}^{e}" if e > 1 else str(v) for v, e in self.exps)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Polynomials


def _accumulate(out: dict, terms: Iterable[tuple[Monomial, Scalar]]) -> dict:
    """Add (monomial, nonzero coefficient) pairs into ``out``, dropping the
    sums that cancel.  Every caller's coefficients are nonzero (a product of
    nonzero ones too, in a field), so a new monomial needs no zero test."""
    for m, c in terms:
        s = out.get(m)
        if s is None:
            out[m] = c
        elif (s := s + c) == 0:
            del out[m]
        else:
            out[m] = s
    return out


class MultiPoly:
    """Sparse polynomial: monomial -> nonzero exact coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None, *, _clean: bool = True):
        if terms is None:
            self.terms: dict[Monomial, Scalar] = {}
        elif _clean:
            self.terms = {
                m: (Fraction(c) if isinstance(c, int) else c)
                for m, c in terms.items()
                if c != 0
            }
        else:
            self.terms = dict(terms)

    # -- constructors

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def constant(c: Scalar) -> "MultiPoly":
        return MultiPoly({Monomial.one(): c})

    @staticmethod
    def variable(v: VarId) -> "MultiPoly":
        return MultiPoly({Monomial.var(v): Fraction(1)})

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        return max(map(len, self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len(set(map(len, self.terms))) <= 1

    def variables(self) -> set[VarId]:
        return set(map(_var_of, set().union(*self.terms)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QuadScalar)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset((m, str(c)) for m, c in self.terms.items()))

    # -- arithmetic

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(_accumulate(dict(self.terms), other.terms.items()), _clean=False)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        negated = ((m, -c) for m, c in other.terms.items())
        return MultiPoly(_accumulate(dict(self.terms), negated), _clean=False)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()}, _clean=False)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        theirs = other.terms.items()
        products = ((Monomial(sorted(m + n)), c * d) for m, c in self.terms.items() for n, d in theirs)
        return MultiPoly(_accumulate({}, products), _clean=False)

    def __rmul__(self, c: Scalar) -> "MultiPoly":
        return self.scale(c)

    def scale(self, c: Scalar) -> "MultiPoly":
        if c == 0:
            return MultiPoly.zero()
        return MultiPoly({m: c * x for m, x in self.terms.items()}, _clean=False)

    def term_mul(self, coeff: Scalar, mono: Monomial) -> "MultiPoly":
        if coeff == 0:
            return MultiPoly.zero()
        return MultiPoly({m * mono: c * coeff for m, c in self.terms.items()}, _clean=False)

    def __pow__(self, n: int) -> "MultiPoly":
        """Square and multiply: n.bit_length() - 1 squarings, no product by 1."""
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.constant(Fraction(1)) if out is None else out

    # -- leading data (degrevlex)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_degrevlex)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MultiPoly":
        lc = self.leading_coeff()
        if lc == 1:
            return self
        inv = Fraction(1) / lc if isinstance(lc, Fraction) else lc.inverse()
        return self.scale(inv)

    # -- calculus / evaluation / substitution

    def partial(self, v: VarId) -> "MultiPoly":
        code, unit = v.code, Monomial.var(v)
        lowered = ((m / unit, c * m.count(code)) for m, c in self.terms.items() if code in m)
        return MultiPoly(_accumulate({}, lowered), _clean=False)

    def evaluate(self, assignment: Mapping[VarId, Scalar]) -> Scalar:
        """The exact value.  Fraction coefficients over C at rational values
        over L make one int sum, Σ C c_m Π L x_v L^(deg - |m|) / (C L^deg)."""
        total: Scalar = Fraction(0)
        values = {v.code: x for v, x in assignment.items()}
        try:
            rational = all(isinstance(x, (int, Fraction)) for x in values.values())
            if rational and all(type(c) is Fraction for c in self.terms.values()):
                # the lcms fold one at a time, not through scalars.cleared, which would hold
                # every scaled numerator at once: the ideal workload's peak RSS rose 4 % on it
                cden, den, whole = 1, 1, 0
                for c in self.terms.values():
                    cden = math.lcm(cden, c.denominator)
                for x in values.values():
                    den = math.lcm(den, x.denominator)
                nums = {code: x.numerator * (den // x.denominator) for code, x in values.items()}
                powers = [den**k for k in range(self.degree() + 1)]  # powers[-1 - |m|] = L^(deg - |m|)
                for m, c in self.terms.items():
                    val = c.numerator * (cden // c.denominator) * powers[-1 - len(m)]
                    for code in m:
                        val *= nums[code]
                    whole += val
                return Fraction(whole, cden * powers[-1])
            for m, c in self.terms.items():
                val = c
                for code in m:
                    val = val * values[code]
                total = total + val
        except KeyError as exc:
            raise KeyError(f"no value for variable {_var_of(exc.args[0])}") from None
        return total

    def substitute(self, mapping: Mapping[VarId, "MultiPoly"]) -> "MultiPoly":
        """Replace variables by polynomials; unmapped variables persist."""
        reps = {v.code: p for v, p in mapping.items()}
        powers: dict[tuple[int, int], MultiPoly] = {}  # each power once per call
        total: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            part = None
            for code, e in _runs(m):
                if (code, e) not in powers:
                    rep = reps.get(code, MultiPoly({Monomial((code,)): Fraction(1)}))
                    powers[code, e] = rep**e
                # the first factor's monomials are distinct, so scaling it
                # makes constant(c) * factor's products in the same order
                part = powers[code, e].scale(c) if part is None else part * powers[code, e]
            _accumulate(total, (MultiPoly.constant(c) if part is None else part).terms.items())
        return MultiPoly(total, _clean=False)

    def rename_variables(self, func: Callable[[VarId], VarId]) -> "MultiPoly":
        renamed = ((Monomial.of(*((func(v), e) for v, e in m.exps)), c) for m, c in self.terms.items())
        return MultiPoly(_accumulate({}, renamed), _clean=False)

    # -- display / JSON

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_degrevlex, reverse=True):
            c = self.terms[m]
            parts.append(f"({c})*{m}" if m else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> list:
        out = []
        for m in sorted(self.terms, key=_degrevlex, reverse=True):
            mono = []
            for code, e in _runs(m):
                v = _var_of(code)
                mono.append([v.block, v.row, v.col, e])
            out.append({"coeff": scalar_to_json(self.terms[m]), "monomial": mono})
        return out

    @staticmethod
    def from_json(obj, path: str = "poly") -> "MultiPoly":
        """Decode a polynomial, each entry exactly ``[block, row, col, exponent]``
        straight to its variable's code and each number as :func:`json_int` reads
        it; a malformed one raises :class:`DecodeError` naming its path, as ``poly[0]: ...``."""
        total: dict[Monomial, Scalar] = {}
        for k, term in enumerate(json_list(obj, path)):
            at, runs, codes = f"{path}[{k}].", [], []
            for n, ent in enumerate(json_list(json_field(term, "monomial", at), f"{at}monomial")):
                try:
                    row, col, e = nums = [int(x) for x in ent[1:4]]
                    if not isinstance(ent, list) or len(ent) != 4 or min(nums) < 0:
                        raise ValueError
                    runs.append((_code(ent[0], row, col), e))
                except (TypeError, ValueError, OverflowError):
                    _refuse_entry(ent, f"{at}monomial[{n}]")
            if sum(e for _, e in runs) > DEGREE_CAP:  # every entry and the degree are checked before any expansion
                raise DecodeError(f"{at}monomial: degree must be <= {DEGREE_CAP}")
            for code, e in runs:
                codes += (code,) * e
            codes.sort()
            m = Monomial(codes)
            c = scalar_from_json(json_field(term, "coeff", at), f"{at}coeff")
            total[m] = total[m] + c if m in total else c
        return MultiPoly(total)


def _refuse_entry(ent, p: str):
    """Raise the DecodeError of an entry that from_json refused: its first bad
    field's, else its length's (a fifth field is refused, never ignored), else its variable's."""
    keys = ("block", "row", "col", "exponent")
    named = dict(zip(keys, json_list(ent, p)))
    row, col, _ = (json_int(named, key, p + ".", low=0) for key in keys[1:])
    json_list(ent, p, len(keys))
    try:
        _code(named["block"], row, col)
    except ValueError as exc:
        raise DecodeError(f"{p}: {exc}")
    raise AssertionError(f"{p}: a refused entry decodes")


# ---------------------------------------------------------------------------
# Polynomial matrices: tuples of tuples of MultiPoly, handled by matrices.py


def symbolic_matrix(block: str, g: int) -> mx.Matrix:
    """The g x g matrix whose (i,j) entry is the variable block[i,j]."""
    return mx.freeze([[MultiPoly.variable(VarId(block, i + 1, j + 1)) for j in range(g)] for i in range(g)])


def poly_matrix_from_json(obj) -> mx.Matrix:
    """Decode a relation matrix ``{"rows", "cols", "entries"}``; a malformed
    one raises :class:`DecodeError` naming its path, e.g. ``entries: missing``."""
    rows = json_list(json_field(obj, "entries"), "entries")
    cols = len(json_list(rows[0], "entries[0]")) if rows else 0
    return mx.freeze(
        [MultiPoly.from_json(e, f"entries[{i}][{j}]") for j, e in enumerate(json_list(row, f"entries[{i}]", cols))]
        for i, row in enumerate(rows)
    )


SYMBOLIC_DET_CAP = 4


def determinant(m) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials, up to 4x4, by
    cofactor expansion (fraction-free over the polynomial ring)."""
    n, c = mx.shape(m)
    if n != c:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return MultiPoly.constant(Fraction(1))
    if n > SYMBOLIC_DET_CAP:
        raise ResourceCapExceeded(
            f"symbolic determinant capped at {SYMBOLIC_DET_CAP}x{SYMBOLIC_DET_CAP}"
        )
    return _det_cofactor(m)


def _det_cofactor(rows) -> MultiPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = MultiPoly.zero()
    for i in range(n):
        if rows[i][0].is_zero():
            continue
        minor = [
            [rows[r][c] for c in range(1, n)] for r in range(n) if r != i
        ]
        term = rows[i][0] * _det_cofactor(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


def adjugate(m) -> mx.Matrix:
    """Transpose cofactor matrix: m * adjugate(m) = determinant(m) * I."""
    n, c = mx.shape(m)
    if n != c:
        raise ValueError("adjugate of non-square matrix")
    if n == 1:
        return ((MultiPoly.constant(Fraction(1)),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = _det_cofactor([[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(row)
    return mx.freeze(out)


# ---------------------------------------------------------------------------
# Buchberger engine (rational coefficients only), the oracle for ideal_remainder


DEFAULT_PAIR_CAP = 20000


def _check_rational(polys: Iterable[MultiPoly]) -> None:
    for p in polys:
        for c in p.terms.values():
            if not isinstance(c, Fraction):
                raise ResourceCapExceeded(
                    "Groebner engine runs over Q only; use the evaluation or permutation criteria"
                )


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Full remainder of p under multivariate division by basis."""
    rem = MultiPoly.zero()
    cur = p
    lms = [(b.leading_monomial(), b.leading_coeff(), b) for b in basis if b]
    while cur:
        lm = cur.leading_monomial()
        lc = cur.terms[lm]
        for blm, blc, b in lms:
            if blm.divides(lm):
                cur = cur - b.term_mul(lc / blc, lm / blm)
                break
        else:
            t = MultiPoly({lm: lc})
            rem = rem + t
            cur = cur - t
    return rem


def _spoly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    l = lmf.lcm(lmg)
    return f.term_mul(Fraction(1) / f.leading_coeff(), l / lmf) - g.term_mul(
        Fraction(1) / g.leading_coeff(), l / lmg
    )


def groebner_basis(
    generators: Sequence[MultiPoly],
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> list[MultiPoly]:
    """Buchberger with degrevlex, coprime-lm and chain pair elimination.

    Raises :class:`ResourceCapExceeded` after processing ``pair_cap`` pairs.
    """
    gens = [g.monic() for g in generators if g]
    if not gens:
        raise ValueError("generator list must be nonempty")
    _check_rational(gens)
    basis = list(gens)
    heap: list[tuple[int, int, int]] = []
    done: set[tuple[int, int]] = set()
    for i in range(len(basis)):
        for j in range(i):
            l = basis[i].leading_monomial().lcm(basis[j].leading_monomial())
            heapq.heappush(heap, (l.degree(), j, i))
    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        done.add((i, j))
        processed += 1
        if processed > pair_cap:
            raise ResourceCapExceeded(
                "membership undecided at this scale; use probabilistic nonmembership"
            )
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi.leading_monomial(), fj.leading_monomial()
        if lmi.coprime(lmj):
            continue
        l = lmi.lcm(lmj)
        # chain criterion: some k with lm_k | lcm and both pairs processed
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if basis[k].leading_monomial().divides(l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(_spoly(fi, fj), basis)
        if r:
            r = r.monic()
            basis.append(r)
            new = len(basis) - 1
            for k in range(new):
                l2 = basis[k].leading_monomial().lcm(r.leading_monomial())
                heapq.heappush(heap, (l2.degree(), k, new))
    return _interreduce(basis)


def _interreduce(basis: list[MultiPoly]) -> list[MultiPoly]:
    basis = sorted((b for b in basis if b), key=lambda b: b.leading_monomial())
    out: list[MultiPoly] = []
    for i, b in enumerate(basis):
        others = out + basis[i + 1 :]
        lm = b.leading_monomial()
        if any(o.leading_monomial().divides(lm) for o in others):
            continue
        out.append(normal_form(b, [o for o in out]).monic() if out else b)
    # one more full-reduction pass so every element is reduced against the rest
    return [normal_form(b, [o for o in out if o is not b]).monic() for b in out]


# ---------------------------------------------------------------------------
# Ideal membership by exact linear algebra


MEMBERSHIP_COLUMN_CAP = 10000


def ideal_remainder(p: MultiPoly, generators: Sequence[MultiPoly]) -> MultiPoly:
    """Degrevlex normal form of p modulo the ideal I of homogeneous
    generators, zero exactly when p lies in I.

    The rows are the multiples (u/t)*f for each generator f, term t of f and
    monomial u with t | u, closing over the monomials of p and of the rows (a
    Macaulay matrix, Lazard 1983).  No other row meets these monomials and I
    is homogeneous, so the echelon pivots are exactly LM(I) on them, and
    reducing p by the rows leaves the unique normal form.  Past
    ``MEMBERSHIP_COLUMN_CAP`` monomials it raises :class:`ResourceCapExceeded`.
    """
    if not all(f.is_homogeneous() for f in generators):
        raise ValueError("ideal_remainder needs homogeneous generators")
    # A monomial is one int: w-bit exponent fields, the smallest code's the
    # most significant, so each code adds its field's unit.  No exponent
    # reaches the top (guard) bit of its field, so t | u exactly when u - t
    # borrows from no guard bit, and at equal degree the smallest int is the
    # degrevlex-largest monomial (a reduction never changes degree, so the
    # order across degrees is free).
    codes = sorted(set().union(*p.terms, *(m for f in generators for m in f.terms)))
    w = max([p.degree(), *(f.degree() for f in generators)]).bit_length() + 1
    unit = {v: 1 << w * (len(codes) - 1 - i) for i, v in enumerate(codes)}
    guard = sum(u << w - 1 for u in unit.values())
    terms = [[(sum(map(unit.get, m)), c) for m, c in f.terms.items()] for f in generators]
    target = {sum(map(unit.get, m)): c for m, c in p.terms.items()}
    columns, todo, made, pivots = set(target), list(target), set(), {}
    while todo:
        u = todo.pop()
        for k, f in enumerate(terms):
            for t, _ in f:
                q = u - t  # u / t when t | u
                if (u | guard) - t & guard != guard or (k, q) in made:
                    continue
                made.add((k, q))
                row = {q + s: c for s, c in f}
                todo += row.keys() - columns
                columns.update(row)
                if len(columns) > MEMBERSHIP_COLUMN_CAP:
                    raise ResourceCapExceeded(
                        f"membership undecided past MEMBERSHIP_COLUMN_CAP = {MEMBERSHIP_COLUMN_CAP} monomials"
                    )
                row = _eliminate(row, pivots)
                if row:
                    lead = min(row)
                    inv = 1 / row.pop(lead)
                    pivots[lead] = [(m, c * inv) for m, c in row.items()]
    rem = _eliminate(target, pivots)

    def unpack(m: int) -> Monomial:
        return Monomial(v for v in codes for _ in range(m // unit[v] & (1 << w) - 1))

    return MultiPoly({unpack(m): c for m, c in rem.items()})


def _eliminate(row: dict, pivots: dict) -> dict:
    """Reduce ``row`` (consumed) by the monic pivot rows, largest monomial
    first, and return what no pivot removes."""
    out, heap = {}, list(row)
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)
        c = row.pop(m, None)
        if c is not None and m not in pivots:
            out[m] = c
        elif c is not None:
            for n, a in pivots[m]:
                s = row.pop(n, 0) - c * a
                if s:
                    row[n] = s
                    heapq.heappush(heap, n)  # a stale copy is skipped above
    return out
