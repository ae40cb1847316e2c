"""Truncated univariate power series with exact coefficients.

Truncation order is explicit data: a series of order N carries coefficients
for X^0..X^N and nothing beyond.  Binary operations propagate the minimum
order of their operands.  Radius and boundedness reports are honest about
what a finite coefficient scan can and cannot certify.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Sequence

from .scalars import (
    DecodeError,
    Frozen,
    Place,
    QuadScalar,
    Scalar,
    ScalarError,
    abs_at_place,
    arch_value,
    json_field,
    json_int,
    json_list,
    one_field,
    parse_ratio,
    ratio_str,
    rational_value,
    scalar_from_json,
    valuation,
)


MAX_ORDER = 100000  # a decoded order: a series holds order + 1 numerators, about 30 MB per million


class TruncatedSeries(Frozen):
    """A series to X^order as ints over one denominator den > 0, the lcm of
    the reduced ones: coefficients (P_k + Q_k sqrt d) / den for parts (P, Q),
    or P_k / den for parts (P,) exactly when d is None, every coefficient
    being rational.  A series mixing two fields has for d the tuple of each
    coefficient's d.  ``coeffs`` is the view as scalars."""

    __slots__ = ("order", "d", "parts", "den")

    def __init__(self, coeffs: Sequence[Scalar], order: int | None = None) -> None:
        """The series of the scalars, cut or zero-padded to order + 1 of them (all when order is None)."""
        order = len(coeffs) - 1 if order is None else order
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self._set(order, *_canonical(*_split([_ratio_of(x) for x in coeffs[: order + 1]], order)))

    @staticmethod
    def _over(order: int, d, parts, dens) -> "TruncatedSeries":
        """The series (P_k + Q_k sqrt d_k) / dens_k, dens_k > 0, in canonical
        form, d as in the class or per coefficient."""
        s = object.__new__(TruncatedSeries)
        s._set(order, *_canonical(d, parts, dens))
        return s

    @property
    def coeffs(self) -> tuple:
        """The coefficients as scalars, a Fraction for each rational value."""
        den, d = self.den, self.d
        if d is None:
            return tuple(map(Fraction, self.parts[0], repeat(den)))
        return tuple(
            QuadScalar._trusted(e, Fraction(p, den), Fraction(q, den)) if q else Fraction(p, den)
            for p, q, e in zip(*self.parts, d if type(d) is tuple else repeat(d))
        )

    # -- basics

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        d = self.d[: order + 1] if type(self.d) is tuple else self.d
        return TruncatedSeries._over(order, d, [part[: order + 1] for part in self.parts], [self.den] * (order + 1))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The product to the shorter order, on the packed kernel, over the one field of :func:`series_field`."""
        n, d = min(self.order, other.order), series_field((self, other))
        f, g = self.truncate(n), other.truncate(n)
        return TruncatedSeries._over(n, d, _kmul(_kparts(f, d), _kparts(g, d), n + 1, d), [f.den * g.den] * (n + 1))

    def is_integral(self) -> bool:
        """All computed coefficients lie in Z."""
        return self.den == 1 and self.d is None

    # -- JSON

    def to_json(self) -> dict:
        """Each coefficient printed from (P_k, Q_k, den) as :func:`scalars.scalar_to_json` prints its value."""
        den, d = self.den, self.d
        if d is None:
            coeffs = [str(p) for p in self.parts[0]] if den == 1 else [ratio_str(p, den) for p in self.parts[0]]
        else:
            coeffs = [
                {"d": e, "a": ratio_str(p, den), "b": ratio_str(q, den)} if q else ratio_str(p, den)
                for p, q, e in zip(*self.parts, d if type(d) is tuple else repeat(d))
            ]
        return {"order": self.order, "coeffs": coeffs}

    @staticmethod
    def from_json(obj: dict, path: str = "") -> "TruncatedSeries":
        """Decode a series, each coefficient once to ints by :func:`scalars.parse_ratio`,
        else :func:`scalars.scalar_from_json`; a malformed one raises
        :class:`DecodeError` naming its path, e.g. ``coeffs: missing``."""
        at = (path + ".") if path else ""
        if not isinstance(obj, dict):
            raise DecodeError(f"{path or 'series'}: expected an object")
        order = json_int(obj, "order", at, low=0, high=MAX_ORDER)
        coeffs = json_list(json_field(obj, "coeffs", at), f"{at}coeffs")
        if len(coeffs) > order + 1:  # refused before any entry is read
            raise DecodeError(f"{at}coeffs: expected at most {order + 1} entries, got {len(coeffs)}")
        ratios = [parse_ratio(c) or _ratio_of(scalar_from_json(c, f"{at}coeffs[{i}]")) for i, c in enumerate(coeffs)]
        return TruncatedSeries._over(order, *_split(ratios, order))


def _ratio_of(x: Scalar) -> tuple:
    """(P, e) with x = P / e and e > 0 for a rational value, whatever its
    type, else (P, e, Q, d) with x = (P + Q sqrt d) / e."""
    if type(x) is QuadScalar and x.b:
        a, b = x.a, x.b
        e = math.lcm(a.denominator, b.denominator)
        return a.numerator * (e // a.denominator), e, b.numerator * (e // b.denominator), x.d
    x = rational_value(x)
    return x.numerator, x.denominator


def _split(ratios: list, order: int) -> tuple:
    """``TruncatedSeries._over``'s (d, parts, dens) for a series' :func:`_ratio_of` tuples, zero-padded."""
    ratios += [(0, 1)] * (order + 1 - len(ratios))
    if max(map(len, ratios)) == 2:
        nums, dens = zip(*ratios)
        return None, (nums,), dens
    nums, dens, qs, tags = zip(*[r if len(r) == 4 else (*r, 0, None) for r in ratios])
    return tags, (nums, qs), dens


def _canonical(d, parts, dens) -> tuple:
    """(d, parts, den) of :class:`TruncatedSeries` for the arguments of its ``_over``."""
    den = math.lcm(*dens)
    if den != 1:
        parts = [[x * (den // e) for x, e in zip(part, dens)] for part in parts]
        g = math.gcd(den, *[x for part in parts for x in part])  # a list: the args tuple is built at its size
        if g != 1:
            den, parts = den // g, [[x // g for x in part] for part in parts]
    if d is not None:
        tags = tuple([e if q else None for e, q in zip(d if type(d) is tuple else repeat(d), parts[1])])
        found = set(tags) - {None}
        d, parts = (tags if len(found) > 1 else found.pop(), parts) if found else (None, parts[:1])
    return d, tuple([tuple(part) for part in parts]), den


def series_field(series) -> int | None:
    """:func:`scalars.quadratic_field` of the coefficients of the series, in
    order, read off their fields."""
    return one_field(e for s in series for e in (s.d if type(s.d) is tuple else (s.d,)) if e is not None)


def _kparts(s: TruncatedSeries, d: int | None) -> tuple:
    """The numerators of s as a kernel series over Z (d None) or Z[sqrt d]."""
    p = list(s.parts[0])
    return (p,) if d is None else (p, list(s.parts[1]) if s.d is not None else [0] * len(p))


# ---------------------------------------------------------------------------
# Packed integer kernel
#
# A kernel series over Z is a list of ints; over Z[sqrt d] it is a pair of
# equal-length lists (A, B) meaning A + B sqrt(d).  A truncated product packs
# each list into one int with byte-aligned slots (Kronecker substitution,
# Harvey 2009), multiplies once, and unpacks with one to_bytes call.  Every
# slot carries a bias of half its range, so each coefficient is a plain
# unsigned slice.  A slot of w bytes holds any value strictly inside
# +-2^(8w-1); w = bits // 8 + 1 holds values strictly inside +-2^bits.


def _slot_bias(w: int, m: int) -> int:
    """The int with 2^(8w-1) in each of m slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * m, "little")


def _pack(xs: list, w: int) -> int:
    """sum_t xs[t] 2^(8wt) for signed xs[t] strictly inside +-2^(8w-1)."""
    half = 1 << (8 * w - 1)
    raw = b"".join((x + half).to_bytes(w, "little") for x in xs)
    return int.from_bytes(raw, "little") - _slot_bias(w, len(xs))


def _unpack(p: int, w: int, m: int) -> list:
    """The first m slots of a packed int whose slots lie strictly inside
    +-2^(8w-1).  Only slots < m get the bias; the signed slots above borrow
    from higher bits only, and the mask drops them."""
    half = 1 << (8 * w - 1)
    raw = ((p + _slot_bias(w, m)) & ((1 << (8 * w * m)) - 1)).to_bytes(w * m, "little")
    return [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * m, w)]


def _max_bits(xs) -> int:
    return max(map(int.bit_length, xs), default=0)


def _mul_trunc(a: list, b: list, m: int) -> list:
    """The first m coefficients of the product of two int lists."""
    return _matmul_trunc([[a]], [[b]], m)[0][0]


def _matmul_trunc(a: list, b: list, m: int) -> list:
    """The product of two matrices whose entries are int lists, each entry
    to m coefficients.  Every entry is packed once, at one slot width that
    holds every sum of products, so an entry of the product is a sum of
    big-int products, unpacked once."""
    a = [[x[:m] for x in row] for row in a]
    b = [[x[:m] for x in row] for row in b]
    # a slot < m sums at most m len(b) products, so it lies strictly inside
    # +-2^bits, and so inside +-2^(8w-1)
    bits = (
        max(_max_bits(x) for row in a for x in row)
        + max(_max_bits(x) for row in b for x in row)
        + (m * len(b)).bit_length()
    )
    w = bits // 8 + 1
    pb = [[_pack(x, w) for x in row] for row in b]
    out = []
    for row in a:
        pa = [(t, _pack(x, w)) for t, x in enumerate(row) if any(x)]
        out.append([_unpack(sum(x * pb[t][j] for t, x in pa), w, m) for j in range(len(pb[0]))])
    return out


def _kmul(x: tuple, y: tuple, m: int, d: int | None) -> tuple:
    """Truncated product of kernel series over Z (d None) or Z[sqrt d]: over
    Z[sqrt d], (A + B sqrt d)(A' + B' sqrt d) is the block product
    [[A, dB], [B, A]] [A'; B']."""
    if d is None:
        return (_mul_trunc(x[0], y[0], m),)
    (a, b), (a2, b2) = x, y
    return tuple(part for part, in _matmul_trunc([[a, [d * t for t in b]], [b, a]], [[a2], [b2]], m))


def _kpad(x: tuple, m: int) -> tuple:
    """The first m coefficients of x, zero-padded."""
    return tuple(part[:m] + [0] * (m - len(part)) for part in x)


def _kcompose(f: tuple, g: tuple, d: int | None) -> tuple:
    """f(g) to m = len(g) coefficients; g has zero constant term and f has
    m coefficients.

    Baby steps and giant steps (Brent & Kung 1978, Algorithm 2.1): with
    b = isqrt(m), f(g) = sum_j B_j (g^b)^j for the blocks
    B_j = sum_(i<b) f_(jb+i) g^i.  The baby steps are the b - 1 products
    that build g^2..g^b.  Each g^i with i < b is packed once, at a slot
    width that holds every block sum, so a block is a sum of int times
    packed-int terms, unpacked once.  Horner over the blocks then takes
    about m/b products by g^b, at a precision that falls by b each step.
    """
    m = len(g[0])
    b = math.isqrt(m)
    one = tuple([int(j == 0)] + [0] * (m - 1) for j in range(len(g)))
    powers = [one, g]
    while len(powers) <= b:
        powers.append(_kmul(powers[-1], g, m, d))
    giant = powers.pop()
    # over Z[sqrt d] a block coefficient sums 2b cross terms, one scaled by d
    bits = (
        max(_max_bits(part) for part in f)
        + max(_max_bits(part) for pw in powers for part in pw)
        + (2 * b).bit_length()
        + abs(d or 1).bit_length()
    )
    w = bits // 8 + 1
    packed = [tuple(_pack(part, w) for part in pw) for pw in powers]
    del powers

    def block(j: int, n: int) -> tuple:
        """B_j to n coefficients."""
        fs = [part[j * b : j * b + b] for part in f]
        if d is None:
            (fa,) = fs
            sums = (sum(c * pa for c, (pa,) in zip(fa, packed)),)
        else:
            fa, fb = fs
            sums = (
                sum(c * pa + d * e * pb for c, e, (pa, pb) in zip(fa, fb, packed)),
                sum(c * pb + e * pa for c, e, (pa, pb) in zip(fa, fb, packed)),
            )
        return tuple(_unpack(s, w, n) for s in sums)

    # acc_j = B_j + g^b acc_(j+1) ends up times g^(bj) = O(X^(bj)), so it is
    # needed to m - bj coefficients only, and g^b = X^b G
    shifted = tuple(part[b:] for part in giant)
    top = (m - 1) // b
    acc = block(top, m - top * b)
    for j in range(top - 1, -1, -1):
        n = m - j * b
        prod = _kmul(acc, shifted, n - b, d)
        acc = tuple(x[:b] + [s + t for s, t in zip(x[b:], y)] for x, y in zip(block(j, n), prod))
    return acc


def _kinverse(u: tuple, d: int | None) -> tuple:
    """Compositional inverse of u = X + O(X^2) by Newton iteration.

    A step from v = u^-1 mod X^(p+1) to precision q <= 2p subtracts
    (u(v) - X) / u'(v).  The error u(v) - X is O(X^(p+1)), so the divisor is
    needed only mod X^(q-p), and there it equals v', because
    (u^-1)' = 1 / u'(u^-1).  Every step stays integral.
    """
    n = len(u[0]) - 1
    v = _kpad(u, 2)  # X
    prec = 1
    while prec < n:
        p, prec = prec, min(2 * prec, n)
        v = _kpad(v, prec + 1)
        err = _kcompose(_kpad(u, prec + 1), v, d)  # X + X^(p+1) E
        dv = tuple([(i + 1) * part[i + 1] for i in range(prec - p)] for part in v)
        corr = _kmul(tuple(part[p + 1 :] for part in err), dv, prec - p, d)
        v = tuple(
            part[: p + 1] + [s - t for s, t in zip(part[p + 1 :], c)]
            for part, c in zip(v, corr)
        )
    return v


# ---------------------------------------------------------------------------
# Composition and inversion


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(X)) to the shared truncation order; requires g(0) = 0.

    The work runs on the packed kernel over the field of :func:`series_field`.
    With D the denominator of g, g(D X) has coefficients in Z or Z[sqrt d],
    and with F = D_f f, f(g(X)) = R(X/D) / D_f for R = F(g(D X)).
    """
    if any(part[0] for part in g.parts):
        raise ValueError("inner series must vanish at origin")
    n = min(f.order, g.order)
    d = series_field((f, g))
    f, g = f.truncate(n), g.truncate(n)
    scaled = tuple([c * g.den ** max(k - 1, 0) for k, c in enumerate(part)] for part in _kparts(g, d))  # g(D X)
    r = _kcompose(_kparts(f, d), scaled, d)
    return TruncatedSeries._over(n, d, r, [f.den * g.den**k for k in range(n + 1)])


def reciprocal(f: TruncatedSeries) -> TruncatedSeries:
    """1/f to f's truncation order; requires f(0) != 0."""
    cs = f.coeffs
    c0 = cs[0]
    if c0 == 0:
        raise ValueError("series with zero constant term has no reciprocal")
    inv0 = Fraction(1) / c0 if isinstance(c0, Fraction) else c0.inverse()
    out = [inv0]
    for n in range(1, f.order + 1):
        s = None
        for i in range(1, n + 1):
            if cs[i] != 0:
                t = cs[i] * out[n - i]
                s = t if s is None else s + t
        out.append(-(s * inv0) if s is not None else Fraction(0))
    return TruncatedSeries(tuple(out), f.order)


def compositional_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """The series g with f(g(X)) = g(f(X)) = X to the truncation order.

    Requires f(0) = 0 and f'(0) != 0.  When f has integer coefficients and
    f'(0) = +-1 the result again has integer coefficients.

    The work runs on the packed kernel over the field of :func:`series_field`.
    With f = (P + Q sqrt d) / D, the slope c has 1/c = D w / N for w = 1 and
    N = P_1 when c is rational, else w = P_1 - Q_1 sqrt d and
    N = P_1^2 - d Q_1^2.  Then f_k / c = H_k / N for H_k = (P_k + Q_k sqrt d) w,
    and with E the denominator of those, u(X) = f(E X) / (c E) =
    X + sum_k (f_k / c) E^(k-1) X^k is integral, so its inverse v comes from
    integral Newton steps, and [X^k] g = v_k (D w)^k / (N^k E^(k-1)).
    """
    if any(part[0] for part in f.parts):
        raise ValueError("series must vanish at origin")
    if f.order < 1 or not any(part[1] for part in f.parts):
        raise ValueError("series needs a unit linear coefficient")
    d = series_field((f,))
    n, ps = f.order, f.parts[0]
    qs = f.parts[1] if f.d is not None else (0,) * (n + 1)
    w, big_n = ((1, 0), ps[1]) if not qs[1] else ((ps[1], -qs[1]), ps[1] ** 2 - d * qs[1] ** 2)
    h = [_zmul(pq, w, d) for pq in zip(ps[2:], qs[2:])]
    g = math.gcd(big_n, *[x for pair in h for x in pair])
    sign, e = (1 if big_n > 0 else -1), abs(big_n) // g  # f_k / c = (sign H_k / g) / E
    # u = X + sum_k (f_k / c) E^(k-1) X^k, integral
    u = tuple([0, int(j == 0)] + [x[j] * sign // g * e**k for k, x in enumerate(h)] for j in range(1 + (d is not None)))
    v = _kinverse(u, d)
    vq = v[-1] if d is not None else [0] * (n + 1)
    step, power, nums = (sign * f.den * w[0], sign * f.den * w[1]), (1, 0), [(0, 0)]
    for k in range(1, n + 1):  # [X^k] g = v_k (sign D w)^k / (|N|^k E^(k-1))
        power = _zmul(power, step, d)
        nums.append(_zmul((v[0][k], vq[k]), power, d))
    dens = [1] + [abs(big_n) ** k * e ** (k - 1) for k in range(1, n + 1)]
    return TruncatedSeries._over(n, d, [list(x) for x in zip(*nums)][: 1 + (d is not None)], dens)


def _zmul(x: tuple, y: tuple, d: int | None) -> tuple:
    """(a + b sqrt d)(a' + b' sqrt d) on int pairs; over Z (d None) b' = 0 or b = b' = 0."""
    (a, b), (a2, b2) = x, y
    return a * a2 + (d * b * b2 if b2 else 0), a * b2 + b * a2


# ---------------------------------------------------------------------------
# Radius reports


class RadiusReport(NamedTuple):
    place: Place
    lower_bound: float
    certified: bool


def radius_lower_bound(
    f: TruncatedSeries, v: Place, integral_coefficients: bool = False
) -> RadiusReport:
    """Lower bound for the v-adic radius of convergence.

    A certified bound of 1 at a finite place requires the caller to assert
    structurally that all coefficients (including the uncomputed tail) are
    integers; scanning finitely many coefficients never certifies anything.
    The heuristic bound is min over computed n >= 1 of |a_n|_v^(-1/n).
    """
    if v.is_finite() and integral_coefficients:
        if not f.is_integral():
            raise ScalarError("integrality asserted but computed coefficients are not integers")
        return RadiusReport(v, 1.0, True)
    best = math.inf
    for idx, c in enumerate(f.coeffs[1:], 1):
        if c == 0:
            continue
        a = abs_at_place(c, v)
        if a > 0:  # 0.0 when |a_n|_v underflows
            try:
                best = min(best, a ** (-1.0 / idx))
            except OverflowError:  # a subnormal |a_n|_v: the bound is +inf and lowers nothing
                pass
    return RadiusReport(v, best, False)


# ---------------------------------------------------------------------------
# Globally-bounded scan


class GloballyBoundedReport(NamedTuple):
    bad_primes: tuple[int, ...]
    verdict: str  # "bounded" | "unbounded_evidence" | "inconclusive"
    witness: tuple[int, int] | None = None  # (n, p) with |a_n|_p > 1

    @property
    def positive_radius_everywhere(self) -> bool:
        """Always true: at every place, :func:`radius_lower_bound` is a
        minimum of finitely many positive floats, or +inf."""
        return True


def _denominator_primes(den: int, limit: int) -> set[int]:
    """The primes dividing den, by trial division up to limit.  A tail left
    once p * p passes it is prime; a tail left once p passes limit is kept
    unfactored as -tail, which is never a witness."""
    out = set()
    p = 2
    while p * p <= den and p <= limit:
        while den % p == 0:
            out.add(p)
            den //= p
        p += 1 if p == 2 else 2
    if den > 1:
        out.add(den if p * p > den else -den)
    return out


def globally_bounded_scan(f: TruncatedSeries, prime_bound: int) -> GloballyBoundedReport:
    """Scan coefficient denominators for evidence about global boundedness.

    bounded: all computed denominators divide a fixed integer determined by
    the first half of the scan.  unbounded_evidence: new primes <= prime_bound
    keep entering the denominator support late in the scan; the witness (n, p)
    satisfies |a_n|_p > 1.  Everything else is inconclusive.
    """
    if f.d is not None:
        raise ScalarError("globally-bounded scan is defined over rational coefficients")
    dens = [f.den // math.gcd(p, f.den) for p in f.parts[0]]
    first: dict[int, int] = {}  # each distinct denominator and where it first appears
    for n, den in enumerate(dens):
        first.setdefault(den, n)

    entry: dict[int, int] = {}
    for den, n in first.items():  # in order of n, so a prime keeps its first n
        for p in _denominator_primes(den, max(prime_bound, 10**5)):
            if p > 1 and p not in entry:
                entry[p] = n
    bad = tuple(sorted(entry))

    if all(den == 1 for den in dens):
        return GloballyBoundedReport((), "bounded")

    half = f.order // 2
    l = math.lcm(*dens[: half + 1])
    if all(l % den == 0 for den in dens):
        return GloballyBoundedReport(bad, "bounded")

    late = [(n, p) for p, n in entry.items() if n > half and 1 < p <= prime_bound]
    if late:
        n, p = max(late)
        return GloballyBoundedReport(bad, "unbounded_evidence", witness=(n, p))
    return GloballyBoundedReport(bad, "inconclusive")


# ---------------------------------------------------------------------------
# Evaluation with tail bounds


class EvalResult(NamedTuple):
    value: Scalar | float
    tail_bound: float
    heuristic: bool
    # exact form of the tail bound at a finite place: v_p(tail) = (N+1) v_p(x)
    tail_valuation: int | None = None


def eval_with_tail_bound(
    f: TruncatedSeries, x: Scalar, v: Place, integral_tail: bool = False
) -> EvalResult:
    """Evaluate the partial sum at x and bound the omitted tail.

    At a finite place with ``integral_tail`` (caller asserts the whole
    coefficient sequence is integral) the partial sum is exact and the tail
    bound |x|_v^(N+1) is rigorous; it requires |x|_v < 1.  Archimedean
    evaluation returns a float with a geometric tail estimate read off the
    last computed coefficient ratios, flagged heuristic.
    """
    if x == 0:
        return EvalResult(f.coeffs[0], 0.0, False)

    if v.is_finite():
        absx = abs_at_place(x, v)  # refuses an x that is not rational-valued
        x = rational_value(x)
        if f.d is None:  # Horner on the numerators, from the top:
            nums = reversed(f.parts[0])  # sum P_n a^n b^(N-n) / (D b^N) for x = a/b
            total, bpow = next(nums), 1
            for c in nums:
                bpow *= x.denominator
                total = total * x.numerator + c * bpow
            total = Fraction(total, f.den * bpow)
        else:  # term by term from c_0, the order in which two fields' scalars meet
            total = sum((c * x**n for n, c in enumerate(f.coeffs[1:], 1)), f.coeffs[0])
        if integral_tail:
            if not f.is_integral():
                raise ScalarError("integral tail asserted but computed coefficients are not integers")
            if absx >= 1.0:
                raise ScalarError("evaluation outside certified disc")
            vx = valuation(x, v.p)
            return EvalResult(total, absx ** (f.order + 1), False, (f.order + 1) * vx)
        last = [abs_at_place(c, v) for c in f.coeffs[-5:] if c != 0]
        tail = (max(last) if last else 0.0) * absx ** (f.order + 1)
        return EvalResult(total, tail, True)

    # archimedean: float partial sum, geometric tail from trailing ratios
    cs = f.coeffs
    if any(isinstance(c, QuadScalar) and c.d < 0 and c.b != 0 for c in (x, *cs)):
        raise ScalarError("archimedean evaluation over imaginary quadratic scalars is not supported")
    xf = arch_value(x, v)
    mags = [abs_at_place(c, v) for c in cs]
    total_f = 0.0
    for n in range(f.order, -1, -1):
        total_f = total_f * xf + arch_value(cs[n], v)
    ratios = [
        mags[i] / mags[i - 1]
        for i in range(max(1, f.order - 4), f.order + 1)
        if mags[i - 1] > 0 and mags[i] > 0
    ]
    rho = max(ratios) if ratios else 1.0
    q = rho * abs(xf)
    lastmag = mags[f.order] * abs(xf) ** f.order
    tail = lastmag * q / (1.0 - q) if q < 1.0 else math.inf
    # allowance for float rounding of the partial sum itself
    maxterm = max((m * abs(xf) ** n for n, m in enumerate(mags)), default=0.0)
    tail += 2.3e-16 * (f.order + 1) * maxterm
    return EvalResult(total_f, tail, True)
