"""Truncated univariate power series with exact coefficients.

Truncation order is explicit data: a series of order N carries coefficients
for X^0..X^N and nothing beyond.  Binary operations propagate the minimum
order of their operands.  Radius and boundedness reports are honest about
what a finite coefficient scan can and cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import (
    DecodeError,
    Place,
    QuadScalar,
    Scalar,
    ScalarError,
    abs_at_place,
    arch_value,
    cleared,
    json_field,
    json_int,
    json_list,
    quadratic_field,
    rational_value,
    scalar_from_json,
    scalar_to_json,
    uncleared,
    valuation,
)


MAX_ORDER = 100000  # a decoded order: from_coeffs pads to order + 1 entries, about 30 MB per million


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple
    order: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(f"need {self.order + 1} coefficients, got {len(self.coeffs)}")
        object.__setattr__(
            self,
            "coeffs",
            tuple(Fraction(c) if isinstance(c, int) else c for c in self.coeffs),
        )

    # -- constructors

    @staticmethod
    def from_coeffs(coeffs: Sequence[Scalar], order: int | None = None) -> "TruncatedSeries":
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs += [Fraction(0)] * (order + 1 - len(cs))
        return TruncatedSeries(tuple(cs[: order + 1]), order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries((Fraction(0),) * (order + 1), order)

    @staticmethod
    def constant(c: Scalar, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([c], order)

    @staticmethod
    def x(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([0, 1], order)

    @staticmethod
    def geometric(order: int) -> "TruncatedSeries":
        """1/(1-X) truncated."""
        return TruncatedSeries.from_coeffs([Fraction(1)] * (order + 1), order)

    # -- basics

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), n
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)), n
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out), n)

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(
            tuple((i + 1) * self.coeffs[i + 1] for i in range(self.order)),
            self.order - 1,
        )

    def is_integral(self) -> bool:
        """All computed coefficients lie in Z, whatever their type."""
        return all(c.denominator == 1 if type(c) is Fraction else c.b == 0 and c.a.denominator == 1
                   for c in self.coeffs)

    def __str__(self) -> str:
        parts = [f"{c}*X^{n}" for n, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"

    # -- JSON

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [scalar_to_json(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict, path: str = "") -> "TruncatedSeries":
        """Decode a series; a malformed one raises :class:`DecodeError`
        naming its path, e.g. ``coeffs: missing``."""
        at = (path + ".") if path else ""
        if not isinstance(obj, dict):
            raise DecodeError(f"{path or 'series'}: expected an object")
        order = json_int(obj, "order", at, low=0, high=MAX_ORDER)
        coeffs = json_list(json_field(obj, "coeffs", at), f"{at}coeffs")
        return TruncatedSeries.from_coeffs(
            [scalar_from_json(c, f"{at}coeffs[{i}]") for i, c in enumerate(coeffs)], order
        )


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
    """Truncated product of kernel series over Z (d None) or Z[sqrt d]."""
    if d is None:
        return (_mul_trunc(x[0], y[0], m),)
    (a1, b1), (a2, b2) = x, y
    p1 = _mul_trunc(a1, a2, m)
    p2 = _mul_trunc(b1, b2, m)
    p3 = _mul_trunc([s + t for s, t in zip(a1, b1)], [s + t for s, t in zip(a2, b2)], m)
    return (
        [s + d * t for s, t in zip(p1, p2)],
        [u - s - t for s, t, u in zip(p1, p2, p3)],
    )


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

    The work runs on the packed kernel, over Q or over the one Q(sqrt d) of
    :func:`quadratic_field`; coefficients from two quadratic fields raise
    ScalarError.  With D the common denominator of g, g(D X) has
    coefficients in Z or Z[sqrt d], and with F = D_f f cleared likewise,
    f(g(X)) = R(X/D) / D_f for R = F(g(D X)).
    """
    if g.coeffs[0] != 0:
        raise ValueError("inner series must vanish at origin")
    n = min(f.order, g.order)
    d = quadratic_field(f.coeffs + g.coeffs)
    (fk, fden), (gk, gden) = (cleared([s.coeffs[: n + 1]], d) for s in (f, g))
    scaled = tuple([c * gden ** max(k - 1, 0) for k, c in enumerate(part)] for (part,) in gk)  # g(D X)
    r = _kcompose(tuple(part for (part,) in fk), scaled, d)
    return TruncatedSeries(uncleared(r, [fden * gden**k for k in range(n + 1)], d), n)


def reciprocal(f: TruncatedSeries) -> TruncatedSeries:
    """1/f to f's truncation order; requires f(0) != 0."""
    c0 = f.coeffs[0]
    if c0 == 0:
        raise ValueError("series with zero constant term has no reciprocal")
    inv0 = Fraction(1) / c0 if isinstance(c0, Fraction) else c0.inverse()
    out = [inv0]
    for n in range(1, f.order + 1):
        s = None
        for i in range(1, n + 1):
            if i < len(f.coeffs) and f.coeffs[i] != 0:
                t = f.coeffs[i] * out[n - i]
                s = t if s is None else s + t
        out.append(-(s * inv0) if s is not None else Fraction(0))
    return TruncatedSeries(tuple(out), f.order)


def compositional_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """The series g with f(g(X)) = g(f(X)) = X to the truncation order.

    Requires f(0) = 0 and f'(0) != 0.  When f has integer coefficients and
    f'(0) = +-1 the result again has integer coefficients.

    The work runs on the packed integer kernel, over Q or over the one
    Q(sqrt d) of :func:`quadratic_field`, a rational coefficient lifted as
    (a, 0).  With c = f'(0) and D the common denominator of f/c, the series
    u(X) = f(D X) / (c D) is X plus integral terms, so its inverse v comes
    from integral Newton steps, and [X^k] g = v_k / (c^k D^(k-1)).
    Coefficients from two quadratic fields raise ScalarError.
    """
    if f.coeffs[0] != 0:
        raise ValueError("series must vanish at origin")
    if f.order < 1 or f.coeffs[1] == 0:
        raise ValueError("series needs a unit linear coefficient")
    d = quadratic_field(f.coeffs)
    c = f.coeffs[1]
    ci = 1 / (rational_value(c) or c)  # a rational slope scales in Q
    h = [x * ci for x in f.coeffs[2:]]
    parts, den = cleared([h], d)
    cols = [row for row, in parts]
    # u = X + sum_k (f_k / c) D^(k-1) X^k, integral
    u = tuple([0, int(j == 0)] + [y * den**k for k, y in enumerate(col)] for j, col in enumerate(cols))
    v = _kinverse(u, d)
    out = [Fraction(0)]
    scale = ci  # c^-k D^-(k-1)
    for k in range(1, f.order + 1):
        if d is None:
            out.append(v[0][k] * scale)
        elif type(scale) is Fraction:
            out.append(QuadScalar._trusted(d, v[0][k] * scale, v[1][k] * scale))
        else:
            out.append(QuadScalar._trusted(d, Fraction(v[0][k]), Fraction(v[1][k])) * scale)
        scale = scale * ci / den
    return TruncatedSeries(tuple(out), f.order)


# ---------------------------------------------------------------------------
# Radius reports


@dataclass(frozen=True)
class RadiusReport:
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
    for idx in range(1, f.order + 1):
        c = f.coeffs[idx]
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


@dataclass(frozen=True)
class GloballyBoundedReport:
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
    dens = []
    first: dict[int, int] = {}  # each distinct denominator and where it first appears
    for c in f.coeffs:
        r = rational_value(c)
        if r is None:
            raise ScalarError("globally-bounded scan is defined over rational coefficients")
        first.setdefault(r.denominator, len(dens))
        dens.append(r.denominator)

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


@dataclass(frozen=True)
class EvalResult:
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
        if all(type(c) is Fraction for c in f.coeffs):  # Horner on ints, from the top:
            ((nums,),), den = cleared([f.coeffs], None)  # sum N_n a^n b^(N-n) / (L b^N) for x = a/b
            total, bpow = nums[-1], 1
            for c in reversed(nums[:-1]):
                bpow *= x.denominator
                total = total * x.numerator + c * bpow
            total = Fraction(total, den * bpow)
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
    if any(isinstance(c, QuadScalar) and c.d < 0 and c.b != 0 for c in (x, *f.coeffs)):
        raise ScalarError("archimedean evaluation over imaginary quadratic scalars is not supported")
    xf = arch_value(x, v)
    mags = [abs_at_place(c, v) for c in f.coeffs]
    total_f = 0.0
    for n in range(f.order, -1, -1):
        total_f = total_f * xf + arch_value(f.coeffs[n], v)
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


def padic_partial_sum(f: TruncatedSeries, x: Fraction) -> Fraction:
    """Exact partial sum over Q (helper for finite-place self-consistency)."""
    total = Fraction(0)
    xp = Fraction(1)
    for c in f.coeffs:
        total += c * xp
        xp *= x
    return total

