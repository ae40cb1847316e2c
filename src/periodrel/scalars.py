"""Exact scalars over Q and quadratic extensions Q(sqrt(d)).

Two scalar kinds are supported: plain rationals (``fractions.Fraction``)
and elements a + b*sqrt(d) of a fixed real or imaginary quadratic field
(:class:`QuadScalar`).  All arithmetic is exact; the only exact-to-float
boundary is :func:`abs_at_place`.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "QuadScalar"]


class ScalarError(ValueError):
    """Operation outside the supported scalar domain."""


class DecodeError(ValueError):
    """Input JSON of the wrong shape; the message starts with its path."""


# Primes of finite places and |d| of quadratic fields stay below this cap, so
# the trial division of is_prime and is_squarefree stays under a millisecond.
TRIAL_DIVISION_CAP = 1 << 24


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def is_squarefree(d: int) -> bool:
    d = abs(d)
    if d == 0:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        while d % f == 0:
            d //= f
        f += 1
    return True


# ---------------------------------------------------------------------------
# Places


@dataclass(frozen=True)
class Place:
    """An archimedean place or a finite place attached to a prime.

    For quadratic scalars at an archimedean place, ``embedding`` selects the
    sign of sqrt(d): "sigma" embeds sqrt(d) as +sqrt(d), "tau" as -sqrt(d).
    """

    kind: str  # "arch" | "finite"
    p: int | None = None
    embedding: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("arch", "finite"):
            raise ScalarError(f"unknown place kind {self.kind!r}")
        if self.kind == "finite":
            if self.p is not None and self.p >= TRIAL_DIVISION_CAP:
                raise ScalarError(f"finite place needs a prime < 2^24, got {self.p}")
            if self.p is None or not is_prime(self.p):
                raise ScalarError(f"finite place needs a prime, got {self.p!r}")
            if self.embedding is not None:
                raise ScalarError("embedding selector is archimedean-only")
        else:
            if self.p is not None:
                raise ScalarError("archimedean place carries no prime")
            if self.embedding not in (None, "sigma", "tau"):
                raise ScalarError(f"unknown embedding {self.embedding!r}")

    @staticmethod
    def arch(embedding: str | None = None) -> "Place":
        return Place("arch", embedding=embedding)

    @staticmethod
    def finite(p: int) -> "Place":
        return Place("finite", p=p)

    def is_finite(self) -> bool:
        return self.kind == "finite"

    def to_json(self) -> dict:
        if self.kind == "arch":
            out: dict = {"kind": "arch"}
            if self.embedding is not None:
                out["embedding"] = self.embedding
            return out
        return {"kind": "finite", "p": self.p}

    @staticmethod
    def from_json(obj: dict, path: str = "place") -> "Place":
        kind = json_field(obj, "kind", path + ".")
        try:
            if kind == "finite":
                return Place.finite(json_int(obj, "p", path + "."))
            return Place(kind, embedding=obj.get("embedding"))
        except ScalarError as exc:
            raise DecodeError(f"{path}: {exc}")

    def __str__(self) -> str:
        if self.kind == "arch":
            return "arch" if self.embedding is None else f"arch/{self.embedding}"
        return f"p={self.p}"


# ---------------------------------------------------------------------------
# Rational valuations and absolute values


def valuation(x: Scalar, p: int) -> int:
    """p-adic valuation of a nonzero rational: v_p(num) - v_p(den).  A
    QuadScalar counts when it is rational-valued."""
    if not is_prime(p):
        raise ScalarError(f"{p} is not prime")
    x = rational_value(x)
    if x is None:
        raise ScalarError("p-adic valuation supported for rational values only")
    if x == 0:
        raise ScalarError("valuation of zero undefined")

    def _count(n: int) -> int:
        n = abs(n)
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    return _count(x.numerator) - _count(x.denominator)


def padic_abs(x: Fraction | int, p: int) -> float:
    """|x|_p = p^(-v_p(x)); 0 maps to 0."""
    if x == 0:
        return 0.0
    return float(p) ** (-valuation(x, p))


def abs_at_place(x: Scalar, v: Place) -> float:
    """The absolute value |x|_v at the given place, as a double.

    The single sanctioned exact-to-float boundary.  Returns 0.0 when x = 0
    or when |x|_p underflows, and raises :class:`ScalarError` when |x|_v or
    the parts it is computed from are past a double's range.
    """
    try:
        if isinstance(x, QuadScalar):
            return x.abs_at_place(v)
        x = Fraction(x)
        if v.kind == "arch":
            return abs(float(x.numerator) / float(x.denominator))
        return padic_abs(x, v.p)
    except OverflowError:
        raise ScalarError(f"an absolute value at {v} overflows a float")


def arch_value(x: Scalar, v: Place) -> float | complex:
    """x as a number at the archimedean place v: the float of a
    rational-valued x, else its image under v's embedding, complex over an
    imaginary field.  A genuinely quadratic x needs an embedding, and a value
    past a double's range raises OverflowError."""
    if isinstance(x, QuadScalar) and x.b != 0:
        if v.embedding is None:
            raise ScalarError("archimedean place needs an embedding selector for quadratic scalars")
        return x.embed(v.embedding)
    return float(x.a if isinstance(x, QuadScalar) else x)


# ---------------------------------------------------------------------------
# Quadratic extension scalars


@dataclass(frozen=True)
class QuadScalar:
    """a + b*sqrt(d) with a, b rational and d a fixed squarefree integer.

    Arithmetic is closed within a single d; mixing two genuinely quadratic
    values with different d raises :class:`ScalarError` rather than building
    a composite field.
    """

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if abs(self.d) >= TRIAL_DIVISION_CAP:
            raise ScalarError(f"|d| must be < 2^24, got {self.d}")
        if self.d in (0, 1) or not is_squarefree(self.d):
            raise ScalarError(f"d must be squarefree and != 0, 1; got {self.d}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- coercion helpers

    @staticmethod
    def _trusted(d: int, a: Fraction, b: Fraction) -> "QuadScalar":
        """Arithmetic results: d is already valid and a, b are Fractions."""
        x = object.__new__(QuadScalar)
        x.__dict__.update(d=d, a=a, b=b)  # skips __post_init__'s squarefree check
        return x

    @staticmethod
    def rational(d: int, value: Fraction | int) -> "QuadScalar":
        return QuadScalar(d, Fraction(value), Fraction(0))

    def _coerce(self, other) -> "QuadScalar":
        if isinstance(other, QuadScalar):
            if other.d == self.d:
                return other
            if other.b == 0:
                return QuadScalar._trusted(self.d, other.a, other.b)
            if self.b == 0:
                return other
            raise ScalarError(f"mixed quadratic contexts: sqrt({self.d}) vs sqrt({other.d})")
        if isinstance(other, (int, Fraction)):
            return QuadScalar._trusted(self.d, Fraction(other), Fraction(0))
        return NotImplemented  # type: ignore[return-value]

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return bool(self.a != 0 or self.b != 0)

    # -- ring/field operations

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.d != self.d and o.b != 0:  # self rational-valued, adopt other's d
            return QuadScalar._trusted(o.d, self.a + o.a, o.b)
        return QuadScalar._trusted(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar._trusted(self.d, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.d != self.d and o.b != 0:
            return o * self
        return QuadScalar._trusted(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        n = self.a * self.a - self.d * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic scalar")
        return QuadScalar._trusted(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.d != self.d and o.b != 0:
            return o._coerce(self) * o.inverse()
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadScalar._trusted(self.d, Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # n.bit_length() - 1 squarings
                base = base * base
        return out

    # -- equality treats rational-valued elements as plain rationals

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadScalar):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.d, self.a, self.b))

    # -- conjugation, norm, embeddings

    def conjugate(self) -> "QuadScalar":
        return QuadScalar._trusted(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def embed(self, embedding: str = "sigma"):
        """Float (d > 0) or complex (d < 0) image under the chosen embedding."""
        root = math.sqrt(abs(self.d))
        sign = 1.0 if embedding == "sigma" else -1.0
        if self.d > 0:
            return float(self.a) + sign * float(self.b) * root
        return complex(float(self.a), sign * float(self.b) * root)

    def abs_at_place(self, v: Place) -> float:
        if v.kind == "arch":
            if self.d < 0:
                # both complex embeddings share one modulus
                return math.sqrt(float(self.a * self.a - self.d * self.b * self.b))
            return abs(arch_value(self, v))
        if self.b == 0:
            return padic_abs(self.a, v.p)
        raise ScalarError("finite-place absolute value supported for rational values only")

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def rational_value(x: Scalar) -> Fraction | None:
    """x as a Fraction when its value is rational, whatever its type; None
    for a genuinely quadratic x."""
    if isinstance(x, QuadScalar):
        return x.a if x.b == 0 else None
    return x if type(x) is Fraction else Fraction(x)


def quadratic_field(values) -> int | None:
    """The d of the one Q(sqrt d) that holds every value, None when every
    value is rational.  A rational-valued QuadScalar counts as rational
    whatever its tag; a value from a second field raises ScalarError, naming
    its field before the field of the values ahead of it."""
    d = None
    for x in values:
        if isinstance(x, QuadScalar) and x.b and x.d != d:
            if d is not None:
                raise ScalarError(f"mixed quadratic contexts: sqrt({x.d}) vs sqrt({d})")
            d = x.d
    return d


def cleared(rows, d: int | None) -> tuple[tuple, int]:
    """Rows of scalars as int rows over one denominator D > 0: ((P,), D) over
    Q (d None) or ((P, Q), D) over Q(sqrt d), with rows = (P + Q sqrt d) / D.
    d is the :func:`quadratic_field` of these values or of more; a
    QuadScalar is read by its value.  Rows may differ in length."""
    parts = [[[x.a if type(x) is QuadScalar else x for x in row] for row in rows]]
    if d is not None:
        parts.append([[x.b if type(x) is QuadScalar else 0 for x in row] for row in rows])
    den = math.lcm(*(x.denominator for part in parts for row in part for x in row))
    return tuple([[x.numerator * (den // x.denominator) for x in row] for row in part] for part in parts), den


def uncleared(parts: tuple, dens, d: int | None) -> tuple:
    """The scalars (P_k + Q_k sqrt d) / dens_k of cleared parts (P,) or
    (P, Q), each built once."""
    if d is None:
        return tuple(map(Fraction, parts[0], dens))
    return tuple(QuadScalar._trusted(d, Fraction(a, e), Fraction(b, e)) for a, b, e in zip(*parts, dens))


# ---------------------------------------------------------------------------
# JSON encoding: rationals as "num/den", quadratic scalars as {d, a, b}


def scalar_to_json(x: Scalar):
    """The one encoding of a scalar, a function of its value: a rational
    value as "num/den" whatever its type, else {d, a, b}."""
    if isinstance(x, QuadScalar):
        return _frac_str(x.a) if x.b == 0 else {"d": x.d, "a": _frac_str(x.a), "b": _frac_str(x.b)}
    return _frac_str(Fraction(x))


def scalar_from_json(obj, path: str = "scalar") -> Scalar:
    """Decode a scalar from either form, {d, a, b} also for b = 0; a
    malformed one raises :class:`DecodeError` naming its path, e.g.
    ``coeffs[2].b: missing``."""
    if not isinstance(obj, dict):
        return _frac_parse(obj, path)
    for key in ("d", "a", "b"):
        if key not in obj:
            raise DecodeError(f"{path}.{key}: missing")
    try:
        d = int(obj["d"])
    except (TypeError, ValueError):
        raise DecodeError(f"{path}.d: not an integer: {obj['d']!r}")
    a, b = _frac_parse(obj["a"], f"{path}.a"), _frac_parse(obj["b"], f"{path}.b")
    try:
        return QuadScalar(d, a, b)
    except ScalarError as exc:
        raise DecodeError(f"{path}.d: {exc}")


def json_field(obj, key: str, at: str = ""):
    """``obj[key]`` from a JSON object; ``at`` prefixes the key's path, as in
    ``entries[0][0].``.  A missing key raises :class:`DecodeError`."""
    if not isinstance(obj, dict):
        raise DecodeError(f"{at[:-1] or 'input'}: expected an object")
    if key not in obj:
        raise DecodeError(f"{at}{key}: missing")
    return obj[key]


def json_int(obj, key: str, at: str = "", low: int | None = None, high: int | None = None) -> int:
    """``obj[key]`` as an int, at least ``low`` and at most ``high`` when given."""
    value = json_field(obj, key, at)
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON Infinity
        raise DecodeError(f"{at}{key}: not an integer: {value!r}")
    if low is not None and n < low:
        raise DecodeError(f"{at}{key}: must be >= {low}, got {n}")
    if high is not None and n > high:
        raise DecodeError(f"{at}{key}: must be <= {high}, got {n}")
    return n


def json_list(obj, path: str, length: int | None = None) -> list:
    """``obj`` as a JSON list, of ``length`` entries when given."""
    if not isinstance(obj, list):
        raise DecodeError(f"{path}: expected a list")
    if length is not None and len(obj) != length:
        raise DecodeError(f"{path}: expected {length} entries, got {len(obj)}")
    return obj


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


QUOTE_CAP = 40  # characters of a refused value that an error message repeats


def _frac_parse(s, path: str) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    try:
        if isinstance(s, str) and (s[1:] if s[:1] == "-" else s).isdecimal():
            return Fraction(int(s))  # a plain integer: skip the general parser
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        quoted = repr(s)
        quoted = quoted if len(quoted) <= QUOTE_CAP else quoted[:QUOTE_CAP] + "..."
        limit = sys.get_int_max_str_digits()
        if limit and max(map(len, re.findall(r"\d+", str(s))), default=0) > limit:
            raise DecodeError(f"{path}: a number past the limit of {limit} digits: {quoted}")
        raise DecodeError(f"{path}: not a rational number: {quoted}")
