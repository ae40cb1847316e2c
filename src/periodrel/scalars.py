"""Exact scalars over Q and quadratic extensions Q(sqrt(d)).

Two scalar kinds are supported: plain rationals (``fractions.Fraction``)
and elements a + b*sqrt(d) of a fixed real or imaginary quadratic field
(:class:`QuadScalar`).  All arithmetic is exact; the only exact-to-float
boundary is :func:`abs_at_place`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction

Scalar = Union[int, Fraction, "QuadScalar"]


class ScalarError(ValueError):
    """Operation outside the supported scalar domain."""


class DecodeError(ValueError):
    """Input JSON of the wrong shape; the message starts with its path."""


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
    if isinstance(x, QuadScalar):
        if x.b != 0:
            raise ScalarError("p-adic valuation supported for rational values only")
        x = x.a
    x = Fraction(x)
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


def padic_abs_exact(x: Fraction | int, p: int) -> Fraction:
    """|x|_p as an exact rational (for exact tail-bound comparisons)."""
    if x == 0:
        return Fraction(0)
    v = valuation(x, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def abs_at_place(x: Scalar, v: Place) -> float:
    """The absolute value |x|_v at the given place, as a double.

    The single sanctioned exact-to-float boundary.  Returns 0.0 exactly
    when x = 0.
    """
    if isinstance(x, QuadScalar):
        return x.abs_at_place(v)
    x = Fraction(x)
    if v.kind == "arch":
        return abs(float(x.numerator) / float(x.denominator))
    return padic_abs(x, v.p)


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
            if self.b == 0:
                return abs(float(self.a))
            if v.embedding is None:
                raise ScalarError("archimedean place needs an embedding selector for quadratic scalars")
            return abs(self.embed(v.embedding))
        if self.b == 0:
            return padic_abs(self.a, v.p)
        raise ScalarError("finite-place absolute value supported for rational values only")

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def conjugate(x: Scalar) -> Scalar:
    """Galois conjugate: a + b*sqrt(d) -> a - b*sqrt(d); rationals are fixed."""
    if isinstance(x, QuadScalar):
        return x.conjugate()
    return Fraction(x)


# ---------------------------------------------------------------------------
# JSON encoding: rationals as "num/den", quadratic scalars as {d, a, b}


def scalar_to_json(x: Scalar):
    if isinstance(x, QuadScalar):
        return {"d": x.d, "a": _frac_str(x.a), "b": _frac_str(x.b)}
    return _frac_str(Fraction(x))


def scalar_from_json(obj, path: str = "scalar") -> Scalar:
    """Decode a scalar; a malformed one raises :class:`DecodeError` naming
    its path, e.g. ``coeffs[2].b: missing``."""
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


def json_int(obj, key: str, at: str = "", low: int | None = None) -> int:
    """``obj[key]`` as an int, at least ``low`` when given."""
    value = json_field(obj, key, at)
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise DecodeError(f"{at}{key}: not an integer: {value!r}")
    if low is not None and n < low:
        raise DecodeError(f"{at}{key}: must be >= {low}, got {n}")
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


def _frac_parse(s, path: str) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise DecodeError(f"{path}: not a rational number: {s!r}")
