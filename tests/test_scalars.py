import math
import random
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from periodrel.scalars import (
    Place,
    QuadScalar,
    ScalarError,
    abs_at_place,
    arch_value,
    cleared,
    quadratic_field,
    scalar_from_json,
    scalar_to_json,
    uncleared,
    valuation,
)

from helpers import conjugate, padic_abs_exact


def brute_force_valuation(n: int, p: int) -> int:
    """Independent oracle: count factors of p in n by repeated division."""
    assert n != 0
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def test_valuation_units_and_simple():
    for p in (2, 3, 5, 7, 11):
        assert valuation(Fraction(1), p) == 0
    assert valuation(Fraction(8, 3), 2) == 3
    assert valuation(Fraction(8, 3), 3) == -1


def test_valuation_factorial_legendre():
    n = math.factorial(100)
    # oracle: direct factor count of 100!
    assert brute_force_valuation(n, 7) == 16
    assert valuation(Fraction(n), 7) == 16


def test_valuation_zero_rejected():
    with pytest.raises(ScalarError, match="valuation of zero"):
        valuation(Fraction(0), 5)
    with pytest.raises(ScalarError):
        valuation(Fraction(3), 4)  # non-prime


def test_abs_at_place_basics():
    assert abs_at_place(Fraction(-3, 2), Place.arch()) == 1.5
    assert abs_at_place(Fraction(8, 3), Place.finite(2)) == 0.125
    assert abs_at_place(Fraction(0), Place.arch()) == 0.0
    assert abs_at_place(Fraction(0), Place.finite(5)) == 0.0


def test_abs_quadratic_conjugate_embedding():
    x = QuadScalar(2, Fraction(1), Fraction(1))  # 1 + sqrt(2)
    tau = Place.arch("tau")
    assert abs_at_place(x, tau) == pytest.approx(abs(1 - math.sqrt(2)), abs=1e-12)
    sigma = Place.arch("sigma")
    assert abs_at_place(x, sigma) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    with pytest.raises(ScalarError):
        abs_at_place(x, Place.arch())  # selector required


def test_arch_value():
    arch, sigma, tau = Place.arch(), Place.arch("sigma"), Place.arch("tau")
    assert arch_value(Fraction(-3, 8), arch) == -0.375
    assert arch_value(Fraction(10**400 + 1, 10**399), arch) == 10.0  # the float of the rational
    for d in (5, -1):  # rational-valued: no embedding needed, real or imaginary field
        assert arch_value(QuadScalar(d, Fraction(1, 2), 0), arch) == 0.5
    x = QuadScalar(2, 1, 1)
    assert (arch_value(x, sigma), arch_value(x, tau)) == (1 + math.sqrt(2), 1 - math.sqrt(2))
    assert arch_value(QuadScalar(-7, 1, 2), tau) == complex(1, -2 * math.sqrt(7))
    for y in (x, QuadScalar(-7, 1, 2)):
        with pytest.raises(ScalarError, match="needs an embedding selector"):
            arch_value(y, arch)
    with pytest.raises(OverflowError):
        arch_value(Fraction(10**400), arch)


def test_conjugate_and_norm():
    assert conjugate(QuadScalar(5, Fraction(3), Fraction(0))) == Fraction(3)
    x = QuadScalar(5, Fraction(1), Fraction(2))
    assert conjugate(x) == QuadScalar(5, Fraction(1), Fraction(-2))
    assert conjugate(conjugate(x)) == x
    assert x.norm() == Fraction(-19)
    assert x * x.conjugate() == Fraction(-19)


def test_valuation_multiplicative():
    rng = random.Random(0)
    for _ in range(50):
        x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        for p in (2, 3, 5, 7):
            assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_product_formula_exact():
    # |x|_arch * prod_p |x|_p = 1, exact over Fractions
    rng = random.Random(1)
    for _ in range(50):
        x = Fraction(rng.randint(-10**6, 10**6) or 3, rng.randint(1, 10**6))
        primes = set()
        for n in (abs(x.numerator), x.denominator):
            f = 2
            while f * f <= n:
                if n % f == 0:
                    primes.add(f)
                    while n % f == 0:
                        n //= f
                f += 1
            if n > 1:
                primes.add(n)
        prod = abs(x)
        for p in primes:
            prod *= padic_abs_exact(x, p)
        assert prod == 1


def test_quad_arithmetic_matches_embeddings():
    # agreement within 1e-12 relative to the operand scale (the guard that
    # stays meaningful under cancellation)
    rng = random.Random(2)
    for _ in range(50):
        d = rng.choice((2, 3, 5, -1, -7))
        mk = lambda: QuadScalar(
            d, Fraction(rng.randint(-1000, 1000), rng.randint(1, 50)),
            Fraction(rng.randint(-1000, 1000), rng.randint(1, 50)),
        )
        x, y = mk(), mk()
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            z = op(x, y)
            for emb in ("sigma", "tau"):
                lhs = z.embed(emb)
                rhs = op(x.embed(emb), y.embed(emb))
                scale = (1 + abs(x.embed(emb))) * (1 + abs(y.embed(emb)))
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_quad_division_and_pow():
    x = QuadScalar(3, Fraction(2), Fraction(1))
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    assert x**3 == x * x * x
    assert x**0 == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_quad_pow_squares_once_per_bit_after_the_first(n, monkeypatch):
    x = QuadScalar(3, Fraction(2), Fraction(1))
    expect = QuadScalar.rational(3, 1)
    for _ in range(n):
        expect = expect * x
    squares = []
    mul = QuadScalar.__mul__

    def counting(a, b):
        squares.append(a is b)
        return mul(a, b)

    monkeypatch.setattr(QuadScalar, "__mul__", counting)
    assert x**n == expect
    assert sum(squares) == n.bit_length() - 1


def test_mixed_d_rejected():
    x = QuadScalar(2, Fraction(1), Fraction(1))
    y = QuadScalar(3, Fraction(1), Fraction(1))
    with pytest.raises(ScalarError, match="mixed quadratic"):
        x + y
    # rational-valued quadratics mix fine
    z = QuadScalar(3, Fraction(5), Fraction(0))
    assert x + z == QuadScalar(2, Fraction(6), Fraction(1))


def test_finite_place_quadratic_restricted():
    x = QuadScalar(2, Fraction(1), Fraction(1))
    with pytest.raises(ScalarError):
        abs_at_place(x, Place.finite(7))
    r = QuadScalar(2, Fraction(8, 3), Fraction(0))
    assert abs_at_place(r, Place.finite(2)) == 0.125


def test_trial_division_caps_admit_their_bounds():
    below = 2**24 - 3  # the largest prime below 2^24
    assert Place.finite(below).p == below
    assert QuadScalar(-below, 1, 1).d == -below
    with pytest.raises(ScalarError, match=r"finite place needs a prime < 2\^24, got 16777259"):
        Place.finite(16777259)  # the smallest prime past 2^24
    with pytest.raises(ScalarError, match=r"\|d\| must be < 2\^24, got -16777217"):
        QuadScalar(-(2**24 + 1), 1, 1)  # 97 * 257 * 673, squarefree


def test_json_roundtrip():
    vals = [Fraction(3, 7), Fraction(-5), QuadScalar(5, Fraction(1, 2), Fraction(-3))]
    for v in vals:
        assert scalar_from_json(scalar_to_json(v)) == v
    assert scalar_to_json(Fraction(3, 7)) == "3/7"
    assert scalar_to_json(Fraction(4)) == "4"
    for pl in (Place.arch(), Place.arch("tau"), Place.finite(13)):
        assert Place.from_json(pl.to_json()) == pl


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 5, -1, -7)),
    st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30).map(Fraction),
    st.fractions(max_denominator=10**6).filter(bool),
)
def test_encoding_is_a_function_of_the_value(d, a, b):
    # a rational value prints as "num/den" whatever its type; a quadratic
    # value keeps its object form; both input forms decode to equal values
    text = scalar_to_json(a)
    assert scalar_to_json(QuadScalar(d, a, 0)) == text == scalar_to_json(QuadScalar(11, a, 0))
    obj = {"d": d, "a": scalar_to_json(a), "b": "0"}
    assert scalar_from_json(obj) == scalar_from_json(text) == a
    x = QuadScalar(d, a, b)
    assert scalar_to_json(x) == {"d": d, "a": scalar_to_json(a), "b": scalar_to_json(b)}
    assert scalar_from_json(scalar_to_json(x)) == x
    assert scalar_to_json(x - QuadScalar(d, 0, b)) == text  # a zero b part from arithmetic


def test_quadratic_field_names_the_one_field():
    assert quadratic_field([Fraction(1), 3, QuadScalar(7, 2, 0)]) is None
    assert quadratic_field([QuadScalar(7, 2, 0), Fraction(1), QuadScalar(5, 0, 1), QuadScalar(5, 1, 1)]) == 5
    with pytest.raises(ScalarError, match=r"^mixed quadratic contexts: sqrt\(7\) vs sqrt\(5\)$"):
        quadratic_field([QuadScalar(5, 0, 1), QuadScalar(11, 1, 0), QuadScalar(7, 0, 1), QuadScalar(2, 0, 1)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_cleared_rows_round_trip_by_value(data):
    """Rows of ints, Fractions, rational-valued QuadScalars tagged with some
    other d and (over Q(sqrt d)) genuine elements, of unequal lengths, clear
    to int parts over the lcm of their denominators and back to equal
    values."""
    d = data.draw(st.sampled_from((None, 2, 5, -1, -7)))
    other = data.draw(st.sampled_from((3, 11, -3)))
    q = st.fractions(max_denominator=60)
    kinds = [st.integers(-(10**20), 10**20), q, q.map(lambda a: QuadScalar(other, a, 0))]
    if d is not None:
        kinds.append(st.builds(lambda a, b: QuadScalar(d, a, b), q, q.filter(bool)))
    rows = data.draw(st.lists(st.lists(st.one_of(kinds), max_size=6), max_size=5))
    parts, den = cleared(rows, d)
    assert len(parts) == (1 if d is None else 2)
    assert all(len(part[i]) == len(row) for part in parts for i, row in enumerate(rows))
    assert all(type(v) is int for part in parts for row in part for v in row)
    split = [(x.a, x.b) if isinstance(x, QuadScalar) else (Fraction(x), Fraction(0)) for row in rows for x in row]
    assert den == math.lcm(*(Fraction(y).denominator for pair in split for y in pair))
    for i, row in enumerate(rows):
        back = uncleared([part[i] for part in parts], repeat(den), d)
        assert len(back) == len(row) and all(x == y for x, y in zip(back, row))
        assert d is not None or all(type(x) is Fraction for x in back)


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "7", "-12", "00042", "9" * 400, "-" + "9" * 400, "٣", "-٣١",  # integer fast path
     "1/2", "-6/4", "+5", " 5", "5 ", "1_000", "1.5", "1e3", "--5", "-", "", "5-", "1/0", "x", "9" * 5000],
)
def test_integer_strings_parse_like_the_general_parser(text):
    try:
        expected = ("ok", Fraction(text))
    except (ValueError, ZeroDivisionError):  # the message quotes at most 40 characters
        reason = "not a rational number" if len(text) <= 4300 else "a number past the limit of 4300 digits"
        expected = ("error", f"x: {reason}: {text!r}" if len(repr(text)) <= 40 else f"x: {reason}: {repr(text)[:40]}...")
    try:
        got = ("ok", scalar_from_json(text, "x"))
    except ValueError as exc:
        got = ("error", str(exc))
    assert got == expected
    assert got[0] != "ok" or type(got[1]) is Fraction


def test_records_are_immutable_and_compare_by_value():
    from periodrel.polyalg import VarId
    from periodrel.relations import EndomorphismAction
    from periodrel.series import TruncatedSeries

    eye = ((Fraction(1),),)
    records = [  # (record, an equal one, a different one, a field)
        (Place.finite(7), Place("finite", p=7), Place.arch("tau"), "p"),
        (QuadScalar(5, 1, 2), QuadScalar(5, Fraction(1), Fraction(2)), QuadScalar(5, 1, 3), "b"),
        (VarId("Y", 1, 2), VarId("Y", 1, 2), VarId("Z", 1, 2), "block"),
        (EndomorphismAction(1, eye, eye, eye), EndomorphismAction(1, eye, eye, eye), EndomorphismAction(1, eye, eye, ((2,),)), "D"),
        (TruncatedSeries((1, 2), 1), TruncatedSeries.from_coeffs([1, 2]), TruncatedSeries((1, 3), 1), "coeffs"),
    ]
    for x, same, other, name in records:
        assert x == same and hash(x) == hash(same) and x != other
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == getattr(same, name) != getattr(other, name)
    assert QuadScalar(5, 1, 0) == Fraction(1) and hash(QuadScalar(5, 1, 0)) == hash(Fraction(1))
    # the arithmetic constructor skips the squarefree check that the public one makes
    assert QuadScalar._trusted(4, Fraction(1), Fraction(1)).d == 4
    with pytest.raises(ScalarError, match="squarefree"):
        QuadScalar(4, 1, 1)
