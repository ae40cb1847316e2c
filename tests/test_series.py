import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodrel import series
from periodrel.scalars import DecodeError, Place, QuadScalar, ScalarError, rational_value, valuation
from periodrel.series import (
    EvalResult,
    TruncatedSeries,
    compose,
    compositional_inverse,
    eval_with_tail_bound,
    globally_bounded_scan,
    padic_partial_sum,
    radius_lower_bound,
    reciprocal,
)

from helpers import compose_generic, horner, horner_kcompose, inverse_generic

TS = TruncatedSeries


def quad(d, a, b=0):
    return QuadScalar(d, Fraction(a), Fraction(b))


# ---------------------------------------------------------------------------
# oracles


def brute_force_compose(f_coeffs, g_coeffs, order):
    """Expand sum_k f_k * g(X)^k by schoolbook polynomial arithmetic."""
    out = [Fraction(0)] * (order + 1)
    gk = [Fraction(1)] + [Fraction(0)] * order  # g^0
    for k, fk in enumerate(f_coeffs[: order + 1]):
        for n in range(order + 1):
            out[n] += fk * gk[n]
        # gk *= g
        new = [Fraction(0)] * (order + 1)
        for i, a in enumerate(gk):
            if a == 0:
                continue
            for j, b in enumerate(g_coeffs[: order + 1 - i]):
                new[i + j] += a * b
        gk = new
    return out


def lagrange_inverse(f: TS) -> TS:
    """Lagrange inversion: n [X^n] g = [X^(n-1)] (X / f)^n."""
    n = f.order
    # X/f = 1 / (f/X)
    shifted = TS.from_coeffs(list(f.coeffs[1:]), n - 1)
    base = reciprocal(shifted)
    out = [Fraction(0), None]
    power = TS.constant(Fraction(1), n - 1)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        power = power * base if k > 1 else base
        coeffs[k] = power.coeffs[k - 1] / k
    coeffs[0] = Fraction(0)
    return TS.from_coeffs(coeffs, n)


# ---------------------------------------------------------------------------
# composition


def test_compose_identities():
    g = TS.from_coeffs([0, 2, -1, 3], 3)
    assert compose(TS.x(3), g) == g
    f = TS.from_coeffs([5, 1, 7, -2], 3)
    assert compose(f, TS.x(3)) == f


def test_compose_requires_vanishing_inner():
    with pytest.raises(ValueError, match="vanish at origin"):
        compose(TS.geometric(3), TS.constant(1, 3))


def test_compose_fibonacci():
    f = TS.geometric(4)
    g = TS.from_coeffs([0, 1, 1], 4)
    expected = brute_force_compose(list(f.coeffs), list(g.coeffs), 4)
    got = compose(f, g)
    assert list(got.coeffs) == expected
    assert expected == [1, 1, 2, 3, 5]


def test_compose_random_against_brute_force():
    rng = random.Random(3)
    for _ in range(10):
        fc = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9)]
        gc = [Fraction(0)] + [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        f, g = TS.from_coeffs(fc, 8), TS.from_coeffs(gc, 8)
        assert list(compose(f, g).coeffs) == brute_force_compose(fc, gc, 8)


# ---------------------------------------------------------------------------
# compositional inverse


def test_inverse_of_x():
    assert compositional_inverse(TS.x(6)) == TS.x(6)


def test_inverse_geometric_shift():
    # X/(1-X) = X + X^2 + ... inverts to X/(1+X) = X - X^2 + X^3 - ...
    f = TS.from_coeffs([0] + [1] * 10, 10)
    g = compositional_inverse(f)
    assert list(g.coeffs) == [Fraction(0)] + [Fraction((-1) ** (n + 1)) for n in range(1, 11)]
    assert compose(f, g) == TS.x(10)
    assert compose(g, f) == TS.x(10)


def test_inverse_signed_catalan():
    f = TS.from_coeffs([0, 1, 1], 5)
    g = compositional_inverse(f)
    assert list(g.coeffs) == [0, 1, -1, 2, -5, 14]
    assert list(lagrange_inverse(f).coeffs) == [0, 1, -1, 2, -5, 14]


def test_inverse_matches_lagrange_oracle():
    rng = random.Random(4)
    for _ in range(10):
        coeffs = [0, rng.choice((1, -1))] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)]
        f = TS.from_coeffs(coeffs, 11)
        assert compositional_inverse(f) == lagrange_inverse(f)


def test_inverse_preconditions():
    with pytest.raises(ValueError):
        compositional_inverse(TS.from_coeffs([1, 1], 3))
    with pytest.raises(ValueError):
        compositional_inverse(TS.from_coeffs([0, 0, 1], 3))


def test_integral_unit_series_have_integral_inverses():
    rng = random.Random(5)
    for _ in range(25):
        coeffs = [0, rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(29)]
        f = TS.from_coeffs(coeffs, 30)
        g = compositional_inverse(f)
        assert g.is_integral()
        assert compose(f, g) == TS.x(30)
        assert compose(g, f) == TS.x(30)


# ---------------------------------------------------------------------------
# radius reports


def test_radius_integer_coeffs_finite_certified():
    f = TS.from_coeffs([3, -7, 1, 0, 2], 4)
    rep = radius_lower_bound(f, Place.finite(7), integral_coefficients=True)
    assert rep.lower_bound == 1.0 and rep.certified


def test_radius_geometric_arch():
    rep = radius_lower_bound(TS.geometric(20), Place.arch())
    assert rep.lower_bound == pytest.approx(1.0) and not rep.certified


def test_radius_exponential_at_two():
    n = 32
    f = TS.from_coeffs([Fraction(1, math.factorial(k)) for k in range(n + 1)], n)
    rep = radius_lower_bound(f, Place.finite(2))
    # oracle: Legendre's formula, v_2(k!) = k - s_2(k)
    oracle = min(
        2.0 ** (-(k - bin(k).count("1")) / k) for k in range(1, n + 1)
    )
    assert rep.lower_bound == pytest.approx(oracle)
    assert 0.5 < rep.lower_bound < 0.6
    assert not rep.certified


def test_radius_integrality_assertion_checked():
    f = TS.from_coeffs([Fraction(1, 2), 1], 1)
    with pytest.raises(ScalarError):
        radius_lower_bound(f, Place.finite(3), integral_coefficients=True)


# ---------------------------------------------------------------------------
# globally bounded scan


def test_scan_integer_series_bounded():
    f = TS.from_coeffs(list(range(1, 22)), 20)
    rep = globally_bounded_scan(f, 50)
    assert rep.verdict == "bounded"
    assert rep.bad_primes == ()
    assert rep.positive_radius_everywhere


def test_scan_exponential_unbounded_with_witness():
    n = 30
    f = TS.from_coeffs([Fraction(1, math.factorial(k)) for k in range(n + 1)], n)
    rep = globally_bounded_scan(f, 30)
    assert rep.verdict == "unbounded_evidence"
    wn, wp = rep.witness
    assert valuation(f.coeffs[wn], wp) < 0  # |a_n|_p > 1 indeed
    assert wn == wp  # prime p first divides a denominator at n = p


def test_scan_central_binomial_squared_bounded():
    # coefficients via the recurrence c_{n+1} = c_n * (2n+1)^2 * 4 / (n+1)^2,
    # cross-checked against the binomial closed form
    c = [Fraction(1)]
    for n in range(50):
        c.append(c[-1] * 4 * (2 * n + 1) ** 2 / (n + 1) ** 2)
    for n in range(51):
        assert c[n] == Fraction(math.comb(2 * n, n) ** 2)
        assert c[n].denominator == 1
    f = TS.from_coeffs(c, 50)
    assert globally_bounded_scan(f, 50).verdict == "bounded"


@pytest.mark.parametrize(
    "tail, bad",
    [
        (1000000007, (2, 3, 1000000007)),  # left once p * p passes it, so prime
        (99991 * 100003, (2, 3, 99991, 100003)),
        (10**12 + 39, (2, 3)),  # prime, but left once p passes 10^5: unfactored and unlisted
    ],
)
def test_scan_lists_a_tail_only_when_trial_division_proves_it_prime(tail, bad):
    f = TS.from_coeffs([Fraction(1, 6), Fraction(1, 6 * tail)], 1)
    assert globally_bounded_scan(f, 50).bad_primes == bad


def test_scan_dates_a_prime_by_the_first_index_of_a_repeated_denominator():
    # 1/3 at n = 1 and again at n = 9, 1/5 first at n = 7: only 5 enters late
    coeffs = [Fraction(0)] * 11
    coeffs[1] = coeffs[9] = Fraction(1, 3)
    coeffs[7] = Fraction(1, 5)
    rep = globally_bounded_scan(TS.from_coeffs(coeffs, 10), 50)
    assert (rep.bad_primes, rep.verdict, rep.witness) == ((3, 5), "unbounded_evidence", (7, 5))


def test_scan_stable_denominator_bounded():
    f = TS.from_coeffs([Fraction(n, 6) for n in range(25)], 24)
    assert globally_bounded_scan(f, 50).verdict == "bounded"


# ---------------------------------------------------------------------------
# evaluation with tail bounds


def test_eval_at_zero():
    f = TS.from_coeffs([Fraction(7, 3), 1, 4], 2)
    for v in (Place.arch(), Place.finite(5)):
        res = eval_with_tail_bound(f, Fraction(0), v)
        assert res.value == Fraction(7, 3) and res.tail_bound == 0.0


def test_eval_geometric_padic():
    # x = 2 is the 2-adically small point: |2|_2 = 1/2 < 1
    n = 12
    f = TS.geometric(n)
    res = eval_with_tail_bound(f, Fraction(2), Place.finite(2), integral_tail=True)
    assert res.value == padic_partial_sum(f, Fraction(2))
    assert res.tail_bound == pytest.approx(2.0 ** (-(n + 1)))
    assert not res.heuristic


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=40) | st.integers(-(10**30), 10**30).map(Fraction), min_size=1, max_size=30),
    (st.integers(-(10**6), 10**6) | st.fractions(max_denominator=10**9)).filter(bool),
    st.sampled_from((2, 3, 7)),
)
def test_finite_place_sum_matches_fraction_horner(coeffs, x, p):
    # all-Fraction coefficients take the int Horner, at a rational x and at a
    # rational-valued QuadScalar x alike, since x is read by its value
    f = TS.from_coeffs(coeffs)
    res = eval_with_tail_bound(f, x, Place.finite(p))
    want = horner(f.coeffs, x)
    assert res.value == want and type(res.value) is Fraction
    assert eval_with_tail_bound(f, QuadScalar(5, x, 0), Place.finite(p)) == res


def test_finite_place_sum_has_two_branches(monkeypatch):
    # rational coefficients: the int Horner, whatever the type of a rational
    # x; quadratic coefficients: the term-by-term sum, without clearing
    cleared = []
    rows = series.cleared
    monkeypatch.setattr(series, "cleared", lambda r, d: cleared.append(d) or rows(r, d))
    f = TS.from_coeffs([Fraction(1, 3), 2, Fraction(-5, 7), 9])
    for x in (3, Fraction(3, 5), QuadScalar(-7, Fraction(3, 5), 0)):
        cleared.clear()
        res = eval_with_tail_bound(f, x, Place.finite(3))
        assert cleared == [None] and res.value == horner(f.coeffs, rational_value(x))
    g = TS.from_coeffs([quad(5, 1, 1), Fraction(2, 3), quad(5, 0, -1), quad(2, 1), 1, 2, 3, 4])
    cleared.clear()
    res = eval_with_tail_bound(g, Fraction(3, 5), Place.finite(3))
    assert cleared == [] and res.value == horner(g.coeffs, Fraction(3, 5))
    with pytest.raises(ScalarError, match="rational values only"):
        eval_with_tail_bound(f, quad(5, 0, 1), Place.finite(3))


def test_eval_outside_disc_rejected():
    # 1/2 is 2-adically large (|1/2|_2 = 2), hence outside the unit disc
    with pytest.raises(ScalarError, match="outside certified disc"):
        eval_with_tail_bound(TS.geometric(5), Fraction(1, 2), Place.finite(2), integral_tail=True)
    with pytest.raises(ScalarError, match="outside certified disc"):
        # |2|_3 = 1: the open unit disc excludes it
        eval_with_tail_bound(TS.geometric(5), Fraction(2), Place.finite(3), integral_tail=True)


def test_eval_geometric_arch_closed_form():
    f = TS.geometric(20)
    res = eval_with_tail_bound(f, Fraction(1, 3), Place.arch())
    assert res.heuristic
    assert abs(res.value - 1.5) <= res.tail_bound


def test_eval_arch_quadratic_values():
    f = TS.from_coeffs([Fraction(1), QuadScalar(-1, Fraction(1, 2), 0), Fraction(1)], 2)
    g = TS.from_coeffs([Fraction(1), Fraction(1, 2), Fraction(1)], 2)
    quarter = Fraction(1, 4)
    assert eval_with_tail_bound(f, quarter, Place.arch()) == eval_with_tail_bound(g, quarter, Place.arch())
    root5 = QuadScalar(5, 0, 1)
    with pytest.raises(ScalarError, match="needs an embedding selector"):
        eval_with_tail_bound(g, root5 / 4, Place.arch())
    assert eval_with_tail_bound(g, root5 / 4, Place.arch("tau")).value == pytest.approx(1 - math.sqrt(5) / 8 + 5 / 16)
    for x, h in ((Fraction(1, 4), TS.from_coeffs([1, QuadScalar(-7, 0, 1)], 1)), (QuadScalar(-7, 0, 1) / 8, g)):
        for v in (Place.arch(), Place.arch("sigma")):
            with pytest.raises(ScalarError, match="imaginary quadratic scalars is not supported"):
                eval_with_tail_bound(h, x, v)


def test_padic_truncation_consistency():
    # values at two truncation orders differ by at most |x|_p^(N1+1), checked
    # exactly through valuations
    rng = random.Random(6)
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(25)]
        f = TS.from_coeffs(coeffs, 24)
        p = rng.choice((2, 3, 5))
        x = Fraction(p * rng.randint(1, 3), rng.choice((7, 11)))  # v_p(x) = 1
        n1, n2 = 10, 24
        s1 = padic_partial_sum(f.truncate(n1), x)
        s2 = padic_partial_sum(f.truncate(n2), x)
        if s1 != s2:
            assert valuation(s2 - s1, p) >= (n1 + 1) * valuation(x, p)


def test_series_json_roundtrip():
    f = TS.from_coeffs([Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)], 3)
    assert TS.from_json(f.to_json()) == f


def test_series_from_json_names_the_malformed_path():
    cases = [
        ({"order": 3}, "coeffs: missing"),
        ({"coeffs": ["0"]}, "order: missing"),
        ({"order": "x", "coeffs": []}, "order: not an integer"),
        ({"order": -1, "coeffs": []}, "order: must be >= 0"),
        ({"order": 1, "coeffs": "01"}, "coeffs: expected a list"),
        ({"order": 2, "coeffs": ["0", "1", {"d": 5, "a": "1"}]}, "coeffs[2].b: missing"),
        ({"order": 1, "coeffs": ["0", {"d": 4, "a": "1", "b": "1"}]}, "coeffs[1].d: "),
        ({"order": 1, "coeffs": ["0", "1/0"]}, "coeffs[1]: not a rational number"),
        (["0", "1"], "series: expected an object"),
    ]
    for obj, message in cases:
        with pytest.raises(DecodeError) as exc:
            TS.from_json(obj)
        assert str(exc.value).startswith(message)


# ---------------------------------------------------------------------------
# packed integer kernel


def schoolbook(a, b, m):
    out = [0] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < m:
                out[i + j] += x * y
    return out


BIG = 10**99 + 7


@pytest.mark.parametrize(
    "a, b, m",
    [
        ([3, -5, 7, -1], [-2, 4, -6], 6),  # signed, full product
        ([3, -5, 7, -1], [-2, 4, -6], 3),  # signed, truncated
        ([0, -1, 0, 2], [5, 0, 0, -3], 4),  # zero entries
        ([0, 0, 0], [0, 0], 3),  # all zero
        ([7], [-3], 1),  # length 1
        ([7], [-3, 1, 2], 3),
        ([-1], [1], 4),  # padded beyond the product
        ([BIG, -BIG, 0, BIG * 3], [-BIG, 2, BIG], 5),  # 100-digit coefficients
        ([-BIG] * 9, [-BIG] * 9, 9),  # every slot at its largest
    ],
)
def test_packed_product_matches_schoolbook(a, b, m):
    assert series._mul_trunc(a, b, m) == schoolbook(a, b, m)


def test_packed_product_random_against_schoolbook():
    rng = random.Random(11)
    for _ in range(200):
        bits = rng.choice((1, 8, 63, 64, 65, 330))
        a = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 20))]
        b = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 20))]
        m = rng.randint(1, 40)
        assert series._mul_trunc(a, b, m) == schoolbook(a, b, m)


def test_packed_quadratic_product_matches_schoolbook():
    rng = random.Random(12)
    for d in (5, -7):
        for _ in range(30):
            n = rng.randint(1, 10)
            a1, b1, a2, b2 = ([rng.randint(-50, 50) for _ in range(n)] for _ in range(4))
            got = series._kmul((a1, b1), (a2, b2), n, d)
            real = [s + d * t for s, t in zip(schoolbook(a1, a2, n), schoolbook(b1, b2, n))]
            root = [s + t for s, t in zip(schoolbook(a1, b2, n), schoolbook(b1, a2, n))]
            assert got == (real, root)


KERNEL_FIELDS = [None, 5, 2, -1, -7, -4093]


def kernel_to_series(x: tuple, d) -> TS:
    """A kernel series as a TruncatedSeries over Q or Q(sqrt d)."""
    if d is None:
        return TS.from_coeffs([Fraction(c) for c in x[0]])
    return TS.from_coeffs([quad(d, a, b) for a, b in zip(*x)])


@pytest.mark.parametrize("d", KERNEL_FIELDS)
def test_kernel_composition_matches_horner_and_generic(d):
    rng = random.Random(f"kcompose-{d}")
    for m in (1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 26):
        for _ in range(3):
            bits = rng.choice((1, 3, 17, 64, 90))
            parts = 1 if d is None else 2
            f = tuple([rng.randint(-(2**bits), 2**bits) for _ in range(m)] for _ in range(parts))
            g = tuple([0] + [rng.randint(-(2**bits), 2**bits) for _ in range(m - 1)] for _ in range(parts))
            got = series._kcompose(f, g, d)
            assert got == horner_kcompose(f, g, d)
            if m <= 9 and bits <= 17:
                want = compose_generic(kernel_to_series(f, d), kernel_to_series(g, d))
                assert kernel_to_series(got, d).coeffs == want.coeffs


@pytest.mark.parametrize("d", [None, 5, -7, -4093])
@pytest.mark.parametrize("m", [16, 26])
def test_kernel_composition_block_sums_at_the_slot_edge(d, m):
    """Coefficients of magnitude 2^k - 1 with aligned signs, so the block
    sums come near the slot bound; eight consecutive k cover every rounding
    of the slot width to whole bytes."""
    for k in range(8, 16):
        c = 2**k - 1
        g = tuple([0] + [c] * (m - 1) for _ in range(1 if d is None else 2))
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            f = ([sa * c] * m,) if d is None else ([sa * c] * m, [sb * c] * m)
            assert series._kcompose(f, g, d) == horner_kcompose(f, g, d)


def random_inverse_input(rng, kind, n):
    """f(0) = 0, f'(0) != 0, over the field that ``kind`` names."""
    if kind == "z":  # integer slope +-1
        return [0, rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(n - 1)]
    if kind == "q":  # non-unit rational slope
        return [0, Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 4))] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n - 1)
        ]
    if kind == "q5_dense":
        return [quad(5, 0), quad(5, rng.choice((1, 2, -1)), rng.randint(-1, 1))] + [
            quad(5, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-3, 3))
            for _ in range(n - 1)
        ]
    if kind == "mixed":
        return [0, quad(5, 1, 1)] + [
            rng.choice((Fraction(rng.randint(-3, 3)), quad(5, rng.randint(-2, 2), rng.randint(-2, 2))))
            for _ in range(n - 1)
        ]
    if kind == "cancel":  # small rational values in Q(sqrt d): inverses with zeros
        d = rng.choice((2, 3, 5, -1, -7))
        return [rng.choice((0, quad(d, 0))), quad(d, 1)] + [
            quad(d, rng.choice((0, 1)), rng.choice((0,) * 9 + (1,))) for _ in range(n - 1)
        ]
    d = int(kind.split("_")[1])  # sparse Q(sqrt d): many zero or rational entries

    def entry():
        r = rng.random()
        return quad(d, 0) if r < 0.4 else quad(d, rng.randint(-2, 2), 0 if r < 0.6 else rng.randint(-2, 2))

    return [rng.choice((0, quad(d, 0))), quad(d, rng.choice((1, -1, 2)), rng.choice((0, 1)))] + [
        entry() for _ in range(n - 1)
    ]


INVERSE_KINDS = [
    "z", "q", "q5_dense", "sparse_2", "sparse_3", "sparse_5", "sparse_-1", "sparse_-7", "cancel", "mixed",
]


@pytest.mark.parametrize("kind", INVERSE_KINDS)
def test_inverse_is_byte_identical_to_generic_path(kind):
    rng = random.Random(f"inverse-{kind}")
    for _ in range(60 if kind == "cancel" else 25):
        f = TS.from_coeffs(random_inverse_input(rng, kind, rng.randint(1, 10)))
        assert compositional_inverse(f).to_json() == inverse_generic(f).to_json()


def test_compose_is_byte_identical_to_generic_path(monkeypatch):
    # over Q, over Q with rational values tagged as QuadScalars, and over each
    # Q(sqrt d), f or g now and then rational, mixing Fraction, rational
    # values tagged with another d and quadratic values
    rng = random.Random(13)

    def coeff(d):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        r = rng.random()
        if d is None or r < 0.3:
            return a
        if d == "tagged" or r < 0.45:
            return quad(11, a)
        return quad(d, a, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def forbidden(*args):
        raise AssertionError("compose takes the packed kernel only")

    for t in range(120):
        d = (None, "tagged", 2, 5, -1, -7)[t % 6]
        fd, gd = (d if rng.random() < 0.8 else None for _ in range(2))
        f = TS.from_coeffs([coeff(fd) for _ in range(rng.randint(0, 12) + 1)])
        g = TS.from_coeffs([0] + [coeff(gd) for _ in range(rng.randint(0, 13))])
        with monkeypatch.context() as spy:
            spy.setattr(TS, "__mul__", forbidden)
            got = compose(f, g)
        assert got.to_json() == compose_generic(f, g).to_json()


@pytest.mark.parametrize("d", [2, 3, 5, -1, -7])
def test_quadratic_inverse_composes_to_x(d):
    rng = random.Random(d)
    for n in (1, 2, 7, 20):
        f = TS.from_coeffs(
            [quad(d, 0), quad(d, 1, 1)] + [quad(d, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n - 1)]
        )
        g = compositional_inverse(f)
        x = TS.from_coeffs([0, quad(d, 1)], n)
        assert compose_generic(f, g) == x
        assert compose_generic(g, f) == x


def count_packed_inversions(monkeypatch):
    """Spy on the inversion paths: each packed-kernel inversion is counted,
    and any generic series arithmetic fails the test."""
    calls = []
    kinverse = series._kinverse

    def forbidden(*args):
        raise AssertionError("compositional_inverse takes the packed kernel only")

    monkeypatch.setattr(series, "_kinverse", lambda u, d: calls.append(d) or kinverse(u, d))
    monkeypatch.setattr(TS, "__mul__", forbidden)
    monkeypatch.setattr(series, "reciprocal", forbidden)
    return calls


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # X + X^2 + X^3 inverts to X - X^2 + X^3 + 0 X^4: the generic path
        # reaches that zero through nonzero products, the kernel does not
        ([0, 1, 1, 1, 0], ["0", "1", "-1", "1", "0"]),
        # X + X^3: g_2 = -f_2 = 0 and g_4 come from no nonzero product
        ([0, 1, 0, 1, 0], ["0", "1", "0", "-1", "0"]),
    ],
)
def test_zero_coefficients_keep_their_generic_encoding(monkeypatch, coeffs, expected):
    # a zero is encoded by its value alone, so the kernel's zeros and the
    # generic path's print the same whichever products reach them
    calls = count_packed_inversions(monkeypatch)
    f = TS.from_coeffs([quad(5, c) for c in coeffs])
    assert compositional_inverse(f).to_json()["coeffs"] == expected
    assert calls == [None]
    monkeypatch.undo()
    assert inverse_generic(f).to_json()["coeffs"] == expected


def test_only_mixed_input_takes_generic_path(monkeypatch):
    # every input over Q or one Q(sqrt d) runs on the packed kernel, mixed
    # Fraction and QuadScalar coefficients and other tags of rational values too
    inputs = [
        ([0, 1, 2, -3, 1], None),
        ([quad(5, 0), quad(5, 1), quad(5, 2, 1), quad(5, 0, 1)], 5),
        ([0, quad(-7, 1), quad(-7, 0), quad(-7, 1, 1)], -7),
        ([0, quad(5, 1), 1, quad(5, 0, 1)], 5),
        ([0, quad(5, 1), quad(2, 0, 1)], 2),
        ([0, quad(3, 2), Fraction(1, 2), quad(11, -1)], None),
    ]
    calls = count_packed_inversions(monkeypatch)
    got = [compositional_inverse(TS.from_coeffs(coeffs)).to_json() for coeffs, _ in inputs]
    assert calls == [d for _, d in inputs]
    monkeypatch.undo()
    assert got == [inverse_generic(TS.from_coeffs(coeffs)).to_json() for coeffs, _ in inputs]


@pytest.mark.parametrize("d", [2, 5, -1, -7])
def test_mixed_inverse_matches_generic_path_to_order_30(d, monkeypatch):
    # Fraction, rational-valued and quadratic coefficients of one Q(sqrt d),
    # some rational values tagged with another d
    rng = random.Random(f"mixed-{d}")
    inputs = []
    for order in (25, 30):
        coeffs = [0, rng.choice((1, -1, quad(d, 1, 1), quad(11, 2)))]
        for _ in range(order - 1):
            r = rng.random()
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            coeffs.append(a if r < 0.4 else quad(11, a) if r < 0.5 else quad(d, a, b))
        inputs.append(TS.from_coeffs(coeffs))
    calls = count_packed_inversions(monkeypatch)
    got = [compositional_inverse(f).to_json() for f in inputs]
    assert calls == [d, d]
    monkeypatch.undo()
    assert got == [inverse_generic(f).to_json() for f in inputs]


def test_two_quadratic_fields_are_refused_before_inverting():
    # Newton's products never meet sqrt 5 with sqrt 2 to order 4, yet the
    # input is refused
    f = TS.from_coeffs([0, 1, 0, quad(5, 0, 1), quad(2, 0, 1)])
    with pytest.raises(ScalarError, match=r"^mixed quadratic contexts: sqrt\(2\) vs sqrt\(5\)$"):
        compositional_inverse(f)