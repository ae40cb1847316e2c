import math
import random
from fractions import Fraction

import pytest

from periodrel import gfun, series
from periodrel.gfun import (
    GaussManinCoefficients,
    GFunMatrix,
    check_period_equation,
    compute_radii,
    derive_G,
)
from periodrel.scalars import DecodeError, Place, QuadScalar
from periodrel.series import TruncatedSeries

from helpers import (
    derivative,
    derive_generic,
    family_to_json,
    geometric,
    gfun_add,
    gfun_matrix,
    horner,
    identity_family,
    radius_at,
    series_constant,
    series_zero,
)

TS = TruncatedSeries


def hypergeometric_fixture(order: int) -> TS:
    """sum C(2n,n)^2 (X/16)^n, generated by its coefficient recurrence
    c_{n+1}/c_n = ((2n+1)/(2n+2))^2 rather than by binomials."""
    c = [Fraction(1)]
    for n in range(order):
        c.append(c[-1] * Fraction((2 * n + 1) ** 2, (2 * n + 2) ** 2))
    return TS(c, order)


def test_hypergeometric_fixture_against_binomials():
    f = hypergeometric_fixture(30)
    for n in range(31):
        assert f.coeffs[n] == Fraction(math.comb(2 * n, n) ** 2, 16**n)


def constant_family(g, order, consts):
    """a[i][k][l] built from constant scalars consts[i][k][l]."""
    n = len(consts[0]) - 1
    series = tuple(
        tuple(
            tuple(series_constant(Fraction(consts[i][k][l]), order) for l in range(g))
            for k in range(n + 1)
        )
        for i in range(g)
    )
    return GaussManinCoefficients(g, n, series)


def test_identity_family_returns_input():
    g, order = 2, 12
    rng = random.Random(0)
    grid = [
        [TS([rng.randint(-4, 4) for _ in range(order + 1)], order) for _ in range(g)]
        for _ in range(g)
    ]
    f = gfun_matrix(g, grid)
    out = derive_G(f, identity_family(g, order))
    for i in range(g):
        for j in range(g):
            assert out.entries[i][j] == f.entries[i][j]


def test_single_derivative_family():
    # g = 1, N = 1, a = (0, 1): derived series is the formal derivative
    order = 10
    f = gfun_matrix(1, [[geometric(order)]])
    a = constant_family(1, order, [[[0], [1]]])
    out = derive_G(f, a)
    assert out.entries[0][0] == derivative(geometric(order)).truncate(order - 1)


def test_picard_fuchs_family_annihilates_hypergeometric():
    # the degree-2 coefficient family X(1-X) d^2 + (1-2X) d - 1/4 kills the
    # fixture; the oracle is the recurrence generator itself
    order = 32
    f = gfun_matrix(1, [[hypergeometric_fixture(order)]])
    a0 = series_constant(Fraction(-1, 4), order)
    a1 = TS([1, -2], order)
    a2 = TS([0, 1, -1], order)
    fam = GaussManinCoefficients(1, 2, ((tuple([a0]), tuple([a1]), tuple([a2])),))
    out = derive_G(f, fam)
    assert not any(out.entries[0][0].coeffs)
    assert out.order == order - 2 == 30


def test_derivative_matches_recurrence_oracle():
    # G = F' compared against coefficients (n+1) c_{n+1} produced straight
    # from the recurrence
    order = 31
    f = gfun_matrix(1, [[hypergeometric_fixture(order)]])
    fam = constant_family(1, order, [[[0], [1]]])
    out = derive_G(f, fam)
    c = [Fraction(1)]
    for n in range(order):
        c.append(c[-1] * Fraction((2 * n + 1) ** 2, (2 * n + 2) ** 2))
    for n in range(30):
        assert out.entries[0][0].coeffs[n] == (n + 1) * c[n + 1]


def test_derive_is_linear_in_f():
    g, order = 2, 10
    rng = random.Random(1)
    mk = lambda: gfun_matrix(
        g,
        [
            [TS([Fraction(rng.randint(-3, 3)) for _ in range(order + 1)], order) for _ in range(g)]
            for _ in range(g)
        ],
    )
    f1, f2 = mk(), mk()
    consts = [[[rng.randint(-2, 2) for _ in range(g)] for _ in range(3)] for _ in range(g)]
    fam = constant_family(g, order, consts)
    lhs = derive_G(gfun_add(f1, f2), fam)
    rhs = gfun_add(derive_G(f1, fam), derive_G(f2, fam))
    for i in range(g):
        for j in range(g):
            assert lhs.entries[i][j] == rhs.entries[i][j]


def test_second_derivative_composes():
    order = 12
    f = gfun_matrix(1, [[hypergeometric_fixture(order)]])
    once = constant_family(1, order, [[[0], [1]]])
    twice = constant_family(1, order, [[[0], [0], [1]]])
    via_two_steps = derive_G(derive_G(f, once), once)
    direct = derive_G(f, twice)
    assert via_two_steps.entries[0][0] == direct.entries[0][0]


def random_scalar_series(rng, order: int, field, zero: bool = False) -> TS:
    """A series over Q (field None); over Q with some rational values tagged
    as QuadScalars of any d (field "tagged"); or mixing Fraction, such tagged
    values and quadratic values of Q(sqrt field)."""
    if zero:
        return series_zero(order)

    def coeff():
        a = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 16)))
        r = rng.random()
        if field is None or r < 0.3:
            return a
        if field == "tagged" or r < 0.5:
            return QuadScalar(rng.choice((2, 5, 11, -1)), a, 0)
        return QuadScalar(field, a, Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))))

    return TS([coeff() for _ in range(order + 1)])


DERIVE_FIELDS = [None, "tagged", 2, 5, -1, -7]


@pytest.mark.parametrize("seed", range(6))
def test_integer_derive_matches_schoolbook(seed, monkeypatch):
    """The packed derive_G against the schoolbook oracle over Q, over Q with
    rational values tagged as QuadScalars, and over each Q(sqrt d), some
    series rational and some mixed; with zero a-series and F entries, and
    a-orders above and below F.order - N.  One packed product, no series
    product, each time."""
    rng = random.Random(f"derive-{seed}")
    matmul = gfun._matmul_trunc

    def forbidden(*args):
        raise AssertionError("derive_G takes the packed kernel only")

    def draw(field, order, p_zero):  # now and then a rational series
        return random_scalar_series(rng, order, field if rng.random() < 0.7 else None, rng.random() < p_zero)

    for t in range(len(DERIVE_FIELDS)):
        field = DERIVE_FIELDS[(seed + t) % len(DERIVE_FIELDS)]
        g, n = rng.randint(1, 3), rng.randint(0, 3)
        order = rng.randint(n, n + 12)
        f = gfun_matrix(g, [[draw(field, order, 0.2) for _ in range(g)] for _ in range(g)])
        a = GaussManinCoefficients(
            g,
            n,
            tuple(
                tuple(tuple(draw(field, rng.randint(0, order), 0.3) for _ in range(g)) for _ in range(n + 1))
                for _ in range(g)
            ),
        )
        out_order = min(f.order - n, min(s.order for s in a.all_series()))
        calls = []
        with monkeypatch.context() as spy:
            spy.setattr(gfun, "_matmul_trunc", lambda *args: calls.append(1) or matmul(*args))
            spy.setattr(TS, "__mul__", forbidden)
            got = derive_G(f, a)
        assert calls == [1]
        assert got.to_json() == derive_generic(f, a, out_order).to_json()
        if field in (None, "tagged"):
            assert all(type(c) is Fraction for row in got.entries for s in row for c in s.coeffs)


def test_packed_matrix_product_at_the_slot_edge():
    """Every entry at its largest magnitude and one sign, so each sum of
    products comes near the slot bound; the sizes cover every rounding of
    the slot width to whole bytes."""
    for k in range(8, 16):
        c = 2**k - 1
        for m, inner in ((1, 1), (5, 3), (13, 6)):
            a = [[[c] * m for _ in range(inner)] for _ in range(2)]
            b = [[[-c] * m, [c] * m] for _ in range(inner)]
            want = [[[inner * (t + 1) * c * y for t in range(m)] for y in (-c, c)] for _ in range(2)]
            assert series._matmul_trunc(a, b, m) == want


def test_insufficient_precision_rejected():
    f = gfun_matrix(1, [[geometric(1)]])
    fam = constant_family(1, 1, [[[0], [0], [1]]])
    with pytest.raises(ValueError, match="insufficient precision"):
        derive_G(f, fam)


# ---------------------------------------------------------------------------
# radii


def test_radii_integer_coefficients_certified_one():
    g, order = 1, 8
    fam = identity_family(g, order)
    radii = compute_radii(fam, [], [Place.finite(5)])
    r, cert = radius_at(radii, Place.finite(5))
    assert r == 1.0 and cert


def test_radii_worked_small_and_large_excluded_values():
    g, order, p = 1, 8, 7
    fam = identity_family(g, order)
    # |1/p|_p = p > 1: the minimum stays at 1
    r1, _ = radius_at(compute_radii(fam, [Fraction(1, p)], [Place.finite(p)]), Place.finite(p))
    assert r1 == 1.0
    # |p|_p = 1/p: the excluded value wins
    r2, _ = radius_at(compute_radii(fam, [Fraction(p)], [Place.finite(p)]), Place.finite(p))
    assert r2 == pytest.approx(1.0 / p)


def test_radii_archimedean_heuristic_uncertified():
    order = 12
    # coefficient series 1/(1 - 2X): heuristic radius 1/2
    s = TS([2**n for n in range(order + 1)], order)
    fam = GaussManinCoefficients(1, 0, (((s,),),))
    r, cert = radius_at(compute_radii(fam, [], [Place.arch()]), Place.arch())
    assert r == pytest.approx(0.5)
    assert not cert


def test_radii_monotone_under_more_inputs():
    rng = random.Random(2)
    g, order = 1, 10
    fam = identity_family(g, order)
    places = [Place.finite(3), Place.arch()]
    for _ in range(20):
        excl = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))]
        more = excl + [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
        base = compute_radii(fam, excl, places)
        extended = compute_radii(fam, more, places)
        for v in places:
            assert radius_at(extended, v)[0] <= radius_at(base, v)[0]


# ---------------------------------------------------------------------------
# period-equation checks


def _constant_matrix_series(g, order, values):
    return gfun_matrix(
        g,
        [[series_constant(Fraction(values[i][j]), order) for j in range(g)] for i in range(g)],
        integral=all(Fraction(values[i][j]).denominator == 1 for i in range(g) for j in range(g)),
    )


def test_check_constant_series_exact_match():
    g = 2
    vals = [[1, 2], [3, 4]]
    f = _constant_matrix_series(g, 6, vals)
    gmat = _constant_matrix_series(g, 6, [[0, 1], [1, 0]])
    ref_f = tuple(tuple(Fraction(x) for x in row) for row in vals)
    ref_g = tuple(tuple(Fraction(x) for x in row) for row in [[0, 1], [1, 0]])
    report = check_period_equation(f, gmat, ref_f, ref_g, Fraction(3), Place.finite(3))
    assert report.all_ok
    assert all(e.discrepancy == 0.0 for e in report.entries)


def test_check_truncation_self_consistency():
    # comparing a series against its own shorter evaluation stays within the
    # tail bound of the shorter truncation
    order_small, order_big = 6, 14
    f_small = gfun_matrix(1, [[geometric(order_small)]], integral=True)
    g_small = gfun_matrix(1, [[series_zero(order_small)]], integral=True)
    x = Fraction(3)
    ref = horner(geometric(order_big).coeffs, x)
    report = check_period_equation(
        f_small, g_small, ((ref,),), ((Fraction(0),),), x, Place.finite(3)
    )
    assert report.all_ok


def test_check_flags_corrupted_entry():
    order = 8
    f = gfun_matrix(1, [[geometric(order)]], integral=True)
    gz = gfun_matrix(1, [[series_zero(order)]], integral=True)
    x = Fraction(5)
    good = horner(geometric(order).coeffs, x)
    report = check_period_equation(f, gz, ((good + 1,),), ((Fraction(0),),), x, Place.finite(5))
    assert not report.all_ok
    bad = [e for e in report.entries if not e.ok]
    assert bad and bad[0].discrepancy > bad[0].tail_bound


def test_gfun_json_roundtrip():
    f = gfun_matrix(1, [[hypergeometric_fixture(6)]])
    assert GFunMatrix.from_json(f.to_json()).entries[0][0] == f.entries[0][0]
    fam = identity_family(2, 6)
    rt = GaussManinCoefficients.from_json(family_to_json(fam))
    assert rt.g == 2 and rt.deriv_order == 0


_SERIES = {"order": 1, "coeffs": ["0", "1"]}


@pytest.mark.parametrize(
    "decode, doc, error",
    [
        (GFunMatrix.from_json, {"g": 1.9, "entries": [[_SERIES]]}, "g: not an integer: 1.9"),
        (GFunMatrix.from_json, {"g": True, "entries": [[_SERIES]]}, "g: not an integer: True"),
        (GFunMatrix.from_json, {"g": 1, "entries": [[{"order": 0.5, "coeffs": []}]]}, "entries[0][0].order: not an integer: 0.5"),
        (GaussManinCoefficients.from_json, {"g": 1, "N": 0.5, "a": [[[_SERIES]]]}, "N: not an integer: 0.5"),
        (GaussManinCoefficients.from_json, {"g": 1, "N": False, "a": [[[_SERIES]]]}, "N: not an integer: False"),
    ],
)
def test_a_fractional_or_bool_number_is_not_an_integer(decode, doc, error):
    # int() read 1.9 as 1 and true as 1; the whole float 1.0 and "1" still read as 1
    with pytest.raises(DecodeError) as exc:
        decode(doc)
    assert str(exc.value) == error
    assert GFunMatrix.from_json({"g": 1.0, "entries": [[_SERIES]]}) == GFunMatrix.from_json({"g": "1", "entries": [[_SERIES]]})
