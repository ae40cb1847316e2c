import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodrel import matrices as mx
from periodrel import polyalg
from periodrel.polyalg import (
    Monomial,
    MultiPoly,
    ResourceCapExceeded,
    VarId,
    adjugate,
    determinant,
    groebner_basis,
    ideal_remainder,
    normal_form,
    poly_matrix_from_json,
    symbolic_matrix,
    yvar,
    zvar,
)
from periodrel.relations import build_nonarch_certificate
from periodrel.scalars import DecodeError, QuadScalar
from periodrel.trivial_ideal import generators, membership, point_assignment

from helpers import (
    PairMonomial,
    constant_matrix,
    evaluate_term_by_term,
    membership_samples_first,
    pair_poly_to_json,
    poly_from_json_by_varid,
    poly_matrix_to_json,
    random_action,
    sampled_points,
)


def test_varid_order_matches_declared_chain():
    # Y[1,1] < ... < Y[g,g] < Z[1,1] < ... < Z[g,g]
    assert yvar(1, 1) < yvar(1, 2) < yvar(2, 1) < yvar(2**20 - 1, 2**20 - 1) < zvar(1, 1) < zvar(1, 2)
    for block in ("Yp", "Zp", "y"):
        with pytest.raises(ValueError, match="unknown block"):
            VarId(block, 1, 1)


def test_degrevlex_basics():
    u, v = yvar(1, 1), yvar(1, 2)
    mu2 = Monomial.of((u, 2))
    muv = Monomial.of((u, 1), (v, 1))
    mv2 = Monomial.of((v, 2))
    # higher degree dominates
    assert Monomial.of((u, 1)) < mu2
    # at equal degree the larger variable's power leads
    assert mu2 < muv < mv2


def test_varid_rejects_indices_past_the_code_fields():
    assert VarId("Z", 2**20 - 1, 2**20 - 1).code == 1 << 40 | (2**20 - 1) << 20 | 2**20 - 1
    for row, col in ((2**20, 1), (1, 2**20)):
        with pytest.raises(ValueError, match=r"below 2\^20"):
            VarId("Y", row, col)


_VARIABLES = st.builds(
    VarId,
    st.sampled_from(["Y", "Z"]),
    st.integers(1, 3) | st.just(2**20 - 1),
    st.integers(1, 3) | st.just(2**20 - 1),
)
_EXPONENTS = st.dictionaries(_VARIABLES, st.integers(1, 3), max_size=4).map(lambda d: list(d.items()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_EXPONENTS, min_size=2, max_size=6))
def test_monomials_agree_with_the_pair_encoding(exponent_lists):
    new = [Monomial.of(*pairs) for pairs in exponent_lists]
    old = [PairMonomial.of(*pairs) for pairs in exponent_lists]
    assert [m.exps for m in new] == [o.exps for o in old]
    assert [m.exps for m in sorted(new)] == [o.exps for o in sorted(old)]
    assert max(new).exps == max(old).exps
    for (a, oa), (b, ob) in zip(zip(new, old), zip(new[1:], old[1:])):
        assert (a * b).exps == (oa * ob).exps
        assert a.divides(b) == oa.divides(ob) and a.divides(a * b)
        assert a.lcm(b).exps == oa.lcm(ob).exps
        assert ((a * b) / b).exps == ((oa * ob) / ob).exps
        if not b.divides(a):
            with pytest.raises(ValueError, match="negative exponent"):
                a / b
    coeffs = [Fraction(k + 1, 3) for k in range(len(new))]
    assert MultiPoly(dict(zip(new, coeffs))).to_json() == pair_poly_to_json(dict(zip(old, coeffs)))


def test_nonarch_certificate_json_never_orders_a_varid(monkeypatch):
    calls = []
    method = VarId.__lt__
    monkeypatch.setattr(VarId, "__lt__", lambda *args: calls.append(method) or method(*args))
    sorted([zvar(1, 1), yvar(2, 1)])  # the counter sees an ordering
    assert calls
    calls.clear()
    build_nonarch_certificate(random_action(3, seed=4, solvable=True), seed=1).to_json()
    assert calls == []


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 13])
def test_poly_pow_squares_once_per_bit_after_the_first(n, monkeypatch):
    p = MultiPoly.variable(yvar(1, 1)) + MultiPoly.variable(zvar(1, 2)).scale(Fraction(-2))
    expect = MultiPoly.constant(Fraction(1))
    for _ in range(n):
        expect = expect * p
    products = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(a is b) or mul(a, b))
    assert p**n == expect
    # no product by the constant 1: squarings, then one product per further set bit
    assert sum(products) == max(n.bit_length() - 1, 0)
    assert len(products) == max(n.bit_length() + bin(n).count("1") - 2, 0)


def test_poly_arithmetic_and_equality():
    y11 = MultiPoly.variable(yvar(1, 1))
    z12 = MultiPoly.variable(zvar(1, 2))
    p = (y11 + z12) * (y11 - z12)
    assert p == y11 * y11 - z12 * z12
    assert (p - p).is_zero()
    assert p.degree() == 2 and p.is_homogeneous()
    q = y11 * y11 + MultiPoly.constant(Fraction(1))
    assert not q.is_homogeneous()


def test_scalar_operand_on_either_side_scales():
    p = MultiPoly.variable(yvar(1, 1)) * MultiPoly.variable(zvar(1, 2)) - MultiPoly.variable(yvar(2, 1))
    for c in (Fraction(3, 2), 2, QuadScalar(5, Fraction(1), Fraction(-1, 3))):
        assert (p * c).terms == (c * p).terms == p.scale(c).terms
    assert (p * Fraction(0)).is_zero() and (QuadScalar(5, 0, 0) * p).is_zero()


def test_poly_matrix_transpose_mul():
    g = 2
    y = symbolic_matrix("Y", g)
    z = symbolic_matrix("Z", g)
    m = mx.mat_mul(mx.transpose(y), z)
    # (Y^t Z)_{11} = Y[1,1] Z[1,1] + Y[2,1] Z[2,1], by hand
    expect = MultiPoly.variable(yvar(1, 1)) * MultiPoly.variable(zvar(1, 1)) + MultiPoly.variable(
        yvar(2, 1)
    ) * MultiPoly.variable(zvar(2, 1))
    assert m[0][0] == expect
    assert mx.mat_eq(mx.transpose(mx.transpose(y)), y)
    assert mx.mat_eq(mx.mat_mul(y, mx.identity(g)), y)


def test_determinant_identity_and_textbook_adjugate():
    assert determinant(constant_matrix(mx.identity(3))) == MultiPoly.constant(Fraction(1))
    m = symbolic_matrix("Y", 2)
    adj = adjugate(m)
    a, b = m[0]
    c, d = m[1]
    assert adj[0][0] == d and adj[0][1] == -b
    assert adj[1][0] == -c and adj[1][1] == a


@pytest.mark.parametrize("g", range(1, polyalg.SYMBOLIC_DET_CAP + 1))
def test_symbolic_adjugate_identity(g):
    yt = mx.transpose(symbolic_matrix("Y", g))
    got = mx.mat_mul(yt, adjugate(yt))
    expect = mx.scalar_mul(determinant(yt), mx.identity(g))
    assert mx.is_zero_matrix(mx.mat_sub(got, expect))


def test_symbolic_determinant_against_cofactor_oracle():
    # oracle: Leibniz expansion over permutations
    import itertools

    g = 3
    y = symbolic_matrix("Y", g)
    total = MultiPoly.zero()
    for perm in itertools.permutations(range(g)):
        sign = 1
        for i in range(g):
            for j in range(i + 1, g):
                if perm[i] > perm[j]:
                    sign = -sign
        term = MultiPoly.constant(Fraction(sign))
        for i in range(g):
            term = term * y[i][perm[i]]
        total = total + term
    assert determinant(y) == total


def test_numeric_determinant_properties():
    rng = random.Random(7)
    for g in (2, 3, 4):
        for _ in range(10):
            a = mx.freeze(
                [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(g)] for _ in range(g)]
            )
            b = mx.freeze(
                [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(g)] for _ in range(g)]
            )
            assert mx.det(mx.transpose(a)) == mx.det(a)
            assert mx.det(mx.mat_mul(a, b)) == mx.det(a) * mx.det(b)
            pa = constant_matrix(a)
            got = mx.mat_mul(pa, adjugate(pa))
            expect = mx.scalar_mul(determinant(pa), mx.identity(g))
            assert mx.is_zero_matrix(mx.mat_sub(got, expect))


def test_determinant_dimension_errors():
    with pytest.raises(ValueError):
        determinant(mx.freeze([[MultiPoly.zero()] * 3] * 2))
    with pytest.raises(ResourceCapExceeded):
        determinant(symbolic_matrix("Y", 5))


def test_partial_derivative():
    y11, z12 = yvar(1, 1), zvar(1, 2)
    p = MultiPoly({Monomial.of((y11, 2), (z12, 1)): Fraction(3)})
    assert p.partial(y11) == MultiPoly({Monomial.of((y11, 1), (z12, 1)): Fraction(6)})
    assert p.partial(z12) == MultiPoly({Monomial.of((y11, 2)): Fraction(3)})
    assert p.partial(zvar(2, 2)).is_zero()


def test_substitute_and_evaluate():
    y11 = yvar(1, 1)
    p = MultiPoly.variable(y11) ** 2 + MultiPoly.constant(Fraction(1))
    q = p.substitute({y11: MultiPoly.variable(zvar(1, 1)) + MultiPoly.constant(Fraction(2))})
    val = q.evaluate({zvar(1, 1): Fraction(3)})
    assert val == 26  # (3+2)^2 + 1


_POINT_VARIABLES = [VarId(b, i, j) for b in ("Y", "Z") for i in (1, 2, 3) for j in (1, 2)]
_RATIONALS = (
    st.integers(-50, 50).map(Fraction)
    | st.fractions(max_denominator=30)
    | st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.dictionaries(st.sampled_from(_POINT_VARIABLES), st.integers(1, 3), max_size=3), _RATIONALS),
        max_size=6,
    ),
    st.lists(st.integers(-(10**12), 10**12) | _RATIONALS, min_size=len(_POINT_VARIABLES), max_size=len(_POINT_VARIABLES)),
)
def test_evaluate_matches_the_term_by_term_oracle(terms, values):
    # non-homogeneous polynomials with constant terms, int and Fraction
    # values, denominators up to 10^40 on both sides
    p = MultiPoly({Monomial.of(*exps.items()): c for exps, c in terms})
    point = dict(zip(_POINT_VARIABLES, values))
    got, want = p.evaluate(point), evaluate_term_by_term(p, point)
    assert got == want and type(got) is type(want) is Fraction


@pytest.mark.parametrize("kind", ["rational", "quadratic"])
def test_evaluate_names_a_missing_variable(kind):
    y11, z21 = yvar(1, 1), zvar(2, 1)
    p = MultiPoly({Monomial.of((y11, 2), (z21, 1)): Fraction(3, 4), Monomial.one(): Fraction(1)})
    value = Fraction(2, 3) if kind == "rational" else QuadScalar(5, 1, 1)
    with pytest.raises(KeyError, match=r"no value for variable Z\[2,1\]"):
        p.evaluate({y11: value, zvar(1, 2): value})


def _substitute_by_constant_product(p, mapping):
    """MultiPoly.substitute as it started each term, constant(c) times the
    first factor: the oracle for starting it as the first factor scaled by c."""
    reps = {v.code: q for v, q in mapping.items()}
    powers, total = {}, {}
    for m, c in p.terms.items():
        part = MultiPoly.constant(c)
        for code, e in polyalg._runs(m):
            if (code, e) not in powers:
                powers[code, e] = reps.get(code, MultiPoly({Monomial((code,)): Fraction(1)})) ** e
            part = part * powers[code, e]
        polyalg._accumulate(total, part.terms.items())
    return MultiPoly(total, _clean=False)


def test_substitute_matches_the_constant_product_oracle():
    y11, y12, y21, z11, z12 = yvar(1, 1), yvar(1, 2), yvar(2, 1), zvar(1, 1), zvar(1, 2)
    v = MultiPoly.variable
    q5 = QuadScalar(5, Fraction(1, 2), Fraction(-1, 3))
    # a constant term; y21 maps to 0; (y11 + z11)^2 and y11 y12's image meet
    # in Y11 Z11; coefficients mix Fraction, genuine and rational-valued Q(sqrt 5)
    p = MultiPoly({
        Monomial.one(): Fraction(7),
        Monomial.of((y11, 2)): q5,
        Monomial.of((y11, 1), (y12, 1)): Fraction(-2, 3),
        Monomial.of((y21, 1), (z12, 1)): Fraction(4),
        Monomial.of((y12, 1), (z12, 2)): QuadScalar(5, 3, 0),
        Monomial.of((z12, 1)): Fraction(1, 5),
    })
    mapping = {
        y11: v(y11) + v(z11).scale(q5),
        y12: v(z11).scale(Fraction(-3)) + MultiPoly.constant(QuadScalar(5, 0, 2)),
        y21: MultiPoly.zero(),
        z12: v(y11).scale(QuadScalar(5, 2, 0)) - v(z12),
    }
    got, want = p.substitute(mapping), _substitute_by_constant_product(p, mapping)
    assert got.to_json() == want.to_json()
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert list(got.terms) == list(want.terms)


# ---------------------------------------------------------------------------
# Ideal membership by exact linear algebra; Buchberger is the oracle


def test_generator_reduces_to_zero():
    ideal = generators(3)
    assert ideal_remainder(ideal.generators[0], ideal.generators).is_zero()


def test_degree_one_not_in_ideal():
    ideal = generators(2)
    y11 = MultiPoly.variable(yvar(1, 1))
    assert ideal_remainder(y11, ideal.generators) == y11


@pytest.mark.parametrize("g", [2, 3])
def test_constructed_combination_in_ideal(g):
    ideal = generators(g)
    y11 = MultiPoly.variable(yvar(1, 1))
    z22 = MultiPoly.variable(zvar(2, 2))
    gens = list(ideal.generators)
    comb = y11 * gens[0] + (z22 * gens[-1] if len(gens) > 1 else z22 * gens[0])
    assert ideal_remainder(comb, gens).is_zero()


def test_groebner_membership_agrees_with_evaluation():
    g = 2
    ideal = generators(g)
    rng = random.Random(8)
    pts = sampled_points(g, 20, seed=17)
    for trial in range(10):
        h = _random_poly(rng, g, max_degree=2)
        p = h * ideal.generators[0]
        assert ideal_remainder(p, ideal.generators).is_zero()
        for y, z in pts:
            assert p.evaluate(point_assignment(y, z)) == 0


def _random_poly(rng, g, max_degree):
    varpool = [yvar(i, j) for i in range(1, g + 1) for j in range(1, g + 1)] + [
        zvar(i, j) for i in range(1, g + 1) for j in range(1, g + 1)
    ]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, max_degree)
        pairs = {}
        for _ in range(deg):
            v = rng.choice(varpool)
            pairs[v] = pairs.get(v, 0) + 1
        m = Monomial.of(*pairs.items())
        terms[m] = Fraction(rng.randint(-4, 4) or 1)
    return MultiPoly(terms)


def test_membership_column_cap_gives_undecided(monkeypatch):
    ideal = generators(3)
    p = MultiPoly.variable(yvar(1, 1)) * ideal.generators[0]
    assert membership(p, ideal, sample_budget=0).status == "in_ideal_certified"
    monkeypatch.setattr(polyalg, "MEMBERSHIP_COLUMN_CAP", 3)
    with pytest.raises(ResourceCapExceeded, match="MEMBERSHIP_COLUMN_CAP = 3"):
        ideal_remainder(p, ideal.generators)
    v = membership(p, ideal, sample_budget=0)
    assert (v.status, v.evidence_kind, v.remainder) == ("undecided", "none", None)
    assert "MEMBERSHIP_COLUMN_CAP = 3" in v.detail
    # past the cap the samples still run: the whole budget, then undecided,
    # or up to a witness, as in the samples-first order
    v = membership(p, ideal, sample_budget=5, seed=1)
    assert (v.status, v.samples_tested) == ("undecided", 4 + 5)
    q = p + MultiPoly.variable(yvar(1, 2)) * MultiPoly.variable(zvar(2, 1))
    v = membership(q, ideal, sample_budget=8, seed=1)
    assert (v.status, v.evidence_kind) == ("not_in_ideal_certified", "witness_point") and v.samples_tested > 4
    for r, budget in ((p, 5), (q, 8)):
        assert membership(r, ideal, budget, seed=1).to_json() == membership_samples_first(r, ideal, budget, 1).to_json()


def test_membership_never_builds_a_groebner_basis(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("membership must not run Buchberger")

    monkeypatch.setattr(polyalg, "groebner_basis", forbidden)
    monkeypatch.setattr(polyalg, "normal_form", forbidden)
    for g in (2, 3, 4):
        ideal = generators(g)
        y12 = MultiPoly.variable(yvar(1, 2))
        assert membership(y12 * ideal.generators[0], ideal, sample_budget=2).status == "in_ideal_certified"
        assert membership(y12, ideal, sample_budget=0).status == "not_in_ideal_certified"


_GROEBNER_BASES = {g: groebner_basis(list(generators(g).generators)) for g in (2, 3)}


@st.composite
def _polys_near_the_ideal(draw, g):
    """A combination of the generators plus a few stray terms of degree 0-5."""
    ideal = generators(g)
    pool = ideal.variables()
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    monomial = st.lists(st.sampled_from(pool), max_size=5).map(
        lambda vs: Monomial.of(*((v, vs.count(v)) for v in set(vs)))
    )
    poly = st.dictionaries(monomial, coeff, max_size=4).map(MultiPoly)
    p = draw(poly)
    for f in ideal.generators:
        p = p + draw(poly) * f
    return p


@pytest.mark.parametrize("g", [2, 3])
def test_ideal_remainder_is_the_groebner_normal_form(g):
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_polys_near_the_ideal(g))
    def check(p):
        gens = generators(g).generators
        assert ideal_remainder(p, gens).to_json() == normal_form(p, _GROEBNER_BASES[g]).to_json()

    check()


def test_ideal_remainder_closes_over_the_monomials_of_its_rows():
    # reducing this monomial leads to monomials that no multiple of a generator
    # dividing it contains; rows built from p's own monomials alone miss them
    gens = generators(3).generators
    p = MultiPoly({Monomial.of((yvar(1, 2), 1), (yvar(3, 2), 2), (yvar(3, 3), 1), (zvar(3, 1), 1)): Fraction(-3)})
    rem = ideal_remainder(p, gens)
    assert rem.to_json() == normal_form(p, _GROEBNER_BASES[3]).to_json() and rem != p


def test_ideal_remainder_rejects_inhomogeneous_generators():
    y11 = MultiPoly.variable(yvar(1, 1))
    with pytest.raises(ValueError, match="homogeneous"):
        ideal_remainder(y11, [y11 * y11 + y11])


def test_ideal_remainder_without_generators_is_the_input():
    p = MultiPoly.variable(zvar(1, 1)) + MultiPoly.constant(Fraction(3))
    assert ideal_remainder(p, []).to_json() == p.to_json()
    # g=1 has no generators: the zero polynomial is the one member
    assert membership(MultiPoly.zero(), generators(1), sample_budget=1).status == "in_ideal_certified"


@pytest.fixture(scope="module")
def sympy_g4_basis():
    """sympy's reduced degrevlex basis at g=4; sympy ranks its first
    generator highest, so the variable list runs from Z[4,4] down to Y[1,1]."""
    sympy = pytest.importorskip("sympy")
    ideal = generators(4)
    symbols = {v: sympy.Symbol(str(v)) for v in ideal.variables()}
    gens = [_to_sympy(f, symbols) for f in ideal.generators]
    order = [symbols[v] for v in reversed(ideal.variables())]
    return ideal, symbols, sympy.groebner(gens, *order, order="grevlex")


def _to_sympy(p, symbols):
    total = 0
    for m, c in p.terms.items():
        term = c
        for v, e in m.exps:
            term = term * symbols[v] ** e
        total += term
    return total


def test_ideal_remainder_matches_sympy_at_g4(sympy_g4_basis):
    import sympy

    ideal, symbols, basis = sympy_g4_basis
    rng = random.Random(404)
    gens = ideal.generators
    for _ in range(3):
        p = _random_poly(rng, 4, max_degree=3) * gens[rng.randrange(6)] + _random_poly(rng, 4, max_degree=4)
        rem = ideal_remainder(p, gens)
        assert not rem.is_zero()
        _, expect = basis.reduce(_to_sympy(p, symbols))
        assert sympy.expand(_to_sympy(rem, symbols) - expect) == 0


@pytest.mark.parametrize("g", [4, 5])
def test_membership_certified_both_ways_beyond_g3(g):
    ideal = generators(g)
    rng = random.Random(g)
    gens = ideal.generators
    member = MultiPoly.zero()
    for f in rng.sample(gens, 3):
        member = member + _random_poly(rng, g, max_degree=2) * f
    v = membership(member, ideal, sample_budget=3, seed=1)
    assert (v.status, v.evidence_kind, v.remainder.to_json()) == ("in_ideal_certified", "groebner_remainder", [])
    # Y[1,2] vanishes at every structured witness, so with no samples the
    # linear algebra must decide, and the remainder is the stray term
    stray = MultiPoly.variable(yvar(1, 2)) * MultiPoly.variable(zvar(g, 1))
    v = membership(member + stray, ideal, sample_budget=0)
    assert (v.status, v.evidence_kind, v.samples_tested) == ("not_in_ideal_certified", "groebner_remainder", 4)
    assert v.remainder == ideal_remainder(stray, gens) and not v.remainder.is_zero()
    # the sampling route, independent of the linear algebra, agrees
    v = membership(member + stray, ideal, sample_budget=25, seed=2)
    assert (v.status, v.evidence_kind) == ("not_in_ideal_certified", "witness_point")


def test_membership_certifies_a_quadratic_field_member():
    ideal = generators(3)
    f12, f13, f23 = ideal.generators
    golden = QuadScalar(5, Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5) / 2
    p = (MultiPoly.variable(yvar(1, 1)).scale(golden) * f12 + MultiPoly.variable(zvar(3, 2)) * f23).scale(golden)
    v = membership(p, ideal, sample_budget=2)
    assert (v.status, v.remainder.to_json()) == ("in_ideal_certified", [])
    stray = MultiPoly.variable(yvar(1, 2)).scale(golden)
    assert ideal_remainder(p + stray, ideal.generators) == stray


def test_groebner_basis_self_consistency():
    # the reduced basis reduces each original generator to zero and every
    # S-polynomial of basis elements to zero
    ideal = generators(3)
    gb = groebner_basis(list(ideal.generators))
    for gen in ideal.generators:
        assert normal_form(gen, gb).is_zero()
    for i in range(len(gb)):
        for j in range(i):
            lmi, lmj = gb[i].leading_monomial(), gb[j].leading_monomial()
            l = lmi.lcm(lmj)
            s = gb[i].term_mul(Fraction(1) / gb[i].leading_coeff(), l / lmi) - gb[j].term_mul(
                Fraction(1) / gb[j].leading_coeff(), l / lmj
            )
            assert normal_form(s, gb).is_zero()


def test_poly_json_roundtrip():
    p = MultiPoly(
        {
            Monomial.of((yvar(1, 2), 2), (zvar(2, 1), 1)): Fraction(3, 7),
            Monomial.one(): Fraction(-2),
            Monomial.of((VarId("Z", 2**20 - 1, 1), 1)): Fraction(5),
        }
    )
    assert MultiPoly.from_json(p.to_json()) == p
    m = symbolic_matrix("Z", 2)
    assert mx.mat_eq(poly_matrix_from_json(poly_matrix_to_json(m)), m)


_WELL_FORMED_ENTRY = st.one_of(
    st.tuples(st.sampled_from(["Y", "Z"]), st.integers(1, 2), st.integers(1, 2), st.integers(0, 3)),
    st.tuples(st.sampled_from(["Y", "Z"]), st.integers(1, 2), st.just(2**20 - 1), st.integers(0, 2)),
).map(list)
_FIELD_VALUES = st.one_of(
    st.integers(-1, 3),
    st.sampled_from([2**20 - 1, 2**20, "2", " 3", "x", "", 2.0, 2.5, -0.5, True, False, None, [1], math.inf, math.nan]),
)
_BLOCK_VALUES = st.sampled_from(["Y", "Z", "Yp", "Zp", "Q", "y", "", 0, None, ["Y"]])
_ODD_ENTRY = st.one_of(  # malformed (a fifth field too), or accepted as json_int reads numbers ("2", 2.0, True)
    st.tuples(_BLOCK_VALUES, _FIELD_VALUES, _FIELD_VALUES, _FIELD_VALUES).map(list),
    st.tuples(_BLOCK_VALUES, _FIELD_VALUES, _FIELD_VALUES, _FIELD_VALUES, _FIELD_VALUES).map(list),
    st.lists(st.one_of(_BLOCK_VALUES, _FIELD_VALUES), max_size=7),
    st.sampled_from([None, "Y", "Y123", 3, 1.5, {"block": "Y"}]),
)
_COEFFS = st.sampled_from(["1", "-2", "3/4", "0", 5, {"d": 5, "a": "1", "b": "1/2"}])


def _polys(min_size=0):
    term = st.fixed_dictionaries({"coeff": _COEFFS, "monomial": st.lists(_WELL_FORMED_ENTRY, max_size=4)})
    return st.lists(term, min_size=min_size, max_size=5)


@st.composite
def _polys_with_an_odd_entry(draw):
    doc = draw(_polys(min_size=1))
    mono = doc[draw(st.integers(0, len(doc) - 1))]["monomial"]
    mono.insert(draw(st.integers(0, len(mono))), draw(_ODD_ENTRY))
    return doc


def _decoded(decode, doc):
    try:
        return decode(doc).to_json()
    except DecodeError as exc:
        return f"DecodeError: {exc}"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_polys())
def test_decoder_agrees_with_the_varid_decoder_on_well_formed_input(doc):
    new = MultiPoly.from_json(doc)
    assert new == poly_from_json_by_varid(doc)
    assert new.to_json() == poly_from_json_by_varid(doc).to_json()


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_polys_with_an_odd_entry())
def test_decoder_refuses_what_the_varid_decoder_refuses_with_its_message(doc):
    assert _decoded(MultiPoly.from_json, doc) == _decoded(poly_from_json_by_varid, doc)
