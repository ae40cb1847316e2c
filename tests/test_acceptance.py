"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything arithmetic here is exact (zero tolerance); the only floats are
heuristic tail bounds, which are compared in valuation space where the
criteria demand exactness.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from periodrel import matrices as mx
from periodrel.polyalg import Monomial, MultiPoly, groebner_basis, ideal_remainder, normal_form, yvar, zvar
from periodrel.relations import (
    Case3Input,
    RelationError,
    assemble_global_relation,
    build_case3_relation,
    build_nonarch_certificate,
    build_nonarch_relation,
    generator_transform_scalar,
    quadratic_relation_polys,
    random_case3_input,
    select_nontrivial_entry,
    synthesize_period_data,
    verify_relation_on_data,
)
from periodrel.scalars import Place, valuation
from periodrel.series import (
    TruncatedSeries,
    compose,
    compositional_inverse,
    globally_bounded_scan,
    padic_partial_sum,
)
from periodrel.symplectic import project_to_V, sample_symplectic, with_multiplier
from periodrel.trivial_ideal import (
    generators,
    jacobian_rank_at,
    point_assignment,
    radicality_certificate,
    row_permutation_test,
    row_swap_permutation,
)

from helpers import expected_witness_value, identity_family, radius_at, random_action, sampled_points

TS = TruncatedSeries


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_jacobian_rank():
    t0 = time.monotonic()
    for g in (2, 3, 4, 5):
        ideal = generators(g)
        rank = jacobian_rank_at(ideal, (mx.identity(g), mx.zeros(g, g)))
        assert rank == g * (g - 1) // 2
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"jacobian ranks took {elapsed:.2f}s"
    _report(1, "jacobian rank g(g-1)/2 for g=2..5")


def test_criterion_2_radicality_certificates():
    for g in (2, 3, 4, 5):
        cert = radicality_certificate(generators(g))
        assert cert.verdict == "radical"
        assert cert.rank == cert.generator_count == g * (g - 1) // 2
        assert cert.witness_on_variety
    _report(2, "radicality certificates g=2..5")


def test_criterion_3_torsor_variety_consistency():
    mus = [Fraction(1), Fraction(3), Fraction(-2, 5), Fraction(7, 2)]
    for g in (2, 3, 4):
        ideal = generators(g)
        for seed in range(100):
            s = sample_symplectic(g, seed=seed)
            mu = mus[seed % len(mus)]
            if mu != 1:
                s = with_multiplier(s, mu)
            assert s.verify()  # M^t J M = mu J, exact
            fr = project_to_V(s)
            asg = point_assignment(g, fr.y_block, fr.z_block)
            for f in ideal.generators:
                assert f.evaluate(asg) == 0
    _report(3, "100 seeded samples per g in {2,3,4}: similitude + vanishing exact")


def test_criterion_4_nonarch_relation_suite():
    # dedicated actions covering the whole witness case table
    table_actions = [
        # B != 0 -> witness (I, 0), value -B
        dict(g=2, A=[[1, 0], [0, 1]], B=[[0, 2], [0, 0]], D=[[1, 0], [0, 1]]),
        # B = 0, A != D -> witness (I, I), value A - D
        dict(g=2, A=[[1, 0], [0, 2]], B=[[0, 0], [0, 0]], D=[[2, 0], [0, 1]]),
        # B = 0, A = D non-scalar -> witness (I, E..), value Az - zD
        dict(g=2, A=[[1, 1], [0, 1]], B=[[0, 0], [0, 0]], D=[[1, 1], [0, 1]]),
        dict(g=2, A=[[1, 0], [0, 2]], B=[[0, 0], [0, 0]], D=[[1, 0], [0, 2]]),
    ]
    seen_cases = set()
    for table_row in table_actions:
        act = _action_from(table_row)
        p = build_nonarch_relation(act)
        sel = select_nontrivial_entry(p, act)
        seen_cases.add(sel.case)
        vals = p.evaluate(point_assignment(act.g, sel.witness_y, sel.witness_z))
        assert mx.mat_eq(vals, expected_witness_value(act, sel))
        assert not mx.is_zero_matrix(vals)
    assert seen_cases == {"B_nonzero", "A_ne_D", "A_non_scalar"}

    for g in (2, 3):
        for seed in range(25):
            act = random_action(g, seed=1000 + seed, solvable=True)
            p = build_nonarch_relation(act)
            data = synthesize_period_data(act, seed=seed)
            assert data.verify(act)
            assert verify_relation_on_data(p, data)  # exact, zero tolerance
            sel = select_nontrivial_entry(p, act)
            y, z = sel.witness_y, sel.witness_z
            assert mx.is_zero_matrix(
                mx.mat_sub(mx.mat_mul(mx.transpose(y), z), mx.mat_mul(mx.transpose(z), y))
            )
            assert sel.value != 0
            vals = p.evaluate(point_assignment(g, y, z))
            assert mx.mat_eq(vals, expected_witness_value(act, sel))
    _report(4, "25 seeded actions per g in {2,3}: exact vanishing + case-table witnesses")


def _action_from(row):
    from periodrel.relations import EndomorphismAction

    conv = lambda m: mx.freeze([[Fraction(x) for x in r] for r in m])
    return EndomorphismAction(row["g"], conv(row["A"]), conv(row["B"]), conv(row["D"]))


def test_criterion_5_degree_bounds():
    nonarch = []
    for g, seed in ((2, 4), (3, 12)):
        act = random_action(g, seed=seed, solvable=True)
        cert = build_nonarch_certificate(act, seed=seed)
        assert cert.degree == g + 1
        assert cert.polynomial.is_homogeneous()
        assert cert.polynomial.degree() == g + 1
        nonarch.append(cert)
    case3 = build_case3_relation(random_case3_input(4, seed=2))
    assert case3.degree == 2 and case3.polynomial.is_homogeneous()
    product = assemble_global_relation([nonarch[0], case3])
    assert product.degree == nonarch[0].degree + case3.degree == 5
    assert product.polynomial.degree() == 5
    both = assemble_global_relation([nonarch[0], nonarch[1], case3])
    assert both.degree == 3 + 4 + 2
    _report(5, "degrees: nonarch g+1, case3 2, products additive")


def test_criterion_6_case3_suite():
    for g in (4, 6):
        for seed in range(25):
            inp = random_case3_input(g, seed=seed)
            assert inp.verify_similitude()
            h = g // 2
            from periodrel.symplectic import standard_form

            mprime = mx.mat_mul(mx.mat_mul(mx.transpose(inp.H), standard_form(h)), inp.H)
            r, s = quadratic_relation_polys(g)
            cert = build_case3_relation(inp)  # internally asserts Q(H) = 0 exactly
            assert cert.degree == 2
            # Q != 0 by disjoint monomial support of the two quadratics
            assert set(r.terms).isdisjoint(set(s.terms))
            assert not cert.polynomial.is_zero()
    # row-swap sensitivity of the untransported relation
    for seed in range(5):
        inp = random_case3_input(4, seed=seed)
        r, s = quadratic_relation_polys(4)
        q = r - s  # any nonzero combination is supported on top-half rows
        assert row_permutation_test(q, row_swap_permutation(4))
    # the change of basis maps the generator matrix to an exact scalar
    # multiple of itself (scalar 1/e; the displayed exponent in the source
    # derivation is off, the three-line computation gives e^-1)
    for seed in range(10):
        inp = random_case3_input(4, seed=100 + seed)
        assert generator_transform_scalar(inp) == Fraction(1) / inp.e
    # rejections
    for bad_g in (2, 3, 5):
        with pytest.raises(RelationError, match="even g > 2"):
            sqrt_e = random_case3_input(4, seed=0).sqrt_e
            build_case3_relation(
                Case3Input(
                    bad_g,
                    mx.identity(bad_g),
                    mx.identity(bad_g),
                    mx.zeros(bad_g, bad_g),
                    mx.zeros(bad_g, bad_g),
                    mx.identity(bad_g),
                    sqrt_e,
                )
            )
    _report(6, "case-3 suite g=4,6: exact vanishing, non-triviality, ideal transform, rejections")


def test_criterion_7_groebner_vs_evaluation():
    t0 = time.monotonic()
    g = 2
    ideal = generators(g)
    gens = list(ideal.generators)
    basis = groebner_basis(gens)  # the oracle
    rng = random.Random(77)
    varpool = [yvar(i, j) for i in range(1, 3) for j in range(1, 3)] + [
        zvar(i, j) for i in range(1, 3) for j in range(1, 3)
    ]

    def random_poly(max_degree):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            pairs = {}
            for _ in range(rng.randint(0, max_degree)):
                v = rng.choice(varpool)
                pairs[v] = pairs.get(v, 0) + 1
            m = Monomial.of(*pairs.items())
            terms[m] = terms.get(m, Fraction(0)) + Fraction(rng.randint(-4, 4) or 1)
        return MultiPoly(terms)

    points = _evaluation_points(g)

    def vanishes_everywhere(p):
        return all(p.evaluate(point_assignment(g, y, z)) == 0 for y, z in points)

    # 50 constructed members
    members = 0
    while members < 50:
        h = random_poly(2)
        p = h * gens[0]
        if p.is_zero():
            continue
        members += 1
        assert ideal_remainder(p, gens).is_zero()
        assert vanishes_everywhere(p)

    # 50 constructed non-members (nonzero at some sampled point)
    non_members = 0
    while non_members < 50:
        p = random_poly(3)
        if p.is_zero() or vanishes_everywhere(p):
            continue
        non_members += 1
        rem = ideal_remainder(p, gens)
        assert not rem.is_zero()
        assert rem.to_json() == normal_form(p, basis).to_json()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"membership agreement took {elapsed:.2f}s"
    _report(7, "50 members + 50 non-members at g=2, zero false verdicts")


def _evaluation_points(g):
    from periodrel.trivial_ideal import structured_witnesses

    return structured_witnesses(g) + sampled_points(g, 20, seed=99)


def test_criterion_8_series_suite():
    rng = random.Random(88)
    for _ in range(100):
        coeffs = [0, rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(29)]
        f = TS.from_coeffs(coeffs, 30)
        ginv = compositional_inverse(f)
        assert compose(f, ginv) == TS.x(30)
        assert compose(ginv, f) == TS.x(30)
        assert ginv.is_integral()

    n = 30
    expser = TS.from_coeffs([Fraction(1, math.factorial(k)) for k in range(n + 1)], n)
    rep = globally_bounded_scan(expser, 30)
    assert rep.verdict == "unbounded_evidence"
    wn, wp = rep.witness
    assert valuation(expser.coeffs[wn], wp) < 0  # concrete |a_n|_p > 1

    c = [Fraction(1)]
    for k in range(50):
        c.append(c[-1] * 4 * (2 * k + 1) ** 2 / (k + 1) ** 2)
    assert all(x.denominator == 1 for x in c)
    assert globally_bounded_scan(TS.from_coeffs(c, 50), 50).verdict == "bounded"

    # p-adic evaluation self-consistency, exact via valuations
    for trial in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(31)]
        f = TS.from_coeffs(coeffs, 30)
        p = rng.choice((2, 3, 5))
        x = Fraction(p, rng.choice((7, 11)))
        n1 = rng.randint(5, 20)
        s1 = padic_partial_sum(f.truncate(n1), x)
        s2 = padic_partial_sum(f, x)
        if s1 != s2:
            assert valuation(s2 - s1, p) >= (n1 + 1) * valuation(x, p)
    _report(8, "series: 100 exact inverses, boundedness scans, p-adic tails")


def test_criterion_9_gfun_pipeline():
    from periodrel.gfun import GaussManinCoefficients, GFunMatrix, compute_radii, derive_G

    # hypergeometric fixture from its recurrence, annihilated by its
    # second-order coefficient family, exact to order 30
    order = 32
    c = [Fraction(1)]
    for k in range(order):
        c.append(c[-1] * Fraction((2 * k + 1) ** 2, (2 * k + 2) ** 2))
    fixture = TS.from_coeffs(c, order)
    for k in range(order + 1):
        assert fixture.coeffs[k] == Fraction(math.comb(2 * k, k) ** 2, 16**k)
    f = GFunMatrix.from_series(1, [[fixture]])
    a0 = TS.constant(Fraction(-1, 4), order)
    a1 = TS.from_coeffs([1, -2], order)
    a2 = TS.from_coeffs([0, 1, -1], order)
    fam = GaussManinCoefficients(1, 2, ((tuple([a0]), tuple([a1]), tuple([a2])),))
    derived = derive_G(f, fam)
    assert derived.order == 30
    assert derived.entries[0][0].is_zero()

    # linearity
    rng = random.Random(9)
    g, order = 2, 12
    mk = lambda: GFunMatrix.from_series(
        g,
        [
            [TS.from_coeffs([Fraction(rng.randint(-3, 3)) for _ in range(order + 1)], order) for _ in range(g)]
            for _ in range(g)
        ],
    )
    fam2 = identity_family(g, order)
    f1, f2 = mk(), mk()
    lhs = derive_G(f1 + f2, fam2)
    rhs = derive_G(f1, fam2) + derive_G(f2, fam2)
    for i in range(g):
        for j in range(g):
            assert lhs.entries[i][j] == rhs.entries[i][j]

    # radii monotonicity over randomized inputs
    places = [Place.finite(3), Place.finite(7), Place.arch()]
    fam3 = identity_family(1, 10)
    for trial in range(20):
        excl = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))]
        extra = excl + [Fraction(rng.randint(1, 20), rng.randint(1, 5))]
        r_base = compute_radii(fam3, excl, places)
        r_more = compute_radii(fam3, extra, places)
        for v in places:
            assert radius_at(r_more, v)[0] <= radius_at(r_base, v)[0]
    _report(9, "gfun: recurrence fixture exact to order 30, linearity, radii monotone")
