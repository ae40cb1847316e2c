import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodrel import matrices as mx, relations
from periodrel.polyalg import MultiPoly, Monomial, yvar, zvar
from periodrel.relations import (
    Case3Input,
    EndomorphismAction,
    RelationError,
    build_case3_relation,
    build_nonarch_certificate,
    build_nonarch_relation,
    generator_transform_scalar,
    quadratic_relation_polys,
    random_case3_input,
    synthesize_period_data,
    verify_relation_on_data,
)
from periodrel.scalars import QuadScalar, scalar_to_json
from periodrel.symplectic import sample_symplectic
from periodrel.trivial_ideal import generators, point_assignment

from helpers import (
    assemble_global_relation,
    case3_quadratic,
    expected_witness_value,
    kron,
    matrix_at,
    mixed_action,
    mixed_case3_input,
    nonarch_relation_by_products,
    phi_substitution,
    random_action,
    select_nontrivial_entry,
    sylvester_solvable,
    synthesize_by_fractions,
    unfreeze,
    verify_by_fractions,
)


def F(x):
    return Fraction(x)


def action(g, a, b, d):
    conv = lambda m: mx.freeze([[F(x) for x in row] for row in m])
    return EndomorphismAction(g, conv(a), conv(b), conv(d))


# ---------------------------------------------------------------------------
# non-archimedean construction


def test_scalar_action_gives_zero_matrix_and_is_rejected():
    act = action(2, [[1, 0], [0, 1]], [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    assert act.is_scalar()
    p = build_nonarch_relation(act)
    assert mx.is_zero_matrix(p)
    with pytest.raises(RelationError, match="no relation derivable"):
        select_nontrivial_entry(p, act)


def test_g1_relation_formula():
    # 1x1 adjugate is 1: P = (a - d) Y Z - b Y^2
    act = action(1, [[5]], [[3]], [[2]])
    p = build_nonarch_relation(act)
    y, z = MultiPoly.variable(yvar(1, 1)), MultiPoly.variable(zvar(1, 1))
    expect = (y * z).scale(F(3)) - (y * y).scale(F(3))  # (5-2) YZ - 3 Y^2
    assert p[0][0] == expect


def test_entries_homogeneous_of_degree_g_plus_one():
    for g in (2, 3):
        act = random_action(g, seed=21)
        p = build_nonarch_relation(act)
        for row in p:
            for e in row:
                if not e.is_zero():
                    assert e.is_homogeneous()
                    assert e.degree() == g + 1


def test_witness_case_b_nonzero():
    act = action(2, [[1, 2], [0, 1]], [[0, 1], [0, 0]], [[1, 0], [0, 1]])
    p = build_nonarch_relation(act)
    sel = select_nontrivial_entry(p, act)
    assert sel.case == "B_nonzero"
    assert mx.mat_eq(sel.witness_y, mx.identity(2))
    assert mx.is_zero_matrix(sel.witness_z)
    # the whole matrix at the witness equals -B
    vals = matrix_at(p, point_assignment(sel.witness_y, sel.witness_z))
    assert mx.mat_eq(vals, expected_witness_value(act, sel))
    assert vals[0][1] == -1


def test_witness_case_a_ne_d():
    act = action(2, [[1, 0], [0, 2]], [[0, 0], [0, 0]], [[2, 0], [0, 1]])
    p = build_nonarch_relation(act)
    sel = select_nontrivial_entry(p, act)
    assert sel.case == "A_ne_D"
    assert mx.mat_eq(sel.witness_y, mx.identity(2))
    assert mx.mat_eq(sel.witness_z, mx.identity(2))
    vals = matrix_at(p, point_assignment(sel.witness_y, sel.witness_z))
    assert mx.mat_eq(vals, mx.mat_sub(act.A, act.D))


def test_witness_case_a_non_scalar():
    a = [[1, 1], [0, 1]]
    act = action(2, a, [[0, 0], [0, 0]], a)
    p = build_nonarch_relation(act)
    sel = select_nontrivial_entry(p, act)
    assert sel.case == "A_non_scalar"
    # z = E_22: column 2 holds the nonzero off-diagonal entry of A
    assert sel.witness_z[1][1] == 1 and sum(x for r in sel.witness_z for x in r) == 1
    vals = matrix_at(p, point_assignment(sel.witness_y, sel.witness_z))
    assert mx.mat_eq(vals, expected_witness_value(act, sel))
    assert not mx.is_zero_matrix(vals)


def test_witness_case_diagonal_non_scalar():
    a = [[1, 0], [0, 2]]
    act = action(2, a, [[0, 0], [0, 0]], a)
    sel = select_nontrivial_entry(build_nonarch_relation(act), act)
    assert sel.case == "A_non_scalar"
    # z = E_12 + E_21 for distinct diagonal entries
    assert sel.witness_z[0][1] == 1 and sel.witness_z[1][0] == 1


def test_diagonal_action_entry_12_nonzero_polynomial():
    # A = D = diag(2,3), B = 0: the off-diagonal relation entries carry the
    # commutator-type terms and survive as nonzero polynomials
    act = action(2, [[2, 0], [0, 3]], [[0, 0], [0, 0]], [[2, 0], [0, 3]])
    p = build_nonarch_relation(act)
    assert not p[0][1].is_zero()


def _random_point(rng, g: int, d: int | None) -> tuple:
    """A random (Y, Z) with Y invertible, entries in Q or Q(sqrt d)."""
    entry = lambda: F(rng.randint(-4, 4)) if d is None else QuadScalar(d, F(rng.randint(-3, 3)), F(rng.randint(-2, 2)))
    while True:
        y = mx.freeze([[entry() for _ in range(g)] for _ in range(g)])
        if mx.det(y) != 0:
            return y, mx.freeze([[entry() for _ in range(g)] for _ in range(g)])


@pytest.mark.parametrize("d", [None, 5])
def test_nonarch_relation_matches_numeric_oracle(d):
    # oracle: Y^t A adj(Y^t) Z^t - det(Y) (Y^t B + Z^t D) at points, with
    # adj(Y^t) = det(Y^t) (Y^t)^-1 computed numerically
    rng = random.Random(41 if d is None else 42)
    for g in (1, 2, 3):
        for _ in range(3):
            act = mixed_action(rng, g, d)
            p = build_nonarch_relation(act)
            for field in (None, 5):
                y, z = _random_point(rng, g, field)
                yt, zt = mx.transpose(y), mx.transpose(z)
                adj = mx.scalar_mul(mx.det(yt), mx.inverse(yt))
                lhs = mx.mat_mul(mx.mat_mul(mx.mat_mul(yt, act.A), adj), zt)
                rhs = mx.mat_add(mx.mat_mul(yt, act.B), mx.mat_mul(zt, act.D))
                expect = mx.mat_sub(lhs, mx.scalar_mul(mx.det(y), rhs))
                assert mx.mat_eq(matrix_at(p, point_assignment(y, z)), expect)


@st.composite
def oracle_actions(draw):
    """An action over Q or over one Q(sqrt d) at g = 1..4, denominators up to
    7, mixing Fraction, rational-valued and quadratic entries; a third have
    B = 0 and a third A = D (non-scalar from g = 2 on) and B = 0."""
    g, d = draw(st.integers(1, 4)), draw(st.sampled_from((None, 5, -7)))

    def entry():
        a = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 7)))
        if d is None or draw(st.booleans()):
            return a
        return QuadScalar(d, a, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 7))))

    a, b, dd = (mx.freeze([[entry() for _ in range(g)] for _ in range(g)]) for _ in "ABD")
    shape = draw(st.sampled_from(("any", "B = 0", "A = D")))
    if shape != "any":
        b = mx.zeros(g, g)
    return EndomorphismAction(g, a, b, a if shape == "A = D" else dd)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(oracle_actions(), st.integers(0, 999))
def test_nonarch_entries_and_synthesis_match_the_fraction_oracles(act, seed):
    chain = nonarch_relation_by_products(act)
    for i, row in enumerate(build_nonarch_relation(act)):
        for j, e in enumerate(row):
            assert e == chain[i][j] and e.to_json() == chain[i][j].to_json()
    try:
        old = synthesize_by_fractions(act, seed)
    except RelationError as exc:
        with pytest.raises(RelationError) as raised:
            synthesize_period_data(act, seed)
        assert str(raised.value) == str(exc)
        return
    data = synthesize_period_data(act, seed)
    assert (data.M, data.F, data.G) == old
    assert [mx.matrix_to_json(m) for m in data[1:]] == [mx.matrix_to_json(m) for m in old]
    assert verify_by_fractions(data, act)


@st.composite
def equal_block_actions(draw):
    """An action with A = D at g = 1..4 over Q or over Q(sqrt 5), B random or
    zero; a quarter have A = c I, so B = 0 makes them scalar."""
    g, d = draw(st.integers(1, 4)), draw(st.sampled_from((None, 5)))

    def entry():
        a = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        return a if d is None or draw(st.booleans()) else QuadScalar(d, a, Fraction(draw(st.integers(-2, 2))))

    if draw(st.integers(0, 3)):
        a = mx.freeze([[entry() for _ in range(g)] for _ in range(g)])
    else:
        a = mx.scalar_mul(entry(), mx.identity(g))
    b = mx.freeze([[entry() for _ in range(g)] for _ in range(g)]) if draw(st.booleans()) else mx.zeros(g, g)
    return EndomorphismAction(g, a, b, a)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(equal_block_actions(), st.integers(0, 999))
def test_a_equal_to_d_is_refused_before_the_witness_entry(act, seed):
    # A and D share every eigenvalue, so the Sylvester system is singular: the
    # certificate's witness table needs no row for A = D
    calls, real = [], relations._witness_entry
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_witness_entry", lambda a: calls.append(a) or real(a))
        with pytest.raises(RelationError) as raised:
            build_nonarch_certificate(act, seed=seed)
    assert str(raised.value) in (
        "endomorphism spectra force coupling; supply F manually",
        "no relation derivable from scalar endomorphism",
    )
    assert calls == []


def test_witness_isotropy_always():
    for seed in range(10):
        act = random_action(2, seed=seed)
        p = build_nonarch_relation(act)
        sel = select_nontrivial_entry(p, act)
        y, z = sel.witness_y, sel.witness_z
        assert mx.is_zero_matrix(
            mx.mat_sub(
                mx.mat_mul(mx.transpose(y), z), mx.mat_mul(mx.transpose(z), y)
            )
        )
        assert sel.value != 0


# ---------------------------------------------------------------------------
# synthetic period data


def test_g1_sylvester_solution():
    act = action(1, [[5]], [[3]], [[2]])
    data = synthesize_period_data(act, seed=0, F=[[F(1)]])
    assert data.F[0][0] == 1
    assert data.M[0][0] == 5
    assert data.G[0][0] == F(3) / F(3)  # b / (a - d) = 3/3
    assert data.verify(act)


def test_a_supplied_rational_f_scales_g_and_keeps_m():
    # M = F^t A F^-t does not see F's scale, and G scales with F
    act = random_action(2, seed=9, solvable=True)
    f = mx.freeze([[F(1) / 2, F(1) / 3], [F(-2) / 5, F(3)]])
    data = synthesize_period_data(act, seed=0, F=f)
    assert data.F == f and verify_by_fractions(data, act)
    scaled = synthesize_period_data(act, seed=0, F=mx.scalar_mul(F(30), f))
    assert (scaled.M, scaled.G) == (data.M, mx.scalar_mul(F(30), data.G))


def test_b_zero_disjoint_spectra_gives_zero_g():
    act = action(2, [[1, 0], [0, 1]], [[0, 0], [0, 0]], [[2, 0], [0, 3]])
    data = synthesize_period_data(act, seed=4)
    assert mx.is_zero_matrix(data.G)
    assert data.verify(act)


def test_overlapping_spectra_reported():
    # A = D diagonal: the Sylvester operator is singular for every F
    act = action(2, [[1, 0], [0, 2]], [[1, 1], [1, 1]], [[1, 0], [0, 2]])
    with pytest.raises(RelationError, match="spectra force coupling"):
        synthesize_period_data(act, seed=0)


@pytest.mark.parametrize("g", [2, 3])
def test_singular_sylvester_system_is_solved_once(g, monkeypatch):
    # A = D = diag(1..g): the spectra meet, so no redraw of F can help
    calls = []
    solve = mx.solve_cleared
    monkeypatch.setattr(mx, "solve_cleared", lambda parts, d, c: calls.append(c) or solve(parts, d, c))
    diag = [[i + 1 if i == j else 0 for j in range(g)] for i in range(g)]
    act = action(g, diag, [[1] * g] * g, diag)
    with pytest.raises(RelationError, match="spectra force coupling"):
        synthesize_period_data(act, seed=0)
    assert calls.count(g * g) == 1  # the g^2 unknowns of the Sylvester system; F's inverse has g


def _kronecker_g(act, data):
    """G from a solve of the Kronecker linearization kron(I, M) - kron(D^t, I)
    of M X - X D = F^t B, X = G^t stacked column by column: the oracle for
    the system synthesize_period_data writes down entry by entry."""
    g = act.g
    eye = mx.identity(g)
    lin = mx.mat_sub(kron(eye, data.M), kron(mx.transpose(act.D), eye))
    fb = mx.mat_mul(mx.transpose(data.F), act.B)
    x = mx.solve_nonsingular(lin, [fb[i][j] for j in range(g) for i in range(g)])
    return mx.freeze(x[j * g : j * g + g] for j in range(g))


def test_sylvester_solution_matches_the_kronecker_linearization():
    actions = [random_action(g, seed) for g in (1, 2, 3) for seed in range(12)]
    for d in (5, -7):
        rng = random.Random(d)
        actions += [mixed_action(rng, g, d) for g in (1, 2, 3) for _ in range(12)]
    solved = 0
    for act in actions:
        if act.is_scalar():
            continue
        try:
            data = synthesize_period_data(act, seed=3)
        except RelationError:
            assert not sylvester_solvable(act)
            continue
        solved += 1
        typed = lambda m: [[(type(x), scalar_to_json(x)) for x in row] for row in m]
        assert typed(data.G) == typed(_kronecker_g(act, data))
    assert solved >= 100


def test_relation_vanishes_on_own_data():
    for g in (2, 3):
        for seed in range(5):
            act = random_action(g, seed=100 + seed, solvable=True)
            p = build_nonarch_relation(act)
            data = synthesize_period_data(act, seed=seed)
            assert data.verify(act)
            assert verify_relation_on_data(p, data)


def test_relation_fails_on_unrelated_data():
    act1 = random_action(2, seed=1, solvable=True)
    act2 = random_action(2, seed=2, solvable=True)
    p1 = build_nonarch_relation(act1)
    data2 = synthesize_period_data(act2, seed=3)
    assert not verify_relation_on_data(p1, data2)


def test_relation_fails_on_perturbed_data():
    act = random_action(2, seed=5, solvable=True)
    p = build_nonarch_relation(act)
    data = synthesize_period_data(act, seed=6)
    rows = unfreeze(data.G)
    rows[0][0] += 1
    perturbed = type(data)(data.g, data.M, data.F, mx.freeze(rows))
    assert not verify_relation_on_data(p, perturbed)


def test_nonarch_certificate():
    act = random_action(2, seed=9, solvable=True)
    cert = build_nonarch_certificate(act, seed=9)
    assert cert.construction_kind == "nonarch"
    assert cert.degree == 3
    assert cert.nontriviality.status == "not_in_ideal_certified"
    assert cert.polynomial.is_homogeneous()


@pytest.mark.parametrize("g", [2, 3])
def test_nonarch_certificate_checks_one_entry_at_its_data(g, monkeypatch):
    # the intertwining equations make every entry vanish at (F, G), so the
    # certificate evaluates only the entry it prints there
    act = random_action(g, seed=40 + g, solvable=True)
    data = synthesize_period_data(act, seed=g)
    at_data = point_assignment(data.F, data.G)
    evaluated = []
    evaluate = MultiPoly.evaluate
    monkeypatch.setattr(MultiPoly, "evaluate", lambda poly, at: evaluated.append((poly, at)) or evaluate(poly, at))
    cert = build_nonarch_certificate(act, seed=g)
    assert [poly for poly, at in evaluated if at == at_data] == [cert.polynomial]

    # move one entry of G off the data, where the printed entry stops vanishing
    monkeypatch.setattr(MultiPoly, "evaluate", evaluate)
    (j,) = [j for row in build_nonarch_relation(act) for j, e in enumerate(row) if e == cert.polynomial]
    for k in range(g):
        rows = unfreeze(data.G)
        rows[j][k] += 1
        perturbed = type(data)(g, data.M, data.F, mx.freeze(rows))
        if cert.polynomial.evaluate(point_assignment(data.F, perturbed.G)) != 0:
            break
    else:
        pytest.fail("no perturbation of row j of G moves the printed entry")
    monkeypatch.setattr(relations, "synthesize_period_data", lambda act, seed: perturbed)
    with pytest.raises(AssertionError, match="relation matrix failed to vanish on its own period data"):
        build_nonarch_certificate(act, seed=g)


def test_nonarch_certificate_builds_one_row_and_evaluates_twice(monkeypatch):
    # one evaluation at the witness for the printed value, one at the data;
    # B's first row is zero, so the printed entry is not the first one
    act = random_action(3, seed=44, solvable=True)
    act = EndomorphismAction(3, act.A, mx.freeze([[F(0)] * 3, *act.B[1:]]), act.D)
    evaluated, entries = [], []
    evaluate, relation_entry = MultiPoly.evaluate, relations._relation_entry
    monkeypatch.setattr(MultiPoly, "evaluate", lambda poly, at: evaluated.append(poly) or evaluate(poly, at))
    monkeypatch.setattr(relations, "_relation_entry", lambda act, i, j: entries.append((i, j)) or relation_entry(act, i, j))
    cert = build_nonarch_certificate(act, seed=3)
    assert cert.notes != "entry (1,1)"
    assert evaluated == [cert.polynomial, cert.polynomial]
    assert [f"entry ({i + 1},{j + 1})" for i, j in entries] == [cert.notes]


def test_data_json_roundtrip():
    act = random_action(2, seed=31, solvable=True)
    data = synthesize_period_data(act, seed=31)
    from periodrel.relations import SyntheticPeriodData

    assert SyntheticPeriodData.from_json(data.to_json()).verify(act)
    assert EndomorphismAction.from_json(act.to_json()) == act


# ---------------------------------------------------------------------------
# Case 3


def test_case3_identity_period_matrix():
    # H = I at g = 4: both targeted entries of the pairing vanish, so
    # (lambda, mu) = (1, 0) and Q is the first quadratic
    g = 4
    inp = random_case3_input(g, seed=3)
    inp = Case3Input(g, mx.identity(g), inp.A, inp.B, inp.C, inp.D, inp.sqrt_e)
    cert = build_case3_relation(inp)
    assert cert.degree == 2
    assert "lambda=1, mu=0" in cert.notes


def test_case3_quadratics_disjoint_support():
    r, s = quadratic_relation_polys(4)
    assert not r.is_zero() and not s.is_zero()
    assert set(r.terms).isdisjoint(set(s.terms))
    assert r.degree() == 2 and s.degree() == 2


@pytest.mark.parametrize("g", [4, 6])
def test_case3_random_inputs(g):
    for seed in range(8):
        inp = random_case3_input(g, seed=seed)
        assert inp.verify_similitude()
        cert = build_case3_relation(inp)
        assert cert.degree == 2
        assert cert.polynomial.is_homogeneous()
        assert cert.nontriviality.status == "not_in_ideal_certified"
        assert cert.nontriviality.evidence_kind == "row_permutation"


def _substituted(inp):
    """The case-3 relation by symbolic substitution of Phi, the oracle."""
    return case3_quadratic(inp).substitute(phi_substitution(inp)).to_json()


@pytest.mark.parametrize("g", [4, 6, 8])
def test_case3_polynomial_matches_symbolic_substitution(g):
    for seed in range(4 if g < 8 else 2):
        inp = random_case3_input(g, seed=seed)
        assert build_case3_relation(inp).polynomial.to_json() == _substituted(inp)


def test_case3_polynomial_matches_substitution_on_mixed_entry_types():
    # blocks mix Fraction, rational-valued and quadratic QuadScalar entries,
    # sqrt_e rational or quadratic: every coefficient's encoding must match
    for seed in range(300):
        inp = mixed_case3_input(6 if seed % 10 == 0 else 4, seed)
        assert build_case3_relation(inp).polynomial.to_json() == _substituted(inp), seed


def test_case3_relation_needs_no_substitution_or_second_similitude(monkeypatch):
    # M J M^t = (1/e) J follows from the checked M^t J M = (1/e) J, and q is
    # transported over its own variables, not all 2g^2, on cleared integers
    # for every input: mixed entry types never reach substitute
    def forbidden(*args):
        raise AssertionError("not called by build_case3_relation")

    transported = []
    transport = relations._transport

    def spy_transport(q, m):
        transported.append(q.variables())
        return transport(q, m)

    monkeypatch.setattr(relations, "_transport", spy_transport)
    monkeypatch.setattr(relations, "generator_transform_scalar", forbidden)
    # mixed seeds 1 (lambda = 0) and 8 (mu = 0): q has 2g variables there
    inputs = (random_case3_input(6, seed=2), random_case3_input(4, seed=0), mixed_case3_input(4, 1), mixed_case3_input(4, 8))
    for inp in inputs:
        transported.clear()
        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "substitute", forbidden)
            cert = build_case3_relation(inp)
        assert cert.nontriviality.detail.endswith(f"(generator scalar {Fraction(1) / inp.e})")
        assert transported == [case3_quadratic(inp).variables()]
        assert cert.polynomial.to_json() == _substituted(inp)


def _with_period_matrix(inp, h):
    return Case3Input(inp.g, mx.freeze(h), inp.A, inp.B, inp.C, inp.D, inp.sqrt_e)


def _rational_valued(inp):
    """The same data with M replaced by the symplectic sqrt(e) M, whose
    entries are rational-valued QuadScalars tagged with sqrt(e)'s d."""
    blocks = (mx.scalar_mul(inp.sqrt_e, b) for b in (inp.A, inp.B, inp.C, inp.D))
    return Case3Input(inp.g, inp.H, *blocks, QuadScalar(inp.sqrt_e.d, 1, 0))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("g", [4, 6, 8])
def test_case3_integer_transport_matches_substitution(g, d, monkeypatch):
    # H = I gives (lambda, mu) = (1, 0); I with columns 2 and g/2 + 1 swapped
    # pairs them, so the pairing's (1,2) entry is 1 and (1, g/2+2) is 0: (0, 1)
    h = g // 2
    swapped = [[Fraction(int(c == {1: h, h: 1}.get(r, r))) for c in range(g)] for r in range(g)]
    substituted = []
    substitute = MultiPoly.substitute
    monkeypatch.setattr(MultiPoly, "substitute", lambda p, m: substituted.append(p) or substitute(p, m))
    notes = set()
    for seed in range(2 if g < 8 else 1):
        inp = random_case3_input(g, seed=seed, d=d)
        rational = _rational_valued(inp)  # entries QuadScalar(d, a, 0): rational values, whatever the tag
        for case in (inp, _with_period_matrix(inp, mx.identity(g)), _with_period_matrix(inp, swapped), rational):
            substituted.clear()
            cert = build_case3_relation(case)
            assert substituted == []  # one field: the cleared integers, no substitution
            notes.add(cert.notes)
            assert cert.polynomial.to_json() == _substituted(case), (seed, cert.notes)
    assert {"lambda=1, mu=0", "lambda=0, mu=1"} <= notes


def test_case3_takes_substitution_exactly_on_mixed_inputs(monkeypatch):
    # the mixed inputs of the oracle test above mix Fraction entries, other
    # tags of rational values and QuadScalar (lambda, mu) into M and q: none
    # takes substitute, and every tenth is compared with the oracle here
    substituted = []
    substitute = MultiPoly.substitute
    monkeypatch.setattr(MultiPoly, "substitute", lambda p, m: substituted.append(p) or substitute(p, m))
    for seed in range(300):
        inp = mixed_case3_input(6 if seed % 10 == 0 else 4, seed)
        substituted.clear()
        got = relations._transport(case3_quadratic(inp), inp.change_of_basis())
        assert substituted == [], seed
        if seed % 10 == 0:
            assert got.to_json() == _substituted(inp), seed


def test_case3_substitutes_when_one_entry_carries_another_tag(monkeypatch):
    # every entry a QuadScalar, but one nonzero rational-valued entry tagged
    # sqrt(11): a rational value whatever its tag, so the cleared integers
    # serve, and the encoding of a coefficient follows its value alone
    inp = _rational_valued(random_case3_input(4, seed=0, d=5))
    a = [list(row) for row in inp.A]
    i, j = next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x != 0)
    a[i][j] = QuadScalar(11, a[i][j].a, 0)
    inp = Case3Input(4, inp.H, mx.freeze(a), inp.B, inp.C, inp.D, inp.sqrt_e)
    substituted = []
    substitute = MultiPoly.substitute
    monkeypatch.setattr(MultiPoly, "substitute", lambda p, m: substituted.append(p) or substitute(p, m))
    got = build_case3_relation(inp).polynomial.to_json()
    assert substituted == []
    assert got == _substituted(inp)


def test_case3_decides_a_degenerate_period_matrix_by_rank(monkeypatch):
    def forbidden(*args):
        raise AssertionError("H needs its rank, not its inverse")

    monkeypatch.setattr(mx, "inverse", forbidden)
    inp = random_case3_input(4, seed=3)
    build_case3_relation(inp)
    h = [list(row) for row in inp.H]
    h[3] = [2 * x for x in h[1]]
    with pytest.raises(RelationError, match="degenerate period matrix"):
        build_case3_relation(Case3Input(4, mx.freeze(h), inp.A, inp.B, inp.C, inp.D, inp.sqrt_e))


def test_case3_refuses_a_zero_relation_by_the_row_swap_check(monkeypatch):
    monkeypatch.setattr(relations, "quadratic_relation_polys", lambda g: (MultiPoly.zero(), MultiPoly.zero()))
    with pytest.raises(AssertionError, match="row-swap test unexpectedly left the relation unchanged"):
        build_case3_relation(random_case3_input(4, seed=3))


def test_case3_rejects_bad_g():
    for g in (2, 3, 5):
        with pytest.raises(RelationError, match="even g > 2"):
            inp = random_case3_input(4, seed=0)
            bad = Case3Input(
                g,
                mx.identity(g),
                mx.identity(g),
                mx.zeros(g, g),
                mx.zeros(g, g),
                mx.identity(g),
                inp.sqrt_e,
            ) if g != 4 else inp
            build_case3_relation(
                bad if g != 4 else Case3Input(3, mx.identity(3), *(mx.identity(3),) * 4, inp.sqrt_e)
            )


def test_case3_rejects_singular_period_matrix():
    inp = random_case3_input(4, seed=5)
    bad = Case3Input(4, mx.zeros(4, 4), inp.A, inp.B, inp.C, inp.D, inp.sqrt_e)
    with pytest.raises(RelationError, match="degenerate period matrix"):
        build_case3_relation(bad)


def phi_scales_every_generator(inp, c) -> bool:
    """Oracle: substitute Phi into each generator of the trivial ideal
    symbolically and compare with c times the generator."""
    ideal = generators(inp.g)
    mapping = phi_substitution(inp)
    return all(f.substitute(mapping) == f.scale(c) for f in ideal.generators)


def test_phi_maps_generators_to_inverse_multiplier_scale():
    # the substitution induced by a sqrt(e)-symplectic change of basis sends
    # Y^t Z - Z^t Y to (1/e) * (Y^t Z - Z^t Y), exactly
    inputs = [random_case3_input(4, seed=40 + seed) for seed in range(5)]
    for inp in inputs + [random_case3_input(6, seed=45)]:
        c = generator_transform_scalar(inp)
        assert c == Fraction(1) / inp.e
        assert phi_scales_every_generator(inp, c)


def test_case3_rejects_non_similitude_change_of_basis():
    inp = random_case3_input(4, seed=41)
    b = unfreeze(inp.B)
    b[0][0] = b[0][0] + 1
    bad = Case3Input(4, inp.H, inp.A, mx.freeze(b), inp.C, inp.D, inp.sqrt_e)
    assert not bad.verify_similitude()
    with pytest.raises(RelationError, match="^change of basis is not a sqrt\\(e\\)-symplectic similitude$"):
        build_case3_relation(bad)
    with pytest.raises(AssertionError):
        generator_transform_scalar(bad)
    assert not phi_scales_every_generator(bad, Fraction(1) / bad.e)
    # sqrt_e whose square is irrational: still rejected as a non-similitude
    d = inp.sqrt_e.d
    irrational = Case3Input(4, inp.H, inp.A, inp.B, inp.C, inp.D, QuadScalar(d, 1, 1))
    assert not irrational.verify_similitude()
    with pytest.raises(RelationError, match="not a sqrt\\(e\\)-symplectic similitude"):
        build_case3_relation(irrational)
    # a change of basis fitted to that sqrt_e passes the similitude check,
    # and e = sqrt_e^2 is then rejected as irrational
    sqrt_e = QuadScalar(d, 1, 1)
    scaled = [mx.scalar_mul(inp.sqrt_e / sqrt_e, m) for m in (inp.A, inp.B, inp.C, inp.D)]
    fitted = Case3Input(4, inp.H, *scaled, sqrt_e)
    assert fitted.verify_similitude()
    with pytest.raises(RelationError, match="sqrt_e must square to a rational"):
        build_case3_relation(fitted)


def test_case3_rational_sqrt_e():
    # sqrt(e) = 2 with an exactly symplectic S: the change of basis is S / 2
    s = sample_symplectic(4, seed=9).matrix
    blocks = [mx.scalar_mul(Fraction(1, 2), mx.submatrix(s, rows, cols))
              for rows in (range(4), range(4, 8)) for cols in (range(4), range(4, 8))]
    inp = Case3Input(4, random_case3_input(4, seed=9).H, *blocks, Fraction(2))
    assert inp.verify_similitude() and inp.e == 4
    assert generator_transform_scalar(inp) == Fraction(1, 4)
    assert phi_scales_every_generator(inp, Fraction(1, 4))
    assert build_case3_relation(inp).degree == 2


def test_phi_scalar_quadratic_entries():
    inp = random_case3_input(4, seed=50)
    # entries of the change of basis are genuinely quadratic
    assert any(
        isinstance(x, QuadScalar) and x.b != 0
        for row in inp.change_of_basis()
        for x in row
    )


# ---------------------------------------------------------------------------
# assembly


def test_assemble_single_part_is_itself():
    act = random_action(2, seed=61, solvable=True)
    cert = build_nonarch_certificate(act, seed=61)
    assert assemble_global_relation([cert]) is cert


def test_assemble_degrees_add():
    act = random_action(2, seed=62, solvable=True)
    c1 = build_nonarch_certificate(act, seed=62)  # degree 3
    c2 = build_case3_relation(random_case3_input(4, seed=63))  # degree 2
    prod = assemble_global_relation([c1, c2])
    assert prod.degree == 5
    assert prod.construction_kind == "product"
    assert len(prod.parts) == 2


def test_assemble_product_vanishes_where_factor_does():
    act = random_action(2, seed=64, solvable=True)
    c1 = build_nonarch_certificate(act, seed=64)
    c2 = build_nonarch_certificate(random_action(2, seed=65, solvable=True), seed=65)
    prod = assemble_global_relation([c1, c2])
    data = synthesize_period_data(act, seed=64)
    # the first factor vanishes at its own period data, hence so does the product
    asg = point_assignment(data.F, data.G)
    if c1.polynomial.evaluate(asg) == 0:
        assert prod.polynomial.evaluate(asg) == 0


def test_assemble_requires_certificates():
    act = random_action(2, seed=66, solvable=True)
    cert = build_nonarch_certificate(act, seed=66)
    from periodrel.trivial_ideal import MembershipVerdict
    from periodrel.relations import RelationCertificate

    uncertified = RelationCertificate(
        polynomial=cert.polynomial,
        degree=cert.degree,
        construction_kind="nonarch",
        nontriviality=MembershipVerdict("undecided", "none"),
    )
    with pytest.raises(RelationError, match="non-triviality certificate"):
        assemble_global_relation([cert, uncertified])
