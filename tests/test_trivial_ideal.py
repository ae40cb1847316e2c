import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodrel import matrices as mx
from periodrel.cli import GENUS_CAP
from periodrel.polyalg import Monomial, MultiPoly, determinant, symbolic_matrix, yvar, zvar
from periodrel.scalars import QuadScalar
from periodrel.symplectic import project_to_V, sample_symplectic, with_multiplier
from periodrel.trivial_ideal import (
    generators,
    jacobian_rank_at,
    membership,
    point_assignment,
    radicality_certificate,
    row_permutation_test,
    row_swap_permutation,
    structured_witnesses,
)

from helpers import jacobian_rows, membership_samples_first, sampled_points


def test_generator_counts():
    assert generators(1).generator_count == 0
    assert generators(2).generator_count == 1
    assert generators(3).generator_count == 3
    assert generators(5).generator_count == 10


def test_g2_generator_by_hand():
    # f_12 = Y11 Z12 - Z11 Y12 + Y21 Z22 - Z21 Y22
    f = generators(2).generators[0]
    expect = (
        MultiPoly.variable(yvar(1, 1)) * MultiPoly.variable(zvar(1, 2))
        - MultiPoly.variable(zvar(1, 1)) * MultiPoly.variable(yvar(1, 2))
        + MultiPoly.variable(yvar(2, 1)) * MultiPoly.variable(zvar(2, 2))
        - MultiPoly.variable(zvar(2, 1)) * MultiPoly.variable(yvar(2, 2))
    )
    assert f == expect


def test_g3_generators_have_six_terms():
    for f in generators(3).generators:
        assert len(f.terms) == 6  # 2g terms per generator
        assert f.is_homogeneous() and f.degree() == 2


def test_antisymmetric_family():
    ideal = generators(3)
    for i in range(1, 4):
        assert ideal.generator(i, i).is_zero()
        for j in range(1, 4):
            assert ideal.generator(j, i) == -ideal.generator(i, j)


def test_matrix_expansion_reproduces_generators():
    ideal = generators(3)
    y, z = symbolic_matrix("Y", 3), symbolic_matrix("Z", 3)
    m = mx.mat_sub(mx.mat_mul(mx.transpose(y), z), mx.mat_mul(mx.transpose(z), y))
    for i in range(3):
        for j in range(3):
            assert m[i][j] == ideal.generator(i + 1, j + 1)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_generators_vanish_on_frames(g):
    ideal = generators(g)
    for seed in range(25):
        s = sample_symplectic(g, seed=seed)
        if seed % 3 == 0:
            s = with_multiplier(s, Fraction(seed + 2, 3))
        fr = project_to_V(s)
        asg = point_assignment(fr.y_block, fr.z_block)
        for f in ideal.generators:
            assert f.evaluate(asg) == 0


# ---------------------------------------------------------------------------
# Jacobian / radicality


@pytest.mark.parametrize("g,expected", [(2, 1), (3, 3), (4, 6), (5, 10)])
def test_jacobian_rank_at_canonical_witness(g, expected):
    ideal = generators(g)
    rank = jacobian_rank_at(ideal, (mx.identity(g), mx.zeros(g, g)))
    assert rank == expected == g * (g - 1) // 2


def test_jacobian_rank_at_origin_is_zero():
    ideal = generators(2)
    assert jacobian_rank_at(ideal, (mx.zeros(2, 2), mx.zeros(2, 2))) == 0


def _jacobian_points(g: int) -> list[tuple]:
    """(I, 0), the origin, the structured witnesses, sampled frames, and
    random points off the variety over Q and over Q(sqrt 5)."""
    rng = random.Random(g)

    def q() -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def block(entry):
        return mx.freeze([[entry() for _ in range(g)] for _ in range(g)])

    def q5():
        return rng.choice((q(), QuadScalar(5, q(), q())))

    zero = mx.zeros(g, g)
    return [
        (mx.identity(g), zero),
        (zero, zero),
        *structured_witnesses(g),
        *sampled_points(g, 3, g),
        (block(q), block(q)),
        (block(q5), block(q5)),
    ]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_jacobian_rows_match_the_symbolic_oracle(g, monkeypatch):
    ideal = generators(g)
    seen = []
    real = mx.rank
    monkeypatch.setattr(mx, "rank", lambda m: seen.append(m) or real(m))
    for point in _jacobian_points(g):
        seen.clear()
        r = jacobian_rank_at(ideal, point)
        want = jacobian_rows(ideal, point)
        got = [list(row) for row in seen[0]] if seen else []
        assert got == want
        assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]
        assert r == (real(mx.freeze(want)) if want else 0)


def test_radicality_rows_at_the_witness_have_disjoint_supports(monkeypatch):
    """At (I, 0) the row of f_ij is e(Z[i,j]) - e(Z[j,i]), so the rows are
    independent at every g; rank is stubbed to len(rows) to keep g = 32 fast."""
    seen = []
    monkeypatch.setattr(mx, "rank", lambda m: seen.append(m) or len(m))
    for g in range(1, GENUS_CAP + 1):
        seen.clear()
        ideal = generators(g)
        cert = radicality_certificate(ideal)
        assert cert.verdict == "radical" and cert.rank == ideal.generator_count
        (rows,) = seen
        assert len(rows) == ideal.generator_count
        for (i, j), row in zip(ideal.pairs(), rows):
            zij, zji = (g + i - 1) * g + j - 1, (g + j - 1) * g + i - 1  # columns of Z[i,j], Z[j,i]
            assert row[zij] == 1 and row[zji] == -1
            assert all(x == 0 for c, x in enumerate(row) if c not in (zij, zji))
    monkeypatch.setattr(mx, "rank", lambda m: len(m) - 1)
    with pytest.raises(AssertionError, match="Jacobian rank 2 at"):
        radicality_certificate(generators(3))


def test_radicality_makes_no_symbolic_derivative(monkeypatch):
    calls = []
    for name in ("partial", "evaluate"):
        real = getattr(MultiPoly, name)
        monkeypatch.setattr(MultiPoly, name, lambda self, *a, _n=name, _f=real: calls.append(_n) or _f(self, *a))
    cert = radicality_certificate(generators(4))
    assert cert.verdict == "radical" and cert.rank == 6
    assert calls == []


def test_radicality_certificates():
    for g in (2, 3, 4):
        cert = radicality_certificate(generators(g))
        assert cert.verdict == "radical"
        assert cert.rank == cert.generator_count == g * (g - 1) // 2
        assert cert.witness_on_variety
        assert mx.mat_eq(cert.witness[0], mx.identity(g))
        assert mx.is_zero_matrix(cert.witness[1])


def test_radicality_vacuous_for_g1():
    cert = radicality_certificate(generators(1))
    assert cert.verdict == "radical" and cert.generator_count == 0


# ---------------------------------------------------------------------------
# Membership


def test_membership_generator_in_ideal():
    ideal = generators(2)
    v = membership(ideal.generators[0], ideal, sample_budget=10, seed=0)
    assert v.status == "in_ideal_certified"
    assert v.evidence_kind == "groebner_remainder"
    assert v.remainder.is_zero()


def test_membership_variable_not_in_ideal():
    ideal = generators(2)
    v = membership(MultiPoly.variable(yvar(1, 1)), ideal, sample_budget=10, seed=0)
    assert v.status == "not_in_ideal_certified"
    assert v.evidence_kind == "witness_point"
    y, z = v.witness
    # first structured witness (I, 0) already gives value 1
    assert mx.mat_eq(y, mx.identity(2)) and mx.is_zero_matrix(z)
    assert v.value == 1


def test_membership_det_not_in_ideal():
    g = 2
    ideal = generators(g)
    det_y = determinant(symbolic_matrix("Y", g))
    v = membership(det_y, ideal, sample_budget=10, seed=0)
    assert v.status == "not_in_ideal_certified"
    assert v.value == 1  # det(I) at the witness (I, 0)


def test_membership_consistency_in_ideal_vanishes_everywhere():
    g = 2
    ideal = generators(g)
    rng = random.Random(11)
    pts = structured_witnesses(g) + sampled_points(g, 15, seed=5)
    for _ in range(10):
        coeff = MultiPoly.variable(rng.choice([yvar(1, 1), zvar(2, 1), yvar(2, 2)]))
        p = coeff * ideal.generators[0]
        v = membership(p, ideal, sample_budget=10, seed=1)
        assert v.status == "in_ideal_certified"
        for y, z in pts:
            assert p.evaluate(point_assignment(y, z)) == 0


def test_samples_are_built_only_when_reached(monkeypatch):
    import periodrel.trivial_ideal as ti

    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return sample_symplectic(*args, **kwargs)

    monkeypatch.setattr(ti, "sample_symplectic", counting)
    for g in (1, 2, 3, 4, 5, 6, 7, 8):
        cert = radicality_certificate(generators(g))
        assert cert.verdict == "radical" and cert.rank == cert.generator_count
        assert mx.mat_eq(cert.witness[0], mx.identity(g)) and mx.is_zero_matrix(cert.witness[1])
    assert len(built) == 0

    ideal = generators(2)
    # decided at the first structured witness (I, 0)
    v = membership(MultiPoly.variable(yvar(1, 1)), ideal, sample_budget=10, seed=0)
    assert v.status == "not_in_ideal_certified" and v.samples_tested == 1
    assert len(built) == 0

    # a member vanishes everywhere: its zero remainder decides, no sample is built
    v = membership(ideal.generators[0], ideal, sample_budget=6, seed=3)
    assert v.status == "in_ideal_certified" and v.samples_tested == 4
    assert len(built) == 0

    # Y[1,2] vanishes at every structured witness (Y = I there) but not at
    # a generic sample: the samples built are those evaluated
    del built[:]
    n_structured = len(structured_witnesses(2))
    v = membership(MultiPoly.variable(yvar(1, 2)), ideal, sample_budget=10, seed=0)
    assert v.status == "not_in_ideal_certified" and v.samples_tested > n_structured
    assert len(built) == v.samples_tested - n_structured


def test_membership_certified_above_groebner_scale():
    ideal = generators(4)
    # a polynomial vanishing on every sample: a generator itself
    v = membership(ideal.generators[0], ideal, sample_budget=5, seed=0)
    assert v.status == "in_ideal_certified"
    assert v.evidence_kind == "groebner_remainder" and v.remainder.is_zero()


# ---------------------------------------------------------------------------
# Row permutation criterion


def _random_permutation(g, rng):
    perm = list(range(1, g + 1))
    rng.shuffle(perm)
    return perm


def test_generators_invariant_under_any_row_permutation():
    ideal = generators(3)
    rng = random.Random(12)
    for f in ideal.generators:
        for _ in range(6):
            assert not row_permutation_test(f, _random_permutation(3, rng))


def test_monomial_moves_under_row_swap():
    p = MultiPoly.variable(yvar(1, 1)) * MultiPoly.variable(zvar(1, 2))
    assert row_permutation_test(p, row_swap_permutation(4))


def test_determinant_changes_under_row_swap():
    det_y = determinant(symbolic_matrix("Y", 3))
    assert row_permutation_test(det_y, [2, 1, 3])


def test_scalar_combinations_invariant():
    # scalar combinations of the generators are fixed by every simultaneous
    # row permutation; 20 random combinations x 10 permutations
    rng = random.Random(13)
    for g in (2, 3):
        ideal = generators(g)
        for _ in range(10):
            comb = MultiPoly.zero()
            for f in ideal.generators:
                comb = comb + f.scale(Fraction(rng.randint(-5, 5)))
            if comb.is_zero():
                continue
            for _ in range(10):
                assert not row_permutation_test(comb, _random_permutation(g, rng))


def test_polynomial_combinations_stay_in_ideal_under_permutation():
    # polynomial-coefficient combinations are not pointwise fixed, but their
    # membership is preserved: the permuted element still reduces to zero
    from periodrel.polyalg import ideal_remainder

    g = 2
    ideal = generators(g)
    p = MultiPoly.variable(yvar(1, 1)) * ideal.generators[0]
    perm = row_swap_permutation(g)
    assert row_permutation_test(p, perm)  # changed as a polynomial

    def rename(v):
        from periodrel.polyalg import VarId

        return VarId(v.block, perm[v.row - 1], v.col)

    permuted = p.rename_variables(rename)
    assert ideal_remainder(permuted, ideal.generators).is_zero()


def test_row_permutation_rejects_primed_blocks():
    from periodrel.polyalg import VarId

    # a primed block is no variable at all, so no polynomial reaches the test with one
    with pytest.raises(ValueError, match="unknown block 'Yp'"):
        VarId("Yp", 1, 1)


def _var_product(block_row_cols) -> MultiPoly:
    out = MultiPoly.constant(Fraction(1))
    for block, i, j in block_row_cols:
        out = out * MultiPoly.variable((yvar if block == "Y" else zvar)(i, j))
    return out


@st.composite
def _membership_queries(draw, g: int, kind: str):
    """(p, budget, seed).  A member ("in") is a sum h_ij f_ij with h_ij a form
    of degree 1 or 2 in 1-3 terms.  A non-member adds a monomial that a
    structured witness decides ("structured"), or one with an off-diagonal Y
    entry ("sampled"), which vanishes at every structured witness, so that a
    sample or the remainder decides it."""
    index = st.integers(1, g)
    variable = st.tuples(st.sampled_from("YZ"), index, index)
    p = MultiPoly.zero()
    for f in generators(g).generators:
        degree = draw(st.sampled_from((1, 2)))
        for _ in range(draw(st.integers(1, 3))):
            c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
            p = p + _var_product(draw(st.lists(variable, min_size=degree, max_size=degree))) * f * Fraction(c)
    a, b = draw(st.permutations(range(1, g + 1)))[:2]
    if kind != "in":
        if kind == "structured":
            extra = draw(st.sampled_from(([("Y", a, a)], [("Y", a, a), ("Z", b, b)], [("Z", a, b), ("Y", b, b)])))
        else:
            extra = [("Y", a, b), (draw(st.sampled_from("YZ")), b, draw(index))]
        p = p + _var_product(extra) * Fraction(draw(st.sampled_from((-2, -1, 1, 2))))
    return p, draw(st.integers(0, 8)), draw(st.integers(0, 10**6))


@pytest.mark.parametrize("kind", ["in", "structured", "sampled"])
@pytest.mark.parametrize("g", [2, 3])
def test_membership_agrees_with_the_samples_first_order(g, kind):
    import periodrel.trivial_ideal as ti

    ideal = generators(g)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_membership_queries(g, kind))
    def agrees(query):
        p, budget, seed = query
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return sample_symplectic(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ti, "sample_symplectic", counting)
            verdict = membership(p, ideal, sample_budget=budget, seed=seed).to_json()
        oracle = membership_samples_first(p, ideal, sample_budget=budget, seed=seed).to_json()
        if kind == "in":  # the remainder decides before any sample is built
            assert oracle["status"] == "in_ideal_certified" and oracle["samples_tested"] == 4 + budget
            assert verdict == oracle | {"samples_tested": 4} and built == []
        else:
            assert oracle["status"] == "not_in_ideal_certified"
            assert verdict == oracle

    agrees()
