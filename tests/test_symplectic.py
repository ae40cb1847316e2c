import random
from fractions import Fraction

import pytest

from periodrel import matrices as mx
from periodrel.scalars import QuadScalar
from periodrel.symplectic import (
    IsotropicFrame,
    SymplecticSample,
    project_to_V,
    sample_symplectic,
    with_multiplier,
)

from helpers import complete_to_symplectic_basis, similitude_defect, standard_form


def test_word_length_zero_is_identity():
    s = sample_symplectic(2, seed=0, word_length=0)
    assert mx.mat_eq(s.matrix, mx.identity(4))
    assert s.verify()


def test_sample_rejects_non_similitude_at_construction():
    g = 2
    j = standard_form(g)
    message = "matrix is not a symplectic similitude for the claimed multiplier"
    for matrix, mu in (
        (mx.identity(2 * g), Fraction(2)),  # right matrix, wrong multiplier
        (mx.scalar_mul(Fraction(2), j), Fraction(1)),  # 2J has multiplier 4
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1),  # over int
    ):
        with pytest.raises(ValueError) as exc:
            SymplecticSample(matrix, mu)
        assert str(exc.value) == message
    s = SymplecticSample(mx.scalar_mul(2, j), 4)
    assert all(type(x) is Fraction for row in s.matrix for x in row)
    assert type(s.multiplier) is Fraction and s.multiplier == 4


def test_standard_form_is_a_sample():
    g = 3
    j = standard_form(g)
    assert mx.is_zero_matrix(similitude_defect(j, Fraction(1), g))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_similitude_defect_matches_dense_product(g):
    # oracle: M^t J M - mu J with J as a dense matrix
    rng = random.Random(g)
    j = standard_form(g)
    d = rng.choice((2, 5, -3))

    def entry(quadratic):
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return QuadScalar(d, x, rng.randint(-2, 2)) if quadratic else x

    for trial in range(12):
        quadratic = trial % 2 == 1
        if trial < 4:
            m = with_multiplier(sample_symplectic(g, seed=trial), Fraction(trial - 5, 3)).matrix
            if quadratic:
                m = mx.scalar_mul(QuadScalar(d, 1, 1), m)
        else:
            m = mx.freeze([[entry(quadratic) for _ in range(2 * g)] for _ in range(2 * g)])
        mu = entry(quadratic)
        dense = mx.mat_sub(mx.mat_mul(mx.mat_mul(mx.transpose(m), j), m), mx.scalar_mul(mu, j))
        assert mx.mat_eq(similitude_defect(m, mu, g), dense)
    s = with_multiplier(sample_symplectic(g, seed=1), Fraction(-2, 3))
    assert mx.is_zero_matrix(similitude_defect(s.matrix, Fraction(-2, 3), g))
    assert not mx.is_zero_matrix(similitude_defect(s.matrix, Fraction(2, 3), g))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_random_samples_verify(g):
    for seed in range(10):
        s = sample_symplectic(g, seed=seed)
        assert s.multiplier == 1
        assert s.verify()


def test_with_multiplier():
    s = sample_symplectic(2, seed=42, word_length=6)
    assert with_multiplier(s, Fraction(1)).multiplier == 1
    t = with_multiplier(s, Fraction(-2, 5))
    assert t.multiplier == Fraction(-2, 5)
    assert t.verify()
    ident = sample_symplectic(2, seed=0, word_length=0)
    t3 = with_multiplier(ident, Fraction(3))
    expect = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]
    assert mx.mat_eq(t3.matrix, mx.freeze([[Fraction(x) for x in row] for row in expect]))
    with pytest.raises(ValueError):
        with_multiplier(s, Fraction(0))


def test_projection_identity_and_j():
    g = 2
    ident = sample_symplectic(g, seed=0, word_length=0)
    fr = project_to_V(ident)
    assert mx.mat_eq(fr.y_block, mx.identity(g))
    assert mx.is_zero_matrix(fr.z_block)
    js = sample_symplectic(g, 0, 0)
    jso = type(js)(standard_form(g), Fraction(1))
    fr2 = project_to_V(jso)
    assert mx.is_zero_matrix(fr2.y_block)
    assert mx.mat_eq(fr2.z_block, mx.scalar_mul(Fraction(-1), mx.identity(g)))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_projection_random_isotropic(g):
    for seed in range(20):
        fr = project_to_V(sample_symplectic(g, seed=seed))
        assert fr.verify()


def test_completion_of_standard_frame():
    g = 2
    cols = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    cols += [[Fraction(0)] * g for _ in range(g)]
    s = complete_to_symplectic_basis(IsotropicFrame(mx.freeze(cols)))
    assert s.verify() and s.multiplier == 1


def test_completion_rejects_degenerate_frame():
    g = 2
    col = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    cols = [[col[r], col[r]] for r in range(4)]  # two equal columns
    with pytest.raises(ValueError, match="frame not full rank"):
        complete_to_symplectic_basis(IsotropicFrame(mx.freeze(cols)))


def test_completion_rejects_non_isotropic():
    # columns e_1 and e_3 pair to <e_1, e_3> = 1 at g = 2
    cols = [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0)],
    ]
    with pytest.raises(ValueError, match="frame not isotropic"):
        complete_to_symplectic_basis(IsotropicFrame(mx.freeze(cols)))


@pytest.mark.parametrize("g", [2, 3])
def test_completion_roundtrip_preserves_frame(g):
    for seed in range(15):
        fr = project_to_V(sample_symplectic(g, seed=seed))
        s = complete_to_symplectic_basis(fr)
        assert s.verify()
        # first g columns literally equal the input frame columns
        for r in range(2 * g):
            for c in range(g):
                assert s.matrix[r][c] == fr.columns[r][c]


def test_completion_deterministic():
    fr = project_to_V(sample_symplectic(2, seed=9))
    a = complete_to_symplectic_basis(fr)
    b = complete_to_symplectic_basis(fr)
    assert mx.mat_eq(a.matrix, b.matrix)


def test_density_proxy_top_block_invertible():
    # dominance heuristic: the top g x g block of a projected frame is
    # invertible for >= 95% of draws
    for g in (2, 3):
        ok = 0
        n = 200
        for seed in range(n):
            fr = project_to_V(sample_symplectic(g, seed=1000 + seed))
            if mx.inverse(fr.y_block) is not None:
                ok += 1
        assert ok >= int(0.95 * n)


def test_sample_json():
    s = sample_symplectic(2, seed=42)
    doc = s.to_json()
    assert doc["g"] == 2
    assert mx.mat_eq(mx.matrix_from_json(doc["matrix"]), s.matrix)


# ---------------------------------------------------------------------------
# Reference builder: the word multiplied out over Fraction, with the inverse
# transpose taken by elimination.  sample_symplectic multiplies the same word
# over int and must return the identical matrix.


def _fraction_unimodular(rng, g):
    a = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    for _ in range(g + 2):
        i = rng.randrange(g)
        j = rng.randrange(g)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def _fraction_symmetric(rng, g):
    b = [[Fraction(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            c = Fraction(rng.randint(-2, 2))
            b[i][j] = c
            b[j][i] = c
    return b


def _fraction_word(g, seed, word_length):
    rng = random.Random(seed)
    m = mx.identity(2 * g)
    j = standard_form(g)

    def gen_of(kind):
        if kind == "linear":
            a = mx.freeze(_fraction_unimodular(rng, g))
            return mx.block(a, mx.zeros(g, g), mx.zeros(g, g), mx.transpose(mx.inverse(a)))
        if kind == "shear":
            return mx.block(mx.identity(g), mx.freeze(_fraction_symmetric(rng, g)), mx.zeros(g, g), mx.identity(g))
        return j

    for _ in range(word_length):
        m = mx.mat_mul(m, gen_of(rng.choice(("linear", "shear", "swap"))))
    if word_length > 0:
        while mx.inverse(mx.freeze([row[:g] for row in m[:g]])) is None:
            m = mx.mat_mul(mx.mat_mul(m, gen_of("shear")), j)
    return m


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("word_length", [0, 1, 4, 8, 20])
def test_integer_word_matches_fraction_oracle(g, word_length):
    for seed in range(20):
        s = sample_symplectic(g, seed, word_length)
        assert all(type(x) is Fraction for row in s.matrix for x in row)
        assert s.matrix == _fraction_word(g, seed, word_length)
        assert s.multiplier == 1


def test_words_apply_as_column_operations(monkeypatch):
    wide = []
    real = mx.mat_mul
    monkeypatch.setattr(mx, "mat_mul", lambda a, b: wide.extend(len(m) for m in (a, b) if len(m) == 6) or real(a, b))
    for seed in range(10):
        sample_symplectic(3, seed, word_length=8)
    assert wide == []
