"""The exact integer kernel of ``matrices`` against its generic oracles.

``is_similitude`` is checked against ``helpers.similitude_defect`` (the
product M^t J M - mu J over the matrices' own scalars), and the Bareiss
kernel of ``rank``, ``solve``, ``inverse`` and ``det`` against the field
eliminations ``helpers.gauss`` and ``helpers.det_gauss``, over Q and over
one Q(sqrt d).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodrel import matrices as mx
from periodrel import symplectic
from periodrel.relations import Case3Input, generator_transform_scalar, random_case3_input
from periodrel.scalars import QuadScalar, ScalarError, quadratic_field
from periodrel.symplectic import sample_symplectic, with_multiplier

from helpers import det_gauss, gauss, similitude_defect, unfreeze

_NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def _similitude_case(draw, g: int):
    """(m, mu, kind, field): a mu-similitude over Z, Q or one Q(sqrt d),
    perturbed as ``kind`` says; field is None over Z and Q."""
    s = sample_symplectic(g, draw(st.integers(0, 10**6)), word_length=draw(st.integers(0, 6)))
    over = draw(st.sampled_from(["Z", "Q", 2, 5, -1, -7]))
    if over == "Z":
        m, mu, field = [[int(x) for x in row] for row in s.matrix], 1, None
    elif over == "Q":
        mu = draw(_NONZERO)
        m, field = unfreeze(with_multiplier(s, mu).matrix), None
    else:
        c = QuadScalar(over, draw(st.fractions(-2, 2, max_denominator=3)), draw(_NONZERO))
        mu0 = draw(_NONZERO)
        m = unfreeze(mx.scalar_mul(c, with_multiplier(s, mu0).matrix))
        mu, field = c * c * mu0, over
    kind = draw(st.sampled_from(["none", "P", "Q", "mu", "quadratic mu"]))
    root = QuadScalar(field or 5, 0, 1)
    delta = draw(_NONZERO)
    if kind in ("P", "Q"):
        i, j = draw(st.integers(0, 2 * g - 1)), draw(st.integers(0, 2 * g - 1))
        m[i][j] = m[i][j] + (delta if kind == "P" else delta * root)
    elif kind == "mu":
        mu = mu + delta
    elif kind == "quadratic mu":
        mu = mu + delta * root
    return m, mu, kind, field


@pytest.mark.parametrize("g", range(1, 9))
def test_is_similitude_agrees_with_defect_oracle(g):
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(_similitude_case(g))
    def check(case):
        m, mu, kind, field = case
        got = mx.is_similitude(m, mu, g)
        assert got == mx.is_zero_matrix(similitude_defect(m, mu, g))
        if kind == "none":
            assert got
        if kind in ("mu", "quadratic mu"):
            assert not got  # M^t J M = mu J fixes mu

    check()


def test_is_similitude_rejects_each_kind_of_defect():
    """The integer path rejects a perturbed P, a perturbed Q, a wrong mu and
    a mu cut to its rational part, and accepts the unperturbed matrix."""
    inp = random_case3_input(4, seed=41)
    m = inp.change_of_basis()
    mu = 1 / (inp.sqrt_e * inp.sqrt_e)
    assert quadratic_field(x for row in m for x in row) == inp.sqrt_e.d
    assert mx.is_similitude(m, mu, 4)
    root = QuadScalar(inp.sqrt_e.d, 0, 1)
    for i, j, delta in ((0, 5, Fraction(1)), (3, 3, root), (7, 0, Fraction(1, 2) * root)):
        bad = unfreeze(m)
        bad[i][j] = bad[i][j] + delta
        assert not mx.is_similitude(bad, mu, 4)
        assert not mx.is_zero_matrix(similitude_defect(bad, mu, 4))
    assert not mx.is_similitude(m, mu + Fraction(1, 7), 4)
    assert not mx.is_similitude(m, mu + root, 4)
    # fitted to sqrt_e = 1 + sqrt d the multiplier is genuinely quadratic;
    # keeping only its rational part must fail
    sqrt_e = QuadScalar(inp.sqrt_e.d, 1, 1)
    fitted = mx.scalar_mul(inp.sqrt_e / sqrt_e, m)
    mu = 1 / (sqrt_e * sqrt_e)
    assert mu.b != 0 and mx.is_similitude(fitted, mu, 4)
    assert not mx.is_similitude(fitted, mu.a, 4)
    assert not mx.is_similitude(fitted, QuadScalar(mu.d, 0, mu.b), 4)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_every_single_entry_perturbation_matches_oracle(g):
    """Each entry of M^t J M above the diagonal is compared: perturbing one
    entry of I can move only the pair (i, j), (j, i) of the defect."""
    root = QuadScalar(-7, 0, 1)
    bases = [
        ([[int(i == j) for j in range(2 * g)] for i in range(2 * g)], 1, Fraction(1, 3)),
        (unfreeze(with_multiplier(sample_symplectic(g, seed=g), Fraction(-2, 3)).matrix), Fraction(-2, 3), 1),
        (unfreeze(mx.scalar_mul(1 + root, sample_symplectic(g, seed=5).matrix)), (1 + root) ** 2, root),
    ]
    rejected = 0
    for m, mu, delta in bases:
        assert mx.is_similitude(m, mu, g)
        for i in range(2 * g):
            for j in range(2 * g):
                bad = [row[:] for row in m]
                bad[i][j] = bad[i][j] + delta
                got = mx.is_similitude(bad, mu, g)
                assert got == mx.is_zero_matrix(similitude_defect(bad, mu, g))
                rejected += not got
    assert rejected > 0


def test_mixed_fields_take_the_generic_path(monkeypatch):
    m = mx.scalar_mul(QuadScalar(2, 0, 1), sample_symplectic(2, seed=3).matrix)  # multiplier 2
    calls, clears = [], []
    real, real_cleared = mx.mat_mul, mx.cleared
    monkeypatch.setattr(mx, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    monkeypatch.setattr(mx, "cleared", lambda rows, d: clears.append(d) or real_cleared(rows, d))
    assert mx.is_similitude(m, 2, 2) and calls == [] and clears == [2]
    # two fields are refused by the one field check, before any product or clearing
    mu7 = QuadScalar(7, 1, 1)
    with pytest.raises(ScalarError, match=r"mixed quadratic contexts: sqrt\(7\) vs sqrt\(2\)"):
        mx.is_similitude(m, mu7, 2)
    mixed = unfreeze(m)
    mixed[0][0] = QuadScalar(3, 1, 1)
    with pytest.raises(ScalarError, match=r"mixed quadratic contexts: sqrt\(2\) vs sqrt\(3\)"):
        mx.is_similitude(mixed, 2, 2)
    assert calls == [] and clears == [2]
    # the generic oracle: M^t J M is no multiple mu7 J, and over three fields its product raises
    assert not mx.is_zero_matrix(similitude_defect(m, mu7, 2))
    with pytest.raises(ScalarError, match="mixed quadratic contexts"):
        similitude_defect(mixed, 2, 2)


def test_case3_checks_run_on_the_integer_path(monkeypatch):
    inp = random_case3_input(6, seed=5)
    bad = unfreeze(inp.D)
    bad[2][1] = bad[2][1] + 1
    monkeypatch.setattr(mx, "mat_mul", lambda a, b: pytest.fail("generic product in a single-field check"))
    assert inp.verify_similitude()
    assert generator_transform_scalar(inp) == 1 / inp.e
    assert not Case3Input(6, inp.H, inp.A, inp.B, inp.C, mx.freeze(bad), inp.sqrt_e).verify_similitude()


def test_sample_symplectic_checks_the_integer_word(monkeypatch):
    checked = []
    real = mx.is_similitude
    monkeypatch.setattr(mx, "is_similitude", lambda m, mu, g: checked.append((m, mu)) or real(m, mu, g))
    s = sample_symplectic(3, seed=11)
    (m, mu), = checked
    assert all(type(x) is int for row in m for x in row) and mu == 1
    assert all(type(x) is Fraction for row in s.matrix for x in row)
    assert mx.mat_eq(s.matrix, m)
    with pytest.raises(ValueError, match="not a symplectic similitude"):
        symplectic.SymplecticSample([[1, 1], [1, 0]], 1)


# ---------------------------------------------------------------------------
# Bareiss against Gauss


def gauss_rank(m) -> int:
    return len(gauss([list(row) for row in m], len(m[0]))[1])


def gauss_solve(a, rhs):
    """The Gauss-Jordan solve: free variables zero, pivots in column order."""
    c = len(a[0])
    rows, pivots = gauss([list(row) + [rhs[i]] for i, row in enumerate(a)], c)
    if any(all(x == 0 for x in row[:c]) and row[c] != 0 for row in rows):
        return None
    x = [Fraction(0)] * c
    for rix, col in enumerate(pivots):
        x[col] = rows[rix][c]
    return x


def gauss_inverse(m):
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = gauss(rows, n)
    return mx.freeze(row[n:] for row in rows) if len(pivots) == n else None


_ENTRY = st.just(Fraction(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=5)
_SPARSE = st.sampled_from((Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(-1)))


@st.composite
def _system(draw, square: bool = False):
    """(a, rhs): a rational matrix, often of deficient rank, and a right-hand
    side that is consistent when ``a x`` was drawn, arbitrary otherwise.
    Some draws are sparse 0/+-1 matrices, whose eliminations leave rows
    with a zero in the pivot column untouched."""
    entry = draw(st.sampled_from((_ENTRY, _SPARSE)))
    r = draw(st.integers(1, 6))
    c = r if square else draw(st.integers(1, 7))
    independent = draw(st.integers(1, r))
    rows = [[draw(entry) for _ in range(c)] for _ in range(independent)]
    for _ in range(r - independent):  # combinations stay in the span of the first rows
        coeffs = [draw(entry) for _ in rows]
        rows.append([sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(c)])
    a = mx.freeze(rows[i] for i in draw(st.permutations(range(r))))
    if draw(st.booleans()):
        x = [draw(_ENTRY) for _ in range(c)]
        rhs = [sum((u * v for u, v in zip(row, x)), Fraction(0)) for row in a]
    else:
        rhs = [draw(_ENTRY) for _ in range(r)]
    return a, rhs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_system())
def test_bareiss_rank_and_solve_agree_with_gauss(system):
    a, rhs = system
    assert mx.rank(a) == gauss_rank(a)
    want = gauss_solve(a, rhs)
    got = mx.solve(a, rhs)
    assert got == want
    assert got is None or all(type(x) is Fraction for x in got)
    # all-int input runs the same kernel; the oracle needs Fractions
    ints, int_rhs = [[int(x * 60) for x in row] for row in a], [int(y * 60) for y in rhs]
    assert mx.solve(ints, int_rhs) == gauss_solve([[Fraction(x) for x in row] for row in ints], list(map(Fraction, int_rhs)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_system(square=True))
def test_bareiss_inverse_det_and_square_solve_agree_with_gauss(system):
    a, rhs = system
    n = len(a)
    assert mx.det(a) == det_gauss(a)
    assert mx.inverse(a) == gauss_inverse(a)
    want = gauss_solve(a, rhs) if gauss_rank(a) == n else None
    assert mx.solve_nonsingular(a, rhs) == want


def test_bareiss_fixed_cases():
    a = mx.freeze([[Fraction(0), Fraction(2), Fraction(4)], [Fraction(1, 2), Fraction(1), Fraction(0)]])
    # pivots in columns 0 and 1; the free variable x2 is zero
    assert mx.solve(a, [Fraction(2), Fraction(3)]) == [Fraction(4), Fraction(1), Fraction(0)]
    assert mx.solve(mx.freeze([[1, 2], [2, 4]]), [1, 3]) is None
    assert mx.solve_nonsingular(mx.freeze([[1, 2], [2, 4]]), [1, 2]) is None
    assert mx.solve(mx.freeze([[1, 2], [2, 4]]), [1, 2]) == [Fraction(1), Fraction(0)]
    assert mx.det(mx.freeze([[0, 1], [1, 0]])) == -1
    assert mx.det(mx.freeze([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)
    assert mx.inverse(mx.freeze([[2, 1], [1, 1]])) == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    assert mx.rank(mx.freeze([[0, 0, 0], [0, 0, 5]])) == 1


def test_quadratic_matrices_take_gauss():
    r = QuadScalar(5, 0, 1)
    a = mx.freeze([[r, Fraction(1)], [Fraction(5), r]])  # second row = sqrt 5 * first
    assert mx.rank(a) == gauss_rank(a) == 1
    b = mx.freeze([[r, Fraction(1)], [Fraction(1), r]])
    assert mx.inverse(b) == gauss_inverse(b)
    assert mx.solve(b, [Fraction(1), Fraction(0)]) == gauss_solve(b, [Fraction(1), Fraction(0)])
    assert mx.det(b) == det_gauss(b) == 4


# ---------------------------------------------------------------------------
# Over one Q(sqrt d): the Bareiss kernel on the rational block form


@st.composite
def _quadratic_system(draw, square: bool = False):
    """(a, rhs) over Q(sqrt d), d in {2, 5, -1, -7}: entries mix Fraction,
    rational-valued QuadScalar (some tagged with another d) and genuinely
    quadratic values.  Dependent rows are Q(sqrt d)-combinations of the
    first ones, and the right-hand side is consistent when a x was drawn."""
    d = draw(st.sampled_from((2, 5, -1, -7)))
    root = QuadScalar(d, 0, 1)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    dense = st.one_of(
        st.builds(lambda a, b: a + b * root, small, small), small, st.builds(lambda a: QuadScalar(11, a, 0), small)
    )
    sparse = st.sampled_from((Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(-1), root, -root))
    entry = draw(st.sampled_from((dense, sparse)))
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    independent = draw(st.integers(1, r))
    rows = [[draw(entry) for _ in range(c)] for _ in range(independent)]
    for _ in range(r - independent):
        coeffs = [draw(entry) for _ in rows]
        rows.append([sum((k * row[j] for k, row in zip(coeffs, rows)), Fraction(0)) for j in range(c)])
    a = mx.freeze(rows[i] for i in draw(st.permutations(range(r))))
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(c)]
        rhs = [sum((u * v for u, v in zip(row, x)), Fraction(0)) for row in a]
    else:
        rhs = [draw(entry) for _ in range(r)]
    return a, rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_quadratic_system())
def test_quadratic_rank_and_solve_agree_with_gauss(system):
    a, rhs = system
    assert mx.rank(a) == gauss_rank(a)
    assert mx.solve(a, rhs) == gauss_solve(a, rhs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_quadratic_system(square=True))
def test_quadratic_inverse_det_and_square_solve_agree_with_gauss(system):
    a, rhs = system
    assert mx.det(a) == det_gauss(a)
    assert mx.inverse(a) == gauss_inverse(a)
    want = gauss_solve(a, rhs) if gauss_rank(a) == len(a) else None
    assert mx.solve_nonsingular(a, rhs) == want


def test_two_quadratic_fields_are_refused_before_eliminating():
    """diag(sqrt 2, sqrt 3): the first entry from a second field, in
    row-major order, is named before the field of the entries ahead of it."""
    m = mx.freeze([[QuadScalar(2, 0, 1), Fraction(0)], [Fraction(0), QuadScalar(3, 0, 1)]])
    for call in (lambda: mx.rank(m), lambda: mx.solve(m, [Fraction(1), Fraction(1)]), lambda: mx.inverse(m),
                 lambda: mx.det(m)):
        with pytest.raises(ScalarError, match=r"^mixed quadratic contexts: sqrt\(3\) vs sqrt\(2\)$"):
            call()
    # a rational-valued entry tagged with another d belongs to every field
    assert mx.rank(mx.freeze([[QuadScalar(3, 2, 0), QuadScalar(2, 0, 1)]])) == 1


def test_quadratic_solve_runs_on_integer_rows(monkeypatch):
    r = QuadScalar(5, 0, 1)
    a = mx.freeze([[r, Fraction(1), Fraction(0)], [Fraction(1, 2), 1 + r, Fraction(3)], [Fraction(5), r, Fraction(0)]])
    rhs = [Fraction(1), r, r]  # the third row is sqrt 5 times the first: one free column
    want = gauss_solve(a, rhs)
    calls = []
    real = mx._bareiss

    def integer_only(rows, ncols, field=False):
        assert not field and all(type(x) is int for row in rows for x in row)
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(mx, "_bareiss", integer_only)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(QuadScalar, name, lambda *args: pytest.fail("field arithmetic in a Q(sqrt d) solve"))
    got = mx.solve(a, rhs)
    monkeypatch.undo()
    assert calls == [6] and got == want and want is not None
