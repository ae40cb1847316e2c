"""Exact rational symplectic-similitude sampling.

Samples are words in three generator families (block-diagonal with a
unimodular top block, unit upper-triangular shears with a symmetric block,
and the standard form J itself), so every sample satisfies M^t J M = J
exactly by construction; the similitude multiplier enters by a diagonal
rescaling of the last g columns.  A sample checks its defining identity once,
when it is constructed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import matrices as mx
from .scalars import Frozen, Scalar, scalar_to_json


class SymplecticSample(Frozen):
    """M^t J M = multiplier * J, checked on construction over the given int or
    Fraction entries, which are then stored as Fractions."""

    __slots__ = ("matrix", "multiplier")

    def __init__(self, matrix, multiplier: Fraction | int) -> None:
        if not mx.is_similitude(matrix, multiplier, len(matrix) // 2):
            raise ValueError("matrix is not a symplectic similitude for the claimed multiplier")
        self._set(mx.freeze([Fraction(x) for x in row] for row in matrix), Fraction(multiplier))

    @property
    def g(self) -> int:
        return len(self.matrix) // 2

    def verify(self) -> bool:
        return mx.is_similitude(self.matrix, self.multiplier, self.g)

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "multiplier": scalar_to_json(self.multiplier),
            "matrix": mx.matrix_to_json(self.matrix),
        }


class IsotropicFrame(NamedTuple):
    """2g x g stack (Y; Z) with Y^t Z - Z^t Y = 0 exactly."""

    columns: tuple

    @property
    def g(self) -> int:
        return len(self.columns) // 2

    @property
    def y_block(self):
        g = self.g
        return mx.freeze(self.columns[:g])

    @property
    def z_block(self):
        g = self.g
        return mx.freeze(self.columns[g:])

    def isotropy_defect(self):
        y, z = self.y_block, self.z_block
        return mx.mat_sub(
            mx.mat_mul(mx.transpose(y), z), mx.mat_mul(mx.transpose(z), y)
        )

    def verify(self) -> bool:
        return mx.is_zero_matrix(self.isotropy_defect())


def _random_unimodular(rng: random.Random, g: int) -> tuple[list[list[int]], list[list[int]]]:
    """A product of integer shears (det 1, small entries) and its inverse-transpose."""
    a = [[int(i == j) for j in range(g)] for i in range(g)]
    a_inv_t = [row[:] for row in a]
    for _ in range(g + 2):
        i = rng.randrange(g)
        j = rng.randrange(g)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        # row i += c row j is E = I + c e_ij on the left; E^-t = I - c e_ji
        a_inv_t[j] = [x - c * y for x, y in zip(a_inv_t[j], a_inv_t[i])]
    return a, a_inv_t


def _random_symmetric(rng: random.Random, g: int) -> list[list[int]]:
    b = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            c = rng.randint(-2, 2)
            b[i][j] = c
            b[j][i] = c
    return b


def _times(m, b) -> list[list[int]]:
    """The integer product of a 2g x g column block and a g x g matrix."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in m]


def sample_symplectic(g: int, seed: int, word_length: int = 8) -> SymplecticSample:
    """Deterministic exact sample of Sp_2g(Z) as a word in three generator kinds.

    Every generator is integral, and right multiplication by one is a column
    operation on the blocks of M = (L | R): diag(a, a^-t) sends them to
    (L a, R a^-t), the shear (I S; 0 I) to (L, R + L S), and J to (-R, L).
    So the word is applied over int, verified over int and converted to
    Fraction once.  A sample depends on its seed alone; callers drawing many
    build each on reaching it.

    Degenerate draws (words whose leading g x g block is singular, which would
    park the projected frame outside the open cell) are regenerated by
    extending the word by a shear and J; the result is still an exact
    generator word and is deterministic given the seed.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    rng = random.Random(seed)
    left = [[int(i == j) for j in range(g)] for i in range(2 * g)]
    right = [[int(i == j + g) for j in range(g)] for i in range(2 * g)]

    def apply(kind: str, left: list, right: list) -> tuple[list, list]:
        if kind == "linear":
            a, a_inv_t = _random_unimodular(rng, g)
            return _times(left, a), _times(right, a_inv_t)
        if kind == "shear":
            ls = _times(left, _random_symmetric(rng, g))
            return left, [[x + y for x, y in zip(r, s)] for r, s in zip(right, ls)]
        return [[-x for x in row] for row in right], left

    for _ in range(word_length):
        left, right = apply(rng.choice(("linear", "shear", "swap")), left, right)
    if word_length > 0:
        guard = 0
        while mx.det(left[:g]) == 0:
            # a shear followed by J replaces the leading block by a generic mix
            left, right = apply("swap", *apply("shear", left, right))
            guard += 1
            if guard > 60:
                raise AssertionError("could not regenerate a non-degenerate word")
    return SymplecticSample([lr + rr for lr, rr in zip(left, right)], 1)


def with_multiplier(s: SymplecticSample, mu: Fraction) -> SymplecticSample:
    """Rescale the last g columns by mu; multiplier gets multiplied by mu."""
    mu = Fraction(mu)
    if mu == 0:
        raise ValueError("multiplier must be nonzero")
    g = s.g
    scaled = [
        [x if j < g else mu * x for j, x in enumerate(row)] for row in s.matrix
    ]
    return SymplecticSample(scaled, s.multiplier * mu)


def project_to_V(s: SymplecticSample) -> IsotropicFrame:
    """First g columns of the sample.  The frame is exactly isotropic: its
    defect Y^t Z - Z^t Y is the top-left block of M^t J M = mu J, which the
    sample checked when it was built."""
    g = s.g
    return IsotropicFrame(mx.freeze([row[:g] for row in s.matrix]))


def pairing(u, v) -> Scalar:
    """<u, v> = u^t J v for column vectors of length 2g given as flat
    sequences, J = [[0, I], [-I, 0]]."""
    g = len(u) // 2
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))
