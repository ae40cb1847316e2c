"""Seeded inputs and predicted values that only the tests use."""

import random
from fractions import Fraction

from periodrel import matrices as mx
from periodrel.gfun import GaussManinCoefficients
from periodrel.relations import EndomorphismAction, SelectedEntry, sylvester_solvable
from periodrel.series import TruncatedSeries


def random_action(g: int, seed: int, lo: int = -3, hi: int = 3, solvable: bool = False) -> EndomorphismAction:
    """Random non-scalar action with small integer entries (deterministic).

    With ``solvable`` the draw is repeated until the synthetic-period
    Sylvester system is nonsingular.
    """
    rng = random.Random(seed)
    while True:
        make = lambda: mx.freeze([[Fraction(rng.randint(lo, hi)) for _ in range(g)] for _ in range(g)])
        act = EndomorphismAction(g, make(), make(), make())
        if act.is_scalar():
            continue
        if solvable and not sylvester_solvable(act):
            continue
        return act


def expected_witness_value(act: EndomorphismAction, entry: SelectedEntry):
    """The case table's predicted value matrix at the witness."""
    if entry.case == "B_nonzero":
        return mx.scalar_mul(Fraction(-1), act.B)
    if entry.case == "A_ne_D":
        return mx.mat_sub(act.A, act.D)
    z = entry.witness_z
    return mx.mat_sub(mx.mat_mul(act.A, z), mx.mat_mul(z, act.D))


def identity_family(g: int, order: int) -> GaussManinCoefficients:
    """a[i][0][l] = delta_il, no derivative terms: derived matrix = input."""
    series = tuple(
        (tuple(TruncatedSeries.constant(Fraction(int(i == l)), order) for l in range(1, g + 1)),)
        for i in range(1, g + 1)
    )
    return GaussManinCoefficients(g, 0, series, integral=True)
