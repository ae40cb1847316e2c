"""Exact arithmetic for period relations.

A desk-scale toolkit around three pieces of exact machinery: the ideal of
trivial relations between period-matrix blocks (generators, radicality
certificate, membership), constructors and verifiers for period-relation
polynomials built from endomorphism data, and truncated power series with
per-place radius bookkeeping.
"""

__version__ = "0.1.0"

from .scalars import Place, QuadScalar, Rational, ScalarError, abs_at_place, conjugate, valuation
from .series import (
    TruncatedSeries,
    compose,
    compositional_inverse,
    eval_with_tail_bound,
    globally_bounded_scan,
    radius_lower_bound,
)
from .polyalg import (
    Monomial,
    MultiPoly,
    ResourceCapExceeded,
    VarId,
    adjugate,
    determinant,
    groebner_basis,
    ideal_remainder,
)
from .symplectic import (
    IsotropicFrame,
    SymplecticSample,
    complete_to_symplectic_basis,
    project_to_V,
    sample_symplectic,
    with_multiplier,
)
from .trivial_ideal import (
    MembershipVerdict,
    TrivialIdeal,
    generators,
    jacobian_rank_at,
    membership,
    radicality_certificate,
    row_permutation_test,
)
from .relations import (
    Case3Input,
    EndomorphismAction,
    RelationCertificate,
    SyntheticPeriodData,
    assemble_global_relation,
    build_case3_relation,
    build_nonarch_certificate,
    build_nonarch_relation,
    select_nontrivial_entry,
    synthesize_period_data,
    verify_relation_on_data,
)
from .gfun import GaussManinCoefficients, GFunMatrix, check_period_equation, compute_radii, derive_G
