"""Exact arithmetic for period relations.

A desk-scale toolkit around three pieces of exact machinery: the ideal of
trivial relations between period-matrix blocks (generators, radicality
certificate, membership), constructors and verifiers for period-relation
polynomials built from endomorphism data, and truncated power series with
per-place radius bookkeeping.
"""

__version__ = "0.1.0"
