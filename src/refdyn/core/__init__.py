"""Exact arithmetic foundation: rationals, polynomials, series, matrices,
real algebraic numbers and linear algebra over Q."""

from .factor import factor_over_rationals
from .matrix import RatMatrix, char_poly, minimal_poly
from .multipoly import MultiPoly
from .numberfield import field_kernel
from .rationals import Rational, as_rational, outward_decimals, rat_from_str, rat_to_str
from .roots import (
    AlgebraicReal,
    algebraic_cmp,
    algebraic_equal,
    cauchy_root_bound,
    cmp_with_rational,
    isolate_real_roots,
    sturm_chain,
)
from .series import TruncatedSeries, TruncationExhausted, substitute_series, valuation
from .unipoly import UniPoly

__all__ = [
    "Rational",
    "as_rational",
    "outward_decimals",
    "rat_from_str",
    "rat_to_str",
    "UniPoly",
    "MultiPoly",
    "TruncatedSeries",
    "TruncationExhausted",
    "substitute_series",
    "valuation",
    "RatMatrix",
    "char_poly",
    "minimal_poly",
    "factor_over_rationals",
    "AlgebraicReal",
    "isolate_real_roots",
    "sturm_chain",
    "cauchy_root_bound",
    "algebraic_cmp",
    "algebraic_equal",
    "cmp_with_rational",
    "field_kernel",
]
