"""Exact arithmetic foundation: rationals, polynomials, series, matrices,
real algebraic numbers and linear algebra over Q."""

from .factor import factor_over_rationals, rational_roots
from .matrix import RatMatrix, char_poly, minimal_poly
from .multipoly import MultiPoly, common_monomial_factor, divide_monomial
from .numberfield import field_kernel
from .rationals import Rational, as_rational, outward_decimals, rat_from_str, rat_to_str
from .roots import (
    AlgebraicReal,
    algebraic_cmp,
    algebraic_equal,
    cauchy_root_bound,
    cmp_with_rational,
    count_roots_in,
    isolate_real_roots,
    sturm_chain,
)
from .series import TruncatedSeries, TruncationExhausted, substitute_series, valuation
from .unipoly import UniPoly, poly_from_roots

__all__ = [
    "Rational",
    "as_rational",
    "outward_decimals",
    "rat_from_str",
    "rat_to_str",
    "UniPoly",
    "poly_from_roots",
    "MultiPoly",
    "common_monomial_factor",
    "divide_monomial",
    "TruncatedSeries",
    "TruncationExhausted",
    "substitute_series",
    "valuation",
    "RatMatrix",
    "char_poly",
    "minimal_poly",
    "factor_over_rationals",
    "rational_roots",
    "AlgebraicReal",
    "isolate_real_roots",
    "sturm_chain",
    "count_roots_in",
    "cauchy_root_bound",
    "algebraic_cmp",
    "algebraic_equal",
    "cmp_with_rational",
    "field_kernel",
]
