"""refdyn: exact-arithmetic dynamical degrees of reflection compositions on
cubic hypersurfaces, with certificates instead of floating point."""

from .billiards import build_configuration, check_configuration, return_map
from .core import AlgebraicReal, MultiPoly, RatMatrix, UniPoly
from .elliptic import avoidance_check, avoidance_proof, first_return_word
from .germs import series_evolve, valuation_step, verify_minimal_pairs
from .picard import degree_tuple_generic, single_reflection_action, two_point_action
from .transitions import (
    DegreeTuple,
    StateVector,
    TransitionSystem,
    check_log_concavity,
    conic_line_matrix,
    degree_tuple,
    dominant_growth,
    triangle_system,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicReal",
    "MultiPoly",
    "RatMatrix",
    "UniPoly",
    "DegreeTuple",
    "StateVector",
    "TransitionSystem",
    "avoidance_check",
    "avoidance_proof",
    "build_configuration",
    "check_configuration",
    "check_log_concavity",
    "conic_line_matrix",
    "degree_tuple",
    "degree_tuple_generic",
    "dominant_growth",
    "first_return_word",
    "return_map",
    "series_evolve",
    "single_reflection_action",
    "triangle_system",
    "two_point_action",
    "valuation_step",
    "verify_minimal_pairs",
]
