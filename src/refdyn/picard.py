"""Divisor-class actions of point reflections on blow-up models.

Two exact integer matrices are the whole story here: the involution action of
a single reflection on the rank-3 lattice spanned by the hyperplane class and
the two exceptional classes of its resolution, and the unipotent action of a
two-point composition on the rank-4 lattice of the three-point blow-up.
Actions act on column vectors of divisor-class coordinates: "H maps to
2H - 3P" is read as the column (2, -3, ...) under the basis (H, P, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import AlgebraicReal, RatMatrix


@dataclass(frozen=True)
class PicardBasis:
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be pairwise distinct")


@dataclass(frozen=True)
class PicardAction:
    basis: PicardBasis
    matrix: RatMatrix

    def __post_init__(self) -> None:
        if not self.matrix.is_square():
            raise ValueError("action matrix must be square")
        if self.matrix.rows != len(self.basis.labels):
            raise ValueError("matrix dimension must match basis length")
        if not self.matrix.is_integer():
            raise ValueError("lattice action must have integer entries")


def single_reflection_action() -> PicardAction:
    """Action of one reflection on the basis (H~, E~(p), F~(p))."""
    basis = PicardBasis(("H~", "E~(p)", "F~(p)"))
    matrix = RatMatrix([[2, 1, 0], [-3, -2, 0], [-1, -1, 1]])
    return PicardAction(basis, matrix)


def two_point_action() -> PicardAction:
    """Action of a two-reflection composition on the basis (H, P, Q, R)."""
    basis = PicardBasis(("H", "P", "Q", "R"))
    matrix = RatMatrix([[4, 2, 0, 1], [0, 0, 1, 0], [-6, -3, 0, -2], [-3, -2, 0, 0]])
    return PicardAction(basis, matrix)


def compose(a: PicardAction, b: PicardAction) -> PicardAction:
    """Action of a-after-b on the shared basis."""
    if a.basis != b.basis:
        raise ValueError("cannot compose actions over different bases")
    return PicardAction(a.basis, a.matrix * b.matrix)


def degree_tuple_generic(n: int) -> tuple[AlgebraicReal, AlgebraicReal, AlgebraicReal]:
    """Middle degree triple for a composition of n reflections in general
    position: (1, 1, 1) for n <= 2 (finite order / unipotent lattice action),
    (2^n, 2^n, 2^n) for n >= 3 (degree doubling once every indeterminacy
    contribution is generically avoided; that the formal orbits never meet
    an indeterminacy point is proved for all time by
    :func:`refdyn.elliptic.avoidance_proof`)."""
    if n < 1:
        raise ValueError("need at least one reflection")
    value = Fraction(1) if n <= 2 else Fraction(2**n)
    v = AlgebraicReal.from_rational(value)
    return (v, v, v)
