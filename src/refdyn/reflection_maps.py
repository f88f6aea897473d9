"""Explicit reflection formulas in adapted coordinates, verified symbolically.

For a cubic in adapted coordinates (the reflection point at the first
coordinate vertex, its tangent hyperplane the second coordinate plane) the
reflection is the quadratic map

    (X0 : ... : X5)  ->  (X0*X1 + q, -X1^2, -X1*X2, ..., -X1*X5),

and composing it with itself multiplies every coordinate by -X1^3; the
defining cubic is preserved up to the same factor.  Both identities are
verified by exact symbolic expansion, never numerically.  The -X1^3 scalar
is recorded as-is: maps store their components verbatim, with no content
removed, so the exact identities stay visible.

The triangle charts put the three vertices at coordinate points with
coordinate tangent hyperplanes; each reflection formula then has a single
free slot, a quadric drawn from a fixed monomial support.  `QUADRIC_SLOTS`
is the one table of which component carries each reflection's quadric, and
`MONOMIAL_SUPPORTS` holds each support as sorted index pairs; `monomial_pair`
reads an exponent tuple as such a pair.  `germs` takes all three from here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import MultiPoly

NVARS = 6


def _var(i: int) -> MultiPoly:
    return MultiPoly.variable(i, NVARS)


def _mono(i: int, j: int, coef=1) -> MultiPoly:
    e = [0] * NVARS
    e[i] += 1
    e[j] += 1
    return MultiPoly(NVARS, {tuple(e): coef})


@dataclass(frozen=True)
class AdaptedCubic:
    """Quadratic and cubic adapted-coordinate data; the surface itself is
    X1*X0^2 + X0*q + c = 0 with q, c free of X0."""

    q: MultiPoly
    c: MultiPoly

    def __post_init__(self) -> None:
        if self.q.nvars != NVARS or self.c.nvars != NVARS:
            raise ValueError("adapted forms live in six variables")
        if not self.q.is_homogeneous(2) or not self.c.is_homogeneous(3):
            raise ValueError("q must be a quadratic form and c a cubic form")
        allowed = range(1, NVARS)
        if not self.q.uses_only_vars(allowed) or not self.c.uses_only_vars(allowed):
            raise ValueError("adapted forms must not involve the first variable")

    def cubic_form(self) -> MultiPoly:
        x0, x1 = _var(0), _var(1)
        return x1 * x0 * x0 + x0 * self.q + self.c

    def to_obj(self) -> dict:
        return {"q": self.q.to_obj(), "c": self.c.to_obj()}

    @classmethod
    def from_obj(cls, obj: dict) -> "AdaptedCubic":
        return cls(MultiPoly.from_obj(obj["q"]), MultiPoly.from_obj(obj["c"]))


class ProjectiveMap:
    """Tuple of homogeneous polynomials of a shared degree."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[MultiPoly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a projective map needs components")
        nv = comps[0].nvars
        if any(c.nvars != nv for c in comps):
            raise ValueError("components disagree on variable count")
        if all(c.is_zero() for c in comps):
            raise ValueError("all components are zero")
        degs = {c.total_degree() for c in comps if not c.is_zero()}
        if len(degs) != 1:
            raise ValueError("components must share a degree")
        if any(not c.is_homogeneous() for c in comps):
            raise ValueError("components must be homogeneous")
        self.components = comps

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjectiveMap) and self.components == other.components

    def compose(self, inner: "ProjectiveMap") -> "ProjectiveMap":
        """self after inner, components expanded exactly (no normalization)."""
        if len(inner.components) != self.nvars:
            raise ValueError("composition arity mismatch")
        return ProjectiveMap(
            tuple(c.substitute(inner.components) for c in self.components)
        )

    def __repr__(self) -> str:
        return "ProjectiveMap(" + ", ".join(c.format() for c in self.components) + ")"


def single_reflection_formula(ac: AdaptedCubic) -> ProjectiveMap:
    """The reflection through the adapted base point, verbatim."""
    x0, x1 = _var(0), _var(1)
    comps = [x0 * x1 + ac.q]
    comps.append(-(x1 * x1))
    for j in range(2, NVARS):
        comps.append(-(x1 * _var(j)))
    return ProjectiveMap(comps)


def _scaled_identity_components() -> tuple[MultiPoly, ...]:
    """Components of -X1^3 * (X0 : ... : X5)."""
    x1 = _var(1)
    cube = x1 * x1 * x1
    return tuple(-(cube * _var(j)) for j in range(NVARS))


def verify_preserves_cubic(ac: AdaptedCubic) -> bool:
    """Exact identity F(reflection(X)) = -X1^3 * F(X)."""
    f = ac.cubic_form()
    sigma = single_reflection_formula(ac)
    lhs = f.substitute(sigma.components)
    x1 = _var(1)
    rhs = -(x1 * x1 * x1) * f
    return lhs == rhs


def verify_involution(ac: AdaptedCubic) -> bool:
    """Exact identity reflection(reflection(X)) = -X1^3 * (X0 : ... : X5)."""
    sigma = single_reflection_formula(ac)
    twice = sigma.compose(sigma)
    return twice.components == _scaled_identity_components()


def random_adapted_cubic(seed: int = 0) -> AdaptedCubic:
    """Random small-rational adapted forms, deterministic in the seed."""
    rng = random.Random(f"adapted-cubic-{seed}")

    def coef() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2)))

    q_terms = {}
    c_terms = {}
    for i in range(1, NVARS):
        for j in range(i, NVARS):
            e = [0] * NVARS
            e[i] += 1
            e[j] += 1
            q_terms[tuple(e)] = coef()
            for k in range(j, NVARS):
                e3 = list(e)
                e3[k] += 1
                c_terms[tuple(e3)] = coef()
    return AdaptedCubic(MultiPoly(NVARS, q_terms), MultiPoly(NVARS, c_terms))


# ---------------------------------------------------------------------------
# triangle charts
# ---------------------------------------------------------------------------

# reflection l carries its quadric in component QUADRIC_SLOTS[l] and
# x_l * x_j in every other component j
QUADRIC_SLOTS = (5, 4, 3)

# the quadric's admissible monomials, as sorted index pairs: a head index
# (0, 1, 2) times anything but the slot, plus two more pairs per reflection
MONOMIAL_SUPPORTS: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        sorted(
            {tuple(sorted((a, b))) for a in (0, 1, 2) for b in range(NVARS) if b != slot}
            | extra
        )
    )
    for slot, extra in zip(QUADRIC_SLOTS, ({(3, 4), (0, 5)}, {(3, 5), (1, 4)}, {(4, 5), (2, 3)}))
)


def monomial_pair(exponents: Sequence[int]) -> tuple[int, ...]:
    """The sorted index pair of a quadratic monomial's exponent tuple."""
    return tuple(i for i, e in enumerate(exponents) for _ in range(e))


@dataclass(frozen=True)
class TriangleChart:
    """Coordinates with the three vertices at coordinate points and their
    tangent hyperplanes coordinate planes, plus the three quadric slots."""

    q0: MultiPoly
    q1: MultiPoly
    q2: MultiPoly

    def __post_init__(self) -> None:
        for l, poly in enumerate((self.q0, self.q1, self.q2)):
            if poly.nvars != NVARS or not poly.is_homogeneous(2) or poly.is_zero():
                raise ValueError(f"slot {l} must be a nonzero quadratic form")
            if any(monomial_pair(e) not in MONOMIAL_SUPPORTS[l] for e in poly.terms):
                raise ValueError(f"slot {l} uses monomials outside its support")

    def to_obj(self) -> dict:
        return {"q0": self.q0.to_obj(), "q1": self.q1.to_obj(), "q2": self.q2.to_obj()}

    @classmethod
    def from_obj(cls, obj: dict) -> "TriangleChart":
        return cls(
            MultiPoly.from_obj(obj["q0"]),
            MultiPoly.from_obj(obj["q1"]),
            MultiPoly.from_obj(obj["q2"]),
        )


def random_chart(seed: int = 0) -> TriangleChart:
    """Chart with every admissible support monomial carrying a nonzero small
    rational coefficient (full support guards against accidental degeneracy)."""
    rng = random.Random(f"triangle-chart-{seed}")

    def draw(pairs) -> MultiPoly:
        total = MultiPoly.zero(NVARS)
        for i, j in pairs:
            c = rng.choice([x for x in range(-9, 10) if x])
            total = total + _mono(i, j, c)
        return total

    return TriangleChart(*(draw(p) for p in MONOMIAL_SUPPORTS))

