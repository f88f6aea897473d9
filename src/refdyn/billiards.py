"""Exact pointwise reflection dynamics on a cubic surface over the rationals.

The configuration is a cubic surface in P^3 whose plane section x3 = 0
splits as a line L (cut by x2) and a conic C, with marked rational points
p, q on L, r on C and the two intersection points a, b of L and C.  Every
geometric step is exact:

* `third_intersection` reflects a surface point through another by reading
  the cubic on the joining line: with both points on the cubic, the end
  coefficients of F(y + t*p) vanish and the middle two give the third root.
  Every form is read on a line one way, by `_restriction`.
* `reflect_on_line` handles the degenerate case of reflecting a point of L
  through a point of L (the joining line lies on the surface): the tangent
  plane section splits off a residual conic whose second intersection with
  L is the image.  With P and R the partials dF/dx2 and dF/dx3 restricted
  to L (dF/dx_i for the first x_i in the line form, on another line), that
  image is one Mobius involution of L, which `Configuration` builds once
  from P and R; it does not depend on the reflection center.
* `return_map` is the map the return word induces on L, in closed form:
  the product of two involutions of the line, each built from the two pairs
  of points it swaps; `attractor_analysis` reads off the exact eigenvalue
  ratio.
* `check_configuration` runs the backward orbits of the three marked points,
  checking exact avoidance of the forbidden points at every step, until an
  orbit point on L enters the certified safe radius around the attractor
  (closer to it than every listed bad point), which settles all later times.

Coordinates are reduced at every step, so orbit coordinate heights grow
linearly with the word length and horizons in the hundreds stay cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import (
    MultiPoly, RatMatrix, as_rational, char_poly, outward_decimals, rat_to_str
)

NV = 4  # ambient P^3


class IndeterminacyError(RuntimeError):
    """An orbit step hit an indeterminate or degenerate configuration."""


class ConfigurationError(RuntimeError):
    """No admissible configuration within the sampling budget."""


# ---------------------------------------------------------------------------
# points and hypersurfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(as_rational(c) for c in self.coords)
        if all(c == 0 for c in coords):
            raise ValueError("projective points need a nonzero coordinate")
        lead = next(c for c in coords if c != 0)
        object.__setattr__(self, "coords", tuple(c / lead for c in coords))

    def __iter__(self):
        return iter(self.coords)

    def to_obj(self) -> list[str]:
        return [rat_to_str(c) for c in self.coords]

    def __repr__(self) -> str:
        return "(" + " : ".join(rat_to_str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class CubicHypersurface:
    form: MultiPoly
    _gradient: tuple[MultiPoly, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.form.is_zero() or not self.form.is_homogeneous(3):
            raise ValueError("the form must be a nonzero homogeneous cubic")
        object.__setattr__(self, "_gradient", tuple(self.form.gradient()))

    def contains(self, pt: RationalPoint) -> bool:
        return self.form(pt.coords) == 0

    def gradient_at(self, pt: RationalPoint) -> tuple[Fraction, ...]:
        return tuple(g(pt.coords) for g in self._gradient)


def _restriction(f: MultiPoly, k: int, y: Sequence, d: Sequence) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_k of f(y + t*d) for a form f of degree k = 2 or 3.

    The ends are c_0 = f(y) and c_k = f(d), and f(y + d) is the sum of all
    coefficients.  A cubic also needs f(y - d), the alternating sum: half the
    sum and difference of the two split off the even part c_0 + c_2 and the
    odd part c_1 + c_3.  The caller passes k, because a zero form (a partial
    that vanishes) has no degree of its own.
    """
    base, top = f(y), f(d)
    plus = f(tuple(a + b for a, b in zip(y, d)))
    if k == 2:
        return base, plus - base - top, top
    minus = f(tuple(a - b for a, b in zip(y, d)))
    even, odd = (plus + minus) / 2, (plus - minus) / 2
    return base, odd - top, even - base, top


def third_intersection(
    x: CubicHypersurface, p: RationalPoint, y: RationalPoint
) -> RationalPoint:
    """Third point of the line through p and y on the cubic.

    Write F(y + t*p) = c0 + c1*t + c2*t^2 + c3*t^3.  The ends c0 = F(y) and
    c3 = F(p) vanish exactly when both points lie on the cubic, and then
    F(y + t*p) = t*(c1 + c2*t): the third root is t = -c1/c2, the point
    c2*y - c1*p, on the cubic by construction.  That point is never zero,
    because two distinct normalized points are independent.  A tangency at
    y (c1 = 0) returns y itself; c1 = c2 = 0 means the whole line lies on
    the cubic.
    """
    if p == y:
        raise IndeterminacyError("reflection point equals the moving point")
    c0, c1, c2, c3 = _restriction(x.form, 3, y.coords, p.coords)
    if c0 or c3:
        raise ValueError("both points must lie on the hypersurface")
    if c1 == 0 and c2 == 0:
        raise IndeterminacyError("the joining line lies on the cubic")
    return RationalPoint(tuple(c2 * yi - c1 * pi for yi, pi in zip(y.coords, p.coords)))


def tangent_third_point(
    x: CubicHypersurface, p: RationalPoint, direction: Sequence
) -> RationalPoint:
    """Third intersection of a tangent line at p: the line p + t*d for a
    tangent direction d meets the cubic doubly at p and once more at a
    rational point.  Useful for generating rational surface points.

    Write F(p + t*d) = c0 + c1*t + c2*t^2 + c3*t^3: p lies on the cubic
    when c0 = 0, and d is tangent there when c1 = grad F(p).d = 0.  Then
    F(p + t*d) = t^2*(c2 + c3*t), and the third point is c3*p - c2*d.
    """
    d = tuple(as_rational(c) for c in direction)
    c0, c1, c2, c3 = _restriction(x.form, 3, p.coords, d)
    if c0:
        raise ValueError("the base point must lie on the cubic")
    if c1:
        raise ValueError("direction is not tangent at the base point")
    if c3 == 0:
        raise IndeterminacyError("tangent direction lies on the cubic")
    if c2 == 0:
        raise IndeterminacyError("triple contact: the third point is p itself")
    return RationalPoint(tuple(c3 * pi - c2 * di for pi, di in zip(p.coords, d)))


# ---------------------------------------------------------------------------
# the marked configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    surface: CubicHypersurface
    plane_form: MultiPoly  # cuts the marked plane (x3)
    line_form: MultiPoly  # cuts L inside the plane (x2)
    conic_form: MultiPoly  # the residual conic on the plane
    line_span: tuple[RationalPoint, RationalPoint]
    p: RationalPoint
    q: RationalPoint
    r: RationalPoint
    a: RationalPoint
    b: RationalPoint
    seed: int = -1
    # (i, j, det): the first nonzero 2x2 minor of line_span
    _minor: tuple[int, int, Fraction] = field(init=False, repr=False, compare=False)
    # the partials (P, R) of the surface that reflect_on_line reads on L
    _normals: tuple[MultiPoly, MultiPoly] = field(init=False, repr=False, compare=False)
    # the involution of L as a 2x2 matrix in row order (see reflect_on_line)
    _involution: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = self.surface.form
        s0, s1 = self.line_span
        if not (self.on_line(s0) and self.on_line(s1)):
            raise ValueError("the line_span points must lie on L")
        if s0 == s1:
            raise ValueError("the line_span points must be distinct")
        # F(s0 + t*s1) is the zero cubic exactly when F vanishes on all of L
        if any(_restriction(f, 3, s0.coords, s1.coords)):
            raise ValueError("the surface must contain L")
        # the plane section, and R = dF/dx3 below, are read at x3 = 0
        if set(self.plane_form.terms) != {(0, 0, 0, 1)}:
            raise ValueError(
                f"the marked plane must be x3 = 0, not {self.plane_form.format()} = 0"
            )
        # the plane section must split exactly as line times conic
        if f.set_variable(3, 0) != self.line_form * self.conic_form:
            raise ValueError("plane section does not split as line * conic")
        for name in ("p", "q", "a", "b"):
            if not self.on_line(getattr(self, name)):
                raise ValueError(f"point {name} must lie on L")
        for name in ("r", "a", "b"):
            if self.conic_form(getattr(self, name).coords) != 0:
                raise ValueError(f"point {name} must lie on C")
        if self.on_line(self.r):
            raise ValueError("r must lie on C away from L")
        for name in ("p", "q", "r"):
            pt = getattr(self, name)
            if pt == self.a or pt == self.b:
                raise ValueError(f"point {name} coincides with an intersection point")
        if self.a == self.b:
            raise ValueError("the line must meet the conic in two distinct points")
        s0, s1 = s0.coords, s1.coords
        pairs = ((i, j) for i in range(NV) for j in range(i + 1, NV))
        minors = ((i, j, s0[i] * s1[j] - s0[j] * s1[i]) for i, j in pairs)
        object.__setattr__(self, "_minor", next(m for m in minors if m[2]))
        # P = dF/dx_i for the first x_i (i < 3) in line_form, R = dF/dx3:
        # on L the gradient of F is normal to L, so the tangent plane at x
        # holds w = -R(x)*e_i + P(x)*e3, which leaves L
        i = next(k for k in range(3) if any(e[k] for e in self.line_form.terms))
        normals = (self.surface._gradient[i], self.surface._gradient[3])
        object.__setattr__(self, "_normals", normals)
        # P, R as binary quadratics c0 u^2 + c1 uv + c2 v^2 in (u, v)
        (p0, p1, p2), (r0, r1, r2) = (_restriction(d, 2, s0, s1) for d in normals)
        iota = (p0 * r2 - p2 * r0, p1 * r2 - p2 * r1, p1 * r0 - p0 * r1, p2 * r0 - p0 * r2)
        object.__setattr__(self, "_involution", iota)

    def on_plane(self, pt: RationalPoint) -> bool:
        return self.plane_form(pt.coords) == 0

    def on_line(self, pt: RationalPoint) -> bool:
        return self.on_plane(pt) and self.line_form(pt.coords) == 0

    def on_conic(self, pt: RationalPoint) -> bool:
        return self.on_plane(pt) and self.conic_form(pt.coords) == 0

    def reflection_point(self, name: str) -> RationalPoint:
        if name not in ("p", "q", "r"):
            raise ValueError("reflection names are 'p', 'q', 'r'")
        return getattr(self, name)

    def line_parameter(self, pt: RationalPoint) -> tuple[Fraction, Fraction]:
        """Coordinates (u, v) with pt = u*s0 + v*s1 on the spanning points."""
        s0, s1 = (s.coords for s in self.line_span)
        i, j, det = self._minor
        x = pt.coords
        u = (x[i] * s1[j] - x[j] * s1[i]) / det
        v = (s0[i] * x[j] - s0[j] * x[i]) / det
        # solved on two coordinates, so a point of L is matched exactly
        if tuple(u * a + v * b for a, b in zip(s0, s1)) != x:
            raise ValueError("point is not on the line")
        return u, v

    def point_from_parameter(self, u, v) -> RationalPoint:
        u, v = as_rational(u), as_rational(v)
        s0, s1 = self.line_span
        return RationalPoint(tuple(u * x + v * y for x, y in zip(s0.coords, s1.coords)))

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "surface": self.surface.form.to_obj(),
            "plane_form": self.plane_form.to_obj(),
            "line_form": self.line_form.to_obj(),
            "conic_form": self.conic_form.to_obj(),
            "line_span": [s.to_obj() for s in self.line_span],
            "points": {
                name: getattr(self, name).to_obj()
                for name in ("p", "q", "r", "a", "b")
            },
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Configuration":
        pts = {k: RationalPoint(tuple(as_rational(c) for c in v)) for k, v in obj["points"].items()}
        return cls(
            surface=CubicHypersurface(MultiPoly.from_obj(obj["surface"])),
            plane_form=MultiPoly.from_obj(obj["plane_form"]),
            line_form=MultiPoly.from_obj(obj["line_form"]),
            conic_form=MultiPoly.from_obj(obj["conic_form"]),
            line_span=tuple(
                RationalPoint(tuple(as_rational(c) for c in s)) for s in obj["line_span"]
            ),
            seed=obj.get("seed", -1),
            **pts,
        )


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    from math import isqrt

    s = isqrt(n)
    return s if s * s == n else None


def _monomial(i: int, j: int) -> tuple[int, ...]:
    """Exponents of x_i * x_j."""
    return tuple(int(k == i) + int(k == j) for k in range(NV))


def _random_quadric(rng: random.Random, n: int) -> MultiPoly:
    """A quadric in x_0..x_(n-1), coefficients drawn from -3..3 in (i, j) order."""
    return MultiPoly(
        NV, {_monomial(i, j): rng.randint(-3, 3) for i in range(n) for j in range(i, n)}
    )


def _conic_gram(conic: MultiPoly) -> list[list[Fraction]]:
    """Doubled symmetric Gram matrix of a plane conic in the first three
    variables (doubling keeps integer conics integral)."""
    return [
        [(2 if i == j else 1) * conic.terms.get(_monomial(i, j), Fraction(0)) for j in range(3)]
        for i in range(3)
    ]


def build_configuration(seed: int, budget: int = 400) -> Configuration:
    """Sample a configuration deterministically from the seed.

    The surface is x2*c + x3*Q with c a random plane conic and Q a random
    quadric; candidates are resampled until the line x2 = x3 = 0 meets the
    conic in two distinct rational points, the conic is irreducible, the
    marked points are pairwise admissible and the surface is smooth at all
    of them.
    """
    rng = random.Random(f"configuration-{seed}")
    e0 = RationalPoint((1, 0, 0, 0))
    e1 = RationalPoint((0, 1, 0, 0))
    for _ in range(budget):
        conic = _random_quadric(rng, 3)
        # restriction of the conic to L: A u^2 + B uv + C v^2
        big_a, big_b, big_c = _restriction(conic, 2, e0.coords, e1.coords)
        if big_a == 0:
            continue
        disc = int(big_b * big_b - 4 * big_a * big_c)
        s = _isqrt_exact(disc)
        if s is None or s == 0:
            continue
        a = RationalPoint((-big_b + s, 2 * big_a, 0, 0))
        b = RationalPoint((-big_b - s, 2 * big_a, 0, 0))
        # conic irreducibility: det of the symmetric Gram matrix, -char_poly(0)
        if char_poly(RatMatrix(_conic_gram(conic))).coeff(0) == 0:
            continue
        quad = _random_quadric(rng, NV)
        if quad(a.coords) == 0 or quad(b.coords) == 0:
            continue  # the surface would be singular at a or b
        x2 = MultiPoly.variable(2, NV)
        x3 = MultiPoly.variable(3, NV)
        form = x2 * conic + x3 * quad
        p = RationalPoint((1, rng.randint(-5, 5), 0, 0))
        q_pt = RationalPoint((1, rng.randint(-5, 5), 0, 0))
        # rational point of the conic through a random secant direction at a
        d = (rng.randint(-4, 4), rng.randint(-4, 4), rng.choice((1, 2, 3)), 0)
        _, pol, cd = _restriction(conic, 2, a.coords, d)
        if cd == 0:
            continue
        r = RationalPoint(tuple(cd * ai - pol * di for ai, di in zip(a.coords, d)))
        if r.coords[2] == 0:
            continue  # r fell on L
        distinct = {p, q_pt} & {a, b} == set() and r not in (a, b) and p != q_pt
        if not distinct:
            continue
        try:
            cfg = Configuration(
                surface=CubicHypersurface(form),
                plane_form=x3,
                line_form=x2,
                conic_form=conic,
                line_span=(e0, e1),
                p=p,
                q=q_pt,
                r=r,
                a=a,
                b=b,
                seed=seed,
            )
        except ValueError:
            continue
        # smoothness at the marked points
        if any(
            all(g == 0 for g in cfg.surface.gradient_at(pt))
            for pt in (p, q_pt, r, a, b)
        ):
            continue
        return cfg
    raise ConfigurationError(f"no admissible configuration for seed {seed}")


# ---------------------------------------------------------------------------
# reflections on the surface
# ---------------------------------------------------------------------------


def reflect_on_line(cfg: Configuration, x: RationalPoint) -> RationalPoint:
    """Image of a point of L under reflection through any point of L.

    The tangent plane section at x splits off L; the residual conic meets L
    at x and exactly one other point, which is the image.  The answer does
    not depend on the reflection center, and exchanges the two intersection
    points of L with the conic C.

    Let P = (p0, p1, p2) and R = (r0, r1, r2) be dF/dx_i and dF/dx3 on L as
    binary quadratics in the span coordinates (u, v), where x_i is the first
    of x0, x1, x2 in the line form (x2 for L = {x2 = x3 = 0}).  The tangent
    plane at x is spanned by L and w = -R(x)*e_i + P(x)*e3; for y on L,
    F(y + t*w) = t*(P(x)*R(y) - R(x)*P(y)) + O(t^2), so the residual conic
    cuts L where that quadratic in y vanishes.  Being antisymmetric in x
    and y, it is (x cross y) times a symmetric bilinear form, and its second
    root is y = iota*x for the matrix fixed by the configuration

        iota = [[p0*r2 - p2*r0, p1*r2 - p2*r1], [p1*r0 - p0*r1, p2*r0 - p0*r2]]

    with trace 0 and det iota = -Res(P, R), so iota^2 is scalar.  iota*x = 0
    only when P(x) = R(x) = 0 or P and R are parallel (iota = 0); the
    gradient at x then tells the failures apart.
    """
    u, v = cfg.line_parameter(x)
    i00, i01, i10, i11 = cfg._involution
    image = (i00 * u + i01 * v, i10 * u + i11 * v)
    if image != (0, 0):
        return cfg.point_from_parameter(*image)
    if any(d(x.coords) for d in cfg._normals):
        raise IndeterminacyError("residual conic contains L (degenerate tangency)")
    if all(g == 0 for g in cfg.surface.gradient_at(x)):
        raise IndeterminacyError("surface is singular at the point")
    raise IndeterminacyError("tangent plane is spanned by L directions only")


def apply_reflection(cfg: Configuration, name: str, x: RationalPoint) -> RationalPoint:
    """One reflection step with the degenerate case routed automatically."""
    center = cfg.reflection_point(name)
    if x == center:
        raise IndeterminacyError(f"moving point equals the reflection point {name}")
    if name in ("p", "q") and cfg.on_line(x):
        return reflect_on_line(cfg, x)
    return third_intersection(cfg.surface, center, x)


def orbit_points(
    cfg: Configuration, start: RationalPoint, word: str
) -> list[RationalPoint]:
    """start and its successive images; word letters are applied left to
    right (the first letter is the first reflection applied)."""
    pts = [start]
    cur = start
    for ch in word:
        cur = apply_reflection(cfg, ch, cur)
        pts.append(cur)
    return pts


# the return word to L: one backward cycle of the three reflections twice,
# in application order
RETURN_WORD = "rqprqp"


# ---------------------------------------------------------------------------
# the induced projective-line map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobiusMap:
    matrix: RatMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if (m.rows, m.cols) != (2, 2):
            raise ValueError("a line map is a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det == 0:
            raise ValueError("line map must be invertible")
        # normalize: first nonzero entry is one
        flat = [m[0, 0], m[0, 1], m[1, 0], m[1, 1]]
        lead = next(x for x in flat if x)
        if lead != 1:
            object.__setattr__(self, "matrix", m.scale(1 / lead))

    def apply(self, u, v) -> tuple[Fraction, Fraction]:
        u, v = as_rational(u), as_rational(v)
        m = self.matrix
        w = (m[0, 0] * u + m[0, 1] * v, m[1, 0] * u + m[1, 1] * v)
        if w[0] == 0 and w[1] == 0:
            raise AssertionError("invertible map sent a point to zero")
        lead = w[0] if w[0] != 0 else w[1]
        return w[0] / lead, w[1] / lead

    def fixes(self, u, v) -> bool:
        u, v = as_rational(u), as_rational(v)
        w = self.apply(u, v)
        return u * w[1] - v * w[0] == 0

    def eigenvalue_at(self, u, v) -> Fraction:
        """Eigenvalue on a rational fixed point (u : v)."""
        u, v = as_rational(u), as_rational(v)
        if not self.fixes(u, v):
            raise ValueError("not a fixed point")
        m = self.matrix
        if u != 0:
            return (m[0, 0] * u + m[0, 1] * v) / u
        return (m[1, 0] * u + m[1, 1] * v) / v

    def to_obj(self) -> list[list[str]]:
        m = self.matrix
        return [[rat_to_str(m[i, j]) for j in range(2)] for i in range(2)]


def _tangent_foot(cfg: Configuration) -> RationalPoint:
    """rr: where the conic's tangent line at r meets L.

    The tangent line is grad C(r) . y = 0 in the plane, so on the span
    (s0, s1) of L it is rr = (grad C(r) . s1) * s0 - (grad C(r) . s0) * s1.
    """
    grad = [g(cfg.r.coords) for g in cfg.conic_form.gradient()]
    s0, s1 = (s.coords for s in cfg.line_span)
    d0, d1 = (sum(g * c for g, c in zip(grad, s)) for s in (s0, s1))
    if d0 == 0 and d1 == 0:
        raise IndeterminacyError("conic tangent line at r misses L")
    return RationalPoint(tuple(d1 * a - d0 * b for a, b in zip(s0, s1)))


def _swapping(cfg: Configuration, *pairs: tuple[RationalPoint, RationalPoint]) -> RatMatrix:
    """The involution of L's parameters that swaps each of two pairs of points.

    It swaps x and y exactly when K(x, y) = 0 for one symmetric bilinear form
    K = [[k0, k1], [k1, k2]]: (k0, k1, k2) is orthogonal to the row
    (x0*y0, x0*y1 + x1*y0, x1*y1) of each pair, so it is their cross product.
    The partner of t is then J*K*t with J = [[0, 1], [-1, 0]].
    """
    rows = []
    for x, y in pairs:
        (x0, x1), (y0, y1) = cfg.line_parameter(x), cfg.line_parameter(y)
        rows.append((x0 * y0, x0 * y1 + x1 * y0, x1 * y1))
    (a0, a1, a2), (b0, b1, b2) = rows
    k0, k1, k2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return RatMatrix([[k1, k2], [-k0, -k1]])


def return_map(cfg: Configuration) -> MobiusMap:
    """The projective-line map that RETURN_WORD induces on L, in closed form.

    Give a point of C the parameter of the point of L on its line through r;
    reflecting through r keeps the parameter.  Reflecting a point of C
    through q (on L) is the involution S_q of the parameters that swaps a and
    b and swaps q with rr, where the tangent to C at r meets L; S_p likewise.
    On L both p and q reflect by iota, so the word is iota^2 * S_p * S_q
    (S_q first), and iota^2 = -det(iota) is scalar: the map is S_p * S_q.
    det(iota) = -Res(P, R) vanishes exactly when the surface is singular on
    L, and then no orbit of the word completes.
    """
    i00, i01, i10, i11 = cfg._involution
    if i00 * i11 - i01 * i10 == 0:
        raise IndeterminacyError("surface is singular on L")
    rr = _tangent_foot(cfg)
    s_p, s_q = (_swapping(cfg, (cfg.a, cfg.b), (x, rr)) for x in (cfg.p, cfg.q))
    return MobiusMap(s_p * s_q)


def attractor_analysis(m: MobiusMap, a_param, b_param) -> dict:
    """Exact eigenvalue data of the line map at its two fixed points.

    Reports which fixed point attracts forward iteration (the one whose
    complementary eigenvalue dominates), or that neither does when the
    eigenvalue moduli tie.
    """
    au, av = (as_rational(x) for x in a_param)
    bu, bv = (as_rational(x) for x in b_param)
    if not m.fixes(au, av) or not m.fixes(bu, bv):
        raise ValueError("both reference points must be fixed by the map")
    if au * bv - av * bu == 0:
        raise ValueError("fixed points must be distinct (diagonalizable map)")
    mu_a = m.eigenvalue_at(au, av)
    mu_b = m.eigenvalue_at(bu, bv)
    # in the chart where b is the origin and a the infinity, the map is
    # z -> (mu_a / mu_b) z, so |mu_a| < |mu_b| makes b the attractor
    ratio = mu_a / mu_b
    if abs(mu_a) < abs(mu_b):
        attractor = "b"
    elif abs(mu_b) < abs(mu_a):
        attractor = "a"
    else:
        attractor = None
    return {
        "eigenvalue_at_a": rat_to_str(mu_a),
        "eigenvalue_at_b": rat_to_str(mu_b),
        "ratio": rat_to_str(ratio),
        "distinct_moduli": attractor is not None,
        "attractor": attractor,
    }


# ---------------------------------------------------------------------------
# forbidden points and the safe-radius certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BadPointSet:
    points: tuple[RationalPoint, ...]
    collisions: tuple[str, ...] = ()
    # residual_second_points of the configuration, kept for the orbit checks
    partners: tuple[RationalPoint, ...] = field(default=(), compare=False)

    def to_obj(self) -> dict:
        return {
            "points": [pt.to_obj() for pt in self.points],
            "collisions": list(self.collisions),
        }


def residual_second_points(cfg: Configuration) -> tuple[RationalPoint, ...]:
    """For each marked reflection point, the second point its tangent
    section cuts on L: for p and q the residual conic's other intersection
    with L, for r the intersection of the conic's tangent line at r with L."""
    return reflect_on_line(cfg, cfg.p), reflect_on_line(cfg, cfg.q), _tangent_foot(cfg)



# words pushing each marked point and its residual partner to the common
# comparison position on L (application order, leftmost first)
_BAD_POINT_WORDS = ("qrpqr", "qrpqr", "rpqr", "rpqr", "pqr", "")


def bad_points(cfg: Configuration) -> BadPointSet:
    """The six forbidden comparison points on L.

    Collisions (coincidences among the images, or with the marked points)
    are reported, not assumed away.
    """
    pp, qq, rr = residual_second_points(cfg)
    sources = (cfg.p, pp, cfg.q, qq, cfg.r, rr)
    images = []
    for src, word in zip(sources, _BAD_POINT_WORDS):
        img = orbit_points(cfg, src, word)[-1] if word else src
        if not cfg.on_line(img):
            raise AssertionError("bad point landed off L")
        images.append(img)
    collisions = []
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] == images[j]:
                collisions.append(f"bad[{i}] == bad[{j}]")
    for i, img in enumerate(images):
        if img in (cfg.a, cfg.b):
            collisions.append(f"bad[{i}] coincides with an intersection point")
    return BadPointSet(tuple(images), tuple(collisions), (pp, qq, rr))


def _chart_value(
    cfg: Configuration, ends: tuple[tuple[Fraction, Fraction], ...], pt: RationalPoint
) -> Fraction | None:
    """Affine coordinate on L sending the parameters ends[0] to 0 and
    ends[1] to infinity; None when pt is the infinity point."""
    (ou, ov), (iu, iv) = ends
    u, v = cfg.line_parameter(pt)
    num = u * ov - v * ou
    den = u * iv - v * iu
    if den == 0:
        return None
    return num / den


def check_configuration(
    cfg: Configuration, horizon: int = 300, precision: int = 12
) -> dict:
    """Backward-orbit avoidance certificate for the three marked points.

    Runs x_k = sigma_k(x_{k+1}) downward from each marked point, checking at
    every step that x_k differs exactly from the next reflection point and
    from its residual partner; the run for one start succeeds once an orbit
    point on L at a position divisible by three lies strictly closer to the
    attractor than every bad point (distances in the affine chart putting
    the attractor at the origin, compared exactly; the report carries
    decimal enclosures at the requested precision).
    """
    phi = return_map(cfg)
    a_par = cfg.line_parameter(cfg.a)
    b_par = cfg.line_parameter(cfg.b)
    analysis = attractor_analysis(phi, a_par, b_par)
    report: dict = {
        "word": RETURN_WORD,
        "attractor_analysis": analysis,
        "horizon": horizon,
    }
    if not analysis["distinct_moduli"]:
        report["status"] = "no-attractor"
        return report
    ends = (b_par, a_par) if analysis["attractor"] == "b" else (a_par, b_par)
    bads = bad_points(cfg)
    report["bad_points"] = bads.to_obj()
    radii = []
    for pt in bads.points:
        z = _chart_value(cfg, ends, pt)
        if z is None:
            raise IndeterminacyError("a bad point sits at the chart infinity")
        if z == 0:
            report["status"] = "bad-point-at-attractor"
            return report
        radii.append(abs(z))
    safe_radius = min(radii)
    report["safe_radius_enclosure"] = outward_decimals(
        safe_radius, safe_radius, precision + 1
    )

    partners = bads.partners
    marked = (cfg.p, cfg.q, cfg.r)
    names = ("p", "q", "r")
    starts = {}
    for i in (0, 1, 2):
        cur = marked[i]
        k = i
        entry: dict = {"start": names[i]}
        while k > i - horizon:
            nxt_name = names[(k - 1) % 3]
            try:
                cur = apply_reflection(cfg, nxt_name, cur)
            except IndeterminacyError as exc:
                entry["status"] = "indeterminate"
                entry["detail"] = str(exc)
                entry["at_position"] = k - 1
                break
            k -= 1
            forbidden_idx = (k - 1) % 3
            if cur == marked[forbidden_idx] or cur == partners[forbidden_idx]:
                entry["status"] = "collision"
                entry["at_position"] = k
                break
            if k % 3 == 0 and cfg.on_line(cur):
                z = _chart_value(cfg, ends, cur)
                if z is not None and abs(z) < safe_radius:
                    entry["status"] = "safe"
                    entry["k0"] = k
                    entry["k0_mod_3"] = k % 3
                    entry["distance_enclosure"] = outward_decimals(
                        abs(z), abs(z), precision + 1
                    )
                    break
        else:
            entry["status"] = "inconclusive"
        starts[names[i]] = entry
    report["starts"] = starts
    all_safe = all(e["status"] == "safe" for e in starts.values())
    report["status"] = "success" if all_safe else "failed"
    return report
