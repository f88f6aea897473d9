"""Exact pointwise reflection dynamics on a cubic surface over the rationals.

The configuration is a cubic surface in P^3 whose plane section x3 = 0
splits as a line L (cut by x2) and a conic C, with marked rational points
p, q on L, r on C and the two intersection points a, b of L and C.  Every
geometric step is exact:

* `third_intersection` reflects a surface point through another by writing
  the restriction of the cubic to the joining line as a binary cubic and
  reading off the third root by Vieta.
* `reflect_on_line` handles the degenerate case of reflecting a point of L
  through a point of L (the joining line lies on the surface): the tangent
  plane section splits off a residual conic whose second intersection with
  L is the image.  With P and R the partials dF/dx2 and dF/dx3 restricted
  to L, that image is one Mobius involution of L, which `Configuration`
  builds once from P and R; it does not depend on the reflection center.
* `return_map` composes a reflection word on probe points of L, fits the
  induced projective-line map from three probes and certifies it exactly on
  the rest; `attractor_analysis` reads off the exact eigenvalue ratio.
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
    MultiPoly, RatMatrix, as_rational, field_kernel, outward_decimals, rat_to_str
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


def third_intersection(
    x: CubicHypersurface, p: RationalPoint, y: RationalPoint
) -> RationalPoint:
    """Third point of the line through p and y on the cubic.

    With both points on the cubic, F(u*y + t*p) = u*t*(alpha*u + beta*t);
    the third root is beta*y - alpha*p.  A tangency at y (alpha = 0) returns
    y itself; alpha = beta = 0 means the whole line lies on the cubic.
    """
    if p == y:
        raise IndeterminacyError("reflection point equals the moving point")
    if not x.contains(p) or not x.contains(y):
        raise ValueError("both points must lie on the hypersurface")
    f = x.form

    def ev(u: int, t: int) -> Fraction:
        return f(tuple(u * yi + t * pi for yi, pi in zip(y.coords, p.coords)))

    v11 = ev(1, 1)
    v21 = ev(2, 1)
    alpha = (v21 - 2 * v11) / 2
    beta = v11 - alpha
    if alpha == 0 and beta == 0:
        raise IndeterminacyError("the joining line lies on the cubic")
    z = tuple(beta * yi - alpha * pi for yi, pi in zip(y.coords, p.coords))
    if all(c == 0 for c in z):
        raise IndeterminacyError("degenerate third intersection")
    out = RationalPoint(z)
    if not x.contains(out):
        raise AssertionError("third intersection left the hypersurface")
    return out


def tangent_third_point(
    x: CubicHypersurface, p: RationalPoint, direction: Sequence
) -> RationalPoint:
    """Third intersection of a tangent line at p: the line p + t*d for a
    tangent direction d meets the cubic doubly at p and once more at a
    rational point.  Useful for generating rational surface points."""
    d = tuple(as_rational(c) for c in direction)
    grad = x.gradient_at(p)
    if sum(g * di for g, di in zip(grad, d)) != 0:
        raise ValueError("direction is not tangent at the base point")
    f = x.form
    # F(p + t d) = c2 t^2 + c3 t^3 with c3 = F(d)
    c3 = f(d)
    ev1 = f(tuple(pi + di for pi, di in zip(p.coords, d)))
    ev2 = f(tuple(pi + 2 * di for pi, di in zip(p.coords, d)))
    # ev1 = c2 + c3, ev2 = 4 c2 + 8 c3
    c2 = (ev2 - 8 * ev1) / (-4)
    if c3 == 0:
        raise IndeterminacyError("tangent direction lies on the cubic")
    if c2 == 0:
        raise IndeterminacyError("triple contact: the third point is p itself")
    z = tuple(c3 * pi - c2 * di for pi, di in zip(p.coords, d))
    out = RationalPoint(z)
    if not x.contains(out):
        raise AssertionError("tangent third point left the hypersurface")
    return out


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
    # the involution of L as a 2x2 matrix in row order (see reflect_on_line)
    _involution: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = self.surface.form
        # the plane section must split exactly as line times conic
        section = f.set_variable(3, 0)
        if section != self.line_form * self.conic_form:
            raise ValueError("plane section does not split as line * conic")
        s0, s1 = self.line_span
        if not (self.on_line(s0) and self.on_line(s1)):
            raise ValueError("the line_span points must lie on L")
        if s0 == s1:
            raise ValueError("the line_span points must be distinct")
        # a binary cubic with four roots on L vanishes on all of L
        if any(f(tuple(a + k * b for a, b in zip(s0, s1))) for k in range(4)):
            raise ValueError("the surface must contain L")
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
        # P, R as binary quadratics c0 u^2 + c1 uv + c2 v^2, read at s0, s1, s0 + s1
        mid = tuple(x + y for x, y in zip(s0, s1))
        (p0, p1, p2), (r0, r1, r2) = (
            (d(s0), d(mid) - d(s0) - d(s1), d(s1)) for d in self.surface._gradient[2:]
        )
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


def _conic_gram(conic: MultiPoly) -> list[list[Fraction]]:
    """Doubled symmetric Gram matrix of a plane conic in the first three
    variables (doubling keeps integer conics integral)."""

    def coeff(i: int, j: int) -> Fraction:
        e = [0] * NV
        e[i] += 1
        e[j] += 1
        return conic.terms.get(tuple(e), Fraction(0))

    return [
        [2 * coeff(i, j) if i == j else coeff(*sorted((i, j))) for j in range(3)]
        for i in range(3)
    ]


def _det3(m: list[list[Fraction]]) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


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
        c_terms = {}
        for i in range(3):
            for j in range(i, 3):
                e = [0] * NV
                e[i] += 1
                e[j] += 1
                c_terms[tuple(e)] = rng.randint(-3, 3)
        conic = MultiPoly(NV, c_terms)
        # restriction of the conic to L: A u^2 + B uv + C v^2
        big_a = conic((1, 0, 0, 0))
        big_c = conic((0, 1, 0, 0))
        big_b = conic((1, 1, 0, 0)) - big_a - big_c
        if big_a == 0:
            continue
        disc = int(big_b * big_b - 4 * big_a * big_c)
        s = _isqrt_exact(disc)
        if s is None or s == 0:
            continue
        a = RationalPoint((-big_b + s, 2 * big_a, 0, 0))
        b = RationalPoint((-big_b - s, 2 * big_a, 0, 0))
        # conic irreducibility: determinant of the symmetric Gram matrix
        gram = _conic_gram(conic)
        if _det3(gram) == 0:
            continue
        q_terms = {}
        for i in range(NV):
            for j in range(i, NV):
                e = [0] * NV
                e[i] += 1
                e[j] += 1
                q_terms[tuple(e)] = rng.randint(-3, 3)
        quad = MultiPoly(NV, q_terms)
        if quad(a.coords) == 0 or quad(b.coords) == 0:
            continue  # the surface would be singular at a or b
        x2 = MultiPoly.variable(2, NV)
        x3 = MultiPoly.variable(3, NV)
        form = x2 * conic + x3 * quad
        p = RationalPoint((1, rng.randint(-5, 5), 0, 0))
        q_pt = RationalPoint((1, rng.randint(-5, 5), 0, 0))
        # rational point of the conic through a random secant direction at a
        d = (rng.randint(-4, 4), rng.randint(-4, 4), rng.choice((1, 2, 3)), 0)
        cd = conic(d)
        if cd == 0:
            continue
        pol = conic(tuple(ai + di for ai, di in zip(a.coords, d))) - conic(a.coords) - cd
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

    Let P = (p0, p1, p2) and R = (r0, r1, r2) be dF/dx2 and dF/dx3 on L as
    binary quadratics in the span coordinates (u, v).  The tangent plane at
    x is spanned by L and w = (0, 0, -R(x), P(x)); for y on L,
    F(y + t*w) = t*(P(x)*R(y) - R(x)*P(y)) + O(t^2), so the residual conic
    cuts L where that quadratic in y vanishes.  Being antisymmetric in x
    and y, it is (x cross y) times a symmetric bilinear form, and its second
    root is y = iota*x for the matrix fixed by the configuration

        iota = [[p0*r2 - p2*r0, p1*r2 - p2*r1], [p1*r0 - p0*r1, p2*r0 - p0*r2]]

    with trace 0 and det iota = -Res(P, R), so iota^2 is scalar.  iota*x = 0
    only when P(x) = R(x) = 0 or P and R are parallel (iota = 0); the
    gradient at x then tells the failures apart.
    """
    if not cfg.on_line(x):
        raise ValueError("the point must lie on L")
    u, v = cfg.line_parameter(x)
    i00, i01, i10, i11 = cfg._involution
    image = (i00 * u + i01 * v, i10 * u + i11 * v)
    if image != (0, 0):
        return cfg.point_from_parameter(*image)
    if any(d(x.coords) for d in cfg.surface._gradient[2:]):
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

# admissible probes per fit: three fix the map, the other three certify it
_PROBES = 6


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


def _fit_line_map(
    pairs: Sequence[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]
) -> MobiusMap:
    """2x2 matrix sending the three source parameters to the three images."""
    # w x (M z) = 0: wu*(m10 zu + m11 zv) - wv*(m00 zu + m01 zv) = 0
    rows = [
        [-wv * zu, -wv * zv, wu * zu, wu * zv] for (zu, zv), (wu, wv) in pairs[:3]
    ]
    kernel = field_kernel(rows)
    if len(kernel) != 1:
        raise IndeterminacyError("probe images do not determine a unique line map")
    sol = kernel[0]
    return MobiusMap(RatMatrix([sol[:2], sol[2:]]))


def return_map(cfg: Configuration, word: str = RETURN_WORD) -> MobiusMap:
    """Fit and certify the projective-line map induced on L by the word.

    Probes are rational points of L (indeterminate orbits are skipped and
    resampled); the map is fitted from three probe/image pairs and certified
    by exact equality on all remaining probes.  The word must return L to L.
    """
    pairs = []
    tried = 0
    t = 2
    while len(pairs) < _PROBES and tried < 200:
        tried += 1
        probe = cfg.point_from_parameter(1, t)
        t += 1
        if probe in (cfg.p, cfg.q, cfg.a, cfg.b):
            continue
        try:
            img = orbit_points(cfg, probe, word)[-1]
        except IndeterminacyError:
            continue
        if not cfg.on_line(img):
            raise IndeterminacyError("the word does not return L to L")
        pairs.append((cfg.line_parameter(probe), cfg.line_parameter(img)))
    if len(pairs) < 4:
        raise IndeterminacyError("not enough admissible probes on L")
    fitted = _fit_line_map(pairs)
    for (zu, zv), (wu, wv) in pairs[3:]:
        iu, iv = fitted.apply(zu, zv)
        if iu * wv - iv * wu != 0:
            raise IndeterminacyError(
                "fitted map fails certification: the return map is not a line map"
            )
    return fitted


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

    def to_obj(self) -> dict:
        return {
            "points": [pt.to_obj() for pt in self.points],
            "collisions": list(self.collisions),
        }


def residual_second_points(cfg: Configuration) -> tuple[RationalPoint, ...]:
    """For each marked reflection point, the second point its tangent
    section cuts on L: for p and q the residual conic's other intersection
    with L, for r the intersection of the conic's tangent line at r with L."""
    pp = reflect_on_line(cfg, cfg.p)
    qq = reflect_on_line(cfg, cfg.q)
    grads = cfg.conic_form.gradient()
    d0 = grads[0](cfg.r.coords)
    d1 = grads[1](cfg.r.coords)
    if d0 == 0 and d1 == 0:
        raise IndeterminacyError("conic tangent line at r misses L")
    rr = RationalPoint((d1, -d0, 0, 0))
    return pp, qq, rr


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
    return BadPointSet(tuple(images), tuple(collisions))


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

    partners = residual_second_points(cfg)
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
