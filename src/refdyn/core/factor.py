"""Factorization over the rationals up to a documented degree bound.

Pipeline: square-free decomposition (Yun), stripping of the x^k content and
of all rational roots, then a bounded exhaustive search for integer factors
of the remaining square-free core in the style of Kronecker: a factor of
degree d is pinned down by its values at d+1 integer points, each of which
must divide the corresponding value of the polynomial, so enumerating divisor
combinations and interpolating finds every factor of degree <= deg/2.

The search runs in integers.  The Lagrange basis of the d+1 nodes is built
once per degree, scaled to the common denominator D of its coefficients, so
each divisor combination costs one integer dot product per coefficient and is
an integer polynomial exactly when D divides every one.  A candidate must then
pass a Mignotte-style coefficient bound and two screens that every true
factor meets, because its primitive part g* divides the primitive
polynomial h in Z[x]: lc(g*) divides lc(h), and g*(x) divides h(x) at two
further integer points.  Only a candidate that passes all of them is built as
a polynomial, and the exact trial division is its certificate.

The search is exhaustive and certifiably correct but exponential in
principle, hence the hard degree bound DEGREE_BOUND = 8 (everything this
package factors has degree <= 6).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

from .unipoly import UniPoly

DEGREE_BOUND = 8


def factor_over_rationals(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Irreducible monic-free factorization: p = const * prod f_i^{m_i}.

    Each returned factor is a primitive integer polynomial with positive
    leading coefficient, irreducible over the rationals; multiplicities are
    positive.  Factors are sorted by degree, then coefficients.  Raises on
    the zero polynomial and on degree above the implementation bound.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree > DEGREE_BOUND:
        raise ValueError(
            f"degree {p.degree} exceeds the factorization bound {DEGREE_BOUND}"
        )
    factors: dict[UniPoly, int] = {}

    def add(f: UniPoly, mult: int) -> None:
        f = f.primitive()
        factors[f] = factors.get(f, 0) + mult

    for sf, mult in p.square_free_decomposition():
        for g in _factor_square_free(sf.primitive()):
            add(g, mult)
    return sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


def _factor_square_free(h: UniPoly) -> list[UniPoly]:
    """Irreducible factors of a primitive square-free integer polynomial."""
    out: list[UniPoly] = []
    # x^k content
    k = 0
    while h.coeff(0) == 0 and h.degree > 0:
        h = h // UniPoly.x()
        k += 1
    out.extend([UniPoly.x()] * k)
    # rational roots -> linear factors
    for root in rational_roots(h):
        lin = UniPoly((-root.numerator, root.denominator)).primitive()
        h = (h // UniPoly((-root, 1))).primitive()
        out.append(lin)
    if h.degree > 0:
        out.extend(_kronecker_split(h))
    return out


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial (each listed once,
    multiplicity ignored), by the rational root theorem."""
    p = p.primitive()
    if p.degree <= 0:
        return []
    a0 = int(p.coeff(0))
    an = int(p.leading())
    if a0 == 0:
        roots = rational_roots(p // UniPoly.x())
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        return sorted(roots)
    found = []
    for num in _divisors(abs(a0)):
        for den in _divisors(abs(an)):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(cand) == 0 and cand not in found:
                    found.append(cand)
    return sorted(found)


def _divisors(n: int) -> list[int]:
    ds = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            ds.add(d)
            ds.add(n // d)
    return sorted(ds)


def _mignotte_bound(h: UniPoly, d: int) -> int:
    """Coefficient bound for any degree-d integer factor of h."""
    norm_sq = sum(int(c) * int(c) for c in h.coeffs)
    return (2**d) * (isqrt(norm_sq) + 1) * abs(int(h.leading()))


def _kronecker_split(h: UniPoly) -> list[UniPoly]:
    """Fully factor a primitive square-free integer polynomial of degree >= 2
    with no rational roots, by exhaustive divisor interpolation.  Having no
    rational root, a polynomial of degree 2 or 3 is irreducible and returned
    as it is."""
    n = h.degree
    for d in range(2, n // 2 + 1):
        g = _find_factor_of_degree(h, d)
        if g is not None:
            rest = (h // g).primitive()
            return _kronecker_split(g) + _kronecker_split(rest)
    return [h]


def _find_factor_of_degree(h: UniPoly, d: int) -> UniPoly | None:
    # d+1 interpolation nodes, then two more points for the divisibility screen
    points = _sample_points(d + 3)
    points, extra = points[: d + 1], points[d + 1 :]
    values = [int(h(x)) for x in points]
    if any(v == 0 for v in values):  # a rational root survived: handled upstream
        raise AssertionError("unexpected integer root during Kronecker search")
    bound = _mignotte_bound(h, d)
    lead = int(h.leading())
    extra_values = [int(h(x)) for x in extra]
    columns, denom = _lagrange_columns(points)
    divisor_lists: list[list[int]] = []
    for i, v in enumerate(values):
        ds = _divisors(abs(v))
        # sign of the factor is normalized at the first point
        divisor_lists.append(ds if i == 0 else [x for d_ in ds for x in (d_, -d_)])
    for combo in product(*divisor_lists):
        coeffs = _interpolant(columns, denom, combo)
        if coeffs is None:
            continue
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2 or any(abs(c) > bound for c in coeffs):
            continue
        # a factor of h, made primitive, divides h in Z[x] (Gauss's lemma), so
        # its leading coefficient and its values divide those of h
        content = gcd(*coeffs)
        prim = [c // content for c in coeffs]
        if lead % prim[-1]:
            continue
        g_values = (_horner(prim, x) for x in extra)
        if any(gx != 0 and hx % gx for gx, hx in zip(g_values, extra_values)):
            continue
        g = UniPoly(coeffs)
        q, r = h.divmod(g)
        if r.is_zero() and q.degree >= 1:
            return g.primitive()
    return None


def _sample_points(k: int) -> list[int]:
    pts = [0]
    v = 1
    while len(pts) < k:
        pts.append(v)
        if len(pts) < k:
            pts.append(-v)
        v += 1
    return pts[:k]


def _lagrange_columns(xs: list[int]) -> tuple[list[tuple[int, ...]], int]:
    """Lagrange basis of the nodes xs over the common denominator D.

    Returns (columns, D): the polynomial taking the value ys[i] at xs[i] has
    k-th coefficient sum(ys[i] * columns[k][i]) / D.
    """
    numerators = []
    denominators = []
    for i, xi in enumerate(xs):
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j != i:
                # basis * (x - xj)
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        numerators.append(basis)
        denominators.append(denom)
    common = lcm(*denominators)
    rows = [[c * (common // dn) for c in b] for b, dn in zip(numerators, denominators)]
    return [tuple(col) for col in zip(*rows)], common


def _interpolant(
    columns: list[tuple[int, ...]], denom: int, ys: tuple[int, ...]
) -> list[int] | None:
    """Coefficients of the interpolant of ys, or None unless all are integers."""
    coeffs = []
    for col in columns:
        c, r = divmod(sum(map(mul, ys, col)), denom)
        if r:
            return None
        coeffs.append(c)
    return coeffs


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
