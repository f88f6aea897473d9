"""Certified real algebraic numbers: Sturm isolation, refinement, comparison.

An AlgebraicReal is a square-free primitive integer polynomial together with
an open rational interval containing exactly one of its real roots; the count
is certified by a Sturm chain, never by floating point.  The chain is one
remainder sequence in Z[x] (see `unipoly`), and its first term is the
square-free part, so it also tests square-freeness.  Every comparison
of real algebraic numbers that feeds a certificate goes through the exact
machinery here: interval refinement decides strict inequalities, and an
exact tie is settled by one Sturm count of the gcd of the defining
polynomials on the overlap of the two intervals.
Intervals derived here are not re-checked.  An isolated root's interval is
proved by the Sturm count that produced it.  A bisection half needs no
count: the defining polynomial is square-free and has exactly one root in
its interval and none at the ends, so it changes sign exactly once there,
and the half whose ends give values of opposite sign holds the root.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rationals import RationalLike, as_rational, outward_decimals, rat_to_str
from .unipoly import UniPoly, _sturm


def sturm_chain(f: UniPoly) -> list[UniPoly]:
    """Sturm chain of the square-free part of f, headed by that part, primitive."""
    return [UniPoly(t) for t in _sturm(f._integer_form()[1])]


def _variations(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sign_variations_at(chain: Sequence[UniPoly], x: RationalLike) -> int:
    x = as_rational(x)
    return _variations([p(x) for p in chain])


def count_roots_in(f: UniPoly, lo: RationalLike, hi: RationalLike) -> int:
    """Number of distinct real roots of f in the half-open interval (lo, hi]."""
    lo, hi = as_rational(lo), as_rational(hi)
    if lo > hi:
        raise ValueError("empty interval")
    chain = sturm_chain(f)
    return sign_variations_at(chain, lo) - sign_variations_at(chain, hi)


def cauchy_root_bound(f: UniPoly) -> Fraction:
    """B with every complex root of f satisfying |z| <= B (Cauchy bound)."""
    if f.degree < 1:
        raise ValueError("constant polynomial has no roots")
    lead = abs(f.leading())
    return 1 + max(abs(c) / lead for c in f.coeffs[:-1])


class AlgebraicReal:
    """One real root of a square-free integer polynomial, isolated exactly.

    Invariants checked at construction: lo < hi, neither endpoint is a root,
    and the Sturm count of roots in (lo, hi) is exactly one.
    """

    __slots__ = ("poly", "lo", "hi", "_lo_positive")

    def __init__(self, poly: UniPoly, lo: RationalLike, hi: RationalLike):
        lo, hi = as_rational(lo), as_rational(hi)
        content, prim = poly.content_and_primitive()
        if content == 0:
            raise ValueError("zero polynomial")
        chain = sturm_chain(prim)
        if chain[0] != prim:
            raise ValueError("defining polynomial must be square-free")
        if lo >= hi:
            raise ValueError("isolating interval must satisfy lo < hi")
        at_lo = prim(lo)
        if at_lo == 0 or prim(hi) == 0:
            raise ValueError("interval endpoints must not be roots")
        if sign_variations_at(chain, lo) - sign_variations_at(chain, hi) != 1:
            raise ValueError("interval does not isolate exactly one root")
        self.poly = prim
        self.lo = lo
        self.hi = hi
        self._lo_positive = at_lo > 0

    @classmethod
    def _certified(cls, poly, lo, hi, lo_positive=None) -> "AlgebraicReal":
        """An interval already proved isolating (by a Sturm count or a sign
        change); checks nothing.  lo_positive is whether poly(lo) > 0, or
        None when not yet known."""
        self = object.__new__(cls)
        self.poly, self.lo, self.hi, self._lo_positive = poly, lo, hi, lo_positive
        return self

    @classmethod
    def from_rational(cls, q: RationalLike) -> "AlgebraicReal":
        q = as_rational(q)
        poly = UniPoly((-q.numerator, q.denominator))
        return cls(poly, q - 1, q + 1)

    # -- queries ---------------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def rational_value(self) -> Fraction | None:
        """The root itself when it is rational, else None."""
        if self.poly.degree == 1:
            a, b = self.poly.coeff(0), self.poly.coeff(1)
            return -a / b
        from .factor import rational_roots

        for q in rational_roots(self.poly):
            if self.lo < q < self.hi:
                return q
        return None

    def contains_rational(self, q: RationalLike) -> bool:
        """Whether the represented root equals the given rational exactly."""
        q = as_rational(q)
        return self.lo < q < self.hi and self.poly(q) == 0

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        # display only; never used in certificates
        return float(self.midpoint())

    def __repr__(self) -> str:
        return (
            f"AlgebraicReal({self.poly.format()} on "
            f"({rat_to_str(self.lo)}, {rat_to_str(self.hi)}))"
        )

    # -- refinement --------------------------------------------------------------

    def _bisect_once(self) -> "AlgebraicReal":
        """The half of the interval that holds the root.  The sign of poly
        at lo is carried from halving to halving, so each halving evaluates
        poly once, at the midpoint."""
        mid = self.midpoint()
        at_mid = self.poly(mid)
        if at_mid == 0:
            # the unique root is mid itself; shrink symmetrically around it,
            # nudging endpoints off the remaining roots of the polynomial
            delta = min(mid - self.lo, self.hi - mid) / 4
            while self.poly(mid - delta) == 0 or self.poly(mid + delta) == 0:
                delta /= 2
            return AlgebraicReal._certified(self.poly, mid - delta, mid + delta)
        lo_positive = self._lo_positive
        if lo_positive is None:
            lo_positive = self._lo_positive = self.poly(self.lo) > 0
        if (at_mid > 0) != lo_positive:
            # the one sign change of poly on (lo, hi) lies in (lo, mid)
            return AlgebraicReal._certified(self.poly, self.lo, mid, lo_positive)
        return AlgebraicReal._certified(self.poly, mid, self.hi, at_mid > 0)

    def refined(self, eps: RationalLike) -> "AlgebraicReal":
        """Same root, interval width < eps, by exact bisection."""
        eps = as_rational(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        cur = self
        while cur.width() >= eps:
            cur = cur._bisect_once()
        return cur

    def decimal_enclosure(self, digits: int) -> tuple[str, str]:
        """Decimal strings (lo, hi) enclosing the root, up to 2*10^-digits apart."""
        a = self.refined(Fraction(1, 10**digits))
        return outward_decimals(a.lo, a.hi, digits)


def isolate_real_roots(p: UniPoly) -> list[AlgebraicReal]:
    """One AlgebraicReal per distinct real root of p, sorted ascending.

    Intervals are pairwise disjoint and each is certified by a Sturm count
    of one on the square-free part of p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = sturm_chain(p)
    sf = chain[0]
    if sf.degree < 1:
        return []
    bound = cauchy_root_bound(sf)
    lo, hi = -bound - 1, bound + 1  # beyond every root: no end is a root
    out: list[AlgebraicReal] = []

    def split(a: Fraction, va: int, b: Fraction, vb: int) -> None:
        # va, vb: sign variations of the chain at a and b; va - vb roots in (a, b)
        if va - vb == 1:
            out.append(AlgebraicReal._certified(sf, a, b))
        elif va - vb > 1:
            mid = (a + b) / 2
            while sf(mid) == 0:
                mid = (a + mid) / 2
            vm = sign_variations_at(chain, mid)
            split(a, va, mid, vm)
            split(mid, vm, b, vb)

    split(lo, sign_variations_at(chain, lo), hi, sign_variations_at(chain, hi))
    out.sort(key=lambda r: r.lo)
    return out


# -- exact comparison ------------------------------------------------------------


def algebraic_equal(a: AlgebraicReal, b: AlgebraicReal) -> bool:
    """Exact equality by one Sturm count of g = gcd(a.poly, b.poly).

    The count runs on the overlap (lo, hi) of the two intervals.  Its ends
    are endpoints of a or b, so they are not roots of g, which divides both
    polynomials; a root of g in the overlap is the unique root of a and of b.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo >= hi:
        return False
    g = a.poly.gcd(b.poly)
    return g.degree >= 1 and count_roots_in(g, lo, hi) > 0


def algebraic_cmp(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """-1, 0 or 1 comparing the represented roots exactly."""
    if algebraic_equal(a, b):
        return 0
    # the roots differ, so the intervals separate once both are narrower
    # than half the distance between them
    x, y = a, b
    while True:
        if x.hi <= y.lo:
            return -1
        if y.hi <= x.lo:
            return 1
        x = x._bisect_once()
        y = y._bisect_once()


def cmp_with_rational(a: AlgebraicReal, q: RationalLike) -> int:
    q = as_rational(q)
    if a.contains_rational(q):
        return 0
    # the root is not q, so q falls outside the interval once it is
    # narrower than their distance
    x = a
    while True:
        if x.hi <= q:
            return -1
        if q <= x.lo:
            return 1
        x = x._bisect_once()
