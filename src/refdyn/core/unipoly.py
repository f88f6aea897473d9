"""Univariate polynomials over the rationals.

Coefficients are stored lowest degree first as a trimmed tuple of Fractions;
the zero polynomial is the empty tuple and has degree -1 by convention.  All
arithmetic is exact.  This class carries the characteristic and minimal
polynomials of the integer matrices elsewhere in the package, so exact
division, gcd and square-free decomposition are first-class operations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .rationals import RationalLike, as_rational, rat_from_str, rat_to_str


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: RationalLike) -> "UniPoly":
        return cls((as_rational(c),))

    @classmethod
    def monomial(cls, degree: int, c: RationalLike = 1) -> "UniPoly":
        return cls([0] * degree + [as_rational(c)])

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(i) - other.coeff(i) for i in range(n))

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c: RationalLike) -> "UniPoly":
        c = as_rational(c)
        return UniPoly(c * a for a in self.coeffs)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value at a rational point, computed in integers.

        With x = p/q and the coefficients written as integers a_i over the
        lcm D of their denominators, the value is
        sum_i a_i * p^i * q^(deg - i) / (D * q^deg): one homogeneous Horner
        pass, normalized once at the end.
        """
        x = as_rational(x)
        if not self.coeffs:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        den = lcm(*(c.denominator for c in self.coeffs))
        acc, qk = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c.numerator * (den // c.denominator) * qk
            qk *= q
        return Fraction(acc, den * q**self.degree)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q_len = max(len(rem) - len(other.coeffs) + 1, 0)
        quot = [Fraction(0)] * q_len
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and rem:
            f = rem[-1] / lead
            k = len(rem) - 1 - d
            quot[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= f * b
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def divides(self, other: "UniPoly") -> bool:
        return other.divmod(self)[1].is_zero()

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    # -- gcd and square-free structure --------------------------------------

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by the Euclidean algorithm over Q."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    @staticmethod
    def lcm(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        if a.is_zero() or b.is_zero():
            return UniPoly.zero()
        g = a.gcd(b)
        return ((a * b) // g).monic()

    def content_and_primitive(self) -> tuple[Fraction, "UniPoly"]:
        """Write self = content * primitive with integer primitive part.

        The primitive part has coprime integer coefficients and a positive
        leading coefficient; the content is a rational (possibly negative).
        """
        if self.is_zero():
            return Fraction(0), UniPoly.zero()
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), UniPoly(v // g for v in ints)

    def primitive(self) -> "UniPoly":
        return self.content_and_primitive()[1]

    def square_free_part(self) -> "UniPoly":
        """Monic product of the distinct irreducible factors."""
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def square_free_decomposition(self) -> list[tuple["UniPoly", int]]:
        """Yun's algorithm: self = lc * prod g_i^i with the g_i square-free,
        pairwise coprime and monic.  Factors with g_i = 1 are omitted."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        f = self.monic()
        if f.degree == 0:
            return []
        out: list[tuple[UniPoly, int]] = []
        df = f.derivative()
        a = f.gcd(df)
        b = f // a
        c = df // a
        i = 1
        while b.degree > 0:
            d = c - b.derivative()
            g = b.gcd(d)
            if g.degree > 0:
                out.append((g, i))
            b = b // g
            c = d // g
            i += 1
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def to_obj(self) -> dict:
        terms = [
            {"exp": [i], "coef": rat_to_str(c)}
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return {"vars": 1, "terms": terms}

    @classmethod
    def from_obj(cls, obj: dict) -> "UniPoly":
        if obj.get("vars") != 1:
            raise ValueError("expected a univariate polynomial object")
        coeffs: dict[int, Fraction] = {}
        for t in obj["terms"]:
            (e,) = t["exp"]
            coeffs[e] = coeffs.get(e, Fraction(0)) + rat_from_str(t["coef"])
        n = max(coeffs, default=-1) + 1
        return cls(coeffs.get(i, Fraction(0)) for i in range(n))

    @classmethod
    def from_json(cls, s: str) -> "UniPoly":
        return cls.from_obj(json.loads(s))

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = rat_to_str(mag)
            else:
                xs = var if i == 1 else f"{var}^{i}"
                body = xs if mag == 1 else f"{rat_to_str(mag)}{xs}"
            parts.append(f"{sign} {body}" if parts else (f"-{body}" if sign == "-" else body))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self.format()})"


def poly_from_roots(roots: Sequence[RationalLike]) -> UniPoly:
    """prod (x - r) over the given rational roots."""
    p = UniPoly.one()
    for r in roots:
        p = p * UniPoly((-as_rational(r), 1))
    return p
