"""Univariate polynomials over the rationals.

Coefficients are stored lowest degree first as a trimmed tuple of Fractions;
the zero polynomial is the empty tuple and has degree -1 by convention.  All
arithmetic is exact.  This class carries the characteristic and minimal
polynomials of the integer matrices elsewhere in the package, so exact
division, gcd and square-free decomposition are first-class operations.

All of them run on one Z[x] kernel below: pseudo-division, exact division
and a primitive remainder sequence with Sturm signs (Collins, J. ACM 14,
1967; Brown and Traub, J. ACM 18, 1971).  The last term of the sequence is
the gcd; the sequence of (f, f') divided by it is a Sturm chain of the
square-free part of f, headed by the primitive square-free part.
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
        """Exact polynomial division with remainder over the rationals: one
        pseudo-division of the primitive parts, scaled back."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ca, a = self._integer_form()
        cb, b = other._integer_form()
        quot, rem, n = _pseudo_divmod(a, b)
        # lc(b)^n a = quot b + rem, with self = ca a and other = cb b
        scale = ca / b[-1] ** n
        return UniPoly(c * scale / cb for c in quot), UniPoly(c * scale for c in rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    # -- gcd and square-free structure --------------------------------------

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd: the last term of the remainder sequence."""
        seq = _remainder_sequence(self._integer_form()[1], other._integer_form()[1])
        return UniPoly(seq[-1]).monic()

    @staticmethod
    def lcm(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        if a.is_zero() or b.is_zero():
            return UniPoly.zero()
        return ((a * b) // a.gcd(b)).monic()

    def _integer_form(self) -> tuple[Fraction, list[int]]:
        """(content, primitive part as a list of ints); (0, []) for zero."""
        if self.is_zero():
            return Fraction(0), []
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
        return Fraction(g, den), [v // g for v in ints]

    def content_and_primitive(self) -> tuple[Fraction, "UniPoly"]:
        """Write self = content * primitive with integer primitive part.

        The primitive part has coprime integer coefficients and a positive
        leading coefficient; the content is a rational (possibly negative).
        """
        content, ints = self._integer_form()
        return content, UniPoly(ints)

    def primitive(self) -> "UniPoly":
        return self.content_and_primitive()[1]

    def square_free_part(self) -> "UniPoly":
        """Monic product of the distinct irreducible factors."""
        return UniPoly(_sturm(self._integer_form()[1])[0]).monic()

    def square_free_decomposition(self) -> list[tuple["UniPoly", int]]:
        """self = lc * prod g_i^i with the g_i square-free, pairwise coprime and
        monic.  Factors with g_i = 1 are omitted."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        parts = _square_free_decomposition(self._integer_form()[1])
        return [(UniPoly(s).monic(), i) for s, i in parts]

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


# -- the Z[x] kernel -------------------------------------------------------------


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _primitive(g: list[int]) -> list[int]:
    """g over its content, with positive leading coefficient; g nonzero."""
    content = gcd(*g) * (1 if g[-1] > 0 else -1)
    return [c // content for c in g]


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, n): lc(g)^n f = q g + r, deg r < deg g, n = max(deg f - deg g + 1, 0)."""
    lead, dg = g[-1], len(g) - 1
    n = max(len(f) - dg, 0)
    quot = [0] * n
    rem = list(f)
    for k in range(n - 1, -1, -1):
        # lead * rem - c x^k g drops the top term; k more steps scale quot[k]
        c = rem.pop()
        quot[k] = c * lead**k
        rem = [lead * r for r in rem]
        for i in range(dg):
            rem[k + i] -= c * g[i]
    return quot, _trim(rem), n


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g when g divides f in Z[x], else None; g nonzero."""
    if f and g[0] and f[0] % g[0]:
        return None
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(f) - dg)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + dg], g[-1])
        if r:
            return None
        quot[k] = c
        for i, b in enumerate(g):
            rem[k + i] -= c * b
    return None if any(rem) else quot


def _remainder_sequence(f: list[int], g: list[int]) -> list[list[int]]:
    """f, g and their remainders up to the last nonzero one, a multiple of
    gcd(f, g).  Each is -prem(a, b) sign(lc b)^n over its positive content: a
    positive multiple of the Euclidean -rem(a, b), as a Sturm sequence needs."""
    seq = [f]
    while g:
        seq.append(g)
        _, r, n = _pseudo_divmod(f, g)
        if r:
            content = gcd(*r) * (1 if g[-1] < 0 and n % 2 else -1)
            r = [c // content for c in r]
        f, g = g, r
    return seq


def _sturm(f: list[int]) -> list[list[int]]:
    """A Sturm chain of the square-free part of the primitive f: the remainder
    sequence of (f, f') over its last term g, made primitive.  Every term is a
    multiple of g, and one divisor keeps the sign variations where g != 0."""
    seq = _remainder_sequence(f, [i * c for i, c in enumerate(f)][1:])
    g = _primitive(seq[-1] or [1])
    return [_exact_quotient(t, g) for t in seq]


def _square_free_decomposition(f: list[int]) -> list[tuple[list[int], int]]:
    """(s_i, i) with the primitive nonzero f = prod s_i^i and the s_i primitive,
    square-free, pairwise coprime and not constant, by Musser's form of Yun:
    h = prod s_i heads the Sturm chain and g = f / h = prod s_i^(i-1); then
    z = gcd(g, h) gives s_1 = h / z, and (g / z, z) repeats one index lower."""
    h = _sturm(f)[0]
    g = _exact_quotient(f, h)
    out = []
    i = 1
    while len(h) > 1:
        z = _primitive(_remainder_sequence(g, h)[-1])
        s = _exact_quotient(h, z)
        if len(s) > 1:
            out.append((s, i))
        g, h = _exact_quotient(g, z), z
        i += 1
    return out
