"""Sparse multivariate polynomials over the rationals.

Terms map exponent tuples to nonzero Fraction coefficients.  These carry the
defining cubic forms, the explicit reflection formulas and the quadric slots
of the triangle charts; composition (substituting polynomials or truncated
series for the variables) is the operation everything else leans on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .rationals import RationalLike, as_rational, rat_from_str, rat_to_str

Exponents = tuple[int, ...]


class MultiPoly:
    __slots__ = ("nvars", "terms", "_integer_form")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], RationalLike] = ()):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = as_rational(c)
            if c:
                acc = clean.get(exps, Fraction(0)) + c
                if acc:
                    clean[exps] = acc
                else:
                    clean.pop(exps, None)
        self.terms: dict[Exponents, Fraction] = clean
        self._integer_form: tuple | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: RationalLike) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], c: RationalLike = 1) -> "MultiPoly":
        return cls(len(tuple(exps)), {tuple(exps): c})

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def uses_only_vars(self, allowed: Iterable[int]) -> bool:
        allowed = set(allowed)
        return all(
            e == 0 or i in allowed
            for exps in self.terms
            for i, e in enumerate(exps)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, Fraction(0)) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e, Fraction(0)) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def scale(self, c: RationalLike) -> "MultiPoly":
        c = as_rational(c)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point, computed in integers.

        With the point written as integers n over the lcm d of its
        denominators, and the coefficients as integers c_e over the lcm D of
        theirs, the value is sum_e c_e * n^e * d^(deg - |e|) / (D * d^deg).
        The (c_e, deg - |e|) list is built on the first call and kept.
        """
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        pt = [as_rational(x) for x in point]
        if not self.terms:
            return Fraction(0)
        if self._integer_form is None:
            self._integer_form = self._integer_terms()
        den, deg, top, terms = self._integer_form
        d = lcm(*(x.denominator for x in pt))
        pows = []
        for x, e in zip(pt, top):
            n = x.numerator * (d // x.denominator)
            row = [1]
            for _ in range(e):
                row.append(row[-1] * n)
            pows.append(row)
        dpow = [1]
        for _ in range(deg):
            dpow.append(dpow[-1] * d)
        total = 0
        for c, k, factors in terms:
            v = c * dpow[k]
            for i, e in factors:
                v *= pows[i][e]
            total += v
        return Fraction(total, den * dpow[deg])

    def _integer_terms(self) -> tuple:
        """(D, deg, largest exponent per variable, [(c_e, deg - |e|, ((i, e_i), ...))])
        with every coefficient equal to c_e / D."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        deg = self.total_degree()
        top = [max(exps[i] for exps in self.terms) for i in range(self.nvars)]
        terms = [
            (
                c.numerator * (den // c.denominator),
                deg - sum(exps),
                tuple((i, e) for i, e in enumerate(exps) if e),
            )
            for exps, c in self.terms.items()
        ]
        return den, deg, top, terms

    def derivative(self, i: int) -> "MultiPoly":
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i]:
                ne = list(exps)
                ne[i] -= 1
                out[tuple(ne)] = c * exps[i]
        return MultiPoly(self.nvars, out)

    def gradient(self) -> list["MultiPoly"]:
        return [self.derivative(i) for i in range(self.nvars)]

    def substitute(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Replace variable i by args[i]; args share an arity of their own."""
        if len(args) != self.nvars:
            raise ValueError("substitution arity mismatch")
        nv = args[0].nvars
        if any(a.nvars != nv for a in args):
            raise ValueError("substituted polynomials disagree on arity")
        # cache powers of each argument as they are needed
        powers: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.constant(nv, 1), 1: a} for a in args
        ]

        def arg_pow(i: int, e: int) -> MultiPoly:
            cache = powers[i]
            if e not in cache:
                cache[e] = arg_pow(i, e - 1) * cache[1]
            return cache[e]

        total = MultiPoly.zero(nv)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(nv, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * arg_pow(i, e)
            total = total + term
        return total

    def set_variable(self, i: int, value: RationalLike) -> "MultiPoly":
        """Substitute a constant for one variable (keeping the arity)."""
        value = as_rational(value)
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            v = c * value ** exps[i]
            if not v:
                continue
            ne = list(exps)
            ne[i] = 0
            key = tuple(ne)
            acc = out.get(key, Fraction(0)) + v
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return MultiPoly(self.nvars, out)

    # -- serialization ----------------------------------------------------------

    def to_obj(self) -> dict:
        terms = [
            {"exp": list(e), "coef": rat_to_str(c)}
            for e, c in sorted(self.terms.items())
        ]
        return {"vars": self.nvars, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj: dict) -> "MultiPoly":
        return cls(obj["vars"], {tuple(t["exp"]): rat_from_str(t["coef"]) for t in obj["terms"]})

    @classmethod
    def from_json(cls, s: str) -> "MultiPoly":
        return cls.from_obj(json.loads(s))

    def format(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts: list[str] = []
        for exps, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            mono = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(exps)
                if e
            )
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if not mono:
                body = rat_to_str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{rat_to_str(mag)}*{mono}"
            parts.append(f"{sign} {body}" if parts else (f"-{body}" if sign == "-" else body))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.format()})"

