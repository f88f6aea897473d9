"""Truncated power series in one local parameter with exact coefficients.

A series stores exactly ``order`` coefficients (indices 0 .. order-1);
anything beyond the truncation order is unknown and never read.  The
valuation (order of vanishing at t = 0) is only defined when some stored
coefficient is nonzero; asking for it otherwise raises TruncationExhausted,
which is the signal that the chosen truncation was too small.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .multipoly import MultiPoly
from .rationals import RationalLike, as_rational


class TruncationExhausted(ArithmeticError):
    """All stored coefficients are zero: the valuation exceeds the truncation."""


class TruncatedSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[RationalLike], order: int | None = None):
        cs = [as_rational(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 1:
            raise ValueError("truncation order must be positive")
        if len(cs) > order:
            raise ValueError("more coefficients than the truncation order allows")
        cs.extend(Fraction(0) for _ in range(order - len(cs)))
        self.order = order
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def t_power(cls, k: int, order: int, c: RationalLike = 1) -> "TruncatedSeries":
        if not 0 <= k < order:
            raise ValueError("exponent outside the stored window")
        cs = [Fraction(0)] * order
        cs[k] = as_rational(c)
        return cls(cs, order)

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation order mismatch")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            (a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(out, n)


def valuation(s: TruncatedSeries) -> int:
    """Index of the lowest nonzero stored coefficient."""
    for i, c in enumerate(s.coeffs):
        if c:
            return i
    raise TruncationExhausted(
        "all stored coefficients are zero; valuation exceeds the truncation order"
    )


def substitute_series(f: MultiPoly, args: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Compose a polynomial with a tuple of series, truncated at their order."""
    if len(args) != f.nvars:
        raise ValueError(
            f"polynomial in {f.nvars} variables but {len(args)} series given"
        )
    order = args[0].order
    if any(a.order != order for a in args):
        raise ValueError("series must share a truncation order")
    powers: list[dict[int, TruncatedSeries]] = [
        {0: TruncatedSeries.t_power(0, order), 1: a} for a in args
    ]

    def arg_pow(i: int, e: int) -> TruncatedSeries:
        cache = powers[i]
        if e not in cache:
            cache[e] = arg_pow(i, e - 1) * cache[1]
        return cache[e]

    total = TruncatedSeries.zero(order)
    for exps, c in f.terms.items():
        term = TruncatedSeries.t_power(0, order, c)
        for i, e in enumerate(exps):
            if e:
                term = term * arg_pow(i, e)
        total = total + term
    return total
