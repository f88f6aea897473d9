"""Exact rational matrices, characteristic and minimal polynomials.

The characteristic polynomial is computed by the Faddeev-LeVerrier recursion
on the integer matrix d m, d the lcm of the entry denominators, where every
trace divides exactly by k; the minimal polynomial comes from Krylov
sequences (first linear dependence among the iterates of each basis vector,
read off `field_kernel`; lcm over the basis).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .numberfield import field_kernel
from .rationals import RationalLike, as_rational
from .unipoly import UniPoly


class RatMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalLike]]):
        rows = [tuple(as_rational(x) for x in row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be at least 1x1")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = ncols
        self.entries: tuple[tuple[Fraction, ...], ...] = tuple(rows)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "RatMatrix":
        c = as_rational(c)
        return RatMatrix([[c * x for x in row] for row in self.entries])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return RatMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.entries
            ]
        )

    def __pow__(self, n: int) -> "RatMatrix":
        if not self.is_square():
            raise ValueError("non-square matrix")
        if n < 0:
            raise ValueError("negative power")
        result = RatMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def matvec(self, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vv = [as_rational(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vv)) for row in self.entries)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def to_int_lists(self) -> list[list[int]]:
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self.entries]

    def __repr__(self) -> str:
        return "RatMatrix(" + "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        ) + ")"


def char_poly(m: RatMatrix) -> UniPoly:
    """det(xI - m) by Faddeev-LeVerrier; monic of degree = dimension.

    The recursion runs on the integer matrix M = d m, whose characteristic
    coefficients c_i(M) are integers; c_i(m) = c_i(M) / d^(n - i).
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    d = lcm(*(x.denominator for row in m.entries for x in row))
    big = [[x.numerator * (d // x.denominator) for x in row] for row in m.entries]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [row[:] for row in big]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += coeffs[n - k + 1]
            cols = list(zip(*mk))
            mk = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in big]
        # c_{n-k}(M) is an integer, so k divides the trace exactly
        coeffs[n - k] = -sum(mk[i][i] for i in range(n)) // k
    return UniPoly(Fraction(c, d ** (n - i)) for i, c in enumerate(coeffs))


def minimal_poly(m: RatMatrix) -> UniPoly:
    """Monic polynomial of least degree annihilating m.

    For each standard basis vector e, the first exact linear dependence
    among e, m e, m^2 e, ... is the minimal polynomial of m relative to e,
    and the lcm over the basis is the minimal polynomial of m.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    result = UniPoly.one()
    for start in range(n):
        vec = [Fraction(1) if i == start else Fraction(0) for i in range(n)]
        local = _krylov_minimal(m, vec)
        result = UniPoly.lcm(result, local)
        if result.degree == n:
            break
    return result.monic()


def _krylov_minimal(m: RatMatrix, v: list[Fraction]) -> UniPoly:
    """Least monic p with p(m) v = 0.

    The first kernel vector of the Krylov matrix [v, m v, ..., m^n v]: its
    free column is the first iterate that depends on the ones before it.
    """
    krylov = [tuple(v)]
    for _ in range(m.rows):
        krylov.append(m.matvec(krylov[-1]))
    return UniPoly(field_kernel(list(zip(*krylov)))[0])
