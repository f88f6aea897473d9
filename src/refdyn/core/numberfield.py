"""Arithmetic in small number fields Q[x]/(m) and exact linear algebra there.

Used to decide, without any floating point, whether eigenvector components
vanish: the eigenvalue's irreducible factor is the modulus, the eigenvalue
itself is the class of x, and kernels of matrices over the field come from
`field_kernel`, the package's one Gaussian elimination (also used over Q).

The constructor checks that the modulus is monic non-constant; irreducibility
is the caller's contract (moduli here always come out of the factorizer).
Division only needs the representative to be invertible mod the modulus,
which extended Euclid verifies on the fly.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .rationals import RationalLike, as_rational
from .unipoly import UniPoly

F = TypeVar("F")


class NumberFieldElement:
    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: UniPoly, rep: UniPoly):
        if modulus.degree < 1:
            raise ValueError("modulus must be non-constant")
        if modulus.leading() != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self.rep = rep % modulus

    @classmethod
    def from_rational(cls, modulus: UniPoly, q: RationalLike) -> "NumberFieldElement":
        return cls(modulus, UniPoly.constant(as_rational(q)))

    @classmethod
    def generator(cls, modulus: UniPoly) -> "NumberFieldElement":
        """The class of x, i.e. the root the field adjoins."""
        return cls(modulus, UniPoly.x())

    def _check(self, other: "NumberFieldElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed number fields")

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NumberFieldElement)
            and self.modulus == other.modulus
            and self.rep == other.rep
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.rep))

    def __add__(self, other: "NumberFieldElement") -> "NumberFieldElement":
        self._check(other)
        return NumberFieldElement(self.modulus, self.rep + other.rep)

    def __sub__(self, other: "NumberFieldElement") -> "NumberFieldElement":
        self._check(other)
        return NumberFieldElement(self.modulus, self.rep - other.rep)

    def __neg__(self) -> "NumberFieldElement":
        return NumberFieldElement(self.modulus, -self.rep)

    def __mul__(self, other: "NumberFieldElement") -> "NumberFieldElement":
        self._check(other)
        return NumberFieldElement(self.modulus, self.rep * other.rep)

    def inverse(self) -> "NumberFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid: s*rep + t*modulus = gcd
        r0, r1 = self.modulus, self.rep
        s0, s1 = UniPoly.zero(), UniPoly.one()
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ZeroDivisionError(
                "element not invertible (modulus is not irreducible?)"
            )
        return NumberFieldElement(self.modulus, s0.scale(1 / r0.coeff(0)))

    def __truediv__(self, other: "NumberFieldElement") -> "NumberFieldElement":
        return self * other.inverse()

    def __repr__(self) -> str:
        return f"NFE({self.rep.format()} mod {self.modulus.format()})"


def field_kernel(rows: Sequence[Sequence[F]], zero: F, one: F) -> list[list[F]]:
    """Basis of the right kernel of a matrix over an exact field.

    Fractions and NumberFieldElements both work: only ``!=``, ``*``, ``-``
    and ``/`` are used.  Vectors come by increasing free column of the
    reduced echelon form, each with a one there and zeros at the other free
    columns, so the first expresses the first column dependent on earlier ones.
    """
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        ri = len(pivots)
        pr = next((r for r in range(ri, len(a)) if a[r][col] != zero), None)
        if pr is None:
            continue
        a[ri], a[pr] = a[pr], a[ri]
        inv = one / a[ri][col]
        a[ri] = [x * inv for x in a[ri]]
        for r in range(len(a)):
            if r != ri and a[r][col] != zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[ri])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[free] = one
        for r, col in enumerate(pivots):
            v[col] = -a[r][free]
        basis.append(v)
    return basis
