"""Exact linear algebra over Q: `field_kernel`, the package's one Gaussian
elimination.

Its one caller in the package is `core.matrix.minimal_poly`, which reads
minimal polynomials off Krylov kernels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def field_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a matrix with Fraction (or int) entries.

    Vectors come by increasing free column of the reduced echelon form, each
    with a one there and zeros at the other free columns, so the first
    expresses the first column dependent on earlier ones.
    """
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        ri = len(pivots)
        pr = next((r for r in range(ri, len(a)) if a[r][col] != 0), None)
        if pr is None:
            continue
        a[ri], a[pr] = a[pr], a[ri]
        inv = Fraction(1) / a[ri][col]
        a[ri] = [x * inv for x in a[ri]]
        for r in range(len(a)):
            if r != ri and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[ri])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -a[r][free]
        basis.append(v)
    return basis
