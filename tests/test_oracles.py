"""The exact core against sympy: the elimination kernel, the polynomials
built on it, factorization over Q, real root isolation and exact comparison
of algebraic reals.  The Schur-Cohn disk count and the hypotheses of
`dominant_growth` against numpy's floating-point roots and eigenvectors.

Oracle-only: these tests add no behaviour and are skipped without sympy or
numpy.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from refdyn.core import (
    RatMatrix,
    UniPoly,
    algebraic_cmp,
    algebraic_equal,
    char_poly,
    factor_over_rationals,
    field_kernel,
    isolate_real_roots,
    minimal_poly,
)
from refdyn.transitions import CertificationError, _roots_in_disk, dominant_growth

sympy = pytest.importorskip("sympy")


def _random_matrix(rng, rows, cols, rank):
    """Integer rows x cols matrix of rank at most `rank` (a product B C)."""
    b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    c = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


def test_field_kernel_matches_sympy_nullspace():
    rng = random.Random(2024)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        kernel = field_kernel([[Fraction(x) for x in row] for row in a])
        oracle = sympy.Matrix(a).nullspace()
        assert len(kernel) == len(oracle)
        for v in kernel:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        if kernel:
            ours = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                                 for v in kernel]).T
            assert sympy.Matrix.hstack(ours, *oracle).rank() == len(kernel)


def _evaluate(p: UniPoly, m: RatMatrix) -> RatMatrix:
    result = RatMatrix.zero(m.rows, m.cols)
    for c in reversed(p.coeffs):
        result = result * m + RatMatrix.identity(m.rows).scale(c)
    return result


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


def _conjugate_unimodular(rng, m):
    """u m u^-1 for a random integer u of determinant one."""
    n = len(m)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        # row_i += k row_j on u; column_j -= k column_i on its inverse
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= k * row[i]
    um = RatMatrix(u) * RatMatrix(m) * RatMatrix(u_inv)
    return um.to_int_lists()


def _matrices(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        yield [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for _ in range(15):
        # derogatory: a repeated block next to a scalar block
        k = rng.randint(1, 2)
        block = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        c = rng.randint(-2, 2)
        yield _conjugate_unimodular(rng, _block_diagonal([block, block, [[c]]]))


def test_minimal_poly_is_the_least_annihilator():
    rng = random.Random(11)
    x = sympy.Symbol("x")
    for entries in _matrices(rng):
        m = RatMatrix(entries)
        mp = minimal_poly(m)
        cp = char_poly(m)
        assert cp.coeffs == tuple(
            Fraction(int(c)) for c in reversed(sympy.Matrix(entries).charpoly(x).all_coeffs())
        )
        assert _evaluate(mp, m) == RatMatrix.zero(m.rows, m.cols)
        assert (cp % mp).is_zero()
        _, factors = sympy.factor_list(sympy.Poly([int(c) for c in reversed(mp.coeffs)], x))
        for f, _ in factors:
            divisor = UniPoly(int(c) for c in reversed(f.all_coeffs()))
            proper = mp.divmod(divisor)[0]
            assert _evaluate(proper, m) != RatMatrix.zero(m.rows, m.cols)


def _random_factor(rng):
    """Integer coefficients, low to high, of a random factor of degree 1-3."""
    degree = rng.randint(1, 3)
    return [rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 3)]


def _random_poly(rng, max_degree):
    """A product of random factors, some squared, of degree 1..max_degree."""
    p = UniPoly((1,))
    while True:
        f = UniPoly(_random_factor(rng)) ** rng.choice((1, 1, 2))
        if p.degree + f.degree <= max_degree:
            p = p * f
        elif p.degree >= 1:
            return p
        if p.degree >= 1 and rng.random() < 0.25:
            return p


def _sympy_real_roots(p: UniPoly):
    """Distinct real roots, ascending, as exact sympy numbers (CRootOf or Rational)."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([_rat(c) for c in reversed(p.coeffs)], x)
    return [r for r, _ in poly.real_roots(multiple=False, radicals=False)]


def _rat(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def test_isolate_real_roots_matches_sympy():
    rng = random.Random(31)
    for _ in range(40):
        p = _random_poly(rng, 6)
        ours = isolate_real_roots(p)
        theirs = _sympy_real_roots(p)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, ours[1:]):
            assert a.hi <= b.lo
        for r, t in zip(ours, theirs):
            assert [u for u in theirs if _rat(r.lo) < u < _rat(r.hi)] == [t]


def test_algebraic_equal_and_cmp_match_sympy():
    rng = random.Random(32)
    for _ in range(12):
        # a shared factor with at least two real roots, one irrational
        shared = UniPoly((-rng.choice((2, 3, 5, 6, 7)), 0, 1))
        shared = shared * UniPoly(_random_factor(rng))
        f = shared * _random_poly(rng, 3)
        g = shared * _random_poly(rng, 3)
        for a, ta in zip(isolate_real_roots(f), _sympy_real_roots(f)):
            for b, tb in zip(isolate_real_roots(g), _sympy_real_roots(g)):
                expected = 0 if ta == tb else (-1 if ta < tb else 1)
                assert algebraic_equal(a, b) == (expected == 0)
                assert algebraic_cmp(a, b) == expected


def _normalized(pairs):
    """(integer coefficients low to high, multiplicity) of each factor, made
    primitive with a positive leading coefficient, sorted."""
    out = []
    for coeffs, mult in pairs:
        coeffs = [int(c) for c in coeffs]
        content = gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
        out.append((tuple(c // content for c in coeffs), mult))
    return sorted(out)


def _random_core_factor(rng, degree):
    """A random factor of the given degree with leading coefficient 2-4."""
    return UniPoly([rng.randint(-4, 4) for _ in range(degree)] + [rng.randint(2, 4)])


def test_factor_over_rationals_matches_sympy():
    rng = random.Random(41)
    x = sympy.Symbol("x")
    for case in range(60):
        p = UniPoly((rng.choice((1, 1, 2, -3, 6)),))  # often a non-primitive scale
        if case % 6 == 0:
            # two quartics: the search runs up to degree 4
            p = p * _random_core_factor(rng, 4) * _random_core_factor(rng, 4)
        else:
            p = p * UniPoly.x() ** rng.choice((0, 0, 0, 1, 2))
        while True:
            f = _random_core_factor(rng, rng.randint(2, 4))
            mult = rng.choice((1, 1, 1, 2))
            if p.degree + mult * f.degree > 8:
                break
            p = p * f**mult
        ours = factor_over_rationals(p)
        _, theirs = sympy.Poly([_rat(c) for c in reversed(p.coeffs)], x).factor_list()
        assert _normalized((f.coeffs, m) for f, m in ours) == _normalized(
            (reversed(f.all_coeffs()), m) for f, m in theirs
        ), (case, p.format())


def test_roots_in_disk_matches_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(7)
    compared = singular = 0
    for _ in range(3000):
        degree = rng.randint(1, 7)
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        r = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        moduli = np.abs(np.roots(list(reversed(coeffs))))
        if np.any(np.abs(moduli - float(r)) < 1e-6):
            continue
        count = _roots_in_disk(UniPoly(coeffs), r)
        if count is None:
            singular += 1
            continue
        assert count == int(np.sum(moduli < float(r))), (coeffs, r)
        compared += 1
    assert compared > 2800 and singular < 100


def _eigenvector(np, m, value):
    """Unit eigenvector of m for the eigenvalue nearest `value`."""
    eigenvalues, vectors = np.linalg.eig(m)
    v = vectors[:, int(np.argmin(np.abs(eigenvalues - value)))]
    return v / np.linalg.norm(v)


def _seen(x):
    """True or False for a clearly nonzero or clearly zero float, else None."""
    return True if abs(x) > 1e-6 else False if abs(x) < 1e-9 else None


def test_dominant_growth_hypotheses_match_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(11)
    outcomes = []
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.6:
            # block triangular, either way: eigenvectors with structural zeros
            split = rng.randint(1, n - 1)
            upper = rng.random() < 0.5
            for i in range(n):
                for j in range(n):
                    if (i >= split > j) if upper else (i < split <= j):
                        rows[i][j] = 0
        v0 = [rng.randint(-1, 1) for _ in range(n)]
        a = np.array(rows, dtype=float)
        eigenvalues = np.linalg.eigvals(a)
        order = np.argsort(-np.abs(eigenvalues))
        top, second = eigenvalues[order[0]], eigenvalues[order[1]]
        if abs(top) - abs(second) <= 1e-6 or abs(top.real) <= 1e-6:
            continue
        try:
            hypotheses = dominant_growth(RatMatrix(rows), v0).hypotheses
        except CertificationError as err:
            hypotheses = err.report.get("hypotheses")
        if top.real < 0:
            # the root of largest modulus is negative: mu1 is not dominant
            assert hypotheses is None or not hypotheses["strictly_dominant"], rows
            outcomes.append("negative top")
            continue
        assert hypotheses is not None and hypotheses["strictly_dominant"], rows
        sees_v0 = _seen(_eigenvector(np, a.T, top.real) @ np.array(v0, dtype=float))
        sees_first = _seen(_eigenvector(np, a, top.real)[0])
        if sees_v0 is None or sees_first is None:
            continue
        assert hypotheses["v0_sees_dominant_eigenspace"] == sees_v0, (rows, v0)
        assert hypotheses["eigenvector_sees_first_coordinate"] == sees_first, (rows, v0)
        outcomes.append((sees_v0, sees_first))
    # every verdict is reached: 58, 48, 8 and 8 times with this seed
    counts = [outcomes.count(o) for o in ("negative top", (True, True), (False, True), (True, False))]
    assert min(counts) >= 5, counts
