import random
from fractions import Fraction

import pytest

from refdyn.core import RatMatrix, UniPoly, char_poly, minimal_poly


def test_char_poly_scalar():
    assert char_poly(RatMatrix([[5]])) == UniPoly((-5, 1))


def test_char_poly_two_point_matrix():
    m = RatMatrix([[4, 2, 0, 1], [0, 0, 1, 0], [-6, -3, 0, -2], [-3, -2, 0, 0]])
    assert char_poly(m) == UniPoly((-1, 1)) ** 4


def test_char_poly_degree_growth_matrix():
    m = RatMatrix([[0, 1, 0], [-3, 0, 5], [-4, 0, 6]])
    # cofactor expansion of det(xI - A) gives x^3 - 6x^2 + 3x + 2
    assert char_poly(m) == UniPoly((2, 3, -6, 1))


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(RatMatrix([[1, 2, 3], [4, 5, 6]]))


def test_minimal_poly_identity_and_scalar():
    assert minimal_poly(RatMatrix.identity(3)) == UniPoly((-1, 1))
    assert minimal_poly(RatMatrix([[2, 0], [0, 2]])) == UniPoly((-2, 1))


def test_minimal_poly_jordan_block():
    m = RatMatrix([[1, 1], [0, 1]])
    assert minimal_poly(m) == UniPoly((-1, 1)) ** 2


def test_minimal_divides_char_exactly():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        cp, mp = char_poly(m), minimal_poly(m)
        q, r = cp.divmod(mp)
        assert r.is_zero()
        assert (mp * q) == cp


def test_matrix_ops():
    a = RatMatrix([[1, 2], [3, 4]])
    assert a * RatMatrix.identity(2) == a
    assert a.matvec((1, 0)) == (Fraction(1), Fraction(3))
    assert (a**0) == RatMatrix.identity(2)
    with pytest.raises(ValueError):
        RatMatrix([[1], [2, 3]])
    with pytest.raises(ValueError):
        RatMatrix([])
