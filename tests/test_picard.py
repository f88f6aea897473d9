import pytest

from refdyn.core import RatMatrix, UniPoly, char_poly
from refdyn.picard import (
    PicardBasis,
    degree_tuple_generic,
    single_reflection_action,
    two_point_action,
)
from refdyn.transitions import check_log_concavity, degree_tuple


def test_single_reflection_matrix():
    action = single_reflection_action()
    assert action.matrix == RatMatrix([[2, 1, 0], [-3, -2, 0], [-1, -1, 1]])
    assert action.basis.labels == ("H~", "E~(p)", "F~(p)")


def test_single_reflection_is_involution():
    action = single_reflection_action()
    assert action.matrix * action.matrix == RatMatrix.identity(3)


def test_single_reflection_char_poly():
    # trace 1 and determinant -1 force (x-1)^2 (x+1)
    cp = char_poly(single_reflection_action().matrix)
    assert cp == UniPoly((-1, 1)) ** 2 * UniPoly((1, 1))


def test_two_point_matrix_and_char_poly():
    action = two_point_action()
    assert action.matrix == RatMatrix(
        [[4, 2, 0, 1], [0, 0, 1, 0], [-6, -3, 0, -2], [-3, -2, 0, 0]]
    )
    assert char_poly(action.matrix) == UniPoly((-1, 1)) ** 4


def test_two_point_action_is_not_diagonalizable():
    # spectral radius one with polynomial growth: (M - I) has positive rank
    m = two_point_action().matrix
    diff = m - RatMatrix.identity(4)
    assert any(x != 0 for row in diff.entries for x in row)
    assert diff * diff != RatMatrix.zero(4, 4)  # rank stays positive at the square


def test_basis_labels_distinct():
    with pytest.raises(ValueError):
        PicardBasis(("H", "H"))


@pytest.mark.parametrize(
    "n,expected", [(1, 1), (2, 1), (3, 8), (5, 32), (10, 1024)]
)
def test_degree_tuple_generic(n, expected):
    triple = degree_tuple_generic(n)
    assert all(v.rational_value() == expected for v in triple)


def test_degree_tuple_generic_rejects_nonpositive():
    with pytest.raises(ValueError):
        degree_tuple_generic(0)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_degree_tuple_generic_log_concave(n):
    t = degree_tuple([1, *degree_tuple_generic(n), 1])
    holds, _ = check_log_concavity(t)
    assert holds
