from fractions import Fraction

from refdyn.core import field_kernel


def test_kernel_of_eigen_system():
    # A - 2I for A = [[0, 1], [2, 1]], whose char poly x^2 - x - 2 has the root
    # 2: the kernel is one-dimensional, with a one at the free column
    a = [[-2, 1], [2, -1]]
    basis = field_kernel(a)
    assert basis == [[Fraction(1, 2), Fraction(1)]]
    for row in a:
        assert sum(x * y for x, y in zip(row, basis[0])) == 0
    # 3 is not an eigenvalue: A - 3I has a zero kernel
    assert field_kernel([[-3, 1], [2, -2]]) == []
