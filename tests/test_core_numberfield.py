import pytest

from refdyn.core import NumberFieldElement, UniPoly, field_kernel


MOD = UniPoly((-2, -5, 1))  # x^2 - 5x - 2, irreducible


def nfe(*coeffs):
    return NumberFieldElement(MOD, UniPoly(coeffs))


def test_generator_satisfies_modulus():
    theta = NumberFieldElement.generator(MOD)
    assert (theta * theta - nfe(2, 5)).is_zero()  # theta^2 = 5 theta + 2


def test_field_inverse():
    theta = NumberFieldElement.generator(MOD)
    x = theta + nfe(3)
    assert (x * x.inverse() - nfe(1)).is_zero()
    with pytest.raises(ZeroDivisionError):
        nfe().inverse()


def test_division():
    theta = NumberFieldElement.generator(MOD)
    y = (theta * theta) / theta
    assert y == theta


def test_mixed_fields_rejected():
    other = NumberFieldElement(UniPoly((-2, 0, 1)), UniPoly((1,)))
    with pytest.raises(ValueError):
        nfe(1) + other


def test_kernel_of_eigen_system():
    # (A - theta I) for A = [[0,1],[2,5]] has char poly x^2-5x-2 = MOD,
    # so the kernel over the field is one-dimensional
    theta = NumberFieldElement.generator(MOD)
    one = nfe(1)
    zero = nfe()
    a = [[zero - theta, one], [nfe(2), nfe(5) - theta]]
    basis = field_kernel(a, zero, one)
    assert len(basis) == 1
    v = basis[0]
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            acc = acc + x * y
        assert acc.is_zero()


def test_modulus_validation():
    with pytest.raises(ValueError):
        NumberFieldElement(UniPoly((1, 2)), UniPoly((1,)))  # not monic
    with pytest.raises(ValueError):
        NumberFieldElement(UniPoly((5,)), UniPoly((1,)))  # constant
