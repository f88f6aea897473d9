import random

import pytest

from refdyn.core import (
    MultiPoly,
    TruncatedSeries,
    TruncationExhausted,
    substitute_series,
    valuation,
)


def S(coeffs, order):
    return TruncatedSeries(coeffs, order)


def test_valuation_basic():
    assert valuation(S([0, 0, 1, 1], 4)) == 2  # t^2 + t^3
    assert valuation(S([3, 1], 4)) == 0  # 3 + t


def test_valuation_exhausted():
    with pytest.raises(TruncationExhausted):
        valuation(TruncatedSeries.zero(8))


def test_substitute_product():
    f = MultiPoly(2, {(1, 1): 1})  # x0*x1
    t = TruncatedSeries.t_power(1, 4)
    one_plus_t = S([1, 1], 4)
    assert substitute_series(f, (t, one_plus_t)) == S([0, 1, 1], 4)  # t + t^2


def test_substitute_square():
    f = MultiPoly(1, {(2,): 1})
    t = TruncatedSeries.t_power(1, 4)
    assert substitute_series(f, (t,)) == S([0, 0, 1], 4)


def test_substitute_arity_and_order_errors():
    f = MultiPoly(2, {(1, 1): 1})
    t = TruncatedSeries.t_power(1, 4)
    with pytest.raises(ValueError):
        substitute_series(f, (t,))
    with pytest.raises(ValueError):
        substitute_series(f, (t, TruncatedSeries.t_power(1, 5)))


def _random_series(rng, order):
    return S([rng.randint(-5, 5) for _ in range(order)], order)


def test_substitution_linear_in_polynomial():
    rng = random.Random(99)
    order = 8
    for _ in range(10):
        f = MultiPoly(2, {(2, 0): rng.randint(-3, 3), (1, 1): rng.randint(-3, 3)})
        g = MultiPoly(2, {(0, 2): rng.randint(-3, 3), (1, 0): rng.randint(-3, 3)})
        args = (_random_series(rng, order), _random_series(rng, order))
        lhs = substitute_series(f + g, args)
        rhs = substitute_series(f, args) + substitute_series(g, args)
        assert lhs == rhs


def test_monomial_valuation_adds():
    rng = random.Random(4)
    order = 10
    for _ in range(10):
        a = TruncatedSeries.t_power(rng.randint(0, 3), order, rng.randint(1, 4))
        b = TruncatedSeries.t_power(rng.randint(0, 3), order, rng.randint(1, 4))
        f = MultiPoly(2, {(1, 1): 1})
        assert valuation(substitute_series(f, (a, b))) == valuation(a) + valuation(b)


def test_series_mul_truncates():
    a = S([1] * 4, 4)
    b = a * a
    assert b == S([1, 2, 3, 4], 4)

