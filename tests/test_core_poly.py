import random
from fractions import Fraction

import pytest

from refdyn.core import factor
from refdyn.core import (
    MultiPoly,
    UniPoly,
    factor_over_rationals,
    poly_from_roots,
    rat_from_str,
    rat_to_str,
    rational_roots,
)


def P(*coeffs):
    return UniPoly(coeffs)


def test_rational_strings():
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_to_str(Fraction(4)) == "4"
    assert rat_from_str("22/7") == Fraction(22, 7)
    assert rat_from_str(" -5 ") == Fraction(-5)
    with pytest.raises(ValueError):
        rat_from_str("1.5")


def test_unipoly_arithmetic_and_division():
    f = P(2, 0, 1)  # x^2 + 2
    g = P(-1, 1)  # x - 1
    prod = f * g
    q, r = prod.divmod(g)
    assert q == f and r.is_zero()
    q, r = P(1, 1, 1).divmod(P(1, 1))
    assert q * P(1, 1) + r == P(1, 1, 1)
    assert P(0).is_zero() and P(0).degree == -1


def test_unipoly_eval_and_derivative():
    f = P(-2, -5, 1)  # x^2 - 5x - 2
    assert f(0) == -2
    assert f(Fraction(1, 2)) == Fraction(-17, 4)
    assert f.derivative() == P(-5, 2)


def test_gcd_and_squarefree():
    f = P(-1, 1) ** 2 * P(1, 0, 1)
    assert f.gcd(f.derivative()) == P(-1, 1)
    assert f.square_free_part() == (P(-1, 1) * P(1, 0, 1)).monic()
    decomp = f.square_free_decomposition()
    assert (P(1, 0, 1).monic(), 1) in decomp
    assert (P(-1, 1), 2) in decomp


def test_content_primitive():
    f = UniPoly([Fraction(2, 3), Fraction(4, 3)])
    content, prim = f.content_and_primitive()
    assert prim == P(1, 2)
    assert prim.scale(content) == f
    # primitive part always has positive leading coefficient
    _, prim = P(2, -4).content_and_primitive()
    assert prim.leading() > 0


def test_unipoly_json_roundtrip():
    f = UniPoly([Fraction(1, 2), 0, -3])
    assert UniPoly.from_json(f.to_json()) == f


def test_unipoly_format():
    assert P(-2, -5, 1).format() == "x^2 - 5x - 2"
    assert UniPoly.zero().format() == "0"
    assert P(1).format() == "1"


def test_rational_roots():
    f = poly_from_roots([1, Fraction(-2, 3)]) * P(1, 0, 1)
    assert rational_roots(f.primitive()) == [Fraction(-2, 3), Fraction(1)]


# conic+line characteristic polynomial: factors checked by re-multiplication
def test_factor_cubic_example():
    f = P(2, 3, -6, 1)  # x^3 - 6x^2 + 3x + 2
    facs = factor_over_rationals(f)
    assert facs == [(P(-1, 1), 1), (P(-2, -5, 1), 1)]


def test_factor_sextic_with_multiplicities():
    f = P(0, 0, 1) * P(-1, 1) ** 2 * P(-1, -4, 1)
    facs = dict(factor_over_rationals(f))
    assert facs[P(0, 1)] == 2
    assert facs[P(-1, 1)] == 2
    assert facs[P(-1, -4, 1)] == 1


def test_factor_irreducible_quadratic():
    assert factor_over_rationals(P(1, 0, 1)) == [(P(1, 0, 1), 1)]


def test_factor_kronecker_quartic():
    f = P(1, 0, 1) * P(-2, 0, 1)  # (x^2+1)(x^2-2), no rational roots
    facs = factor_over_rationals(f)
    assert {g for g, _ in facs} == {P(1, 0, 1), P(-2, 0, 1)}
    assert all(m == 1 for _, m in facs)


def test_factor_irreducible_octic():
    f = P(5, 0, 0, -12, 0, 0, 0, 0, 1)  # x^8 - 12x^3 + 5: every degree up to 4 searched
    assert factor_over_rationals(f) == [(f, 1)]


def test_factor_errors():
    with pytest.raises(ValueError):
        factor_over_rationals(UniPoly.zero())
    # degree 10: there is no degree bound
    sympy = pytest.importorskip("sympy")
    f = P(*range(1, 12))
    x = sympy.Symbol("x")
    _, theirs = sympy.factor_list(sum(c * x**i for i, c in enumerate(range(1, 12))))
    assert [(g.coeffs, m) for g, m in factor_over_rationals(f)] == [
        (tuple(reversed(sympy.Poly(g, x).all_coeffs())), m) for g, m in theirs
    ]


# two slow cases of the exhaustive search that factoring replaced: the screen
# proves the octic irreducible, and the product splits mod 7 as [4, 4]
def test_factor_octic_and_quartic_product():
    octic = P(-138, -250, 156, 60, -75, -51, -52, -11, 1)
    assert factor_over_rationals(octic) == [(octic, 1)]
    f = P(48, 8, -144, 40, -114, 56, -4, 28, 16)
    assert factor_over_rationals(f) == [
        (P(-6, 5, 4, 6, 2), 1),
        (P(-4, -4, 6, -5, 4), 1),
    ]


def test_factor_screen_proves_irreducibility_without_lifting(monkeypatch):
    def no_lift(*args):
        raise AssertionError("lifted a polynomial the screen proves irreducible")

    monkeypatch.setattr(factor, "_hensel_lift", no_lift)
    octic = P(-138, -250, 156, 60, -75, -51, -52, -11, 1)
    assert factor_over_rationals(octic) == [(octic, 1)]
    # x^4 + 1 splits mod every prime, so only recombination proves it
    with pytest.raises(AssertionError, match="^lifted"):
        factor_over_rationals(P(1, 0, 0, 0, 1))


# irreducible over Q but reducible mod every prime: recombination must
# reject every pair of modular factors
@pytest.mark.parametrize(
    "polys",
    [
        [P(1, 0, -10, 0, 1)],
        [P(1, 0, 0, 0, 1)],
        [P(1, 0, -10, 0, 1), P(1, 0, 0, 0, 1)],
        [P(1, 0, 0, 0, 1), P(576, 0, -960, 0, 352, 0, -40, 0, 1)],
    ],
    # the octic is the minimal polynomial of sqrt(2) + sqrt(3) + sqrt(5)
    ids=["x^4-10x^2+1", "x^4+1", "both", "x^4+1 and an octic"],
)
def test_factor_recombines_polynomials_split_mod_every_prime(polys):
    f = UniPoly.one()
    for g in polys:
        f = f * g
    assert factor_over_rationals(f) == sorted(
        ((g, 1) for g in polys), key=lambda gm: (gm[0].degree, gm[0].coeffs)
    )


def test_factor_remultiplies(
    trials=12,
):
    rng = random.Random(20240601)
    for _ in range(trials):
        f = UniPoly.one()
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 2)
            f = f * UniPoly([rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 3)])
        if f.degree < 1 or f.degree > 8:
            continue
        prod = UniPoly.one()
        for g, m in factor_over_rationals(f):
            prod = prod * g**m
        # equality up to a rational constant
        ratio = f.leading() / prod.leading()
        assert prod.scale(ratio) == f


def test_multipoly_basics():
    x0 = MultiPoly.variable(0, 2)
    x1 = MultiPoly.variable(1, 2)
    f = x0 * x0 + x0 * x1.scale(3)
    assert f.total_degree() == 2
    assert f.is_homogeneous(2)
    assert f((2, 1)) == 4 + 6
    assert (f - f).is_zero()
    g = f.substitute((x1, x0))  # swap variables
    assert g((1, 2)) == f((2, 1))


def test_multipoly_homogeneity_and_vars():
    f = MultiPoly(3, {(1, 0, 0): 1, (0, 0, 2): 1})
    assert not f.is_homogeneous()
    assert f.uses_only_vars([0, 2])
    assert not f.uses_only_vars([0, 1])


def test_multipoly_set_variable():
    x0 = MultiPoly.variable(0, 2)
    x1 = MultiPoly.variable(1, 2)
    f = x0 * x1 + x1 * x1
    assert f.set_variable(1, 0).is_zero()


def test_multipoly_json_roundtrip():
    f = MultiPoly(3, {(1, 1, 0): Fraction(1, 3), (0, 0, 2): -2})
    assert MultiPoly.from_json(f.to_json()) == f
