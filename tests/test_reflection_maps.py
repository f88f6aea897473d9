import pytest

from refdyn.core import MultiPoly, substitute_series, valuation
from refdyn.germs import random_transverse_trait
from refdyn.reflection_maps import (
    MONOMIAL_SUPPORTS,
    NVARS,
    QUADRIC_SLOTS,
    AdaptedCubic,
    ProjectiveMap,
    TriangleChart,
    monomial_pair,
    random_adapted_cubic,
    random_chart,
    single_reflection_formula,
    verify_involution,
    verify_preserves_cubic,
)


def V(i):
    return MultiPoly.variable(i, NVARS)


def triangle_formulas(
    chart: TriangleChart,
) -> tuple[ProjectiveMap, ProjectiveMap, ProjectiveMap]:
    """The three vertex reflections of the chart: reflection l multiplies
    every coordinate by x_l except slot QUADRIC_SLOTS[l], which carries q_l."""
    quadrics = (chart.q0, chart.q1, chart.q2)
    return tuple(
        ProjectiveMap(
            tuple(quadrics[l] if j == slot else V(l) * V(j) for j in range(NVARS))
        )
        for l, slot in enumerate(QUADRIC_SLOTS)
    )


def test_degenerate_formula_reduces_to_signed_identity():
    # with q = 0 the reflection is X1 times (X0 : -X1 : ... : -X5)
    ac = AdaptedCubic(MultiPoly.zero(NVARS), V(2) ** 3)
    sigma = single_reflection_formula(ac)
    signed = (V(0), -V(1), -V(2), -V(3), -V(4), -V(5))
    assert sigma.components == tuple(V(1) * c for c in signed)


def test_formula_components_for_generic_q():
    ac = random_adapted_cubic(1)
    sigma = single_reflection_formula(ac)
    assert sigma.components[0] == V(0) * V(1) + ac.q
    assert sigma.components[1] == -(V(1) ** 2)
    for j in range(2, NVARS):
        assert sigma.components[j] == -(V(1) * V(j))


def test_preserves_cubic_simple_case():
    ac = AdaptedCubic(MultiPoly.zero(NVARS), V(2) ** 3)
    assert verify_preserves_cubic(ac)


@pytest.mark.parametrize("seed", range(6))
def test_preserves_cubic_random(seed):
    assert verify_preserves_cubic(random_adapted_cubic(seed))


def test_preserves_cubic_detects_broken_formula():
    ac = random_adapted_cubic(2)
    sigma = single_reflection_formula(ac)
    broken = ProjectiveMap((V(0) * V(1),) + sigma.components[1:])  # drop the q summand
    f = ac.cubic_form()
    lhs = f.substitute(broken.components)
    rhs = -(V(1) ** 3) * f
    assert lhs != rhs


@pytest.mark.parametrize("seed", range(6))
def test_involution_random(seed):
    assert verify_involution(random_adapted_cubic(seed))


def test_involution_no_q():
    assert verify_involution(AdaptedCubic(MultiPoly.zero(NVARS), V(3) ** 3))


def test_involution_detects_sign_flip():
    ac = random_adapted_cubic(3)
    sigma = single_reflection_formula(ac)
    flipped = ProjectiveMap(sigma.components[:2] + (-sigma.components[2],) + sigma.components[3:])
    twice = flipped.compose(flipped)
    cube = V(1) ** 3
    expected = tuple(-(cube * V(j)) for j in range(NVARS))
    assert twice.components != expected


def test_adapted_cubic_validation():
    with pytest.raises(ValueError):
        AdaptedCubic(V(0) * V(1), V(2) ** 3)  # q involves the first variable
    with pytest.raises(ValueError):
        AdaptedCubic(V(2) ** 2, V(3) ** 2)  # c not cubic


def test_monomial_supports_membership():
    m0, m1, m2 = MONOMIAL_SUPPORTS
    assert (3, 4) in m0 and (0, 5) in m0
    assert (4, 5) not in m0
    assert (3, 5) in m1 and (1, 4) in m1 and (0, 4) not in m1
    assert (4, 5) in m2 and (2, 3) in m2
    assert monomial_pair((0, 0, 0, 1, 1, 0)) == (3, 4)
    assert monomial_pair((2, 0, 0, 0, 0, 0)) == (0, 0)


def test_triangle_formulas_single_monomial():
    x3x4 = MultiPoly(NVARS, {(0, 0, 0, 1, 1, 0): 1})
    chart = random_chart(0)
    chart = type(chart)(q0=x3x4, q1=chart.q1, q2=chart.q2)
    s0, _, _ = triangle_formulas(chart)
    assert s0.components == (
        V(0) ** 2,
        V(0) * V(1),
        V(0) * V(2),
        V(0) * V(3),
        V(0) * V(4),
        x3x4,
    )


def test_triangle_chart_rejects_support_violation():
    chart = random_chart(1)
    bad = MultiPoly(NVARS, {(1, 0, 0, 0, 1, 0): 1})  # x0*x4 is outside M1
    with pytest.raises(ValueError):
        type(chart)(q0=chart.q0, q1=bad, q2=chart.q2)


@pytest.mark.parametrize("seed", range(4))
def test_triangle_formulas_random_charts_valid(seed):
    chart = random_chart(seed)
    maps = triangle_formulas(chart)
    assert all(len(m.components) == NVARS for m in maps)
    for support, poly in zip(MONOMIAL_SUPPORTS, (chart.q0, chart.q1, chart.q2)):
        assert {monomial_pair(e) for e in poly.terms} == set(support)
    for l, (sigma, slot) in enumerate(zip(maps, QUADRIC_SLOTS)):
        assert sigma.components[slot] == (chart.q0, chart.q1, chart.q2)[l]


def test_triangle_formulas_fix_vertex_plane():
    # on x3 = x4 = x5 = 0 the first three components of reflection l are
    # x_l * (x0, x1, x2): the vertex plane maps into itself
    chart = random_chart(2)
    for l, sigma in enumerate(triangle_formulas(chart)):
        restricted = [
            c.set_variable(3, 0).set_variable(4, 0).set_variable(5, 0)
            for c in sigma.components[:3]
        ]
        expected = [
            (V(l) * V(j)).set_variable(3, 0).set_variable(4, 0).set_variable(5, 0)
            for j in range(3)
        ]
        assert restricted == expected


def test_reflection_image_component_valuations():
    # full image of a transverse trait under the first vertex reflection:
    # valuations before normalization are (2, 1, 1, 1, 1, 0)
    chart = random_chart(5)
    trait = random_transverse_trait(seed=5, order=16)
    sigma0 = triangle_formulas(chart)[0]
    vals = [valuation(substitute_series(c, trait.series)) for c in sigma0.components]
    assert vals == [2, 1, 1, 1, 1, 0]
