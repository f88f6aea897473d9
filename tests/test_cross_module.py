"""Invariants that tie several modules together."""

from fractions import Fraction

import pytest

from refdyn.core import substitute_series, valuation
from refdyn.germs import random_transverse_trait, transverse_start, valuation_step
from refdyn.reflection_maps import AdaptedCubic, TriangleChart, random_adapted_cubic, random_chart
from refdyn.transitions import (
    StateVector,
    check_log_concavity,
    degree_tuple,
    dominant_growth,
    fibration_degrees,
    triangle_cycle_product,
)


def test_quadric_slot_substitution_has_valuation_zero():
    # substituting a transverse trait into the first quadric slot: the
    # minimal support-pair valuation sum is zero, so the series is a unit
    chart = random_chart(4)
    trait = random_transverse_trait(seed=4, order=16)
    image = substitute_series(chart.q0, trait.series)
    assert valuation(image) == 0


def test_fibration_preserves_log_concavity():
    mu = dominant_growth(
        triangle_cycle_product(), StateVector((1, 0, 0, 0, 0, 0))
    ).mu1
    for base in (
        degree_tuple([1, 2, 2, 1]),
        degree_tuple([1, 3, 3, 2, 1]),
        degree_tuple([1, mu, mu, mu, 1]),
    ):
        assert check_log_concavity(base)[0]
        lifted = fibration_degrees(base)
        assert check_log_concavity(lifted)[0]


def test_valuation_chain_block_ratio_within_1e6_by_block_15():
    d = transverse_start()
    blocks = []
    for k in range(48):
        d, _ = valuation_step(d)
        if d.phase % 3 == 0:
            blocks.append(d.vals[0])
    ratio = Fraction(blocks[14], blocks[13])
    mu = dominant_growth(
        triangle_cycle_product(), StateVector((1, 0, 0, 0, 0, 0))
    ).mu1.refined(Fraction(1, 10**9))
    assert abs(ratio - mu.lo) < Fraction(1, 10**6)
    assert abs(ratio - mu.hi) < Fraction(1, 10**6)


def test_valuation_step_detects_tampered_matrices(monkeypatch):
    import refdyn.germs as germs_mod
    from refdyn.transitions import triangle_matrices

    p0, p1, p2 = triangle_matrices()
    monkeypatch.setattr(germs_mod, "triangle_matrices", lambda: (p0, p2, p1))
    d, _ = germs_mod.valuation_step(transverse_start())
    with pytest.raises(AssertionError):
        germs_mod.valuation_step(d)


def test_adapted_cubic_json_roundtrip():
    ac = random_adapted_cubic(6)
    again = AdaptedCubic.from_obj(ac.to_obj())
    assert again.q == ac.q and again.c == ac.c


def test_triangle_chart_json_roundtrip():
    chart = random_chart(6)
    again = TriangleChart.from_obj(chart.to_obj())
    assert (again.q0, again.q1, again.q2) == (chart.q0, chart.q1, chart.q2)
