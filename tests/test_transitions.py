from fractions import Fraction

import pytest

from refdyn.core import (
    RatMatrix,
    UniPoly,
    algebraic_equal,
    char_poly,
    minimal_poly,
)
from refdyn.transitions import (
    CertificationError,
    StateVector,
    TransitionSystem,
    check_log_concavity,
    conic_line_matrix,
    conic_line_step,
    conic_line_system,
    conic_line_table_row,
    degree_tuple,
    dominant_growth,
    fibration_degrees,
    growth_estimate,
    integer_nth_root,
    inverse_tuple,
    iterate,
    triangle_cycle_product,
    triangle_matrices,
    triangle_system,
    tuples_equal,
)
from refdyn.transitions import _roots_in_disk

DISPLAYED_CYCLE_PRODUCT = RatMatrix(
    [
        [3, 1, 1, -3, -2, 0],
        [2, 2, 1, -3, -2, 0],
        [2, 1, 2, -3, -2, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 1, -1, -1, 0],
        [1, 1, 1, -2, -1, 0],
    ]
)


# -- line-conic steps ----------------------------------------------------------


def test_step_p_from_initial_state():
    assert conic_line_step(StateVector((0, 0, 1)), "p").entries == (1, 0, 2)


def test_table_rows_are_cumulative():
    # the bookkeeping table rows: row q applied at the cycle start (1,0,2)
    assert conic_line_table_row(StateVector((1, 0, 2)), "q").entries == (3, 0, 4)
    assert conic_line_table_row(StateVector((0, 0, 1)), "p").entries == (1, 0, 2)
    # the full-cycle row agrees with the matrix; from (3,0,4) it gives
    # (gamma, 5*delta - 3*lambda, 6*delta - 4*lambda) = (0, 11, 12)
    row = conic_line_table_row(StateVector((3, 0, 4)), "r")
    assert row.entries == (0, 11, 12)
    assert tuple(int(x) for x in conic_line_matrix().matvec((3, 0, 4))) == (0, 11, 12)


def test_step_rejects_inconsistent_state():
    with pytest.raises(ValueError):
        conic_line_step(StateVector((3, 0, 2)), "p")
    with pytest.raises(ValueError):
        conic_line_step(StateVector((0, 0, 1)), "s")


def test_matrix_is_the_pqr_cycle():
    assert conic_line_matrix() == RatMatrix([[0, 1, 0], [-3, 0, 5], [-4, 0, 6]])
    assert char_poly(conic_line_matrix()) == UniPoly((2, 3, -6, 1))
    assert tuple(int(x) for x in conic_line_matrix().matvec((0, 0, 1))) == (0, 5, 6)


def test_step_chain_reconciles_with_matrix_on_grid():
    # exhaustive reconciliation: stepping p, q, r equals the one-cycle matrix
    m = conic_line_matrix()
    for delta in range(21):
        for lam in range(delta + 1):
            for gam in range(21):
                s = StateVector((lam, gam, delta))
                for ref in "pqr":
                    s = conic_line_step(s, ref)
                assert s.entries == tuple(int(x) for x in m.matvec((lam, gam, delta)))


def test_reversed_reflection_order_same_growth():
    # applying r first and the line reflections after gives a conjugate
    # one-cycle matrix with the same dominant growth
    line_step = RatMatrix([[0, 0, 1], [0, 1, 0], [-1, 0, 2]])
    conic_step = RatMatrix([[0, 1, 0], [1, 0, 1], [0, 0, 2]])
    forward = conic_step * line_step * line_step
    assert forward == conic_line_matrix()
    reversed_cycle = line_step * line_step * conic_step
    mu_f = dominant_growth(forward, StateVector((0, 0, 1))).mu1
    mu_r = dominant_growth(reversed_cycle, StateVector((0, 0, 1))).mu1
    assert algebraic_equal(mu_f, mu_r)


# -- triangle system -----------------------------------------------------------


def test_triangle_matrices_first_column():
    p0, _, _ = triangle_matrices()
    assert p0.column(0) == tuple(Fraction(c) for c in (2, 1, 1, 1, 1, 0))


def test_triangle_cycle_product_matches_displayed_matrix():
    assert triangle_cycle_product() == DISPLAYED_CYCLE_PRODUCT
    assert triangle_cycle_product().column(0) == tuple(
        Fraction(c) for c in (3, 2, 2, 0, 1, 1)
    )


def test_triangle_cycle_char_poly():
    cp = char_poly(triangle_cycle_product())
    x = UniPoly((0, 1))
    assert cp == x**2 * UniPoly((-1, 1)) ** 2 * UniPoly((-1, -4, 1))


def test_triangle_cycle_minimal_poly():
    # the displayed product is annihilated by x (x-1) (x^2-4x-1) already:
    # the rank-4 matrix has semisimple 0 and 1 eigenvalues
    mp = minimal_poly(triangle_cycle_product())
    x = UniPoly((0, 1))
    assert mp == (x * UniPoly((-1, 1)) * UniPoly((-1, -4, 1))).monic()


def test_iterate_triangle_three_steps():
    out = iterate(triangle_system(), StateVector((1, 0, 0, 0, 0, 0)), 3)
    assert out[-1].entries == (3, 2, 2, 0, 1, 1)
    assert [s.entries for s in out[:3]] == [
        (1, 0, 0, 0, 0, 0),
        (2, 1, 1, 1, 1, 0),
        (2, 1, 1, 1, 0, 0),
    ]


def test_iterate_conic_line_degrees():
    out = iterate(conic_line_system(), StateVector((0, 0, 1)), 4)
    assert [s.entries[2] for s in out] == [1, 6, 36, 196, 1056]


def test_iterate_zero_steps_and_errors():
    v = StateVector((1, 2, 3))
    assert iterate(conic_line_system(), v, 0) == [v]
    with pytest.raises(ValueError):
        iterate(conic_line_system(), StateVector((1, 2)), 1)
    with pytest.raises(ValueError):
        iterate(conic_line_system(), v, -1)


def test_triangle_dominance_invariant_sixty_steps():
    out = iterate(triangle_system(), StateVector((1, 0, 0, 0, 0, 0)), 60)
    for v in out:
        head = min(v.entries[:3])
        tail = max(v.entries[3:])
        assert head >= tail


# -- dominant growth -----------------------------------------------------------


def test_dominant_growth_conic_line():
    sd = dominant_growth(conic_line_matrix(), StateVector((0, 0, 1)))
    assert sd.factor == UniPoly((-2, -5, 1))
    assert all(sd.hypotheses.values())
    lo, hi = sd.mu1.decimal_enclosure(10)
    assert float(lo) <= 5.372281323269014 <= float(hi)


def test_dominant_growth_triangle():
    sd = dominant_growth(triangle_cycle_product(), StateVector((1, 0, 0, 0, 0, 0)))
    assert sd.factor == UniPoly((-1, -4, 1))
    assert all(sd.hypotheses.values())
    lo, hi = sd.mu1.decimal_enclosure(10)
    # 2 + sqrt(5) = 4.2360679774997896...
    assert float(lo) <= 4.2360679775 and float(hi) >= 4.2360679774


def test_dominant_growth_identity_fails():
    with pytest.raises(CertificationError) as err:
        dominant_growth(RatMatrix.identity(3), StateVector((1, 0, 0)))
    assert "repeated root" in str(err.value)


def test_dominant_growth_rejects_no_positive_root():
    with pytest.raises(CertificationError):
        dominant_growth(RatMatrix([[0, -1], [1, 0]]), StateVector((1, 0)))


def test_dominant_growth_complex_pair_dominated():
    # block diag(3, rotation*2): complex pair of modulus 2 below the real 3
    m = RatMatrix([[3, 0, 0], [0, 0, -4], [0, 1, 0]])
    sd = dominant_growth(m, StateVector((1, 1, 1)))
    assert sd.mu1.contains_rational(3)
    assert sd.hypotheses["strictly_dominant"]


def test_roots_in_disk_compares_moduli():
    # x^2 - 5x - 2 has the roots (5 +- sqrt 33)/2, about 5.37 and -0.37
    f = UniPoly((-2, -5, 1))
    assert _roots_in_disk(f, Fraction(1, 3)) == 0
    assert _roots_in_disk(f, Fraction(1, 2)) == 1
    assert _roots_in_disk(f, 5) == 1
    assert _roots_in_disk(f, 6) == 2
    # |-2| = |2|: both roots of x^2 - 4 lie on |z| = 2, and the table is singular
    assert _roots_in_disk(UniPoly((-4, 0, 1)), 2) is None
    assert _roots_in_disk(UniPoly((-4, 0, 1)), 3) == 2
    # a root at 0 and a double root: x^2 (x - 1/2)^2 (x - 3)
    g = UniPoly((0, 0, Fraction(1, 4), -1, 1)) * UniPoly((-3, 1))
    assert _roots_in_disk(g, 1) == 4


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 4], [1, 0]],  # eigenvalues 2 and -2
        [[2, 0, 0], [0, 0, -4], [0, 1, 0]],  # eigenvalues 2 and +-2i
    ],
    ids=["real", "complex pair"],
)
def test_dominant_growth_rejects_a_root_of_equal_modulus(rows):
    with pytest.raises(CertificationError) as err:
        dominant_growth(RatMatrix(rows), StateVector((1,) * len(rows)))
    hyps = err.value.report["hypotheses"]
    assert {k for k, ok in hyps.items() if not ok} == {"strictly_dominant"}
    assert str(err.value) == "strict dominance over the other roots not certified"


def test_dominant_growth_certifies_a_dominant_factor_with_complex_roots():
    # x^4 - 2x^3 - x^2 - 3x + 2 is irreducible, with a real root 2.685, a real
    # root 0.54 and a complex pair of modulus 1.206
    m = RatMatrix([[0, 0, 0, -2], [1, 0, 0, 3], [0, 1, 0, 1], [0, 0, 1, 2]])
    sd = dominant_growth(m, StateVector((1, 1, 1, 1)))
    assert sd.factor == char_poly(m)
    assert all(sd.hypotheses.values())


def test_dominant_growth_certifies_a_nine_by_nine_matrix():
    # [[A, B], [0, C]]: A positive 5x5 with char poly (x + 1)(x^4 - 7x^3 -
    # 18x^2 + 38x + 16), C the companion of x^4 + x + 1; degree 9 to factor
    a = [[1, 2, 3, 1, 2], [2, 1, 1, 3, 1], [3, 1, 2, 2, 1], [1, 3, 1, 1, 2], [2, 2, 1, 3, 1]]
    b = [[1, 0, 2, 1], [0, 1, 1, 0], [2, 0, 0, 1], [1, 1, 0, 0], [0, 2, 1, 1]]
    c = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]
    m = RatMatrix([a[i] + b[i] for i in range(5)] + [[0] * 5 + c[i] for i in range(4)])
    sd = dominant_growth(m, StateVector((1,) * 9))
    quartic = UniPoly((16, 38, -18, -7, 1))
    assert sd.factorization == ((UniPoly((1, 1)), 1), (UniPoly((1, 1, 0, 0, 1)), 1), (quartic, 1))
    assert sd.factor == quartic
    assert all(sd.hypotheses.values())
    # numpy.linalg.eigvals gives the spectral radius 8.55882585862063
    assert sd.mu1.decimal_enclosure(8) == ("8.55882585", "8.55882586")


def _with_quartic_block(eigenvalue):
    # block diag(eigenvalue, companion of x^4 + 8x + 16), whose four complex
    # roots all have modulus about 2.12 while the Cauchy bound is 17
    return RatMatrix(
        [
            [eigenvalue, 0, 0, 0, 0],
            [0, 0, 0, 0, -16],
            [0, 1, 0, 0, -8],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ]
    )


def test_dominant_growth_certifies_past_coarse_bound():
    # the coarse bound fails (17 > 3), so the exact disk test must decide
    sd = dominant_growth(_with_quartic_block(3), StateVector((1, 1, 1, 1, 1)))
    assert sd.mu1.contains_rational(3)
    assert all(sd.hypotheses.values())


def test_dominant_growth_rejects_dominated_real_root():
    # eigenvalue 2 sits below the complex moduli (~2.12): not certifiable
    with pytest.raises(CertificationError):
        dominant_growth(_with_quartic_block(2), StateVector((1, 1, 1, 1, 1)))


def test_dominant_growth_refutes_a_larger_root_at_once(monkeypatch):
    # -3 outgrows the positive eigenvalue 2: a disk around 2 that misses -3
    # settles it without refining toward 2
    from refdyn import transitions

    counts = []

    def counting(h, r):
        counts.append(r)
        return _roots_in_disk(h, r)

    monkeypatch.setattr(transitions, "_roots_in_disk", counting)
    with pytest.raises(CertificationError) as err:
        dominant_growth(RatMatrix([[2, 0], [0, -3]]), StateVector((1, 1)))
    assert str(err.value) == "strict dominance over the other roots not certified"
    assert {k for k, ok in err.value.report["hypotheses"].items() if not ok} == {
        "strictly_dominant"
    }
    assert 1 <= len(counts) <= 2


# Each matrix has a simple, strictly dominant eigenvalue and makes exactly one
# eigenvector hypothesis fail.  The irrational ones carry the companion block
# of x^2 - 4x - 1 (dominant root 2 + sqrt 5), whose left and right eigenvectors
# for 2 + sqrt 5 are both (1, 2 + sqrt 5).
EIGENVECTOR_FAILURES = [
    # left eigenvector (1, 0) is orthogonal to v0 = (0, 1)
    ("rational, v0 unseen", [[3, 0], [1, 1]], (0, 1), "v0_sees_dominant_eigenspace"),
    # right eigenvector (0, 1) has zero first coordinate
    ("rational, first coordinate unseen", [[1, 0], [1, 3]], (1, 1),
     "eigenvector_sees_first_coordinate"),
    # left eigenvector (1, 2 + sqrt 5, 0) is orthogonal to v0 = (0, 0, 1)
    ("irrational, v0 unseen", [[0, 1, 0], [1, 4, 0], [1, 1, 1]], (0, 0, 1),
     "v0_sees_dominant_eigenspace"),
    # right eigenvector (0, 1, 2 + sqrt 5) has zero first coordinate
    ("irrational, first coordinate unseen", [[1, 0, 0], [1, 0, 1], [1, 1, 4]], (1, 1, 1),
     "eigenvector_sees_first_coordinate"),
]

EIGENVECTOR_MESSAGES = {
    "v0_sees_dominant_eigenspace": "start vector lies in the span of the other eigenspaces",
    "eigenvector_sees_first_coordinate": "dominant eigenvector has zero first coordinate",
}


@pytest.mark.parametrize(
    "rows,v0,failing",
    [c[1:] for c in EIGENVECTOR_FAILURES],
    ids=[c[0] for c in EIGENVECTOR_FAILURES],
)
def test_dominant_growth_eigenvector_hypothesis_fails(rows, v0, failing):
    with pytest.raises(CertificationError) as err:
        dominant_growth(RatMatrix(rows), StateVector(v0))
    hyps = err.value.report["hypotheses"]
    assert {k for k, ok in hyps.items() if not ok} == {failing}
    assert str(err.value) == EIGENVECTOR_MESSAGES[failing]


def test_dominant_growth_matches_sequence_ratio():
    sd = dominant_growth(conic_line_matrix(), StateVector((0, 0, 1)))
    seq = [s.entries[2] for s in iterate(conic_line_system(), StateVector((0, 0, 1)), 40)]
    tail_ratio = Fraction(seq[-1], seq[-2])
    mu = sd.mu1.refined(Fraction(1, 10**9))
    assert abs(tail_ratio - mu.lo) < Fraction(1, 10**6)
    # and for the triangle, over period-3 blocks
    sd3 = dominant_growth(triangle_cycle_product(), StateVector((1, 0, 0, 0, 0, 0)))
    out = iterate(triangle_system(), StateVector((1, 0, 0, 0, 0, 0)), 120)
    blocks = [v.entries[0] for v in out if v.phase % 3 == 0 and v.entries[0] > 0]
    ratio = Fraction(blocks[-1], blocks[-2])
    mu3 = sd3.mu1.refined(Fraction(1, 10**9))
    assert abs(ratio - mu3.lo) < Fraction(1, 10**6)


# -- growth diagnostics ----------------------------------------------------------


def test_growth_estimate_examples():
    ge = growth_estimate([1, 6, 36, 196, 1056])
    assert ge.ratios == (
        Fraction(6),
        Fraction(6),
        Fraction(49, 9),
        Fraction(264, 49),
    )
    ge2 = growth_estimate([5, 5, 5])
    assert ge2.ratios == (Fraction(1), Fraction(1))
    ge3 = growth_estimate([1, 2, 4, 8, 16])
    assert ge3.ratios == (Fraction(2),) * 4
    assert all(abs(r - 2) < Fraction(1, 10**8) for r in ge3.mth_roots)


def test_growth_estimate_errors():
    with pytest.raises(ValueError):
        growth_estimate([])
    with pytest.raises(ValueError):
        growth_estimate([1, 0, 2])


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(10**18, 2) == 10**9


# -- tuple utilities ---------------------------------------------------------------


def test_fibration_degrees():
    assert [v.rational_value() for v in fibration_degrees(degree_tuple([1, 1, 1, 1])).values] == [1] * 5
    assert [v.rational_value() for v in fibration_degrees(degree_tuple([1, 2, 1])).values] == [1, 2, 2, 1]
    assert [v.rational_value() for v in fibration_degrees(degree_tuple([1, 3, 2, 1])).values] == [1, 3, 3, 2, 1]


def test_inverse_tuple():
    t = degree_tuple([1, 2, 3, 2, 1])
    assert [v.rational_value() for v in inverse_tuple(t).values] == [1, 2, 3, 2, 1]
    asym = degree_tuple([1, 2, 3, 5, 1])
    assert [v.rational_value() for v in inverse_tuple(asym).values] == [1, 5, 3, 2, 1]
    t32 = degree_tuple([1, 32, 32, 32, 1])
    assert tuples_equal(t32, inverse_tuple(t32))


def test_log_concavity_verdicts():
    ok, cert = check_log_concavity(degree_tuple([1, 4, 4, 4, 1]))
    assert ok and all(c["holds"] for c in cert)
    bad, cert = check_log_concavity(degree_tuple([1, 2, 5, 2, 1]))
    assert not bad
    assert any(not c["holds"] for c in cert)


def test_log_concavity_algebraic_tuple():
    mu = dominant_growth(conic_line_matrix(), StateVector((0, 0, 1))).mu1
    ok, cert = check_log_concavity(degree_tuple([1, mu, mu, mu, 1]))
    assert ok
    # the middle comparison is an exact tie settled by equality of roots
    assert any(c["decided_by"] == "exact-equality" for c in cert)


def test_degree_tuple_validation():
    with pytest.raises(ValueError):
        degree_tuple([2, 3, 1])
    with pytest.raises(ValueError):
        degree_tuple([1, Fraction(1, 2), 1])


# -- serialization ------------------------------------------------------------------


def test_system_json_roundtrip():
    sys3 = triangle_system()
    again = TransitionSystem.from_json(sys3.to_json())
    assert again == sys3
    v = StateVector((1, 0, 2), phase=5)
    assert StateVector.from_json(v.to_json()) == v
