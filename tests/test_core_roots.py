import random
import signal
from fractions import Fraction

import pytest

import refdyn.core.roots
import refdyn.core.unipoly
from refdyn.core import (
    AlgebraicReal,
    UniPoly,
    algebraic_cmp,
    algebraic_equal,
    cmp_with_rational,
    isolate_real_roots,
    outward_decimals,
    sturm_chain,
)
from refdyn.core.roots import sign_variations_at


def P(*c):
    return UniPoly(c)


def count_roots_in(f, lo, hi):
    """Number of distinct real roots of f in the half-open interval (lo, hi]:
    a Sturm count."""
    chain = sturm_chain(f)
    return sign_variations_at(chain, lo) - sign_variations_at(chain, hi)


def poly_from_roots(roots):
    """prod (x - r) over the given rational roots."""
    p = UniPoly.one()
    for r in roots:
        p = p * UniPoly((-Fraction(r), 1))
    return p


def test_isolate_quadratic_dominant_root():
    roots = isolate_real_roots(P(-2, -5, 1))  # x^2 - 5x - 2
    assert len(roots) == 2
    big = roots[-1]
    # quadratic formula oracle: (5 + sqrt(33)) / 2 = 5.372281323269014...
    # the enclosure must overlap the 1e-12 oracle bracket around the root
    big = big.refined(Fraction(1, 10**11))
    assert big.lo < Fraction(5372281323270, 10**12)
    assert big.hi > Fraction(5372281323269, 10**12)


def test_isolate_no_real_roots():
    assert isolate_real_roots(P(1, 0, 1)) == []


def test_isolate_golden_cube_root():
    roots = isolate_real_roots(P(-1, -4, 1))  # x^2 - 4x - 1
    big = roots[-1].refined(Fraction(1, 10**11))
    # quadratic formula oracle: 2 + sqrt(5) = 4.236067977499789...
    assert big.lo < Fraction(4236067977500, 10**12)
    assert big.hi > Fraction(4236067977499, 10**12)


def test_isolate_with_rational_roots_and_order():
    f = poly_from_roots([-2, 0, Fraction(1, 2)]) * P(-2, 0, 1)
    roots = isolate_real_roots(f)
    assert len(roots) == 5
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo or a.lo < b.lo  # sorted, disjoint isolated
        assert algebraic_cmp(a, b) == -1
    values = [r.rational_value() for r in roots]
    assert Fraction(-2) in values and Fraction(0) in values


def _within_seconds(seconds, fn):
    """fn() under a SIGALRM deadline, so that a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn()
    except TimeoutError:
        pass  # fail outside the except block, so the report skips the interrupted frames
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    pytest.fail(f"no result within {seconds} s")


def test_rational_value_does_not_trial_divide_the_constant_term():
    # trial division of the constant term would run to its square root,
    # 10^12; the one candidate is the k/lc just past lo
    big = 10**12
    irrational = AlgebraicReal(P(-(big**2 + 7), 0, 1), big, big + 1)
    rational = AlgebraicReal(P(-(big**2), 0, 1), big - 1, big + 1)
    assert _within_seconds(5, irrational.rational_value) is None
    assert _within_seconds(5, rational.rational_value) == big
    # 4x^2 - 1 on (0, 1): the root 1/2 is the midpoint of every halving
    assert _within_seconds(5, AlgebraicReal(P(-1, 0, 4), 0, 1).rational_value) == Fraction(1, 2)


def test_isolate_rejects_zero():
    with pytest.raises(ValueError):
        isolate_real_roots(UniPoly.zero())


def test_refine_sqrt2():
    a = isolate_real_roots(P(-2, 0, 1))[-1]
    b = a.refined(Fraction(1, 10**6))
    assert b.width() < Fraction(1, 10**6)
    assert b.lo < Fraction(1414214, 10**6) < b.hi  # sqrt(2) = 1.41421356...
    # the defining polynomial changes sign over the refined interval
    assert b.poly(b.lo) * b.poly(b.hi) < 0


def test_refine_rational_root():
    a = AlgebraicReal.from_rational(Fraction(3, 7))
    b = a.refined(Fraction(1, 10**9))
    assert b.width() < Fraction(1, 10**9)
    assert b.contains_rational(Fraction(3, 7))


def test_refinement_preserves_root_randomized():
    rng = random.Random(12345)
    for _ in range(10):
        roots = rng.sample(range(-8, 9), 3)
        f = poly_from_roots(roots)
        for a in isolate_real_roots(f):
            fine = a.refined(Fraction(1, 10**4))
            target = next(r for r in roots if a.lo < r < a.hi)
            assert fine.contains_rational(target)
            # endpoints are never roots, and the sign flips across them
            assert fine.poly(fine.lo) * fine.poly(fine.hi) < 0


def test_interval_constructor_validation():
    f = P(-2, 0, 1)
    with pytest.raises(ValueError):
        AlgebraicReal(f, 2, 1)
    with pytest.raises(ValueError):
        AlgebraicReal(f, -2, 2)  # two roots inside
    with pytest.raises(ValueError):
        AlgebraicReal(P(-1, 1) ** 2, 0, 2)  # not square-free


def test_count_roots_in():
    f = poly_from_roots([1, 2, 3])
    assert count_roots_in(f, 0, 10) == 3
    assert count_roots_in(f, Fraction(3, 2), Fraction(5, 2)) == 1
    assert count_roots_in(f, 1, 3) == 2  # half-open (1, 3]


def test_count_roots_in_is_half_open_at_a_multiple_root():
    # the double root 1 counts once in (0, 1] and not in (1, 3]
    f = P(-1, 1) ** 2 * P(-3, 1)
    assert count_roots_in(f, 0, 1) == 1
    assert count_roots_in(f, 1, 3) == 1


def test_algebraic_equal_and_cmp():
    r1 = isolate_real_roots(P(-2, 0, 1))[-1]
    r2 = isolate_real_roots(P(-2, 0, 1) * P(-1, 1))[-1]  # same sqrt(2)... roots: 1, ±sqrt2
    assert algebraic_equal(r1, r2)
    assert algebraic_cmp(r1, r2) == 0
    one = AlgebraicReal.from_rational(1)
    assert algebraic_cmp(one, r1) == -1
    assert cmp_with_rational(r1, 1) == 1
    assert cmp_with_rational(r1, 2) == -1
    assert cmp_with_rational(one, 1) == 0


def test_decimal_enclosure():
    a = isolate_real_roots(P(-2, -5, 1))[-1]
    lo, hi = a.decimal_enclosure(9)
    assert float(lo) <= 5.372281323269014 <= float(hi)
    # printed width: true width (< 1e-9) plus one outward rounding on each side
    assert float(hi) - float(lo) < 3e-9


# Intervals derived by isolation and bisection are not re-checked; the public
# constructor, which checks everything, must accept every one of them.
DERIVED_CASES = [
    poly_from_roots([-3, Fraction(1, 2), 2, 5]),  # rational roots
    P(-2, 0, 1) * P(-3, 0, 1) * P(-1, -4, 1),  # irrational roots
    # 0 is the midpoint of the symmetric starting interval of isolation
    poly_from_roots([0, Fraction(1, 2), 1, Fraction(-1, 2)]) * P(-2, 0, 1),
    # each root is hit by a midpoint while refining its isolating interval
    poly_from_roots([-2, 1, 3]),
]


def _assert_public_constructor_accepts(r, poly):
    assert r.poly == poly
    again = AlgebraicReal(r.poly, r.lo, r.hi)
    assert (again.poly, again.lo, again.hi) == (r.poly, r.lo, r.hi)


def _assert_sturm_picks(parent, child):
    """The child of a halving is the half that a Sturm count says holds the
    root; a root exactly at the midpoint keeps the midpoint inside."""
    mid = parent.midpoint()
    if parent.poly(mid) == 0:
        assert child.lo < mid < child.hi
        assert parent.lo < child.lo and child.hi < parent.hi
        return
    chain = sturm_chain(parent.poly)
    in_low_half = sign_variations_at(chain, parent.lo) - sign_variations_at(chain, mid)
    expected = (parent.lo, mid) if in_low_half == 1 else (mid, parent.hi)
    assert (child.lo, child.hi) == expected


@pytest.mark.parametrize(
    "f",
    DERIVED_CASES,
    ids=["rational", "irrational", "isolation-midpoint", "bisection-midpoint"],
)
def test_derived_intervals_pass_the_public_constructor(f):
    roots = isolate_real_roots(f)
    assert len(roots) == count_roots_in(f, -100, 100)
    poly = f.square_free_part().primitive()
    for r in roots:
        _assert_public_constructor_accepts(r, poly)
        cur = r
        for _ in range(30):
            cur, parent = cur._bisect_once(), cur
            _assert_public_constructor_accepts(cur, poly)
            _assert_sturm_picks(parent, cur)
        _assert_public_constructor_accepts(r.refined(Fraction(1, 10**20)), poly)


def test_refinement_builds_one_sturm_chain(monkeypatch):
    built = []
    original = refdyn.core.roots.sturm_chain

    def counting(f):
        built.append(f)
        return original(f)

    monkeypatch.setattr(refdyn.core.roots, "sturm_chain", counting)
    fine = isolate_real_roots(P(-2, 0, 1))[-1].refined(Fraction(1, 10**40))
    assert fine.width() < Fraction(1, 10**40)
    assert len(built) == 1


def test_public_constructor_keeps_its_sturm_chain(monkeypatch):
    # the constructor's check builds the only chain; halvings read one sign
    built = []
    original = refdyn.core.roots.sturm_chain

    def counting(f):
        built.append(f)
        return original(f)

    monkeypatch.setattr(refdyn.core.roots, "sturm_chain", counting)
    fine = AlgebraicReal(P(-2, 0, 1), 1, 2).refined(Fraction(1, 10**30))
    assert fine.width() < Fraction(1, 10**30)
    assert len(built) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: AlgebraicReal(P(-2, 0, 1) * P(1, 2), 1, 2),
        lambda: isolate_real_roots(P(-2, 0, 1) ** 2 * P(1, 2)),
    ],
    ids=["constructor", "isolation"],
)
def test_one_remainder_sequence_per_isolation(monkeypatch, build):
    # the square-free part, the square-free test and the Sturm count all
    # read the one remainder sequence of (p, p')
    built = []
    original = refdyn.core.unipoly._remainder_sequence

    def counting(f, g):
        built.append((f, g))
        return original(f, g)

    monkeypatch.setattr(refdyn.core.unipoly, "_remainder_sequence", counting)
    build()
    assert len(built) == 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: AlgebraicReal(P(-2, 0, 1), 1, 2),
        lambda: isolate_real_roots(P(-2, 0, 1))[-1],
    ],
    ids=["constructor", "isolation"],
)
def test_each_halving_evaluates_once(monkeypatch, make):
    # the sign at lo is carried through halvings: one evaluation per halving,
    # plus one for the isolated interval, whose sign at lo is not yet known
    root = make()
    known = root._lo_positive is not None
    calls = []
    original = refdyn.core.roots._sign_at

    def counting(f, p, q):
        calls.append(Fraction(p, q))
        return original(f, p, q)

    monkeypatch.setattr(refdyn.core.roots, "_sign_at", counting)
    fine = root.refined(root.width() / 2**40)
    assert fine.width() == root.width() / 2**41
    assert len(calls) == 41 + (not known)


def _sqrt2_convergent(k):
    """The k-th continued-fraction convergent p/q of sqrt(2), k >= 1."""
    p, q = 1, 1
    for _ in range(k - 1):
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


def test_cmp_with_rational_separates_a_close_convergent():
    # |sqrt(2) - p/q| < 1/q^2 with q about 2^252: about 510 halvings
    sqrt2 = isolate_real_roots(P(-2, 0, 1))[-1]
    close = _sqrt2_convergent(200)
    assert close.denominator.bit_length() > 250
    assert cmp_with_rational(sqrt2, close) == -1
    assert cmp_with_rational(sqrt2, _sqrt2_convergent(199)) == 1


def test_algebraic_cmp_separates_a_close_convergent():
    sqrt2 = isolate_real_roots(P(-2, 0, 1))[-1]
    close = _sqrt2_convergent(200)
    # the root of q x - p, on an interval that also holds sqrt(2)
    line = AlgebraicReal(P(-close.numerator, close.denominator), 1, 2)
    assert algebraic_cmp(sqrt2, line) == -1
    assert algebraic_cmp(line, sqrt2) == 1
    assert algebraic_cmp(sqrt2, AlgebraicReal.from_rational(close)) == -1


def test_algebraic_equal_builds_one_remainder_sequence(monkeypatch):
    # the gcd's sequence decides the tie; its signs at the overlap's ends
    # need no Sturm chain
    a = AlgebraicReal(P(-2, 0, 1) * P(-1, 1), Fraction(5, 4), 2)
    b = AlgebraicReal(P(-2, 0, 1) * P(-3, 1), 1, 2)
    # gcd x^2 - 2 is not constant, but has no root in the overlap (0, 1)
    one = AlgebraicReal(P(-2, 0, 1) * P(-1, 1), 0, Fraction(5, 4))
    half = AlgebraicReal(P(-2, 0, 1) * P(-1, 2), 0, 1)
    built = []
    original = refdyn.core.unipoly._remainder_sequence

    def counting(f, g):
        built.append((f, g))
        return original(f, g)

    monkeypatch.setattr(refdyn.core.unipoly, "_remainder_sequence", counting)
    assert algebraic_equal(a, b)
    assert len(built) == 1
    assert not algebraic_equal(one, half)
    assert not algebraic_equal(a, one)  # disjoint intervals: no gcd at all
    assert len(built) == 2


# -- the halving before integer signs, kept as an oracle ---------------------------


def _fraction_bisect_once(poly, lo, hi, lo_positive):
    """One halving on a Fraction midpoint, valued by UniPoly.__call__."""
    mid = (lo + hi) / 2
    at_mid = poly(mid)
    if at_mid == 0:
        delta = min(mid - lo, hi - mid) / 4
        while poly(mid - delta) == 0 or poly(mid + delta) == 0:
            delta /= 2
        return mid - delta, mid + delta, None
    if lo_positive is None:
        lo_positive = poly(lo) > 0
    if (at_mid > 0) != lo_positive:
        return lo, mid, lo_positive
    return mid, hi, at_mid > 0


def _fraction_refined(root, eps):
    lo, hi, lo_positive = root.lo, root.hi, None
    while hi - lo >= eps:
        lo, hi, lo_positive = _fraction_bisect_once(root.poly, lo, hi, lo_positive)
    return lo, hi


def _refinement_cases():
    rng = random.Random(25)
    roots = []
    for _ in range(40):
        # leading coefficients other than powers of two put the Cauchy-bound
        # ends of isolation off the dyadic grid
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        f = P(*coeffs, rng.choice((1, 3, 5, 6, 7, -3)))
        roots += isolate_real_roots(f.square_free_part().primitive())
    roots.append(AlgebraicReal(P(-1, 0, 2), Fraction(1, 3), Fraction(5, 7)))
    # the first midpoint, 1, is the root
    roots.append(AlgebraicReal(P(-1, 1) * P(-5, 0, 1), 0, 2))
    return roots


@pytest.mark.parametrize(
    "eps",
    [Fraction(1, 10**12), Fraction(3, 1000), Fraction(2, 7**9), Fraction(1, 2**30)],
    ids=["1e-12", "3/1000", "2/7^9", "2^-30"],
)
def test_refinement_ends_on_the_fraction_bisection(eps):
    for root in _refinement_cases():
        fine = root.refined(eps)
        assert (fine.lo, fine.hi) == _fraction_refined(root, eps), root
        assert fine.width() < eps


def test_each_halving_matches_the_fraction_bisection():
    for root in _refinement_cases():
        cur, state = root, (root.lo, root.hi, None)
        for _ in range(25):
            cur = cur._bisect_once()
            state = _fraction_bisect_once(root.poly, *state)
            assert (cur.lo, cur.hi) == state[:2], root


def test_decimal_enclosure_matches_the_fraction_bisection():
    for root in _refinement_cases():
        for digits in (3, 9, 12):
            lo, hi = _fraction_refined(root, Fraction(1, 10**digits))
            assert root.decimal_enclosure(digits) == outward_decimals(lo, hi, digits)
