"""The exact core against sympy: the elimination kernel, the polynomials
built on it, factorization over Q, real root isolation, exact comparison
of algebraic reals and their rational values.  The Schur-Cohn disk count
and the hypotheses of `dominant_growth` against numpy's floating-point
roots and eigenvectors.
`MultiPoly.__call__` against term-by-term Fraction evaluation,
`UniPoly.__call__` against a Fraction Horner pass, the billiards' reading of
a form on a line against `MultiPoly.substitute`, `reflect_on_line`
against the tangent-plane substitution it replaced, and the closed-form
`return_map` against the orbits of the return word it replaced.

Oracle-only: these tests add no behaviour and are skipped without sympy or
numpy.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest

from refdyn import billiards
from refdyn.billiards import (
    RETURN_WORD,
    IndeterminacyError,
    RationalPoint,
    _restriction,
    _swapping,
    build_configuration,
    orbit_points,
    reflect_on_line,
    residual_second_points,
    return_map,
    third_intersection,
)
from refdyn.core import (
    MultiPoly,
    RatMatrix,
    UniPoly,
    algebraic_cmp,
    algebraic_equal,
    char_poly,
    factor_over_rationals,
    field_kernel,
    isolate_real_roots,
    minimal_poly,
    sturm_chain,
)
from refdyn.core.roots import sign_variations_at
from refdyn.transitions import CertificationError, _roots_in_disk, dominant_growth

sympy = pytest.importorskip("sympy")


def _random_matrix(rng, rows, cols, rank):
    """Integer rows x cols matrix of rank at most `rank` (a product B C)."""
    b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    c = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


def test_field_kernel_matches_sympy_nullspace():
    rng = random.Random(2024)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        kernel = field_kernel([[Fraction(x) for x in row] for row in a])
        oracle = sympy.Matrix(a).nullspace()
        assert len(kernel) == len(oracle)
        for v in kernel:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        if kernel:
            ours = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                                 for v in kernel]).T
            assert sympy.Matrix.hstack(ours, *oracle).rank() == len(kernel)


def _evaluate(p: UniPoly, m: RatMatrix) -> RatMatrix:
    result = RatMatrix.zero(m.rows, m.cols)
    for c in reversed(p.coeffs):
        result = result * m + RatMatrix.identity(m.rows).scale(c)
    return result


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


def _conjugate_unimodular(rng, m):
    """u m u^-1 for a random integer u of determinant one."""
    n = len(m)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        # row_i += k row_j on u; column_j -= k column_i on its inverse
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= k * row[i]
    um = RatMatrix(u) * RatMatrix(m) * RatMatrix(u_inv)
    return [list(row) for row in um.entries]


def _entry(rng, bound, rational):
    """A random entry in [-bound, bound], over 2, 3 or 7 when `rational`."""
    if not rational:
        return rng.randint(-bound, bound)
    den = rng.choice((2, 3, 7))
    return Fraction(rng.randint(-bound * den, bound * den), den)


def _matrices(rng):
    for rational in (False, True):
        for _ in range(25):
            n = rng.randint(1, 5)
            yield [[_entry(rng, 3, rational) for _ in range(n)] for _ in range(n)]
        for _ in range(15):
            # derogatory: a repeated block next to a scalar block
            k = rng.randint(1, 2)
            block = [[_entry(rng, 2, rational) for _ in range(k)] for _ in range(k)]
            c = _entry(rng, 2, rational)
            yield _conjugate_unimodular(rng, _block_diagonal([block, block, [[c]]]))
    yield [[0]]
    yield [[Fraction(-5, 7)]]
    for n in (2, 4):
        yield [[0] * n for _ in range(n)]


def _from_sympy(coeffs):
    """sympy Rationals, high to low, as Fractions low to high."""
    return tuple(Fraction(str(c)) for c in reversed(coeffs))


def test_minimal_poly_is_the_least_annihilator():
    rng = random.Random(11)
    x = sympy.Symbol("x")
    for entries in _matrices(rng):
        m = RatMatrix(entries)
        mp = minimal_poly(m)
        cp = char_poly(m)
        oracle = sympy.Matrix([[_rat(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])
        assert cp.coeffs == _from_sympy(oracle.charpoly(x).all_coeffs())
        assert _evaluate(mp, m) == RatMatrix.zero(m.rows, m.cols)
        assert (cp % mp).is_zero()
        _, factors = sympy.factor_list(sympy.Poly([_rat(c) for c in reversed(mp.coeffs)], x))
        for f, _ in factors:
            divisor = UniPoly(_from_sympy(f.all_coeffs()))
            proper = mp.divmod(divisor)[0]
            assert _evaluate(proper, m) != RatMatrix.zero(m.rows, m.cols)


def _random_factor(rng):
    """Integer coefficients, low to high, of a random factor of degree 1-3."""
    degree = rng.randint(1, 3)
    return [rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 3)]


def _random_poly(rng, max_degree):
    """A product of random factors, some squared, of degree 1..max_degree."""
    p = UniPoly((1,))
    while True:
        f = UniPoly(_random_factor(rng)) ** rng.choice((1, 1, 2))
        if p.degree + f.degree <= max_degree:
            p = p * f
        elif p.degree >= 1:
            return p
        if p.degree >= 1 and rng.random() < 0.25:
            return p


def _sympy_real_roots(p: UniPoly):
    """Distinct real roots, ascending, as exact sympy numbers (CRootOf or Rational)."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([_rat(c) for c in reversed(p.coeffs)], x)
    return [r for r, _ in poly.real_roots(multiple=False, radicals=False)]


def _rat(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def test_isolate_real_roots_matches_sympy():
    rng = random.Random(31)
    for _ in range(40):
        p = _random_poly(rng, 6)
        ours = isolate_real_roots(p)
        theirs = _sympy_real_roots(p)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, ours[1:]):
            assert a.hi <= b.lo
        for r, t in zip(ours, theirs):
            assert [u for u in theirs if _rat(r.lo) < u < _rat(r.hi)] == [t]


def test_algebraic_equal_and_cmp_match_sympy():
    rng = random.Random(32)
    for _ in range(12):
        # a shared factor with at least two real roots, one irrational
        shared = UniPoly((-rng.choice((2, 3, 5, 6, 7)), 0, 1))
        shared = shared * UniPoly(_random_factor(rng))
        f = shared * _random_poly(rng, 3)
        g = shared * _random_poly(rng, 3)
        for a, ta in zip(isolate_real_roots(f), _sympy_real_roots(f)):
            for b, tb in zip(isolate_real_roots(g), _sympy_real_roots(g)):
                expected = 0 if ta == tb else (-1 if ta < tb else 1)
                assert algebraic_equal(a, b) == (expected == 0)
                assert algebraic_cmp(a, b) == expected


def test_rational_value_matches_sympy():
    rng = random.Random(33)
    x = sympy.Symbol("x")
    for _ in range(60):
        # planted roots a/b, zero and negative ones among them, with b up to
        # 6 so that the leading coefficient is often above 1
        p = UniPoly((1,))
        for _ in range(rng.randint(1, 3)):
            p = p * UniPoly((rng.choice((0, -12, -5, -2, -1, 1, 3, 7)), rng.randint(1, 6)))
        p = p * _random_poly(rng, 3)
        theirs = sympy.Poly([_rat(c) for c in reversed(p.coeffs)], x).ground_roots()
        for r in isolate_real_roots(p):
            inside = [q for q in theirs if _rat(r.lo) < q < _rat(r.hi)]
            expected = Fraction(int(inside[0].p), int(inside[0].q)) if inside else None
            assert r.rational_value() == expected, (p.format(), r)


def _normalized(pairs):
    """(integer coefficients low to high, multiplicity) of each factor, made
    primitive with a positive leading coefficient, sorted."""
    out = []
    for coeffs, mult in pairs:
        coeffs = [int(c) for c in coeffs]
        content = gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
        out.append((tuple(c // content for c in coeffs), mult))
    return sorted(out)


def _random_core_factor(rng, degree):
    """A random factor of the given degree with leading coefficient 2-4."""
    return UniPoly([rng.randint(-4, 4) for _ in range(degree)] + [rng.randint(2, 4)])


def test_factor_over_rationals_matches_sympy():
    rng = random.Random(41)
    x = sympy.Symbol("x")
    for case in range(60):
        p = UniPoly((rng.choice((1, 1, 2, -3, 6)),))  # often a non-primitive scale
        if case % 6 == 0:
            # two quartics: the search runs up to degree 4
            p = p * _random_core_factor(rng, 4) * _random_core_factor(rng, 4)
        else:
            p = p * UniPoly.x() ** rng.choice((0, 0, 0, 1, 2))
        while True:
            f = _random_core_factor(rng, rng.randint(2, 4))
            mult = rng.choice((1, 1, 1, 2))
            if p.degree + mult * f.degree > 8:
                break
            p = p * f**mult
        _assert_factors_match(p, x)
    # degree 9-12, beyond the bound of the search that modular factoring
    # replaced: products of factors of degree 1-12, some squared
    rng = random.Random(912)
    for case in range(24):
        target = rng.randint(9, 12)
        p = UniPoly((rng.choice((1, 2, -3)),))
        while p.degree < target:
            f = _random_core_factor(rng, rng.randint(1, target - p.degree))
            mult = 2 if 2 * f.degree <= target - p.degree and rng.random() < 0.25 else 1
            p = p * f**mult
        _assert_factors_match(p, x)


def _assert_factors_match(p, x):
    ours = factor_over_rationals(p)
    _, theirs = sympy.Poly([_rat(c) for c in reversed(p.coeffs)], x).factor_list()
    assert _normalized((f.coeffs, m) for f, m in ours) == _normalized(
        (reversed(f.all_coeffs()), m) for f, m in theirs
    ), p.format()


def _random_rational_poly(rng):
    """Zero, a constant, a sum of a few monomials, or a rational multiple
    (often negative) of x^k times a few rational factors of degree 1-2, some
    squared or cubed."""
    kind = rng.random()
    if kind < 0.08:
        return UniPoly.zero()
    if kind < 0.16:
        return UniPoly.constant(Fraction(rng.choice((-5, -1, 1, 3)), rng.randint(1, 4)))
    if kind < 0.4:
        # sparse: remainder sequences that skip degrees, where a negative
        # leading coefficient to an odd power flips the sign of a term
        coeffs = [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2)) for _ in range(4)]
        terms = [UniPoly.monomial(rng.randint(0, 7), c) for c in coeffs[: rng.randint(2, 4)]]
        return sum(terms, UniPoly.zero())
    p = UniPoly.monomial(rng.choice((0, 0, 0, 1, 2)))
    for _ in range(rng.randint(1, 3)):
        low = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        f = UniPoly(low + [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))])
        p = p * f ** rng.choice((1, 1, 2, 3))
    return p.scale(Fraction(rng.choice((-6, -1, 1, 2)), rng.randint(1, 5)))


def _sympy_poly(p: UniPoly):
    return sympy.Poly([_rat(c) for c in reversed(p.coeffs)] or [0], sympy.Symbol("x"), domain="QQ")


def _from_sympy_poly(f) -> UniPoly:
    return UniPoly(_from_sympy(f.all_coeffs()))


def _rational_poly_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        f, g = _random_rational_poly(rng), _random_rational_poly(rng)
        if rng.random() < 0.3:
            shared = _random_rational_poly(rng)
            f, g = f * shared, g * shared
        yield f, g


def test_gcd_matches_sympy():
    for f, g in _rational_poly_pairs(51, 150):
        assert f.gcd(g) == _from_sympy_poly(_sympy_poly(f).gcd(_sympy_poly(g))), (f, g)


def test_square_free_part_and_decomposition_match_sympy():
    for f, _ in _rational_poly_pairs(52, 150):
        assert f.square_free_part() == _from_sympy_poly(_sympy_poly(f).sqf_part()), f
        if f.is_zero():
            with pytest.raises(ValueError):
                f.square_free_decomposition()
            continue
        _, theirs = _sympy_poly(f).sqf_list()
        assert f.square_free_decomposition() == [(_from_sympy_poly(s), m) for s, m in theirs], f


def test_divmod_matches_sympy():
    for f, g in _rational_poly_pairs(53, 150):
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                f.divmod(g)
            continue
        q, r = _sympy_poly(f).div(_sympy_poly(g))
        assert f.divmod(g) == (_from_sympy_poly(q), _from_sympy_poly(r)), (f, g)


def test_count_roots_in_matches_sympy():
    ends = [Fraction(k, 2) for k in range(-8, 9)]
    ends += [Fraction(-5, 3), Fraction(1, 3), Fraction(7, 5)]
    rng = random.Random(54)
    for f, _ in _rational_poly_pairs(55, 150):
        if f.is_zero():
            continue
        oracle = _sympy_poly(f)
        chain = sturm_chain(f)
        for _ in range(4):
            lo, hi = sorted(rng.sample(ends, 2))
            # sympy counts distinct roots in [lo, hi]; drop lo for (lo, hi]
            expected = oracle.count_roots(_rat(lo), _rat(hi)) - (f(lo) == 0)
            count = sign_variations_at(chain, lo) - sign_variations_at(chain, hi)
            assert count == expected, (f, lo, hi)


def test_roots_in_disk_matches_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(7)
    compared = singular = 0
    for _ in range(3000):
        degree = rng.randint(1, 7)
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        r = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        moduli = np.abs(np.roots(list(reversed(coeffs))))
        if np.any(np.abs(moduli - float(r)) < 1e-6):
            continue
        count = _roots_in_disk(UniPoly(coeffs), r)
        if count is None:
            singular += 1
            continue
        assert count == int(np.sum(moduli < float(r))), (coeffs, r)
        compared += 1
    assert compared > 2800 and singular < 100


def _eigenvector(np, m, value):
    """Unit eigenvector of m for the eigenvalue nearest `value`."""
    eigenvalues, vectors = np.linalg.eig(m)
    v = vectors[:, int(np.argmin(np.abs(eigenvalues - value)))]
    return v / np.linalg.norm(v)


def _seen(x):
    """True or False for a clearly nonzero or clearly zero float, else None."""
    return True if abs(x) > 1e-6 else False if abs(x) < 1e-9 else None


def test_dominant_growth_hypotheses_match_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(11)
    outcomes = []
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.6:
            # block triangular, either way: eigenvectors with structural zeros
            split = rng.randint(1, n - 1)
            upper = rng.random() < 0.5
            for i in range(n):
                for j in range(n):
                    if (i >= split > j) if upper else (i < split <= j):
                        rows[i][j] = 0
        v0 = [rng.randint(-1, 1) for _ in range(n)]
        a = np.array(rows, dtype=float)
        eigenvalues = np.linalg.eigvals(a)
        order = np.argsort(-np.abs(eigenvalues))
        top, second = eigenvalues[order[0]], eigenvalues[order[1]]
        if abs(top) - abs(second) <= 1e-6 or abs(top.real) <= 1e-6:
            continue
        try:
            hypotheses = dominant_growth(RatMatrix(rows), v0).hypotheses
        except CertificationError as err:
            hypotheses = err.report.get("hypotheses")
        if top.real < 0:
            # the root of largest modulus is negative: mu1 is not dominant
            assert hypotheses is None or not hypotheses["strictly_dominant"], rows
            outcomes.append("negative top")
            continue
        assert hypotheses is not None and hypotheses["strictly_dominant"], rows
        sees_v0 = _seen(_eigenvector(np, a.T, top.real) @ np.array(v0, dtype=float))
        sees_first = _seen(_eigenvector(np, a, top.real)[0])
        if sees_v0 is None or sees_first is None:
            continue
        assert hypotheses["v0_sees_dominant_eigenspace"] == sees_v0, (rows, v0)
        assert hypotheses["eigenvector_sees_first_coordinate"] == sees_first, (rows, v0)
        outcomes.append((sees_v0, sees_first))
    # every verdict is reached: 58, 48, 8 and 8 times with this seed
    counts = [outcomes.count(o) for o in ("negative top", (True, True), (False, True), (True, False))]
    assert min(counts) >= 5, counts


def _plain_value(poly: MultiPoly, point) -> Fraction:
    """Term-by-term Fraction evaluation: the definition of p(point)."""
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = Fraction(c)
        for x, e in zip(point, exps):
            term *= Fraction(x) ** e
        total += term
    return total


def _random_coordinate(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    big = 10 ** rng.randint(12, 40) + rng.randint(1, 10**6)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**30), big)


def test_multipoly_call_matches_plain_fraction_evaluation():
    rng = random.Random(51)
    for case in range(300):
        nvars = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(0, 12)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[exps] = Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7, 10**9 + 7)))
        if case % 10 == 0:
            terms = {}  # the zero polynomial
        elif case % 10 == 1:
            terms = {(0,) * nvars: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}
        poly = MultiPoly(nvars, terms)
        for _ in range(4):
            point = tuple(_random_coordinate(rng) for _ in range(nvars))
            value = poly(point)
            assert isinstance(value, Fraction)
            assert value == _plain_value(poly, point), (poly, point)
            # a second call reads the cached integer form
            assert poly(point) == value
    assert MultiPoly.zero(3)((1, 2, 3)) == 0
    assert MultiPoly.constant(2, Fraction(-5, 3))((0, Fraction(1, 10**50))) == Fraction(-5, 3)


def _horner_value(p: UniPoly, x) -> Fraction:
    """Horner's rule in Fractions: every step reduced."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_unipoly_call_matches_fraction_horner():
    rng = random.Random(53)
    for case in range(300):
        degree = rng.randint(0, 9)
        coeffs = [
            Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7, 10**9 + 7, 10**25 + 13)))
            for _ in range(degree + 1)
        ]
        if case % 10 == 0:
            coeffs = []  # the zero polynomial
        elif case % 10 == 1:
            coeffs = coeffs[:1]  # a constant
        p = UniPoly(coeffs)
        for _ in range(4):
            x = _random_coordinate(rng)
            value = p(x)
            assert isinstance(value, Fraction)
            assert value == _horner_value(p, x), (p, x)
            # the same point as an "a/b" string
            assert p(str(Fraction(x))) == value
    assert UniPoly.zero()(Fraction(-3, 10**40)) == 0
    assert UniPoly.constant(Fraction(-5, 3))(Fraction(1, 10**50)) == Fraction(-5, 3)
    assert UniPoly((1, 0, -2))("-7/3") == Fraction(-89, 9)


def _random_form(rng, degree):
    """A homogeneous form in four variables on a random set of monomials."""
    monomials = [
        (a, b, c, degree - a - b - c)
        for a in range(degree + 1) for b in range(degree + 1 - a) for c in range(degree + 1 - a - b)
    ]
    chosen = rng.sample(monomials, rng.randint(1, len(monomials)))
    return MultiPoly(4, {
        e: Fraction(rng.randint(-20, 20) or 1, rng.choice((1, 1, 2, 3, 7, 10**9 + 7)))
        for e in chosen
    })


def test_restriction_matches_substitution():
    rng = random.Random(54)
    t = MultiPoly.variable(0, 1)
    for case in range(400):
        degree = 2 + case % 2
        form = _random_form(rng, degree)
        y = tuple(_random_coordinate(rng) for _ in range(4))
        d = tuple(_random_coordinate(rng) for _ in range(4))
        line = [MultiPoly.constant(1, yi) + t.scale(di) for yi, di in zip(y, d)]
        on_line = form.substitute(line)
        expected = tuple(on_line.terms.get((i,), Fraction(0)) for i in range(degree + 1))
        assert _restriction(form, degree, y, d) == expected, (form, y, d)
    # a vanishing partial is still read as a binary quadratic
    assert _restriction(MultiPoly.zero(4), 2, (1, 2, 0, 0), (0, 1, 0, 0)) == (0, 0, 0)


def _reflect_on_line_by_substitution(cfg, x):
    """The tangent-plane construction written out: restrict F to the plane
    spanned by L and w, which vanishes on L (t2 = 0), and read the residual
    binary quadratic on L as its t2-derivative at t2 = 0."""
    grad = cfg.surface.gradient_at(x)
    w = (Fraction(0), Fraction(0), -grad[3], grad[2])
    s0, s1 = cfg.line_span
    t0, t1, t2 = (MultiPoly.variable(k, 3) for k in range(3))
    plane = [
        t0.scale(s0.coords[i]) + t1.scale(s1.coords[i]) + t2.scale(w[i]) for i in range(4)
    ]
    restricted = cfg.surface.form.substitute(plane)
    assert restricted.set_variable(2, 0).is_zero()
    binary = restricted.derivative(2).set_variable(2, 0)
    big_a = binary((1, 0, 0))
    big_c = binary((0, 1, 0))
    big_b = binary((1, 1, 0)) - big_a - big_c
    u0, v0 = cfg.line_parameter(x)
    if v0 != 0:
        m0 = big_a / v0
        m1 = (big_b + m0 * u0) / v0
    else:
        m0, m1 = -big_b / u0, -big_c / u0
    return cfg.point_from_parameter(m1, -m0)


def test_reflect_on_line_matches_the_substitution_construction():
    rng = random.Random(52)
    for seed in range(20):
        cfg = build_configuration(seed)
        if seed % 2:
            # a span whose sum is not lead-normalised
            k = rng.choice((-3, -2, 2, 3))
            span = (RationalPoint((1, k, 0, 0)), RationalPoint((1, -k - 1, 0, 0)))
            cfg = dataclasses.replace(cfg, line_span=span)
        points = [cfg.p, cfg.a]
        while len(points) < 5:
            points.append(cfg.point_from_parameter(rng.randint(-30, 30), rng.randint(-30, 30) or 1))
        for x in points:
            expected = _reflect_on_line_by_substitution(cfg, x)
            image = reflect_on_line(cfg, x)
            assert image == expected


def _proportional(x, y):
    return x[0] * y[1] == x[1] * y[0]


def _line_parameters(rng):
    return [(1, rng.randint(-40, 40)) for _ in range(5)] + [
        (rng.randint(-40, 40) or 1, rng.randint(1, 40)) for _ in range(3)
    ]


def test_return_map_matches_the_return_word_orbits():
    rng = random.Random(55)
    for seed in range(30):
        cfg = build_configuration(seed)
        phi = return_map(cfg)
        hits = 0
        for t in _line_parameters(rng):
            try:
                image = orbit_points(cfg, cfg.point_from_parameter(*t), RETURN_WORD)[-1]
            except IndeterminacyError:
                continue
            assert _proportional(cfg.line_parameter(image), phi.apply(*t)), (seed, t)
            hits += 1
        assert hits >= 6, seed


def _conic_point(cfg, x):
    """The second point of C on the line through r and x, from the conic
    alone: Q(r + s*x) = s*(2B(r, x) + s*Q(x)) with B the polar form."""
    conic, r = cfg.conic_form, cfg.r.coords
    polar2 = conic(tuple(a + b for a, b in zip(r, x.coords))) - conic(r) - conic(x.coords)
    return RationalPoint(tuple(conic(x.coords) * a - polar2 * b for a, b in zip(r, x.coords)))


def _conic_parameter(cfg, c, rr):
    """The parameter of the point of L on the line through r and c; for
    c = r that line is the tangent, which meets L at rr."""
    if c == cfg.r:
        return cfg.line_parameter(rr)
    r, c = cfg.r.coords, c.coords
    return cfg.line_parameter(RationalPoint(tuple(r[2] * a - c[2] * b for a, b in zip(c, r))))


def test_reflection_of_c_through_p_and_q_is_the_swapping_involution():
    rng = random.Random(56)
    for seed in range(30):
        cfg = build_configuration(seed)
        rr = residual_second_points(cfg)[2]
        for center in (cfg.p, cfg.q):
            s = _swapping(cfg, (cfg.a, cfg.b), (center, rr))
            # the first two probes meet the pair (center, rr): their C-points
            # are the one on the line through r and the center, and r itself
            probes = [cfg.line_parameter(center), cfg.line_parameter(rr)]
            for t in probes + _line_parameters(rng):
                x = cfg.point_from_parameter(*t)
                if x in (cfg.a, cfg.b):
                    continue
                c = _conic_point(cfg, x)
                assert _proportional(_conic_parameter(cfg, c, rr), t)
                image = third_intersection(cfg.surface, center, c)
                assert cfg.on_conic(image) and not cfg.on_line(image)
                assert _proportional(_conic_parameter(cfg, image, rr), s.matvec(t)), (seed, t)


def test_return_map_reflects_no_point(monkeypatch):
    configurations = [build_configuration(seed) for seed in range(5)]
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"return_map called {name}")
        return call

    for name in ("third_intersection", "reflect_on_line"):
        monkeypatch.setattr(billiards, name, refuse(name))
    for module in ("core", "core.numberfield", "core.matrix", "billiards"):
        monkeypatch.setattr(f"refdyn.{module}.field_kernel", refuse("field_kernel"), raising=False)
    for cfg in configurations:
        return_map(cfg)
    assert calls == []
