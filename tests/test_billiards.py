import dataclasses
import random
from fractions import Fraction

import pytest

from refdyn import billiards
from refdyn.billiards import (
    RETURN_WORD,
    Configuration,
    ConfigurationError,
    CubicHypersurface,
    IndeterminacyError,
    MobiusMap,
    RationalPoint,
    _restriction,
    apply_reflection,
    attractor_analysis,
    bad_points,
    build_configuration,
    check_configuration,
    orbit_points,
    reflect_on_line,
    residual_second_points,
    return_map,
    third_intersection,
)
from refdyn.core import MultiPoly, RatMatrix, as_rational


FERMAT = CubicHypersurface(
    MultiPoly(
        4,
        {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1},
    )
)


@pytest.fixture(scope="module")
def cfg():
    return build_configuration(7)


def test_third_intersection_fermat():
    p = RationalPoint((1, -1, 0, 0))
    y = RationalPoint((1, 0, -1, 0))
    z = third_intersection(FERMAT, p, y)
    assert FERMAT.contains(z)
    assert z == RationalPoint((0, 1, -1, 0))


def test_third_intersection_line_on_surface_detected():
    # (1:-1:0:0) and (0:0:1:-1) span one of the lines of the Fermat surface
    with pytest.raises(IndeterminacyError):
        third_intersection(FERMAT, RationalPoint((1, -1, 0, 0)), RationalPoint((0, 0, 1, -1)))


def test_third_intersection_equal_points_rejected():
    p = RationalPoint((1, -1, 0, 0))
    with pytest.raises(IndeterminacyError):
        third_intersection(FERMAT, p, p)


def test_third_intersection_rejects_points_off_the_cubic():
    on, off = RationalPoint((1, -1, 0, 0)), RationalPoint((1, 1, 1, 1))
    for p, y in ((on, off), (off, on)):
        with pytest.raises(ValueError, match="^both points must lie on the hypersurface$"):
            third_intersection(FERMAT, p, y)


def test_third_intersection_evaluates_the_cubic_four_times(monkeypatch):
    # F at y, p, y + p and y - p: the two memberships and the two middle
    # coefficients, with no check of the image afterwards
    calls = []
    evaluate = MultiPoly.__call__

    def counting(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(MultiPoly, "__call__", counting)
    z = third_intersection(FERMAT, RationalPoint((1, -1, 0, 0)), RationalPoint((1, 0, -1, 0)))
    assert len(calls) == 4
    assert z == RationalPoint((0, 1, -1, 0))


def tangent_third_point(x, p, direction):
    """Third intersection of a tangent line at p: the line p + t*d for a
    tangent direction d meets the cubic doubly at p and once more at a
    rational point.  Generates rational surface points for the tests.

    Write F(p + t*d) = c0 + c1*t + c2*t^2 + c3*t^3: p lies on the cubic
    when c0 = 0, and d is tangent there when c1 = grad F(p).d = 0.  Then
    F(p + t*d) = t^2*(c2 + c3*t), and the third point is c3*p - c2*d.
    """
    d = tuple(as_rational(c) for c in direction)
    c0, c1, c2, c3 = _restriction(x.form, 3, p.coords, d)
    if c0:
        raise ValueError("the base point must lie on the cubic")
    if c1:
        raise ValueError("direction is not tangent at the base point")
    if c3 == 0:
        raise IndeterminacyError("tangent direction lies on the cubic")
    if c2 == 0:
        raise IndeterminacyError("triple contact: the third point is p itself")
    return RationalPoint(tuple(c3 * pi - c2 * di for pi, di in zip(p.coords, d)))


def test_tangent_third_point_rejects_a_base_point_off_the_cubic():
    # d is tangent to the level set F = 4 at (1:1:1:1), so only the base
    # point's own value refuses it
    base, d = RationalPoint((1, 1, 1, 1)), (1, 1, -2, 0)
    assert sum(g * di for g, di in zip(FERMAT.gradient_at(base), d)) == 0
    with pytest.raises(ValueError, match="^the base point must lie on the cubic$"):
        tangent_third_point(FERMAT, base, d)


def test_tangent_third_point_rejects_a_direction_that_is_not_tangent():
    with pytest.raises(ValueError, match="^direction is not tangent at the base point$"):
        tangent_third_point(FERMAT, RationalPoint((1, -1, 0, 0)), (1, 0, 0, 0))


def _tangent_directions(surface, base, limit=30, seed=9):
    grad = surface.gradient_at(base)
    m = next(i for i, g in enumerate(grad) if g)
    basis = []
    for i in range(4):
        if i == m:
            continue
        v = [Fraction(0)] * 4
        v[i] = grad[m]
        v[m] = -grad[i]
        basis.append(tuple(v))
    rng = random.Random(seed)
    for _ in range(limit):
        c = [rng.randint(-3, 3) for _ in range(3)]
        d = tuple(sum(ci * bi[j] for ci, bi in zip(c, basis)) for j in range(4))
        if any(d):
            yield d


def test_third_intersection_tangency_returns_the_point(cfg):
    # reflecting the tangent third point through itself-tangent base: the
    # joining line is tangent at the base, so the double root returns base
    done = False
    for d in _tangent_directions(cfg.surface, cfg.r):
        try:
            z = tangent_third_point(cfg.surface, cfg.r, d)
        except IndeterminacyError:
            continue
        assert third_intersection(cfg.surface, z, cfg.r) == cfg.r
        done = True
        break
    assert done


def _points_on_curve(cfg, count, seed=0):
    """Rational points on the plane section: some on L, some on C."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        if rng.random() < 0.5:
            pt = cfg.point_from_parameter(1, rng.randint(-30, 30))
            if pt not in (cfg.a, cfg.b):
                pts.append(pt)
        else:
            try:
                pt = third_intersection(cfg.surface, cfg.r, cfg.point_from_parameter(1, rng.randint(-30, 30)))
            except IndeterminacyError:
                continue
            if pt not in (cfg.a, cfg.b, cfg.r):
                pts.append(pt)
    return pts


def test_third_intersection_involution_100(cfg):
    pts = _points_on_curve(cfg, 100, seed=5)
    done = 0
    for pt in pts:
        for name in ("p", "q", "r"):
            center = cfg.reflection_point(name)
            if pt == center or (cfg.on_line(pt) and name in ("p", "q")):
                continue
            try:
                img = third_intersection(cfg.surface, center, pt)
                back = third_intersection(cfg.surface, center, img)
            except IndeterminacyError:
                continue
            assert back == pt
            assert cfg.surface.contains(img)
            done += 1
    assert done >= 100


def test_off_plane_points_via_tangents(cfg):
    found = 0
    for d in _tangent_directions(cfg.surface, cfg.p, limit=60, seed=3):
        try:
            z = tangent_third_point(cfg.surface, cfg.p, d)
        except IndeterminacyError:
            continue
        assert cfg.surface.contains(z)
        if not cfg.on_plane(z):
            # genuine space point: the reflection involution still holds
            try:
                img = third_intersection(cfg.surface, cfg.r, z)
                assert third_intersection(cfg.surface, cfg.r, img) == z
            except IndeterminacyError:
                continue
            found += 1
        if found >= 5:
            break
    assert found >= 5


def test_build_configuration_deterministic():
    c1 = build_configuration(11)
    c2 = build_configuration(11)
    assert c1.to_obj() == c2.to_obj()
    assert c1.surface.form == c2.surface.form


def test_build_configuration_plane_section_splits(cfg):
    section = cfg.surface.form.set_variable(3, 0)
    assert section == cfg.line_form * cfg.conic_form
    for name in ("a", "b"):
        pt = getattr(cfg, name)
        assert cfg.on_line(pt) and cfg.on_conic(pt)


def test_configuration_rejects_marked_point_on_intersection(cfg):
    with pytest.raises(ValueError):
        Configuration(
            surface=cfg.surface,
            plane_form=cfg.plane_form,
            line_form=cfg.line_form,
            conic_form=cfg.conic_form,
            line_span=cfg.line_span,
            p=cfg.a,  # collides with an intersection point
            q=cfg.q,
            r=cfg.r,
            a=cfg.a,
            b=cfg.b,
        )


def test_configuration_json_roundtrip(cfg):
    again = Configuration.from_obj(cfg.to_obj())
    assert again.surface.form == cfg.surface.form
    assert again.p == cfg.p and again.b == cfg.b


@pytest.mark.parametrize(
    "span,message",
    [
        ([["1", "0", "0", "0"], ["0", "1", "1", "0"]], "must lie on L"),  # off L
        ([["1", "2", "0", "0"], ["-1", "-2", "0", "0"]], "must be distinct"),  # repeated
    ],
)
def test_configuration_from_obj_rejects_a_bad_line_span(cfg, span, message):
    obj = cfg.to_obj()
    obj["line_span"] = span
    with pytest.raises(ValueError, match=message):
        Configuration.from_obj(obj)


def test_configuration_rejects_a_surface_missing_l(cfg):
    # tilt the marked plane to x3 = x0: the points keep their conic and line
    # equations, but the surface F = x2*c + x3*Q no longer vanishes on L
    def tilt(coords):
        return [str(coords[0]), str(coords[1]), str(coords[2]), str(coords[0])]

    obj = cfg.to_obj()
    obj["plane_form"] = (MultiPoly.variable(3, 4) - MultiPoly.variable(0, 4)).to_obj()
    obj["line_span"] = [tilt(s.coords) for s in cfg.line_span]
    obj["points"] = {name: tilt(getattr(cfg, name).coords) for name in "pqrab"}
    with pytest.raises(ValueError, match="must contain L"):
        Configuration.from_obj(obj)


def test_reflect_on_line_involution(cfg):
    rng = random.Random(2)
    checked = 0
    for _ in range(25):
        pt = cfg.point_from_parameter(1, rng.randint(-40, 40))
        if pt in (cfg.a, cfg.b):
            continue
        img = reflect_on_line(cfg, pt)
        assert cfg.on_line(img)
        assert reflect_on_line(cfg, img) == pt
        checked += 1
    assert checked >= 20


def test_reflect_on_line_swaps_intersection_points(cfg):
    # at the L-C intersection points the residual conic is the conic itself,
    # so the tangent construction exchanges them
    assert reflect_on_line(cfg, cfg.a) == cfg.b
    assert reflect_on_line(cfg, cfg.b) == cfg.a


def _partials_on_line(cfg):
    """P and R: dF/dx2 and dF/dx3 on L, as the coefficients (c0, c1, c2) of
    c0*u^2 + c1*u*v + c2*v^2 in the span coordinates, by substitution."""
    s0, s1 = cfg.line_span
    u, v = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    line = [u.scale(x) + v.scale(y) for x, y in zip(s0.coords, s1.coords)]
    out = []
    for k in (2, 3):
        binary = cfg.surface.form.derivative(k).substitute(line)
        out.append(tuple(binary.terms.get(e, Fraction(0)) for e in ((2, 0), (1, 1), (0, 2))))
    return out


def _involution(cfg):
    (p0, p1, p2), (r0, r1, r2) = _partials_on_line(cfg)
    return (
        (p0 * r2 - p2 * r0, p1 * r2 - p2 * r1),
        (p1 * r0 - p0 * r1, p2 * r0 - p0 * r2),
    )


def _resultant(cfg):
    """Res(P, R) of the two binary quadratics, written out (sympy's
    univariate resultant drops a degree when a leading coefficient is 0)."""
    (p0, p1, p2), (r0, r1, r2) = _partials_on_line(cfg)
    return (p0 * r2 - p2 * r0) ** 2 - (p0 * r1 - p1 * r0) * (p1 * r2 - p2 * r1)


def _apply_involution(cfg, iota, pt):
    u, v = cfg.line_parameter(pt)
    return cfg.point_from_parameter(
        iota[0][0] * u + iota[0][1] * v, iota[1][0] * u + iota[1][1] * v
    )


def test_reflect_on_line_is_one_involution_per_configuration():
    rng = random.Random(13)
    for seed in range(41):
        built = build_configuration(seed)
        k = rng.choice((-3, -2, 2, 3))
        tilted = dataclasses.replace(
            built, line_span=(RationalPoint((1, k, 0, 0)), RationalPoint((1, -k - 1, 0, 0)))
        )
        for cfg in (built, tilted):
            (a, b), (c, d) = iota = _involution(cfg)
            det = a * d - b * c
            assert a + d == 0
            assert det == -_resultant(cfg) != 0
            assert [[a * a + b * c, a * b + b * d], [c * a + d * c, c * b + d * d]] == [
                [-det, 0],
                [0, -det],
            ]
            assert _apply_involution(cfg, iota, cfg.a) == cfg.b
            assert _apply_involution(cfg, iota, cfg.b) == cfg.a
            points = [cfg.p, cfg.q, cfg.a, cfg.b]
            points += [cfg.point_from_parameter(1, rng.randint(-30, 30)) for _ in range(4)]
            for x in points:
                assert reflect_on_line(cfg, x) == _apply_involution(cfg, iota, x)


def _with_quadric(cfg, quad):
    """The configuration on the surface x2*c + x3*quad."""
    x2, x3 = MultiPoly.variable(2, 4), MultiPoly.variable(3, 4)
    return dataclasses.replace(cfg, surface=CubicHypersurface(x2 * cfg.conic_form + x3 * quad))


def _with_parallel_partials(cfg):
    # Q = c + x3*x0 restricts to c on L, so P and R are parallel and iota = 0
    x0, x3 = MultiPoly.variable(0, 4), MultiPoly.variable(3, 4)
    return _with_quadric(cfg, cfg.conic_form + x3 * x0)


def _with_a_rank_one_involution(cfg):
    # Q = l*x1 with l vanishing at a: P and R share the root a, so iota has
    # rank 1, the surface is singular at a, and every other point maps to a
    a0, a1 = cfg.a.coords[:2]
    x0, x1 = MultiPoly.variable(0, 4), MultiPoly.variable(1, 4)
    return _with_quadric(cfg, (x0.scale(a1) - x1.scale(a0)) * x1)


def test_reflect_on_line_with_parallel_partials(cfg):
    degenerate = _with_parallel_partials(cfg)
    assert _involution(degenerate) == ((0, 0), (0, 0))
    for t in range(-6, 7):
        x = degenerate.point_from_parameter(1, t)
        if x in (degenerate.a, degenerate.b):
            continue
        with pytest.raises(
            IndeterminacyError, match=r"^residual conic contains L \(degenerate tangency\)$"
        ):
            reflect_on_line(degenerate, x)
    for x in (degenerate.a, degenerate.b):
        with pytest.raises(IndeterminacyError, match="^surface is singular at the point$"):
            reflect_on_line(degenerate, x)


def test_reflect_on_line_with_a_rank_one_involution(cfg):
    degenerate = _with_a_rank_one_involution(cfg)
    (a, b), (c, d) = _involution(degenerate)
    assert a * d - b * c == 0 and any((a, b, c, d))
    with pytest.raises(IndeterminacyError, match="^surface is singular at the point$"):
        reflect_on_line(degenerate, degenerate.a)
    others = [degenerate.b, degenerate.p, degenerate.q]
    others += [degenerate.point_from_parameter(t, 1) for t in range(-6, 7)]
    for x in others:
        if x != degenerate.a:
            assert reflect_on_line(degenerate, x) == degenerate.a


def _with_swapped(cfg, i, j):
    """The same configuration with x_i and x_j swapped."""
    perm = [MultiPoly.variable(k, 4) for k in range(4)]
    perm[i], perm[j] = perm[j], perm[i]

    def swap(pt):
        c = list(pt.coords)
        c[i], c[j] = c[j], c[i]
        return RationalPoint(tuple(c))

    return Configuration(
        surface=CubicHypersurface(cfg.surface.form.substitute(perm)),
        plane_form=cfg.plane_form.substitute(perm),
        line_form=cfg.line_form.substitute(perm),
        conic_form=cfg.conic_form.substitute(perm),
        line_span=tuple(swap(s) for s in cfg.line_span),
        **{name: swap(getattr(cfg, name)) for name in "pqrab"},
    )


@pytest.mark.parametrize("i", [0, 1, 2])
def test_configuration_rejects_a_plane_other_than_x3(cfg, i):
    # the same smooth surface with the plane x_i = 0 marked is named, not
    # reported as a plane section that does not split
    with pytest.raises(ValueError, match=rf"^the marked plane must be x3 = 0, not x{i} = 0$"):
        _with_swapped(cfg, i, 3)


def test_line_parameter_off_the_first_minor(cfg):
    # on L = {x0 = x3 = 0} the (0, 1) minor of the span vanishes and the
    # parameters come from the (1, 2) minor
    swapped = _with_swapped(cfg, 0, 2)
    s0, s1 = swapped.line_span
    for u, v in ((1, 0), (0, 1), (3, -2), (Fraction(1, 3), 5)):
        pt = swapped.point_from_parameter(u, v)
        pu, pv = swapped.line_parameter(pt)
        assert pu * v == pv * u
        assert tuple(pu * a + pv * b for a, b in zip(s0.coords, s1.coords)) == pt.coords
    with pytest.raises(ValueError, match="^point is not on the line$"):
        swapped.line_parameter(swapped.r)


def test_return_map_and_check_on_another_line(cfg):
    # the involution and rr follow line_form, so the swapped surface, smooth
    # on its L = {x0 = x3 = 0}, has the return map and certificate of seed 7
    swapped = _with_swapped(cfg, 0, 2)
    assert return_map(swapped).to_obj() == [["1", "0"], ["3/5", "1/10"]]
    assert return_map(swapped).to_obj() == return_map(cfg).to_obj()
    assert check_configuration(swapped)["status"] == "success"
    pp, qq, rr = residual_second_points(swapped)
    assert all(swapped.on_line(pt) for pt in (pp, qq, rr))
    # rr is where the conic's tangent line at r meets L
    grad = [g(swapped.r.coords) for g in swapped.conic_form.gradient()]
    assert sum(g * c for g, c in zip(grad, rr.coords)) == 0


def test_reflect_on_line_rejects_off_line_points(cfg):
    with pytest.raises(ValueError, match="^point is not on the line$"):
        reflect_on_line(cfg, cfg.r)


def test_return_map_fixes_intersection_points(cfg):
    phi = return_map(cfg)
    assert phi.fixes(*cfg.line_parameter(cfg.a))
    assert phi.fixes(*cfg.line_parameter(cfg.b))


@pytest.mark.parametrize("make", [_with_parallel_partials, _with_a_rank_one_involution])
def test_return_map_and_check_raise_on_a_surface_singular_on_l(cfg, make):
    # det iota = -Res(P, R) = 0: the surface is singular at a common root of
    # P and R on L.  On x2*c + x3*Q, Res(P, R) = 0 exactly when Q(a)*Q(b) = 0,
    # which build_configuration rejects, so only library calls get here.
    degenerate = make(cfg)
    with pytest.raises(IndeterminacyError):
        return_map(degenerate)
    with pytest.raises(IndeterminacyError):
        check_configuration(degenerate, horizon=300, precision=9)


def test_return_word_really_returns(cfg):
    pts = orbit_points(cfg, cfg.point_from_parameter(1, 9), RETURN_WORD)
    assert cfg.on_line(pts[-1])
    loci = ["L" if cfg.on_line(pt) else "C" for pt in pts]
    assert loci == ["L", "C", "C", "C", "L", "L", "L"]


def test_degenerate_equal_line_points_word_is_identity(cfg):
    # with q = p the return word collapses to conjugated double reflections
    degenerate = Configuration(
        surface=cfg.surface,
        plane_form=cfg.plane_form,
        line_form=cfg.line_form,
        conic_form=cfg.conic_form,
        line_span=cfg.line_span,
        p=cfg.p,
        q=cfg.p,
        r=cfg.r,
        a=cfg.a,
        b=cfg.b,
    )
    rng = random.Random(4)
    for _ in range(5):
        probe = degenerate.point_from_parameter(1, rng.randint(2, 50))
        if probe in (degenerate.a, degenerate.b, degenerate.p):
            continue
        pts = orbit_points(degenerate, probe, RETURN_WORD)
        assert pts[-1] == probe
    assert return_map(degenerate).to_obj() == [["1", "0"], ["0", "1"]]


def test_attractor_analysis_constructed_maps():
    contracting = MobiusMap(RatMatrix([[1, 0], [0, 3]]))
    report = attractor_analysis(contracting, (1, 0), (0, 1))
    assert report["attractor"] == "b"
    assert report["ratio"] == "1/3"
    involutive = MobiusMap(RatMatrix([[-1, 0], [0, 1]]))
    report = attractor_analysis(involutive, (1, 0), (0, 1))
    assert report["attractor"] is None and not report["distinct_moduli"]


def test_attractor_analysis_validates_fixed_points():
    shift = MobiusMap(RatMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        attractor_analysis(shift, (1, 0), (0, 1))


def test_bad_points_on_line(cfg):
    bp = bad_points(cfg)
    assert len(bp.points) == 6
    assert all(cfg.on_line(pt) for pt in bp.points)


def test_residual_second_points(cfg):
    pp, qq, rr = residual_second_points(cfg)
    assert pp == reflect_on_line(cfg, cfg.p)
    assert qq == reflect_on_line(cfg, cfg.q)
    assert cfg.on_line(rr)
    # rr is where the conic's tangent line at r meets L
    grads = cfg.conic_form.gradient()
    tangent_value = sum(
        g(cfg.r.coords) * c for g, c in zip(grads, rr.coords)
    )
    assert tangent_value == 0


def test_check_configuration_finds_residual_partners_once(cfg, monkeypatch):
    calls = []
    find = billiards.residual_second_points

    def counting(c):
        calls.append(c)
        return find(c)

    monkeypatch.setattr(billiards, "residual_second_points", counting)
    assert check_configuration(cfg, horizon=300, precision=9)["status"] == "success"
    assert len(calls) == 1


def test_check_configuration_success(cfg):
    report = check_configuration(cfg, horizon=300, precision=9)
    assert report["status"] == "success"
    for entry in report["starts"].values():
        assert entry["status"] == "safe"
        assert entry["k0"] % 3 == 0
        assert entry["k0_mod_3"] == 0
        lo, hi = entry["distance_enclosure"]
        assert 0 <= float(hi) - float(lo) < 10**-9
    lo, hi = report["safe_radius_enclosure"]
    assert 0 <= float(hi) - float(lo) < 10**-9


def test_reflect_on_line_reports_singular_point(cfg):
    # a surface x2*c + x3*Q with Q vanishing at a has a singular point there
    from refdyn.core import MultiPoly

    quad = MultiPoly(4, {(0, 0, 2, 0): 1})  # Q = x2^2 vanishes on all of L
    form = cfg.line_form * cfg.conic_form + cfg.plane_form * quad
    singular = Configuration(
        surface=CubicHypersurface(form),
        plane_form=cfg.plane_form,
        line_form=cfg.line_form,
        conic_form=cfg.conic_form,
        line_span=cfg.line_span,
        p=cfg.p,
        q=cfg.q,
        r=cfg.r,
        a=cfg.a,
        b=cfg.b,
    )
    with pytest.raises(IndeterminacyError):
        reflect_on_line(singular, singular.a)


def test_check_configuration_insufficient_horizon(cfg):
    report = check_configuration(cfg, horizon=1, precision=9)
    assert report["status"] == "failed"
    assert any(e["status"] == "inconclusive" for e in report["starts"].values())


def test_apply_reflection_guards(cfg):
    with pytest.raises(IndeterminacyError):
        apply_reflection(cfg, "p", cfg.p)
    with pytest.raises(ValueError):
        cfg.reflection_point("z")


def test_rational_point_normalization():
    pt = RationalPoint((0, Fraction(3), Fraction(6), 0))
    assert pt.coords == (0, 1, 2, 0)
    with pytest.raises(ValueError):
        RationalPoint((0, 0, 0, 0))


def test_configuration_error_on_impossible_budget():
    with pytest.raises(ConfigurationError):
        build_configuration(0, budget=1)
