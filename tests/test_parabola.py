import random
from fractions import Fraction

import pytest

import oracles
from parbelos.errors import CoincidentPoints, FocusOnDirectrix, PointNotOnParabola
from parbelos.euclid import Line, Point, dot, is_perpendicular, line_through, point
from parbelos.parabola import (
    LEFT,
    RIGHT,
    Parabola,
    contains_point,
    is_tangent,
    parabola_from_latus_rectum,
    point_at_parameter,
    tangent_at,
)

F = Fraction

OUTER = Parabola(point(2, 0), Line(0, 1, 2))  # latus rectum (0,0)-(4,0), opens +y


def rand_parabola(rng):
    while True:
        e1 = Point(F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9)))
        e2 = Point(F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9)))
        if e1 != e2:
            return parabola_from_latus_rectum(e1, e2, rng.choice((LEFT, RIGHT)))


def test_focus_on_directrix_rejected():
    with pytest.raises(FocusOnDirectrix):
        Parabola(point(0, 0), Line(0, 1, 0))


def test_from_latus_rectum_examples():
    outer = parabola_from_latus_rectum(point(0, 0), point(4, 0), LEFT)
    assert outer.focus == point(2, 0) and outer.directrix == Line(0, 1, 2)
    small = parabola_from_latus_rectum(point(-1, 0), point(1, 0), LEFT)
    assert small.focus == point(0, 0) and small.directrix == Line(0, 1, 1)
    inner = parabola_from_latus_rectum(point(0, 0), point(1, 0), LEFT)
    assert inner.focus == Point(F(1, 2), F(0)) and inner.directrix == Line(0, 2, 1)
    with pytest.raises(CoincidentPoints):
        parabola_from_latus_rectum(point(1, 1), point(1, 1), LEFT)


def test_side_selector_flips_directrix():
    up = parabola_from_latus_rectum(point(0, 0), point(4, 0), LEFT)
    down = parabola_from_latus_rectum(point(0, 0), point(4, 0), RIGHT)
    assert up.directrix == Line(0, 1, 2)
    assert down.directrix == Line(0, 1, -2)
    # the same half-plane named from the opposite direction
    assert parabola_from_latus_rectum(point(4, 0), point(0, 0), RIGHT) == up


def test_canonical_elements_examples():
    assert OUTER.vertex == point(2, -1)
    assert OUTER.axis == Line(1, 0, -2)
    assert OUTER.supporting_line == Line(0, 1, 1)
    assert OUTER.axis_direction == (0, 1)
    assert OUTER.latus_endpoints == (point(0, 0), point(4, 0))

    standard = Parabola(Point(F(0), F(1, 2)), Line(0, 2, 1))
    assert standard.vertex == point(0, 0) and standard.supporting_line == Line(0, 1, 0)

    inner = Parabola(Point(F(1, 2), F(0)), Line(0, 2, 1))
    assert inner.vertex == Point(F(1, 2), F(-1, 4))
    assert inner.supporting_line == Line(0, 4, 1)


def test_round_trip_latus_rectum():
    rng = random.Random(9)
    for _ in range(150):
        e1 = Point(F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)))
        e2 = Point(F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)))
        if e1 == e2:
            continue
        parabola = parabola_from_latus_rectum(e1, e2, rng.choice((LEFT, RIGHT)))
        assert set(parabola.latus_endpoints) == {e1, e2}


def test_contains_point_examples():
    # oracle: dist^2 to focus (2,0) is 25/16, squared distance to y=-2 is (5/4)^2
    assert oracles.dist2((F(1), F(-3, 4)), (F(2), F(0))) == F(25, 16)
    assert contains_point(OUTER, Point(F(1), F(-3, 4)))
    assert contains_point(OUTER, point(2, -1))  # vertex
    assert not contains_point(OUTER, point(2, 0))  # focus is interior


def test_point_at_parameter_examples():
    assert point_at_parameter(OUTER, F(0)) == point(2, -1)
    assert point_at_parameter(OUTER, F(-1)) == Point(F(1), F(-3, 4))
    assert point_at_parameter(OUTER, F(2)) == point(4, 0)


def test_point_at_parameter_properties():
    rng = random.Random(13)
    for _ in range(120):
        parabola = rand_parabola(rng)
        t = F(rng.randint(-40, 40), rng.randint(1, 9))
        p = point_at_parameter(parabola, t)
        assert contains_point(parabola, p)
        focus, directrix = parabola.focus, parabola.directrix
        assert oracles.chord_parameter((p.x, p.y), (focus.x, focus.y), directrix.a, directrix.b) == t


def test_tangent_at_examples():
    assert tangent_at(OUTER, point(0, 0)) == Line(1, 1, 0)
    assert tangent_at(OUTER, point(2, -1)) == Line(0, 1, 1)  # vertex: supporting line
    assert tangent_at(OUTER, point(4, 0)) == Line(1, -1, -4)
    with pytest.raises(PointNotOnParabola):
        tangent_at(OUTER, point(1, 1))


def test_tangent_against_derivative_oracle():
    """Axis-aligned cross-check: slope of the tangent is (x - h) / (2f)."""
    rng = random.Random(29)
    for _ in range(100):
        h = F(rng.randint(-9, 9), rng.randint(1, 5))
        v = F(rng.randint(-9, 9), rng.randint(1, 5))
        f = F(rng.randint(1, 9), rng.randint(1, 5))
        x = F(rng.randint(-12, 12), rng.randint(1, 5))
        parabola = Parabola(Point(h, v + f), Line(0, 1, -(v - f)))
        px, py = oracles.upward_parabola_point(h, v, f, x)
        assert contains_point(parabola, Point(px, py))
        a, b, c = oracles.upward_parabola_tangent(h, v, f, x)
        assert tangent_at(parabola, Point(px, py)) == Line(a, b, c)


def test_is_tangent_examples():
    assert is_tangent(OUTER, Line(2, 4, 1))  # the rectangle diagonal
    assert is_tangent(OUTER, Line(0, 1, 1))  # the supporting line itself
    assert not is_tangent(OUTER, Line(0, 1, 0))  # latus rectum line is a secant


def test_tangents_certified_and_secants_rejected():
    rng = random.Random(37)
    for _ in range(150):
        parabola = rand_parabola(rng)
        t1 = F(rng.randint(-30, 30), rng.randint(1, 7))
        t2 = F(rng.randint(-30, 30), rng.randint(1, 7))
        p1 = point_at_parameter(parabola, t1)
        assert is_tangent(parabola, tangent_at(parabola, p1))
        if t1 == t2:
            continue
        p2 = point_at_parameter(parabola, t2)
        assert not is_tangent(parabola, line_through(p1, p2))


def test_latus_angle_is_quarter_turn():
    """At each latus endpoint: 2*(d.u)^2 = |d|^2 |u|^2, i.e. a pi/4 angle."""
    rng = random.Random(43)
    for _ in range(150):
        parabola = rand_parabola(rng)
        e1, e2 = parabola.latus_endpoints
        u = e2 - e1
        for endpoint in (e1, e2):
            dx, dy = tangent_at(parabola, endpoint).direction()
            d = point(dx, dy)
            assert 2 * dot(d, u) ** 2 == dot(d, d) * dot(u, u)


def test_latus_endpoint_tangents_are_perpendicular():
    rng = random.Random(47)
    for _ in range(100):
        parabola = rand_parabola(rng)
        e1, e2 = parabola.latus_endpoints
        assert is_perpendicular(tangent_at(parabola, e1), tangent_at(parabola, e2))


def test_focal_scale_matches_vertex_focus_gap():
    assert OUTER.focal_scale == 1
    inner = Parabola(Point(F(1, 2), F(0)), Line(0, 2, 1))
    assert inner.focal_scale == F(1, 4)
