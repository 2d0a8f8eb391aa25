import dataclasses
import pickle
import random
import sys
from fractions import Fraction

import pytest

import oracles
from parbelos.errors import (
    CoincidentPoints,
    DegenerateCircle,
    DegenerateLine,
    DegenerateTriangle,
    ParallelLines,
    PointNotIncident,
    PointNotOnParabola,
)
from parbelos.euclid import (
    Circle,
    Line,
    Point,
    circle_through_points,
    circumcircle,
    cross,
    dist_sq,
    dot,
    equidistant,
    is_collinear,
    is_perpendicular,
    line_intersection,
    line_through,
    midpoint,
    on_circle,
    pedal_point,
    perpendicular_bisector,
    perpendicular_through,
    point,
    second_intersection,
)
from parbelos.parabola import parabola_from_latus_rectum, tangent_at

F = Fraction


def rand_point(rng, bound=30):
    return Point(F(rng.randint(-bound, bound), rng.randint(1, 12)),
                 F(rng.randint(-bound, bound), rng.randint(1, 12)))


def scale(p, k):
    return Point(p.x * k, p.y * k)


# --- lines ---


def test_line_canonical_form():
    assert Line(2, 4, 6) == Line(1, 2, 3)
    assert Line(-1, 2, -3) == Line(1, -2, 3)
    assert Line(0, -3, 6) == Line(0, 1, -2)
    assert Line(F(1, 2), F(1, 3), F(1, 6)) == Line(3, 2, 1)
    with pytest.raises(DegenerateLine):
        Line(0, 0, 5)


def test_line_is_a_plain_frozen_value():
    """The one canonicalising constructor keeps a dataclass's value semantics:
    keywords, fields, repr, eq, hash, pickling and ``dataclasses.replace``."""
    line = Line(a=-4, b=F(2), c=F(6, 4))
    assert (line.a, line.b, line.c) == (8, -4, -3)
    assert repr(line) == "Line(a=8, b=-4, c=-3)"
    assert [f.name for f in dataclasses.fields(Line)] == ["a", "b", "c"]
    assert line == Line(16, -8, -6) and hash(line) == hash(Line(16, -8, -6))
    assert pickle.loads(pickle.dumps(line)) == line
    assert dataclasses.replace(line, c=6) == Line(4, -2, 3)
    with pytest.raises(DegenerateLine):
        dataclasses.replace(line, a=0, b=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        line.a = 1


def test_line_through_examples():
    assert line_through(point(0, 0), point(1, 1)) == Line(1, -1, 0)
    assert line_through(point(0, 0), point(4, 0)) == Line(0, 1, 0)
    # diagonal of the tangent rectangle; oracle: two-point line formula
    a, b, c = oracles.two_point_line((F(1, 2), F(-1, 2)), (F(5, 2), F(-3, 2)))
    assert Line(a, b, c) == Line(2, 4, 1)
    assert line_through(Point(F(1, 2), F(-1, 2)), Point(F(5, 2), F(-3, 2))) == Line(2, 4, 1)
    with pytest.raises(CoincidentPoints):
        line_through(point(1, 2), point(1, 2))


def test_line_through_contains_both_endpoints():
    rng = random.Random(11)
    for _ in range(200):
        p, q = rand_point(rng), rand_point(rng)
        if p == q:
            continue
        line = line_through(p, q)
        assert line.contains(p) and line.contains(q)


def test_perpendicular_through_examples():
    assert perpendicular_through(Line(0, 1, 0), point(1, 0)) == Line(1, 0, -1)
    assert perpendicular_through(Line(1, -1, 0), point(0, 0)) == Line(1, 1, 0)
    # dropping T2 onto the cusp line
    assert perpendicular_through(Line(0, 1, 0), point(2, -2)) == Line(1, 0, -2)


def test_parallel_and_perpendicular_predicates():
    # Parallel lines are the ones line_intersection refuses.
    with pytest.raises(ParallelLines):
        line_intersection(Line(1, 2, 0), Line(2, 4, 9))
    assert line_intersection(Line(1, 2, 0), Line(2, 1, 0)) == point(0, 0)
    assert not is_perpendicular(Line(1, 2, 0), Line(2, 4, 9))
    assert is_perpendicular(Line(1, 1, 0), Line(1, -1, 5))
    line = Line(3, -5, 7)
    perp = perpendicular_through(line, point(2, 2))
    assert is_perpendicular(line, perp) and perp.contains(point(2, 2))


def test_line_intersection():
    assert line_intersection(Line(1, 0, -1), Line(0, 1, 2)) == point(1, -2)
    with pytest.raises(ParallelLines):
        line_intersection(Line(1, 2, 0), Line(1, 2, 5))


# --- pedal points ---


def test_pedal_point_examples():
    # oracle: P - ((a*Px + b*Py + c)/(a^2+b^2)) * (a, b)
    assert oracles.project(2, 0, 1, 1, 0) == (F(1), F(-1))
    assert pedal_point(point(2, 0), Line(1, 1, 0)) == point(1, -1)
    assert oracles.project(2, 0, 2, 4, 1) == (F(3, 2), F(-1))
    assert pedal_point(point(2, 0), Line(2, 4, 1)) == Point(F(3, 2), F(-1))
    assert pedal_point(point(5, 7), Line(0, 1, -7)) == point(5, 7)


def test_pedal_point_properties():
    rng = random.Random(23)
    for _ in range(300):
        p = rand_point(rng)
        q, r = rand_point(rng), rand_point(rng)
        if q == r:
            continue
        line = line_through(q, r)
        foot = pedal_point(p, line)
        assert line.contains(foot)
        dx, dy = line.direction()
        assert dot(p - foot, point(dx, dy)) == 0
        assert (foot == p) == line.contains(p)


# --- collinearity ---


def test_is_collinear():
    assert is_collinear(point(1, -1), point(3, -1), Point(F(3, 2), F(-1)))
    assert not is_collinear(point(0, 0), point(1, 0), point(0, 1))
    # repeated-point convention: determinant is zero
    assert is_collinear(point(5, 5), point(5, 5), point(9, 2))


# --- circles ---


def test_circle_rejects_degenerate():
    with pytest.raises(DegenerateCircle):
        Circle(point(0, 0), F(0))
    with pytest.raises(DegenerateCircle):
        Circle(point(0, 0), F(-1))


def test_circumcircle_examples():
    # oracle: equal-distance linear solve
    center = oracles.circumcenter_solve((F(1), F(0)), (F(1, 2), F(-1, 2)), (F(2), F(-2)))
    assert center == (F(3, 2), F(-1))
    assert oracles.dist2(center, (F(1), F(0))) == F(5, 4)
    circle = circumcircle(point(1, 0), Point(F(1, 2), F(-1, 2)), point(2, -2))
    assert circle.center == Point(F(3, 2), F(-1)) and circle.radius_sq == F(5, 4)

    circle = circumcircle(point(1, 0), point(-1, 0), point(0, 1))
    assert circle.center == point(0, 0) and circle.radius_sq == 1

    with pytest.raises(DegenerateTriangle):
        circumcircle(point(0, 0), point(1, 1), point(2, 2))
    with pytest.raises(DegenerateTriangle):
        circumcircle(point(0, 0), point(0, 0), point(2, 3))


def test_circumcircle_contains_all_three():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rand_point(rng), rand_point(rng), rand_point(rng)
        if is_collinear(a, b, c):
            continue
        circle = circumcircle(a, b, c)
        assert on_circle(circle, a) and on_circle(circle, b) and on_circle(circle, c)


def test_on_circle_examples():
    circle = Circle(Point(F(3, 2), F(-1)), F(5, 4))
    assert on_circle(circle, point(2, 0))
    assert on_circle(circle, point(1, -2))
    assert not on_circle(circle, point(0, 0))


# --- second intersection (Vieta) ---


def test_second_intersection_examples():
    circle = Circle(Point(F(3, 2), F(-1)), F(5, 4))
    assert second_intersection(Line(1, -1, -1), circle, point(1, 0)) == Point(F(1, 2), F(-1, 2))
    assert second_intersection(Line(1, 1, 0), circle, point(2, -2)) == Point(F(1, 2), F(-1, 2))
    # tangent: double root returns the point itself
    unit = Circle(point(0, 0), F(1))
    assert second_intersection(Line(1, 0, -1), unit, point(1, 0)) == point(1, 0)
    with pytest.raises(PointNotIncident):
        second_intersection(Line(1, -1, -1), circle, point(0, 0))


def test_second_intersection_properties():
    rng = random.Random(31)
    for _ in range(200):
        a, b, c = rand_point(rng), rand_point(rng), rand_point(rng)
        if is_collinear(a, b, c):
            continue
        circle = circumcircle(a, b, c)
        chord = line_through(a, b)
        other = second_intersection(chord, circle, a)
        assert chord.contains(other) and on_circle(circle, other)
        assert other == b or is_collinear(a, b, other)
        # involution: applying twice returns the start
        assert second_intersection(chord, circle, other) == a


def test_simson_wallace_forward_and_converse_random():
    """Pedals of a circumcircle point are collinear; of any other point, not."""
    rng = random.Random(41)
    done_forward = done_converse = 0
    while done_forward < 120 or done_converse < 120:
        a, b, c = rand_point(rng), rand_point(rng), rand_point(rng)
        if is_collinear(a, b, c):
            continue
        circle = circumcircle(a, b, c)
        if done_forward < 120:
            t = F(rng.randint(-20, 20), rng.randint(1, 9))
            p = circle_point(circle, a, t)
            pedals = [pedal_point(p, line_through(u, v)) for u, v in ((b, c), (c, a), (a, b))]
            assert is_collinear(*pedals)
            done_forward += 1
        if done_converse < 120:
            p = rand_point(rng)
            if on_circle(circle, p):
                continue
            pedals = [pedal_point(p, line_through(u, v)) for u, v in ((b, c), (c, a), (a, b))]
            assert not is_collinear(*pedals)
            done_converse += 1


# --- rational circle parametrizations ---


def circle_point(circle, q, t):
    """Rational point of the circle cut out by the chord of slope t through q
    (``t = None``: the vertical chord), by :func:`second_intersection`.

    A reference parametrization kept with the tests: every rational point of
    the circle except q is hit by exactly one parameter, and a tangent chord
    returns q itself.
    """
    chord = Line(1, 0, -q.x) if t is None else Line(t, -1, q.y - t * q.x)
    return second_intersection(chord, circle, q)


def test_circle_point_examples():
    circle = Circle(Point(F(3, 2), F(-1)), F(5, 4))
    assert circle_point(circle, point(1, 0), F(1)) == Point(F(1, 2), F(-1, 2))
    unit = Circle(point(0, 0), F(1))
    assert circle_point(unit, point(1, 0), None) == point(1, 0)
    # oracle: stereographic projection from (-1, 0)
    assert oracles.stereographic(F(1, 2)) == (F(3, 5), F(4, 5))
    assert circle_point(unit, point(-1, 0), F(1, 2)) == Point(F(3, 5), F(4, 5))
    with pytest.raises(PointNotIncident):
        circle_point(unit, point(2, 0), F(1))


def test_circle_point_hits_distinct_points():
    unit = Circle(point(0, 0), F(1))
    rng = random.Random(6)
    seen = {}
    for _ in range(100):
        t = F(rng.randint(-30, 30), rng.randint(1, 11))
        p = circle_point(unit, point(-1, 0), t)
        assert on_circle(unit, p)
        if t in seen:
            assert seen[t] == p
        for other_t, other_p in seen.items():
            if other_t != t:
                assert other_p != p
        seen[t] = p


def test_circle_through_points_examples():
    circle = circle_through_points(point(2, 0), point(2, -2), F(-1, 2))
    assert circle.center == Point(F(3, 2), F(-1)) and circle.radius_sq == F(5, 4)
    assert circle_through_points(point(1, 0), point(-1, 0), F(0)) == Circle(point(0, 0), F(1))
    with pytest.raises(CoincidentPoints):
        circle_through_points(point(1, 1), point(1, 1), F(1))


def test_circle_through_points_family():
    rng = random.Random(12)
    p, q = point(2, 0), point(-1, 3)
    bisector = perpendicular_bisector(p, q)
    seen: dict = {}
    for _ in range(60):
        t = F(rng.randint(-40, 40), rng.randint(1, 13))
        circle = circle_through_points(p, q, t)
        assert on_circle(circle, p) and on_circle(circle, q)
        assert bisector.contains(circle.center)
        # injective: a repeated parameter rebuilds the same circle, a new one never does
        if t in seen:
            assert seen[t] == circle
        else:
            assert circle not in seen.values()
            seen[t] = circle


# --- helpers ---


def test_midpoint_dist_sq_and_cross():
    assert midpoint(point(0, 0), point(1, 3)) == Point(F(1, 2), F(3, 2))
    assert dist_sq(point(0, 0), point(3, 4)) == 25
    assert cross(point(1, 0), point(0, 1)) == 1


def test_equidistant_examples():
    assert equidistant(point(0, 0), point(3, 4), point(-5, 0))
    assert equidistant(point(F(1, 2), F(1, 3)), point(F(1, 2), F(4, 3)), point(F(3, 2), F(1, 3)))
    assert not equidistant(point(0, 0), point(3, 4), point(4, 4))


# --- error text ---


def test_error_text_prints_digit_runs_over_40_by_their_length():
    forty, long = "1" * 40, "2" * 41
    err = CoincidentPoints(f"no unique line through ({forty}, -{long}/3) twice")
    assert str(err) == f"no unique line through ({forty}, -<41 digits>/3) twice"
    assert err.args == (f"no unique line through ({forty}, -{long}/3) twice",)
    with pytest.raises(CoincidentPoints) as exc:
        line_through(point(7**2000, 0), point(7**2000, 0))
    assert str(exc.value) == "no unique line through (<1691 digits>, 0) twice"


def test_error_about_a_value_too_long_to_print_keeps_its_class():
    """A value with an integer past the interpreter's print limit is named by a
    marker in the error text, and the error is still raised as itself."""
    huge = Point(F(10**5000 + 1, 3), F(0))
    marker = f"<more than {sys.get_int_max_str_digits()} digits>"
    with pytest.raises(CoincidentPoints) as exc:
        line_through(huge, huge)
    assert str(exc.value) == f"no unique line through {marker} twice"
    assert repr(exc.value) == f"CoincidentPoints('no unique line through {marker} twice')"
    with pytest.raises(DegenerateTriangle) as exc:
        circumcircle(point(0, 0), huge, scale(huge, 2))
    assert str(exc.value) == f"collinear or coincident: (0, 0), {marker}, {marker}"
    parabola = parabola_from_latus_rectum(point(0, 0), point(2, 0), "left")
    with pytest.raises(PointNotOnParabola) as exc:
        tangent_at(parabola, huge)
    assert str(exc.value) == f"{marker} is not on the parabola"
