import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

import oracles
from parbelos.errors import (
    CircleMissesFocusOrI,
    CuspsNotCollinear,
    DegenerateTriangle,
    NotTangent,
    ParallelTangents,
)
from parbelos.euclid import (
    Circle,
    Line,
    Point,
    circle_through_points,
    line_intersection,
    on_circle,
    point,
)
from parbelos.figure import build_parbelos
from parbelos.fuzz import degenerate_converse_circle
from parbelos.parabola import Parabola, is_tangent, point_at_parameter, tangent_at
from parbelos.theorems import converse_lambert, lambert_circumcircle_check, simson_check

F = Fraction

OUTER = Parabola(point(2, 0), Line(0, 1, 2))
RECT_CIRCLE = Circle(Point(F(3, 2), F(-1)), F(5, 4))


def test_simson_focus_on_rectangle_circumcircle():
    report = simson_check(point(2, 0), point(1, 0), Point(F(1, 2), F(-1, 2)), point(2, -2))
    assert report.verdict
    witnesses = dict(report.witnesses)
    assert witnesses["pedals_collinear"] and witnesses["point_on_circle"]
    # independent collinearity check of the three pedals via the oracle
    pedals = [witnesses[key] for key in ("pedal_bc", "pedal_ca", "pedal_ab")]
    a, b, c = oracles.two_point_line((pedals[0].x, pedals[0].y), (pedals[1].x, pedals[1].y))
    assert a * pedals[2].x + b * pedals[2].y + c == 0


def test_simson_interior_point_agrees():
    report = simson_check(point(0, 0), point(1, 0), point(0, 1), point(-1, 0))
    assert report.verdict
    witnesses = dict(report.witnesses)
    assert not witnesses["pedals_collinear"] and not witnesses["point_on_circle"]


def test_simson_vertex_case():
    report = simson_check(point(1, 0), point(1, 0), point(0, 1), point(-1, 0))
    assert report.verdict
    witnesses = dict(report.witnesses)
    assert witnesses["pedals_collinear"] and witnesses["point_on_circle"]


def test_simson_degenerate_triangle():
    with pytest.raises(DegenerateTriangle):
        simson_check(point(0, 0), point(1, 1), point(2, 2), point(3, 3))


def test_lambert_cusp_tangents_and_diagonal():
    """Tangents at both outer cusps plus the rectangle diagonal: the tangent
    triangle is (T2, T1, T3) and its circumcircle is the rectangle's."""
    report = lambert_circumcircle_check(OUTER, Line(1, 1, 0), Line(1, -1, -4), Line(2, 4, 1))
    assert report.verdict
    witnesses = dict(report.witnesses)
    assert witnesses["vertex_12"] == point(2, -2)
    assert witnesses["vertex_23"] == Point(F(5, 2), F(-3, 2))
    assert witnesses["vertex_31"] == Point(F(1, 2), F(-1, 2))
    circle = witnesses["circumcircle"]
    assert circle.center == Point(F(3, 2), F(-1)) and circle.radius_sq == F(5, 4)


def test_lambert_with_supporting_line():
    """The supporting line counts as a tangent; check via the oracle circle."""
    center = oracles.circumcenter_solve((F(2), F(-2)), (F(1), F(-1)), (F(3), F(-1)))
    assert center == (F(2), F(-1))
    assert oracles.dist2(center, (F(2), F(0))) == oracles.dist2(center, (F(1), F(-1))) == 1
    report = lambert_circumcircle_check(OUTER, Line(1, 1, 0), Line(1, -1, -4), Line(0, 1, 1))
    assert report.verdict
    circle = dict(report.witnesses)["circumcircle"]
    assert circle.center == point(2, -1) and circle.radius_sq == 1


def test_lambert_rejects_secant():
    with pytest.raises(NotTangent) as exc:
        lambert_circumcircle_check(OUTER, Line(1, 1, 0), Line(1, -1, -4), Line(0, 1, 0))
    assert exc.value.index == 3


def test_not_tangent_and_cusps_not_collinear_survive_pickling():
    with pytest.raises(NotTangent) as not_tangent:
        lambert_circumcircle_check(OUTER, Line(1, 1, 0), Line(1, -1, -4), Line(0, 1, 0))
    with pytest.raises(CuspsNotCollinear) as not_collinear:
        build_parbelos(point(0, 0), Point(F(1, 3), F(1, 7)), point(4, 0))
    for error in (not_tangent.value, not_collinear.value):
        restored = pickle.loads(pickle.dumps(error))
        assert type(restored) is type(error)
        assert (str(restored), repr(restored)) == (str(error), repr(error))
    assert str(not_tangent.value) == "line 3 is not tangent"
    assert pickle.loads(pickle.dumps(not_tangent.value)).index == 3
    assert str(not_collinear.value) == "(0, 0), (1/3, 1/7), (4, 0) are not collinear"


def test_lambert_rejects_parallel_tangents():
    with pytest.raises(DegenerateTriangle):
        lambert_circumcircle_check(OUTER, Line(1, 1, 0), Line(1, 1, 0), Line(1, -1, -4))


def test_converse_lambert_reproduces_diagonal():
    line, report = converse_lambert(OUTER, Line(1, 1, 0), Line(1, -1, -4), RECT_CIRCLE)
    assert line == Line(2, 4, 1)
    assert report.verdict
    witnesses = dict(report.witnesses)
    assert witnesses["intersection"] == point(2, -2)
    assert witnesses["h1"] == Point(F(1, 2), F(-1, 2))
    assert witnesses["h2"] == Point(F(5, 2), F(-3, 2))


def test_converse_lambert_random_circle_family():
    rng = random.Random(53)
    l1, l2 = Line(1, 1, 0), Line(1, -1, -4)
    crossing = line_intersection(l1, l2)
    for _ in range(100):
        t = F(rng.randint(-50, 50), rng.randint(1, 11))
        circle = circle_through_points(OUTER.focus, crossing, t)
        constructed, report = converse_lambert(OUTER, l1, l2, circle)
        assert report.verdict
        assert is_tangent(OUTER, constructed)


def test_converse_lambert_degenerate_branch():
    """Circle tangent to l1 at the crossing: H1 = I, the output is l2 itself."""
    l1, l2 = Line(1, 1, 0), Line(1, -1, -4)
    crossing = line_intersection(l1, l2)
    circle = degenerate_converse_circle(OUTER, l1, crossing)
    assert on_circle(circle, OUTER.focus) and on_circle(circle, crossing)
    constructed, report = converse_lambert(OUTER, l1, l2, circle)
    assert report.verdict
    assert constructed == l2
    assert dict(report.witnesses)["h1"] == crossing


def test_converse_lambert_errors():
    with pytest.raises(NotTangent):
        converse_lambert(OUTER, Line(0, 1, 0), Line(1, -1, -4), RECT_CIRCLE)
    with pytest.raises(ParallelTangents):
        converse_lambert(OUTER, Line(1, 1, 0), Line(1, 1, 0), RECT_CIRCLE)
    with pytest.raises(CircleMissesFocusOrI):
        converse_lambert(OUTER, Line(1, 1, 0), Line(1, -1, -4), Circle(point(0, 0), F(1)))


# Circles that miss the focus F = (2, 0) or the crossing I = (2, -2) of
# l1: x + y = 0 and l2: x - y - 4 = 0, with the points they pass through.
MISSING_CIRCLES = {
    "through F only": (Circle(point(2, 1), F(1)), (True, False)),
    "through I only": (Circle(point(3, -2), F(1)), (False, True)),
    # RECT_CIRCLE's center with radius^2 4/3: over the frame's W = 2,
    # radius^2 * W^2 = 16/3 is no integer, so no point over W is on it,
    # though its floor 5 is |e|^2 for both F and I.
    "radius^2 W^2 not whole": (Circle(RECT_CIRCLE.center, F(4, 3)), (False, False)),
}


@pytest.mark.parametrize("name", MISSING_CIRCLES)
def test_converse_lambert_refuses_a_circle_missing_the_focus_or_i(name):
    circle, through = MISSING_CIRCLES[name]
    l1, l2 = Line(1, 1, 0), Line(1, -1, -4)
    assert (on_circle(circle, OUTER.focus), on_circle(circle, line_intersection(l1, l2))) == through
    with pytest.raises(CircleMissesFocusOrI) as exc:
        converse_lambert(OUTER, l1, l2, circle)
    assert str(exc.value) == "circle must pass through the focus and the tangent intersection"


def test_converse_feeds_back_into_lambert():
    """Duality: the rebuilt tangent joins any tangent pair in a Lambert triple."""
    rng = random.Random(59)
    l1, l2 = Line(1, 1, 0), Line(1, -1, -4)
    crossing = line_intersection(l1, l2)
    checked = 0
    while checked < 25:
        t = F(rng.randint(-30, 30), rng.randint(1, 7))
        circle = circle_through_points(OUTER.focus, crossing, t)
        constructed, _ = converse_lambert(OUTER, l1, l2, circle)
        third = tangent_at(OUTER, point_at_parameter(OUTER, F(rng.randint(5, 40), 3)))
        if len({constructed, l1, third}) < 3:
            continue
        try:
            report = lambert_circumcircle_check(OUTER, constructed, l1, third)
        except DegenerateTriangle:
            continue
        assert report.verdict
        checked += 1


REPORT_CALLS = {
    "simson": (simson_check, (point(2, 0), point(1, 0), Point(F(1, 2), F(-1, 2)), point(2, -2))),
    "lambert": (lambert_circumcircle_check, (OUTER, Line(1, 1, 0), Line(1, -1, -4), Line(2, 4, 1))),
    "converse": (converse_lambert, (OUTER, Line(1, 1, 0), Line(1, -1, -4), RECT_CIRCLE)),
}


def _report(result):
    """The report of a check's result (``converse_lambert`` pairs it with its line)."""
    return result[1] if isinstance(result, tuple) else result


@pytest.mark.parametrize("name", REPORT_CALLS)
def test_reports_are_values(name):
    """A report pickles, compares by value (also across a process pool) and
    prints only its verdict."""
    check, args = REPORT_CALLS[name]
    report = _report(check(*args))
    assert pickle.loads(pickle.dumps(report)) == report
    assert _report(check(*pickle.loads(pickle.dumps(args)))) == report
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert _report(pool.submit(check, *args).result()) == report
    assert repr(report) == "TheoremReport(verdict=True)"
