"""The integer paths of the kernel against the Fraction formulas they
replaced: Line canonicalisation (also of integers a, b with a Fraction c),
Line.contains and line_through, the parabola primitives contains_point,
is_tangent, tangent_at and parabola_from_latus_rectum, the pi/4 latus-angle
check, the circle constructions circumcircle, second_intersection and
circle_through_points, the figure checks on_circle, equidistant and
_square_check, the drawing (the arc certificate, the scene bounds and the
SVG canvas map) and the similarity map z -> m*z + shift.  The parabola's
elements, read fresh from the focus and the directrix, are checked against
the constructions they replaced (the vertex as the midpoint of the focus and
its pedal, the supporting line through it, the chord point from it), and
is_tangent, which tests through the directrix, against the pedal on that
supporting line.  Counts of the Fractions each integer path builds, of the
elements each caller reads and of the calls the figure and the drawing make
let a timing-free test notice when Fraction arithmetic or repeated work
comes back onto one of them.

Heights cover both regimes the kernel runs in: about 13 bits (fuzz and
figure inputs) and about 3300 bits (cusp coordinates below 10^1000).
"""

import dataclasses
import math
import pickle
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import parbelos.euclid as euclid
import parbelos.figure as figure_module
import parbelos.parabola as parabola_module
import parbelos.theorems as theorems
from parbelos.dsl import evaluate, parse_script
from parbelos.errors import (
    CoincidentPoints,
    DegenerateLine,
    DegenerateSide,
    DegenerateTriangle,
    EmptyScene,
    GeometryError,
    PointNotIncident,
    PointNotOnParabola,
)
from parbelos.euclid import (
    Circle,
    Line,
    Point,
    _common,
    circle_through_points,
    circumcircle,
    dist_sq,
    dist_sq_point_line,
    dot,
    equidistant,
    is_collinear,
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
from parbelos.figure import (
    _square_check,
    build_parbelos,
    corollary_checks,
    similarity,
    sondow_checks,
)
from parbelos.fuzz import degenerate_converse_circle, height_scale, latus_angle_failures, rand_cusps
from parbelos.jsonio import verification
from parbelos.parabola import (
    Parabola,
    _focal,
    _tangent,
    _tangent_frame,
    contains_point,
    is_tangent,
    parabola_from_latus_rectum,
    point_at_parameter,
    tangent_at,
)
from parbelos.rational import ratio_to_decimal_string
from parbelos.svg import (
    Scene,
    _Frame,
    _certified_arc,
    _certify,
    _scene_bounds,
    bindings_scene,
    figure_scene,
    render_svg,
)
from parbelos.theorems import converse_lambert

HEIGHTS = (13, 3300)


def ints(bits):
    return st.integers(-(2**bits), 2**bits)


def rationals(bits):
    return st.builds(Fraction, ints(bits), st.integers(1, 2**bits))


def points(bits):
    return st.builds(Point, rationals(bits), rationals(bits))


def scale(p, k):
    return Point(p.x * k, p.y * k)


# --- the Fraction formulas the integer paths replaced (reference only) ---


def reference_canonical(a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    mult = math.lcm(a.denominator, b.denominator, c.denominator)
    ia, ib, ic = int(a * mult), int(b * mult), int(c * mult)
    g = math.gcd(ia, ib, ic)
    ia, ib, ic = ia // g, ib // g, ic // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib, ic = -ia, -ib, -ic
    return ia, ib, ic


def reference_contains(line, p):
    return line.a * p.x + line.b * p.y + line.c == 0


def reference_line_through(p, q):
    a = q.y - p.y
    b = p.x - q.x
    return reference_canonical(a, b, -(a * p.x + b * p.y))


def triple(line):
    return line.a, line.b, line.c


# --- Line ---

SETTINGS = settings(max_examples=60, deadline=None)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_int_triple_canonicalisation_matches_fraction_path(bits, data):
    a, b, c = (data.draw(ints(bits)) for _ in range(3))
    k = data.draw(st.integers(-(2**bits), 2**bits).filter(bool))
    if a == 0 and b == 0:
        with pytest.raises(DegenerateLine):
            Line(a, b, c)
        return
    assert triple(Line(a, b, c)) == reference_canonical(a, b, c)
    assert Line(k * a, k * b, k * c) == Line(a, b, c)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_rational_triple_canonicalisation_matches_fraction_path(bits, data):
    a, b, c = (data.draw(rationals(bits)) for _ in range(3))
    if a == 0 and b == 0:
        return
    assert triple(Line(a, b, c)) == reference_canonical(a, b, c)
    # the same line handed over as cleared integers takes the int path
    mult = math.lcm(a.denominator, b.denominator, c.denominator)
    cleared = Line(int(a * mult), int(b * mult), int(c * mult))
    assert cleared == Line(a, b, c)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_integer_normal_with_fraction_offset_matches_fraction_path(bits, data):
    """Line(a, b, n/d) is reduced by gcd(a, b, n) before d is cleared."""
    a, b = data.draw(ints(bits)), data.draw(ints(bits))
    c = data.draw(rationals(bits))
    negative_a, negative_b = -abs(a) - 1, -abs(b) - 1
    for triple_in in (
        (a, b, c),
        (a, b, Fraction(0)),
        (0, b, c),
        (a, 0, c),
        (negative_a, b, c),
        (0, negative_b, c),
    ):
        if triple_in[0] == 0 and triple_in[1] == 0:
            with pytest.raises(DegenerateLine):
                Line(*triple_in)
            continue
        line = Line(*triple_in)
        assert triple(line) == reference_canonical(*triple_in)
        assert all(type(v) is int for v in triple(line))
    with pytest.raises(DegenerateLine):
        Line(0, 0, c)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_line_through_matches_fraction_formula(bits, data):
    p, q = data.draw(points(bits)), data.draw(points(bits))
    if p == q:
        with pytest.raises(CoincidentPoints):
            line_through(p, q)
        return
    assert triple(line_through(p, q)) == reference_line_through(p, q)
    assert line_through(q, p) == line_through(p, q)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_contains_matches_fraction_formula(bits, data):
    p, q, r = (data.draw(points(bits)) for _ in range(3))
    t = data.draw(rationals(bits))
    if p == q:
        return
    line = line_through(p, q)
    on_line = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    for candidate in (p, q, on_line, r):
        assert line.contains(candidate) == reference_contains(line, candidate)
    assert line.contains(p) and line.contains(q) and line.contains(on_line)
    # integer coordinates are accepted too (int has numerator/denominator)
    assert line.contains(Point(2, 3)) == reference_contains(line, Point(2, 3))


# --- Parabola elements, read from the focus and the directrix ---


def parabolas(bits):
    pairs = st.tuples(points(bits), points(bits)).filter(lambda pq: pq[0] != pq[1])
    return st.builds(
        lambda pq, side: parabola_from_latus_rectum(pq[0], pq[1], side),
        pairs,
        st.sampled_from(("left", "right")),
    )


ELEMENTS = ("vertex", "axis", "supporting_line", "focal_scale", "axis_direction", "latus_endpoints")


def count_reads(patch) -> Counter:
    """Count the reads of each Parabola element, through ``patch`` (a
    MonkeyPatch), which puts the plain properties back when it is undone."""
    reads = Counter()
    for name in ELEMENTS:
        getter = getattr(Parabola, name).fget

        def counted(parabola, name=name, getter=getter):
            reads[name] += 1
            return getter(parabola)

        patch.setattr(Parabola, name, property(counted))
    return reads


def count_kernel_calls(patch, name, owner=euclid) -> list[int]:
    """Count calls of ``owner.<name>`` under every name a parbelos module
    binds it to (``from .euclid import pedal_point`` binds a second one)."""
    original = getattr(owner, name)
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "parbelos" and getattr(module, name, None) is original:
            patch.setattr(module, name, counted)
    return counter


def reference_vertex(parabola):
    return midpoint(parabola.focus, pedal_point(parabola.focus, parabola.directrix))


def reference_parallel_through(line, p):
    """The line through p parallel to ``line``."""
    return Line(line.a, line.b, -(p.x * line.a + p.y * line.b))


def reference_supporting_line(parabola):
    return reference_parallel_through(parabola.directrix, reference_vertex(parabola))


def reference_point_at_parameter(parabola, t):
    """vertex + t*u + (t^2 / 4k)*n, with k and n read off the vertex."""
    directrix, vertex = parabola.directrix, reference_vertex(parabola)
    g = math.gcd(directrix.a, directrix.b)
    n = point(directrix.a // g, directrix.b // g)
    k = dot(parabola.focus - vertex, n) / dot(n, n)  # negative if n points away from the focus
    if k < 0:
        n, k = scale(n, -1), -k
    u = point(*directrix.direction())
    return vertex + scale(u, t) + scale(n, t * t / (4 * k))


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_element_derived_once_from_focus_and_directrix(bits, data):
    """Reading an element derives it once, from the focus and the directrix:
    it reads no other element, and it equals its construction."""
    parabola = data.draw(parabolas(bits))
    with pytest.MonkeyPatch.context() as patch:
        reads = count_reads(patch)
        for name in ELEMENTS:
            reads.clear()
            getattr(parabola, name)
            assert reads == Counter({name: 1})
    vertex = reference_vertex(parabola)
    assert parabola.vertex == vertex
    assert parabola.axis == perpendicular_through(parabola.directrix, parabola.focus)
    assert parabola.supporting_line == reference_parallel_through(parabola.directrix, vertex)
    assert vertex + scale(point(*parabola.axis_direction), parabola.focal_scale) == parabola.focus


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_elements_derived_once_and_equal_across_equal_parabolas(bits, data):
    """Each element is derived afresh on every read, from the focus and the
    directrix alone, so a reread and an equal parabola give equal elements
    and share no object."""
    parabola = data.draw(parabolas(bits))
    twin = Parabola(parabola.focus, parabola.directrix)
    with pytest.MonkeyPatch.context() as patch:
        reads = count_reads(patch)
        for name in ELEMENTS:
            reads.clear()
            first = getattr(parabola, name)
            assert reads == Counter({name: 1})
            assert getattr(parabola, name) == first
            assert getattr(twin, name) == first
    assert twin.latus_endpoints is not parabola.latus_endpoints


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equality_hash_and_pickle_ignore_the_memo(bits, data):
    """There is no memo to ignore: reading every element leaves a parabola's
    state as built, so a read one and a fresh one compare, hash and pickle
    alike."""
    warm = data.draw(parabolas(bits))
    for name in ELEMENTS:
        getattr(warm, name)
    cold = Parabola(warm.focus, warm.directrix)
    assert set(vars(warm)) == set(vars(cold)) == {"focus", "directrix"}
    assert warm == cold and hash(warm) == hash(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    restored = pickle.loads(pickle.dumps(warm))
    assert restored == warm and hash(restored) == hash(warm)
    assert set(vars(restored)) == {"focus", "directrix"}
    for name in ELEMENTS:
        assert getattr(cold, name) == getattr(restored, name) == getattr(warm, name)


# The figure, its checks, its drawing, the parabola primitives and the DSL's
# witnesses never need the vertex or the latus endpoints of a figure's
# parabolas, so they leave them underived.


def test_figure_and_its_checks_leave_the_latus_endpoints_underived():
    c1, c2, c3 = Point(Fraction(-3, 7), Fraction(1, 2)), Point(Fraction(5, 7), 2), Point(3, 5)
    with pytest.MonkeyPatch.context() as patch:
        reads = count_reads(patch)
        for side in ("left", "right"):
            fig = build_parbelos(c1, c2, c3, side)
            assert all(ok for _, _, ok in sondow_checks(fig) + corollary_checks(fig))
    assert reads["latus_endpoints"] == reads["vertex"] == 0


def test_sondow_script_leaves_the_latus_endpoints_underived():
    source = (resources.files("parbelos") / "data" / "sondow.geo").read_text(encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        reads = count_reads(patch)
        report = evaluate(parse_script(source))
        assert report.assertions and all(result.passed for result in report.assertions)
        bindings_scene(report.bindings)
    # The script binds no parabola of its own, so nothing is drawn from its
    # latus endpoints; the figure's arcs take the tangent rectangle's corners.
    assert not any(isinstance(value, Parabola) for value in report.bindings.values())
    assert reads["latus_endpoints"] == reads["vertex"] == 0


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parabola_primitives_leave_the_latus_endpoints_underived(bits, data):
    parabola = data.draw(parabolas(bits))
    t = data.draw(rationals(13))
    with pytest.MonkeyPatch.context() as patch:
        reads = count_reads(patch)
        p = point_at_parameter(parabola, t)
        tangent = tangent_at(parabola, p)
        assert contains_point(parabola, p)
        assert reads["latus_endpoints"] == reads["vertex"] == reads["supporting_line"] == 0
        reads.clear()
        assert is_tangent(parabola, tangent)
        assert reads == Counter()  # the pedal test reads no element at all


# --- parabola primitives against the Fraction formulas they replaced ---


def reference_contains_point(parabola, p):
    return dist_sq(p, parabola.focus) == dist_sq_point_line(p, parabola.directrix)


def reference_is_tangent(parabola, line):
    pedal = pedal_point(parabola.focus, line)
    return reference_supporting_line(parabola).contains(pedal)


def reference_tangent_at(parabola, p):
    return perpendicular_bisector(parabola.focus, pedal_point(p, parabola.directrix))


def reference_from_latus(e1, e2, side):
    if e1 == e2:
        raise CoincidentPoints("latus rectum endpoints coincide")
    focus = midpoint(e1, e2)
    v = e2 - e1
    if side == "left":
        toward_opening = Point(-v.y, v.x)
    elif side == "right":
        toward_opening = Point(v.y, -v.x)
    else:
        raise DegenerateSide(f"side must be 'left' or 'right', got {side!r}")
    anchor = focus - scale(toward_opening, Fraction(1, 2))
    return Parabola(focus, reference_parallel_through(line_through(e1, e2), anchor))


# A random 3300-bit latus rectum gives a directrix of about 26,000 bits, so the
# properties that derive points on the parabola draw fewer examples.
HEAVY = settings(max_examples=20, deadline=None)


def on_parabola(data, parabola):
    # 13-bit parameters: the point's height then follows the parabola's.
    return point_at_parameter(parabola, data.draw(rationals(13)))


@pytest.mark.parametrize("bits", HEIGHTS)
@HEAVY
@given(data=st.data())
def test_contains_point_matches_fraction_formula(bits, data):
    parabola = data.draw(parabolas(bits))
    p = on_parabola(data, parabola)
    nudge = data.draw(rationals(bits).filter(bool))
    off = data.draw(points(bits))
    candidates = (p, reference_vertex(parabola), Point(p.x + nudge, p.y), Point(p.x, p.y + nudge), off)
    for candidate in candidates:
        assert contains_point(parabola, candidate) == reference_contains_point(parabola, candidate)
    assert contains_point(parabola, p)
    assert not contains_point(parabola, parabola.focus)


@pytest.mark.parametrize("bits", HEIGHTS)
@HEAVY
@given(data=st.data())
def test_is_tangent_matches_fraction_formula(bits, data):
    """The test through the directrix against the pedal on the supporting
    line built from the vertex, on tangents, secants, the vertex tangent, the
    axis and lines parallel to the directrix."""
    parabola = data.draw(parabolas(bits))
    p, q = on_parabola(data, parabola), on_parabola(data, parabola)
    shift = data.draw(ints(bits).filter(bool))
    tangent = tangent_at(parabola, p)
    directrix, supporting = parabola.directrix, reference_supporting_line(parabola)
    lines = [
        tangent,
        Line(tangent.a, tangent.b, tangent.c + shift),
        parabola.axis,
        supporting,
        directrix,
        Line(directrix.a, directrix.b, directrix.c + shift),
        Line(supporting.a, supporting.b, supporting.c + shift),
    ]
    if p != q:
        lines.append(line_through(p, q))
    for line in lines:
        assert is_tangent(parabola, line) == reference_is_tangent(parabola, line)
    assert is_tangent(parabola, tangent) and is_tangent(parabola, supporting)
    assert not is_tangent(parabola, lines[1])
    assert not any(is_tangent(parabola, line) for line in (parabola.axis, directrix, lines[5], lines[6]))
    if p != q:
        assert not is_tangent(parabola, lines[-1])


@pytest.mark.parametrize("bits", HEIGHTS)
@HEAVY
@given(data=st.data())
def test_point_at_parameter_matches_vertex_formula(bits, data):
    parabola = data.draw(parabolas(bits))
    for t in (data.draw(rationals(13)), data.draw(rationals(bits)), Fraction(0), 2 * parabola.focal_scale):
        assert point_at_parameter(parabola, t) == reference_point_at_parameter(parabola, t)
    assert point_at_parameter(parabola, Fraction(0)) == reference_vertex(parabola)


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_parameter_points_build_no_point_and_no_scaled_point(bits, data):
    """point_at_parameter, latus_endpoints and vertex write each coordinate
    directly: ``euclid.point`` does not run, and the kernel has no point
    scaling helper to run."""
    parabola = data.draw(parabolas(bits))
    t = data.draw(rationals(13))
    with pytest.MonkeyPatch.context() as patch:
        points_built = count_kernel_calls(patch, "point")
        point_at_parameter(parabola, t), parabola.latus_endpoints, parabola.vertex
        assert points_built == [0]
    assert not hasattr(euclid, "scale")


@pytest.mark.parametrize("bits", HEIGHTS)
@HEAVY
@given(data=st.data())
def test_tangent_at_matches_pedal_bisector(bits, data):
    parabola = data.draw(parabolas(bits))
    vertex = reference_vertex(parabola)
    for p in (on_parabola(data, parabola), vertex, *parabola.latus_endpoints):
        assert tangent_at(parabola, p) == reference_tangent_at(parabola, p)
    assert tangent_at(parabola, vertex) == reference_supporting_line(parabola)
    with pytest.raises(PointNotOnParabola):
        tangent_at(parabola, parabola.focus)


@pytest.mark.parametrize("bits", HEIGHTS)
@HEAVY
@given(data=st.data())
def test_latus_endpoints_are_parameters_minus_and_plus_2k_and_drawn_in_that_order(bits, data):
    parabola = data.draw(parabolas(bits))
    k = parabola.focal_scale
    ends = (point_at_parameter(parabola, -2 * k), point_at_parameter(parabola, 2 * k))
    assert parabola.latus_endpoints == ends
    (arc,) = bindings_scene({"G": parabola}).arcs
    assert (arc.p0, arc.p1) == ends


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_from_latus_rectum_matches_fraction_construction(bits, data):
    e1, e2 = data.draw(points(bits)), data.draw(points(bits))
    for side in ("left", "right"):
        if e1 == e2:
            with pytest.raises(CoincidentPoints):
                parabola_from_latus_rectum(e1, e2, side)
            continue
        built = parabola_from_latus_rectum(e1, e2, side)
        reference = reference_from_latus(e1, e2, side)
        assert (built.focus, built.directrix) == (reference.focus, reference.directrix)
        assert set(built.latus_endpoints) == {e1, e2}


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_from_latus_rectum_error_order(bits, data):
    e1 = data.draw(points(bits))
    e2 = data.draw(points(bits).filter(lambda q: q != e1))
    bad_side = data.draw(st.sampled_from(("up", "", "LEFT", None)))
    for build in (parabola_from_latus_rectum, reference_from_latus):
        with pytest.raises(CoincidentPoints):
            build(e1, e1, bad_side)  # coincident endpoints are reported first
        with pytest.raises(DegenerateSide):
            build(e1, e2, bad_side)


def reference_latus_angle_failures(parabola, label, tangent=tangent_at):
    e1, e2 = parabola.latus_endpoints
    u = e2 - e1
    failures = []
    for endpoint in (e1, e2):
        dx, dy = tangent(parabola, endpoint).direction()
        d = point(dx, dy)
        if 2 * dot(d, u) ** 2 != dot(d, d) * dot(u, u):
            failures.append(f"{label}: tangent at {endpoint} is not at pi/4 to the latus rectum")
    return failures


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_latus_angle_check_matches_fraction_formula(bits, data):
    import parbelos.fuzz as fuzz

    parabola = data.draw(parabolas(bits))
    assert latus_angle_failures(parabola, "p") == reference_latus_angle_failures(parabola, "p") == []
    # Each tangent turned about its point by the angle whose tangent is k.
    k = data.draw(st.sampled_from((Fraction(1, 1000), Fraction(-1, 7), Fraction(3, 2**bits))))

    def turned(parabola, p):
        dx, dy = tangent_at(parabola, p).direction()
        return line_through(p, p + Point(dx - k * dy, dy + k * dx))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "tangent_at", turned)
        failures = latus_angle_failures(parabola, "p")
    assert failures == reference_latus_angle_failures(parabola, "p", turned)
    assert len(failures) == 2


# --- circle constructions against the Fraction formulas they replaced ---


def reference_second_intersection(line, circle, p):
    if not line.contains(p):
        raise PointNotIncident(f"{p} is not on {line}")
    if not on_circle(circle, p):
        raise PointNotIncident(f"{p} is not on the circle")
    dx, dy = line.direction()
    d = Point(Fraction(dx), Fraction(dy))
    t = Fraction(-2 * dot(d, p - circle.center), dot(d, d))
    return p + scale(d, t)


def reference_circle_through_points(p, q, t):
    if p == q:
        raise CoincidentPoints("circle family needs two distinct points")
    mid = midpoint(p, q)
    dx, dy = perpendicular_bisector(p, q).direction()
    center = Point(mid.x + t * dx, mid.y + t * dy)
    return Circle(center, dist_sq(center, p))


def reference_circumcircle(a, b, c):
    if is_collinear(a, b, c):
        raise DegenerateTriangle(f"collinear or coincident: {a}, {b}, {c}")
    center = line_intersection(perpendicular_bisector(a, b), perpendicular_bisector(b, c))
    return Circle(center, dist_sq(center, a))


def circle_and_point(data, bits):
    center = data.draw(points(bits))
    p = data.draw(points(bits).filter(lambda p: p != center))
    return Circle(center, dist_sq(center, p)), p


def error_or_result(fn, *args):
    try:
        return fn(*args)
    except (PointNotIncident, CoincidentPoints, DegenerateTriangle) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_second_intersection_matches_fraction_formula(bits, data):
    circle, p = circle_and_point(data, bits)
    r = data.draw(points(bits).filter(lambda r: r != p))
    tangent = perpendicular_through(line_through(circle.center, p), p)
    secant = line_through(p, r)
    diameter = line_through(p, circle.center)
    assert second_intersection(tangent, circle, p) == p
    for line in (tangent, secant, diameter):
        other = second_intersection(line, circle, p)
        assert other == reference_second_intersection(line, circle, p)
        assert line.contains(other) and on_circle(circle, other)
    assert second_intersection(diameter, circle, p) == circle.center + (circle.center - p)
    # a point off the line, then a point on the line but off the circle
    for line, q in ((secant, circle.center), (diameter, circle.center)):
        if not (line.contains(q) and on_circle(circle, q)):
            with pytest.raises(PointNotIncident):
                second_intersection(line, circle, q)
            assert error_or_result(second_intersection, line, circle, q) == error_or_result(
                reference_second_intersection, line, circle, q
            )


def test_second_intersection_error_texts():
    circle, line = Circle(point(0, 0), Fraction(25)), Line(0, 1, -4)
    assert second_intersection(line, circle, point(3, 4)) == point(-3, 4)
    with pytest.raises(PointNotIncident) as off_line:
        second_intersection(line, circle, point(0, 0))
    assert str(off_line.value) == "(0, 0) is not on 0x + 1y + -4 = 0"
    with pytest.raises(PointNotIncident) as off_circle:
        second_intersection(line, circle, point(1, 4))
    assert str(off_circle.value) == "(1, 4) is not on the circle"


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_converse_lambert_roots_match_second_intersection(bits, data):
    """H1 and H2, both taken from one offset of I, are the public second
    intersections.  The circle is a member of the pencil through the focus
    and I, or the one tangent to l1 at I.

    The public call frames the focus, I and the circle's center once, with
    one ``_tangent_frame``; the core ``_chord`` builds no Point, and the call
    builds exactly two, H1 and H2, for the report.  The constructed line,
    taken from the two integer roots, is the line through those Points."""
    parabola = data.draw(parabolas(bits))
    t1, t2 = data.draw(st.lists(rationals(13), min_size=2, max_size=2, unique=True))
    l1, l2 = (tangent_at(parabola, point_at_parameter(parabola, t)) for t in (t1, t2))
    crossing = line_intersection(l1, l2)
    if data.draw(st.booleans()):
        circle = degenerate_converse_circle(parabola, l1, crossing)
    else:
        circle = circle_through_points(parabola.focus, crossing, data.draw(rationals(13)))
    with pytest.MonkeyPatch.context() as patch:
        frames, cores, built = [], [], [0]
        tangent_frame, chord = theorems._tangent_frame, theorems._chord

        def recorded_frame(parabola, *points):
            frames.append(points)
            return tangent_frame(parabola, *points)

        def counted_point(x, y):
            built[0] += 1
            return Point(x, y)

        def recorded_chord(*args):
            before = built[0]
            cores.append((chord(*args), built[0] - before))
            return cores[-1][0]

        patch.setattr(theorems, "_tangent_frame", recorded_frame)
        patch.setattr(theorems, "Point", counted_point)
        patch.setattr(theorems, "_chord", recorded_chord)
        constructed, report = converse_lambert(parabola, l1, l2, circle)
        assert frames == [(crossing, circle.center)]
        assert built == [2]
    [((triple, verdict, roots), core_points)] = cores
    assert core_points == 0
    witnesses = report.witnesses
    assert report.verdict and verdict and witnesses["intersection"] == crossing
    assert witnesses["h1"] == second_intersection(l1, circle, crossing)
    assert witnesses["h2"] == second_intersection(l2, circle, crossing)
    assert [Point(Fraction(x, z), Fraction(y, z)) for x, y, z in roots] == [
        witnesses["h1"],
        witnesses["h2"],
    ]
    assert witnesses["constructed"] == constructed == Line(*triple)
    assert constructed == line_through(witnesses["h1"], witnesses["h2"])


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_pencil_and_chord_cores_match_the_public_converse(bits, data):
    """Each circle run as a converse fuzz case runs it, on one frame of the
    focus F and the crossing I: ``_pencil``'s numerators over its
    denominator are the center and radius^2 of ``circle_through_points``,
    and ``_chord`` on that pencil member decides as ``converse_lambert`` on
    that circle, with its triple the call's constructed line.  t = 0 is
    included.  With every second root moved by (1, 0), so that the chords
    are no longer the tangents, the two still agree."""
    parabola = data.draw(parabolas(bits))
    t1, t2 = data.draw(st.lists(rationals(13), min_size=2, max_size=2, unique=True))
    l1, l2 = (tangent_at(parabola, point_at_parameter(parabola, t)) for t in (t1, t2))
    crossing = line_intersection(l1, l2)
    w, [f, i], form = _tangent_frame(parabola, crossing)
    moved = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as patch:
        if moved:
            second_root = theorems._second_root

            def moved_root(line, offset):
                x, y, z = second_root(line, offset)
                return x + z, y, z

            patch.setattr(theorems, "_second_root", moved_root)
        for t in (Fraction(0), data.draw(rationals(13)), data.draw(rationals(bits))):
            circle = circle_through_points(parabola.focus, crossing, t)
            pencil = den, (cx, cy), r = euclid._pencil(w, f, i, t)
            assert Circle(Point(Fraction(cx, den), Fraction(cy, den)), Fraction(r, den * den)) == circle
            triple, verdict, _ = theorems._chord(form, w, l1, l2, i, pencil)
            constructed, report = converse_lambert(parabola, l1, l2, circle)
            assert verdict == report.verdict
            assert verdict or moved
            assert Line(*triple) == constructed == report.witnesses["constructed"]


@pytest.mark.parametrize("bits", HEIGHTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_circumcircle_matches_bisector_construction(bits, data):
    a, b, c = (data.draw(points(bits)) for _ in range(3))
    t = data.draw(rationals(bits))
    on_ab = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    for triple_in in ((a, b, c), (c, a, b), (a, b, on_ab), (a, a, c), (a, b, b), (a, b, a)):
        expected = error_or_result(reference_circumcircle, *triple_in)
        assert error_or_result(circumcircle, *triple_in) == expected
        if isinstance(expected, Circle):
            assert all(on_circle(expected, p) for p in triple_in)
    for degenerate in ((a, b, on_ab), (a, a, c), (a, b, b), (a, b, a)):
        with pytest.raises(DegenerateTriangle):
            circumcircle(*degenerate)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_circle_through_points_matches_fraction_formula(bits, data):
    p, q = data.draw(points(bits)), data.draw(points(bits))
    for t in (data.draw(ints(bits)), data.draw(rationals(bits)), 0):
        if p == q:
            with pytest.raises(CoincidentPoints):
                circle_through_points(p, q, t)
            continue
        circle = circle_through_points(p, q, t)
        assert circle == reference_circle_through_points(p, q, t)
        assert on_circle(circle, p) and on_circle(circle, q)
    if p != q:
        assert circle_through_points(p, q, 0).center == midpoint(p, q)
        assert circle_through_points(q, p, Fraction(2, 3)) == circle_through_points(p, q, Fraction(2, 3))


# --- Fraction construction counts on the integer paths ---


def count_fractions(monkeypatch) -> list[int]:
    """Count every Fraction built from here on (until the test ends)."""
    counter = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counter[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return counter


@pytest.mark.parametrize("bits", HEIGHTS)
def test_parabola_predicates_build_no_fraction(bits, monkeypatch):
    e1 = Point(Fraction(3**bits + 1, 7**20), Fraction(-(5**bits), 11))
    e2 = Point(Fraction(2**bits - 3, 13), Fraction(17, 2**bits + 1))
    parabola = parabola_from_latus_rectum(e1, e2, "left")
    p = point_at_parameter(parabola, Fraction(2**bits + 5, 3))
    q = point_at_parameter(parabola, Fraction(-7, 5))
    secant = line_through(p, q)
    tangent = tangent_at(parabola, p)
    counter = count_fractions(monkeypatch)
    assert contains_point(parabola, p) and not contains_point(parabola, parabola.focus)
    assert is_tangent(parabola, tangent) and not is_tangent(parabola, secant)
    assert tangent_at(parabola, p) == tangent
    assert counter[0] == 0


@pytest.mark.parametrize("bits", HEIGHTS)
def test_from_latus_rectum_builds_two_fractions(bits, monkeypatch):
    e1 = Point(Fraction(3**bits + 1, 7**20), Fraction(-(5**bits), 11))
    e2 = Point(Fraction(2**bits - 3, 13), Fraction(17, 2**bits + 1))
    counter = count_fractions(monkeypatch)
    parabola_from_latus_rectum(e1, e2, "right")
    assert counter[0] == 2  # the focus coordinates


@pytest.mark.parametrize("bits", HEIGHTS)
def test_second_intersection_builds_two_fractions(bits, monkeypatch):
    center = Point(Fraction(3**bits + 1, 7**20), Fraction(-(5**bits), 11))
    p = Point(Fraction(2**bits - 3, 13), Fraction(17, 2**bits + 1))
    circle = Circle(center, dist_sq(center, p))
    secant = line_through(p, Point(Fraction(-5, 3), Fraction(7**bits, 2)))
    tangent = perpendicular_through(line_through(center, p), p)
    counter = count_fractions(monkeypatch)
    for line in (secant, tangent):
        counter[0] = 0
        second_intersection(line, circle, p)
        assert counter[0] == 2  # the two coordinates of the answer


@pytest.mark.parametrize("bits", HEIGHTS)
def test_circumcircle_builds_three_fractions(bits, monkeypatch):
    a = Point(Fraction(3**bits + 1, 7**20), Fraction(-(5**bits), 11))
    b = Point(Fraction(2**bits - 3, 13), Fraction(17, 2**bits + 1))
    c = Point(Fraction(-5, 3), Fraction(7**bits, 2))
    counter = count_fractions(monkeypatch)
    circumcircle(a, b, c)
    assert counter[0] == 3  # the center's coordinates and radius^2


@pytest.mark.parametrize("bits", HEIGHTS)
def test_line_with_integer_normal_builds_no_fraction(bits, monkeypatch):
    a, b = 2**bits - 3, -(5**bits)
    offsets = (Fraction(3**bits + 1, 7**20), Fraction(-(7**bits), 6), Fraction(0))
    counter = count_fractions(monkeypatch)
    for c in offsets:
        Line(a, b, c), Line(0, b, c), Line(a, 0, c)
    assert counter[0] == 0


@pytest.mark.parametrize("bits", HEIGHTS)
def test_circle_through_points_builds_three_fractions(bits, monkeypatch):
    p = Point(Fraction(3**bits + 1, 7**20), Fraction(-(5**bits), 11))
    q = Point(Fraction(2**bits - 3, 13), Fraction(17, 2**bits + 1))
    counter = count_fractions(monkeypatch)
    for t in (Fraction(2**bits + 5, 3), 7):
        counter[0] = 0
        circle_through_points(p, q, t)
        assert counter[0] == 3  # the center's coordinates and radius^2


# --- figure checks against the Fraction formulas they replaced ---

# The properties below build figures and arcs, or draw 3300-bit circles, so
# they draw fewer examples than the ones above.
LIGHT = settings(max_examples=25, deadline=None)
FIGURES = settings(max_examples=8, deadline=None)


def reference_on_circle(circle, p):
    return dist_sq(circle.center, p) == circle.radius_sq


def reference_equidistant(p, a, b):
    return dist_sq(p, a) == dist_sq(p, b)


def reference_square_check(fig):
    r1, r2, r3, r4 = fig.square_R
    sides = (r2 - r1, r3 - r2, r4 - r3, r1 - r4)
    if len({dot(v, v) for v in sides}) != 1:
        return False
    if any(dot(sides[i], sides[(i + 1) % 4]) != 0 for i in range(4)):
        return False
    center_of_square = midpoint(r1, r3)
    if center_of_square != midpoint(r2, r4):
        return False
    return (
        center_of_square == fig.center_O
        and fig.center_O == midpoint(fig.C2, fig.T2)
        and fig.center_O == midpoint(fig.T1, fig.T3)
    )


def square_check(fig):
    """The kernel's square check on the six fields its table row names."""
    return _square_check(fig.square_R, fig.center_O, fig.C2, fig.T1, fig.T2, fig.T3)


def nudged(p, *others, axis=0):
    """p moved by 1/W along x (axis 0) or y, W the shared denominator of p and others.

    Every difference of coordinates among these points is a multiple of 1/W,
    so the move changes a squared distance from p by 2*delta/W + 1/W^2, which
    is never zero.
    """
    step = Fraction(1, _common(p, *others)[0])
    return Point(p.x + step, p.y) if axis == 0 else Point(p.x, p.y + step)


def fractions_in_unit_interval():
    return st.integers(2, 2**13).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: Fraction(n, d)))


def cusps(bits):
    """Collinear C1, C2 = C1 + t*(C3 - C1) and C3 with 0 < t < 1."""
    steps = points(bits).filter(lambda d: d.x != 0 or d.y != 0)
    return st.builds(
        lambda c1, d, t: (c1, Point(c1.x + t * d.x, c1.y + t * d.y), c1 + d),
        points(bits),
        steps,
        fractions_in_unit_interval(),
    )


@pytest.mark.parametrize("bits", HEIGHTS)
@LIGHT
@given(data=st.data())
def test_on_circle_matches_fraction_formula(bits, data):
    circle, p = circle_and_point(data, bits)
    r = data.draw(points(bits).filter(lambda r: r != p))
    q = second_intersection(line_through(p, r), circle, p)  # on the circle, other denominators
    off = nudged(p, circle.center)
    for candidate in (p, q, off, r, circle.center):
        assert on_circle(circle, candidate) == reference_on_circle(circle, candidate)
    assert on_circle(circle, p) and on_circle(circle, q)
    assert not on_circle(circle, off) and not on_circle(circle, circle.center)


@pytest.mark.parametrize("bits", HEIGHTS)
@LIGHT
@given(data=st.data())
def test_equidistant_matches_fraction_formula(bits, data):
    a = data.draw(points(bits))
    b = data.draw(points(bits).filter(lambda b: b != a))
    t = data.draw(rationals(bits))
    # a point of the perpendicular bisector of ab
    p = Point((a.x + b.x) / 2 + t * (a.y - b.y), (a.y + b.y) / 2 + t * (b.x - a.x))
    off = nudged(p, a, b, axis=0 if a.x != b.x else 1)
    r = data.draw(points(bits))
    for candidate in (p, off, r, a):
        assert equidistant(candidate, a, b) == reference_equidistant(candidate, a, b)
    assert equidistant(p, a, b) and equidistant(p, b, a)
    assert not equidistant(off, a, b) and not equidistant(a, a, b)


@pytest.mark.parametrize("bits", HEIGHTS)
@FIGURES
@given(data=st.data())
def test_square_check_matches_fraction_formula(bits, data):
    c1, c2, c3 = data.draw(cusps(bits))
    fig = build_parbelos(c1, c2, c3, data.draw(st.sampled_from(("left", "right"))))
    r1, r2, r3, r4 = fig.square_R
    mutants = (
        dataclasses.replace(fig, square_R=(nudged(r1, r2, r3, r4), r2, r3, r4)),
        dataclasses.replace(fig, square_R=(r1, r2, nudged(r3, r1, r2, r4, axis=1), r4)),
        dataclasses.replace(fig, square_R=(r2, r1, r3, r4)),  # a diagonal taken as a side
        dataclasses.replace(fig, center_O=nudged(fig.center_O, fig.C2, fig.T2)),
    )
    assert square_check(fig) and reference_square_check(fig)
    for mutant in mutants:
        assert not square_check(mutant) and not reference_square_check(mutant)


# --- the drawing: arcs from their endpoints and the integer canvas map ---


def reference_parabola_arc(parabola, t0, t1):
    """The arc's (p0, p1, control) as built from parameters, with a Fraction Bezier midpoint."""
    p0, p1 = point_at_parameter(parabola, t0), point_at_parameter(parabola, t1)
    control = line_intersection(tangent_at(parabola, p0), tangent_at(parabola, p1))
    assert contains_point(parabola, scale(p0 + scale(control, 2) + p1, Fraction(1, 4)))
    return p0, p1, control


def reference_parameter_of(parabola, p):
    """The inverse of point_at_parameter, for p on the parabola."""
    assert contains_point(parabola, p)
    focus, directrix = parabola.focus, parabola.directrix
    return oracles.chord_parameter((p.x, p.y), (focus.x, focus.y), directrix.a, directrix.b)


@pytest.mark.parametrize("bits", HEIGHTS)
@FIGURES
@given(data=st.data())
def test_certified_arc_accepts_the_tangent_meet(bits, data):
    """Two distinct points of a parabola with the meet of their tangents pass
    the four-condition certificate, and that Bezier's midpoint is on the
    parabola (``reference_parabola_arc`` asserts it), which is why the
    certificate needs no midpoint test.  A control point moved off the meet,
    equal endpoints and an endpoint off the parabola are each rejected."""
    parabola = data.draw(parabolas(bits))
    t0 = data.draw(rationals(13))
    t1 = data.draw(rationals(13).filter(lambda t: t != t0))
    p0, p1, control = reference_parabola_arc(parabola, t0, t1)
    arc = _certified_arc(parabola, p0, control, p1)
    assert (arc.parabola, arc.p0, arc.p1, arc.control) == (parabola, p0, p1, control)
    with pytest.raises(PointNotOnParabola):
        _certified_arc(parabola, p0, control + Point(Fraction(0), Fraction(1, 7)), p1)
    with pytest.raises(EmptyScene):
        _certified_arc(parabola, p0, control, p0)
    with pytest.raises(PointNotOnParabola):
        _certified_arc(parabola, p0, control, parabola.focus)


def times(triple, k):
    return tuple(k * v for v in triple)


def over(line, w):
    """The line as the integer triple (a, b, c*W) that the public predicates
    hand the cores, zero at the numerators of its points over W."""
    return line.a, line.b, line.c * w


def certificate(*args):
    """None if ``_certify`` passes, else the class and message of what it raised."""
    try:
        return _certify(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bits", HEIGHTS)
@FIGURES
@given(data=st.data())
def test_integer_cores_are_homogeneous_in_a_line(bits, data):
    """Any nonzero multiple of a line's integer triple decides as the triple
    does: in ``_tangent`` (either line), in ``_focal``'s f == 0 and in
    ``_certify``.  So a figure's frame, which holds each line as its
    primitive normal and its offset over D, decides as the public predicates
    do on (a, b, c*W) over their own ``_common``."""
    parabola = data.draw(parabolas(bits))
    t0 = data.draw(rationals(13))
    t1 = data.draw(rationals(13).filter(lambda t: t != t0))
    p0, p1, control = reference_parabola_arc(parabola, t0, t1)
    k, m = data.draw(ints(bits).filter(bool)), data.draw(ints(bits).filter(bool))
    off = control + Point(Fraction(0), Fraction(1, 7))
    w, [q0, q1, qc, qo, focus] = _common(p0, p1, control, off, parabola.focus)
    directrix = over(parabola.directrix, w)
    for line in (tangent_at(parabola, p0), line_through(p0, p1), parabola.directrix, parabola.axis):
        expected = is_tangent(parabola, line)
        assert _tangent((focus, directrix), over(line, w)) == expected
        assert _tangent((focus, times(directrix, m)), times(over(line, w), k)) == expected
    for q, p in ((q0, p0), (q1, p1), (qc, control), (qo, off)):
        assert (_focal(times(directrix, k), *q, *focus)[0] == 0) == contains_point(parabola, p)
    for arc in ((q0, qc, q1), (q0, qo, q1), (q0, qc, qo), (q0, qc, q0)):
        expected = certificate((focus, directrix), *arc)
        assert certificate((focus, times(directrix, k)), *arc) == expected
    assert certificate((focus, directrix), q0, qc, q1) is None
    assert certificate((focus, times(directrix, k)), q0, qo, q1) is not None


@pytest.mark.parametrize("bits", HEIGHTS)
@FIGURES
@given(data=st.data())
def test_figure_scene_arcs_match_the_parameter_round_trip(bits, data):
    c1, c2, c3 = data.draw(cusps(bits))
    fig = build_parbelos(c1, c2, c3, data.draw(st.sampled_from(("left", "right"))))
    spans = ((fig.inner1, fig.C1, fig.C2), (fig.inner2, fig.C2, fig.C3), (fig.outer, fig.C1, fig.C3))
    arcs = figure_scene(fig).arcs
    assert len(arcs) == len(spans)
    for arc, (parabola, start, end) in zip(arcs, spans):
        t0, t1 = (reference_parameter_of(parabola, p) for p in (start, end))
        assert (arc.p0, arc.p1, arc.control) == reference_parabola_arc(parabola, t0, t1)


def fraction_decimal(v: Fraction, digits: int) -> str:
    """``ratio_to_decimal_string`` on a Fraction's reduced pair."""
    return ratio_to_decimal_string(v.numerator, v.denominator, digits)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_unreduced_ratio_rounds_like_its_fraction(bits, data):
    digits = data.draw(st.integers(0, 20))
    k = data.draw(st.integers(1, 2**bits))
    tie = Fraction(2 * data.draw(ints(bits)) + 1, 2 * 10**digits)  # exactly half a last digit
    for v in (data.draw(rationals(bits)), tie, -tie):
        assert ratio_to_decimal_string(k * v.numerator, k * v.denominator, digits) == fraction_decimal(v, digits)


def reference_frame(bounds, width, height, margin):
    """The canvas map's closed forms: scale, offset_x, offset_y and the
    visible rectangle (x_lo, x_hi, y_lo, y_hi)."""
    xmin, ymin, xmax, ymax = bounds
    if xmax == xmin:
        xmin, xmax = xmin - 1, xmax + 1
    if ymax == ymin:
        ymin, ymax = ymin - 1, ymax + 1
    s = min(Fraction(width - 2 * margin, xmax - xmin), Fraction(height - 2 * margin, ymax - ymin))
    ox = (width - (xmax - xmin) * s) / 2 - xmin * s
    oy = height - (height - (ymax - ymin) * s) / 2 + ymin * s
    return s, ox, oy, ((0 - ox) / s, (width - ox) / s, (oy - height) / s, oy / s)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_canvas_map_matches_fraction_formula(bits, data):
    """Also with degenerate bounds (a point, or an axis-parallel segment);
    the visible rectangle is built only when it is read."""
    x0, x1, y0, y1 = (data.draw(rationals(bits)) for _ in range(4))
    x1, y1 = data.draw(st.sampled_from(((x1, y1), (x0, y1), (x1, y0), (x0, y0))))
    xmin, xmax, ymin, ymax = min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)
    width, height = data.draw(st.integers(100, 1200)), data.draw(st.integers(100, 1200))
    margin = data.draw(st.integers(0, 40))
    digits = data.draw(st.sampled_from((0, 12)))
    frame = _Frame((xmin, ymin, xmax, ymax), width, height, margin, digits)
    borders = ("x_lo", "x_hi", "y_lo", "y_hi")
    assert not set(borders) & set(vars(frame))
    assert (frame.scale, frame.offset_x, frame.offset_y, tuple(getattr(frame, b) for b in borders)) == (
        reference_frame((xmin, ymin, xmax, ymax), width, height, margin)
    )
    # left of and above the canvas: negative canvas coordinates
    far_left, far_up = xmin - width / frame.scale, ymax + height / frame.scale
    xs = [data.draw(rationals(bits)), xmin, xmax, far_left]
    ys = [data.draw(rationals(bits)), ymin, ymax, far_up]
    for shift in (0, 5, -5):
        for v in xs:
            assert frame.x(v, shift) == fraction_decimal(v * frame.scale + frame.offset_x + shift, digits)
        for v in ys:
            assert frame.y(v, shift) == fraction_decimal(frame.offset_y - v * frame.scale + shift, digits)
    assert frame.x(far_left).startswith("-") and frame.y(far_up).startswith("-")


# Mersenne primes: one that does not divide the bounds' shared denominator
# gives values off it.
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_canvas_map_off_the_bounds_denominator(bits, data):
    """A coordinate whose denominator does not divide D, the bounds' shared
    denominator, maps by the same closed form as one that does (a figure's
    contact point is such a coordinate): values n/(d*p) with p a prime that
    does not divide D, at margin 0 and at a drawn one, for shifts 0 and
    +-5."""
    x0, x1, y0, y1 = (data.draw(rationals(bits)) for _ in range(4))
    bounds = min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)
    width, height = data.draw(st.integers(100, 1200)), data.draw(st.integers(100, 1200))
    digits = data.draw(st.sampled_from((0, 12)))
    den = math.lcm(*(v.denominator for v in bounds))
    p = next(p for p in PRIMES if den % p)
    values = [bounds[0] + Fraction(1, p), bounds[3] - Fraction(1, p)]
    for _ in range(3):
        n = data.draw(ints(bits))
        values.append(Fraction(n + (n % p == 0), data.draw(st.integers(1, 2**bits)) * p))
    assert all(den % v.denominator for v in values)
    for margin in (0, data.draw(st.integers(1, 40))):
        frame = _Frame(bounds, width, height, margin, digits)
        scale, offset_x, offset_y, _ = reference_frame(bounds, width, height, margin)
        for shift in (0, 5, -5):
            for v in values:
                assert frame.x(v, shift) == fraction_decimal(v * scale + offset_x + shift, digits)
                assert frame.y(v, shift) == fraction_decimal(offset_y - v * scale + shift, digits)


def test_render_svg_hands_the_rounding_one_denominator(monkeypatch):
    """On the 3300-bit figure every point's coordinates reach
    ``ratio_to_decimal_string`` over one denominator: twice the limiting
    span over the bounds' own D.  Mapping over the scale's and the offsets'
    own denominators handed it d*dx for a coordinate over d, a different
    integer per denominator and about twice the frame's height.  The contact
    point is left out of the scene, since its denominator need not divide D;
    the bounds stay the same without it."""
    import parbelos.svg as svg

    fig = build_parbelos(*FIGURE_CUSPS[3300], "right")
    scene = figure_scene(fig)
    bounds = _scene_bounds(scene)
    scene.points = [lp for lp in scene.points if lp.at is not fig.contact_T]
    assert _scene_bounds(scene) == bounds
    handed = []
    rounding = svg.ratio_to_decimal_string

    def recorded(numerator, denominator, digits):
        handed.append(denominator)
        return rounding(numerator, denominator, digits)

    monkeypatch.setattr(svg, "ratio_to_decimal_string", recorded)
    monkeypatch.setattr(svg, "_sqrt_decimal", lambda value, digits: "1")  # the radius is no point
    render_svg(scene)
    assert len(handed) > 40 and len(set(handed)) == 1


C1_TALL = Point(Fraction(3**2000 + 1, 7**20), Fraction(-(5**1400), 11))
STEP_TALL = Point(Fraction(2**3300 - 3, 13), Fraction(17, 2**3300 + 1))
FIGURE_CUSPS = {
    13: (Point(Fraction(-3, 7), Fraction(1, 2)), Point(Fraction(5, 7), 2), Point(3, 5)),
    3300: (C1_TALL, C1_TALL + scale(STEP_TALL, Fraction(2, 7)), C1_TALL + STEP_TALL),
}


@pytest.mark.parametrize("bits", HEIGHTS)
def test_drawing_leaves_the_inner_vertex_and_supporting_line_underived(bits, monkeypatch):
    """Building, checking and drawing a figure reads no parabola's vertex,
    supporting line or latus endpoints, and builds no pedal and no midpoint.
    The build takes one line intersection (the contact point).  The whole
    ``--json --svg`` path (the build, both check tables, the JSON report, the
    scene and the SVG) calls no ``circumcircle`` (K is built on O), no
    ``tangent_at`` and no ``line_through``, so the kernel's form of these
    three is costed by the fuzz suites' 13-bit inputs alone; if a tall
    figure reaches one again, measure its form at 3300 bits."""
    reads = count_reads(monkeypatch)
    pedals = count_kernel_calls(monkeypatch, "pedal_point")
    midpoints = count_kernel_calls(monkeypatch, "midpoint")
    meets = count_kernel_calls(monkeypatch, "line_intersection")
    circles = count_kernel_calls(monkeypatch, "circumcircle")
    lines = count_kernel_calls(monkeypatch, "line_through")
    tangents = count_kernel_calls(monkeypatch, "tangent_at", parabola_module)
    for side in ("left", "right"):
        pedals[0] = midpoints[0] = meets[0] = circles[0] = lines[0] = tangents[0] = 0
        fig = build_parbelos(*FIGURE_CUSPS[bits], side)
        assert meets[0] == 1
        assert all(ok for _, _, ok in sondow_checks(fig) + corollary_checks(fig))
        assert verification(fig)["overall"] is True
        render_svg(figure_scene(fig))
        assert (pedals[0], midpoints[0]) == (0, 0)
        assert (circles[0], tangents[0], lines[0]) == (0, 0, 0)
    assert reads["vertex"] == reads["supporting_line"] == reads["latus_endpoints"] == 0


@pytest.mark.parametrize("bits", HEIGHTS)
def test_render_svg_builds_no_fraction_per_coordinate(bits, monkeypatch):
    fig = build_parbelos(*FIGURE_CUSPS[bits], "right")
    scene = figure_scene(fig)
    crowded = figure_scene(fig)  # the same bounds, with every point, segment and arc twice
    crowded.points.extend(scene.points)
    crowded.segments.extend(scene.segments)
    crowded.arcs.extend(scene.arcs)
    counter = count_fractions(monkeypatch)
    render_svg(scene)
    once = counter[0]
    counter[0] = 0
    render_svg(crowded)
    assert counter[0] == once


def count_calls(monkeypatch, owner, name) -> list[int]:
    """Count calls of ``owner.name`` (until the test ends)."""
    counter = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counter


@pytest.mark.parametrize("bits", HEIGHTS)
def test_figure_scene_builds_no_tangent_and_no_intersection(bits, monkeypatch):
    import parbelos.svg as svg

    # The drawing has no tangent construction and no line intersection to
    # call at all; it reads the figure's corners and builds no pedal.
    assert not hasattr(svg, "tangent_at") and not hasattr(svg, "line_intersection")
    fig = build_parbelos(*FIGURE_CUSPS[bits], "left")
    feet = count_calls(monkeypatch, svg, "pedal_point")
    figure_scene(fig)
    assert feet[0] == 0


@pytest.mark.parametrize("bits", HEIGHTS)
def test_build_parbelos_builds_no_bisector_and_no_collinearity_test(bits, monkeypatch):
    import parbelos.figure as figure

    # The cusp tests are one cross and two dots on integers, and K is built
    # on O in closed form.  The figure module binds is_collinear
    # for the predicate table's ``collinear`` word, so its calls are counted
    # under both names.
    assert not hasattr(figure, "perpendicular_bisector")
    bisectors = count_calls(monkeypatch, euclid, "perpendicular_bisector")
    collinear = count_calls(monkeypatch, euclid, "is_collinear")
    collinear_here = count_calls(monkeypatch, figure, "is_collinear")
    for side in ("left", "right"):
        build_parbelos(*FIGURE_CUSPS[bits], side)
    assert (bisectors[0], collinear[0], collinear_here[0]) == (0, 0, 0)


def test_build_reduces_each_line_at_the_frames_height(monkeypatch):
    """No gcd that builds a 3300-bit figure takes an argument of 1.5 times the
    widest integer of the cusps' frame (W and the cusps' numerators).

    The figure's lines are built from their primitive normals: a direction
    (or normal) is divided by its gcd before it is scaled by W, so ``Line``
    reduces (a*W, b*W, -(a*X + b*Y)), whose first gcd is W.  On a cusp line
    with a small direction (``fuzz.rand_cusps``) the widest argument is then
    about 4/3 of the frame (the diagonal's normal has a third of W's bits),
    where a triple of the unreduced direction times W took twice.  A
    general rational direction still reaches 1.6-1.7 times, and up to
    twice, in gcd(a*W, b*W).  That path was kept: handing ``Line`` the
    offset as Fraction(-s, W) instead cost about 10 us more per 13-bit
    build, 3.9% on ``fuzz``.  When this test fails, a figure line is
    reduced above the frame's height again.
    """
    rng = random.Random(7)
    c1, c2, c3, _ = rand_cusps(rng, height_scale(10**1000))
    w, numerators = _common(c1, c2, c3)
    frame = max(abs(v).bit_length() for v in (w, *(v for p in numerators for v in p)))
    assert frame > 3300
    widest = [0]

    def gcd(*args):
        widest[0] = max(widest[0], *(abs(v).bit_length() for v in args))
        return math.gcd(*args)

    counted = types.SimpleNamespace(**vars(math))
    counted.gcd = gcd
    for module in (euclid, figure_module, parabola_module):
        monkeypatch.setattr(module, "math", counted)
    for side in ("left", "right"):
        build_parbelos(c1, c2, c3, side)
    assert frame < widest[0] < 1.5 * frame


@pytest.mark.parametrize("bits", HEIGHTS)
def test_render_svg_maps_each_point_object_once(bits, monkeypatch):
    scene = figure_scene(build_parbelos(*FIGURE_CUSPS[bits], "right"))
    # every element twice, as the same objects
    crowded = Scene(*(2 * getattr(scene, f.name) for f in dataclasses.fields(Scene)))
    counter = count_calls(monkeypatch, _Frame, "x")
    render_svg(scene)
    once = counter[0]
    counter[0] = 0
    render_svg(crowded)
    assert counter[0] == once


def ties(v: Fraction) -> list[Fraction]:
    """v and its neighbours 2^-70 away, which share v's first 64 fractional bits."""
    step = Fraction(1, 2**70)
    return [v - step, v, v + step]


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_scene_bounds_match_fraction_min_max(bits, data):
    base = data.draw(rationals(bits))
    pool = ties(base) + ties(-base) + [data.draw(rationals(bits)) for _ in range(4)]
    coordinate = st.sampled_from(pool)
    points = data.draw(st.lists(st.builds(Point, coordinate, coordinate), min_size=1, max_size=12))
    scene = Scene()
    for p in points:
        scene.add_point(p, "P")
    scene.add_segment(points[0], points[-1])  # shared point objects count once
    xs, ys = [p.x for p in points], [p.y for p in points]
    assert _scene_bounds(scene) == (min(xs), min(ys), max(xs), max(ys))


# --- the similarity map z -> m*z + shift ---


def reference_similarity(m, shift, p):
    return Point(m.x * p.x - m.y * p.y + shift.x, m.y * p.x + m.x * p.y + shift.y)


def multipliers(bits):
    return points(bits).filter(lambda m: m.x != 0 or m.y != 0)


@pytest.mark.parametrize("bits", HEIGHTS)
@SETTINGS
@given(data=st.data())
def test_similarity_matches_fraction_formula(bits, data):
    m, shift = data.draw(multipliers(bits)), data.draw(points(bits))
    p, q = data.draw(points(bits)), data.draw(points(bits))
    t = similarity(m, shift)
    assert t(p) == reference_similarity(m, shift, p)
    if p != q:
        moved = line_through(reference_similarity(m, shift, p), reference_similarity(m, shift, q))
        assert t(line_through(p, q)) == moved


@pytest.mark.parametrize("bits", HEIGHTS)
@HEAVY
@given(data=st.data())
def test_similarity_keeps_incidence(bits, data):
    """Images of lines, circles and parabolas hold the images of their points, and only those."""
    t = similarity(data.draw(multipliers(bits)), data.draw(points(bits)))
    p, q, r = (data.draw(points(bits)) for _ in range(3))
    if p == q:
        return
    line = line_through(p, q)
    assert t(line).contains(t(p)) and t(line).contains(t(q))
    assert not t(line).contains(t(Point(p.x + line.a, p.y + line.b)))
    if not is_collinear(p, q, r):
        circle = circumcircle(p, q, r)
        assert all(on_circle(t(circle), t(x)) for x in (p, q, r))
        assert not on_circle(t(circle), t(nudged(r, circle.center)))
    parabola = parabola_from_latus_rectum(p, q, data.draw(st.sampled_from(("left", "right"))))
    x = on_parabola(data, parabola)
    assert contains_point(t(parabola), t(x))
    assert not contains_point(t(parabola), t(parabola.focus))
