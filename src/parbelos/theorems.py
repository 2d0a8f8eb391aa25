"""Executable theorem checks: Simson-Wallace, Lambert, and Lambert's converse.

Each check re-walks a classical construction with exact arithmetic and
returns a report: a plain value holding one exact verdict and the
intermediate witnesses that decided it (pedal points, triangle vertices,
circles, the constructed line), so a frontend can print the full trace.  A
report pickles and compares by value.  Nothing is compared with a
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .errors import (
    CircleMissesFocusOrI,
    DegenerateTriangle,
    NotTangent,
    ParallelLines,
    ParallelTangents,
)
from .euclid import (
    Circle,
    Line,
    Point,
    _circle_offset,
    _second_root,
    circumcircle,
    is_collinear,
    line_intersection,
    line_through,
    on_circle,
    pedal_point,
)
from .parabola import Parabola, is_tangent


@dataclass(frozen=True)
class TheoremReport:
    """An exact verdict and its witnesses (name -> raw value, as a
    predicate's witness), left out of ``repr`` because a witness can be
    thousands of digits long."""

    verdict: bool
    witnesses: dict[str, Any] = field(repr=False)


def _require_tangents(parabola: Parabola, *lines: Line) -> None:
    """Raise ``NotTangent`` naming (from 1) the first line not tangent to
    the parabola."""
    for index, line in enumerate(lines, start=1):
        if not is_tangent(parabola, line):
            raise NotTangent("line {} is not tangent", index)


def simson_check(p: Point, a: Point, b: Point, c: Point) -> TheoremReport:
    """Simson-Wallace agreement check for a point against a triangle.

    The pedals of p on the three side lines are collinear exactly when p is
    on the circumcircle; the report passes iff the two exact predicates agree
    (both may be true or both false).
    """
    if is_collinear(a, b, c):
        raise DegenerateTriangle("triangle {}, {}, {} is degenerate", a, b, c)
    pedal_bc = pedal_point(p, line_through(b, c))
    pedal_ca = pedal_point(p, line_through(c, a))
    pedal_ab = pedal_point(p, line_through(a, b))
    circle = circumcircle(a, b, c)
    pedals_collinear = is_collinear(pedal_bc, pedal_ca, pedal_ab)
    point_on_circle = on_circle(circle, p)
    return TheoremReport(
        pedals_collinear == point_on_circle,
        {
            "pedal_bc": pedal_bc,
            "pedal_ca": pedal_ca,
            "pedal_ab": pedal_ab,
            "circumcircle": circle,
            "pedals_collinear": pedals_collinear,
            "point_on_circle": point_on_circle,
        },
    )


def lambert_circumcircle_check(
    parabola: Parabola, l1: Line, l2: Line, l3: Line
) -> TheoremReport:
    """Circumcircle of a tangent triangle must pass through the focus.

    Three distinct tangents of a parabola never pass through one point (at
    most two tangents pass through any point), so pairwise crossing tangents
    always make a proper triangle.
    """
    _require_tangents(parabola, l1, l2, l3)
    try:
        p12 = line_intersection(l1, l2)
        p23 = line_intersection(l2, l3)
        p31 = line_intersection(l3, l1)
    except ParallelLines as exc:
        raise DegenerateTriangle("two tangents are parallel") from exc
    circle = circumcircle(p12, p23, p31)
    return TheoremReport(
        on_circle(circle, parabola.focus),
        {
            "vertex_12": p12,
            "vertex_23": p23,
            "vertex_31": p31,
            "circumcircle": circle,
            "focus": parabola.focus,
        },
    )


def converse_lambert(
    parabola: Parabola, l1: Line, l2: Line, circle: Circle
) -> tuple[Line, TheoremReport]:
    """Rebuild a tangent from two tangents and a circle through focus and I.

    I is the tangent intersection; each tangent meets the circle again at H_i
    (taken via the known-root second intersection, so H_i = I exactly when
    the circle is tangent to l_i there).  The constructed line is the one
    chord H1H2.  A circle cannot touch two crossing lines at the same point,
    so at most one H_i is I, and then the chord is the other tangent itself.
    The report passes iff the constructed line satisfies the pedal tangency
    criterion.

    The check is :func:`_converse_crossing` (the preconditions on l1 and l2,
    and I) followed by :func:`_converse_chord` (the circle, the chord and
    the verdict), so a caller with many circles for one tangent pair runs the
    first step once and builds no report.  Only here do H1 and H2 become
    Points, for the report's witnesses.
    """
    crossing = _converse_crossing(parabola, l1, l2)
    constructed, verdict, roots = _converse_chord(parabola, l1, l2, crossing, circle)
    h1, h2 = (Point(Fraction(x, z), Fraction(y, z)) for x, y, z in roots)
    witnesses = {"intersection": crossing, "h1": h1, "h2": h2, "constructed": constructed}
    return constructed, TheoremReport(verdict, witnesses)


def _converse_crossing(parabola: Parabola, l1: Line, l2: Line) -> Point:
    """I, the crossing of l1 and l2, once both are certified tangents.

    Raises ``NotTangent`` naming the first line that is not tangent, and
    ``ParallelTangents`` when the two do not cross.
    """
    _require_tangents(parabola, l1, l2)
    try:
        return line_intersection(l1, l2)
    except ParallelLines as exc:
        raise ParallelTangents("{} and {} have no intersection", l1, l2) from exc


def _converse_chord(
    parabola: Parabola, l1: Line, l2: Line, crossing: Point, circle: Circle
) -> tuple[Line, bool, tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """The converse's construction on one circle, given the ``crossing`` I of
    :func:`_converse_crossing` for the tangents l1 and l2: the chord H1H2,
    whether it is tangent, and H1 and H2 as homogeneous integer triples.

    The circle must pass through the focus and I (``CircleMissesFocusOrI``
    otherwise).  I needs no incidence test against l1 or l2: it is their
    exact ``line_intersection``, so it lies on both.  I's offset from the
    circle's center is computed once, and both second roots are taken from
    it; the chord is the canonical ``Line`` of their cross product, so no
    Fraction, Point or report is built.
    """
    offset = _circle_offset(circle, crossing)
    if not (on_circle(circle, parabola.focus) and offset[0]):
        raise CircleMissesFocusOrI(
            "circle must pass through the focus and the tangent intersection"
        )
    roots = (x1, y1, z1), (x2, y2, z2) = _second_root(l1, offset), _second_root(l2, offset)
    constructed = Line(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    return constructed, is_tangent(parabola, constructed), roots
