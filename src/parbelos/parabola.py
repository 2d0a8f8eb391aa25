"""Focus-directrix parabolas over the rationals.

A parabola is stored as (focus, directrix); vertex, axis, supporting line and
latus rectum all derive from that pair.  The key quantity that keeps every
derived object rational is the *focal scale* k: with n the primitive integer
normal of the directrix pointing toward the focus, the focus sits at
vertex + k*n for a rational k > 0.  Latus endpoints are then focus ± 2k*u
(u the primitive direction along the directrix) and the point with chord
parameter t is vertex + t*u + (t^2 / 4k)*n -- no square roots anywhere.

The tangency predicate is the pedal criterion: a line is tangent exactly when
the orthogonal projection of the focus onto it lands on the supporting line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Literal

from .errors import CoincidentPoints, DegenerateSide, FocusOnDirectrix, PointNotOnParabola
from .euclid import (
    Line,
    Point,
    Segment,
    dist_sq,
    dist_sq_point_line,
    line_through,
    midpoint,
    parallel_through,
    pedal_point,
    perpendicular_bisector,
    perpendicular_through,
    point,
    scale,
)
from .rational import Rational

Side = Literal["left", "right"]
LEFT: Side = "left"
RIGHT: Side = "right"


@dataclass(frozen=True)
class CanonicalElements:
    vertex: Point
    axis: Line
    supporting_line: Line
    latus_endpoints: Segment


@dataclass(frozen=True)
class Parabola:
    """A parabola given by its focus and directrix.

    The derived quantities (axis direction, focal scale, canonical elements)
    are computed on first use and kept in the instance ``__dict__``, where
    ``cached_property`` may write even on a frozen dataclass.  Equality and
    hash read only the two fields, and pickling drops the memo.
    """

    focus: Point
    directrix: Line

    def __post_init__(self):
        if self.directrix.contains(self.focus):
            raise FocusOnDirectrix(f"focus {self.focus} lies on the directrix")

    def __getstate__(self) -> dict:
        return {"focus": self.focus, "directrix": self.directrix}

    @cached_property
    def _axis_direction(self) -> tuple[int, int]:
        nx, ny = self.directrix.normal()
        if self.directrix.evaluate(self.focus) < 0:
            nx, ny = -nx, -ny
        return nx, ny

    @cached_property
    def _focal_scale(self) -> Rational:
        line = self.directrix
        g = math.gcd(line.a, line.b)
        return Fraction(abs(line.evaluate(self.focus)) * g, 2 * (line.a**2 + line.b**2))

    @cached_property
    def _elements(self) -> CanonicalElements:
        focus, directrix = self.focus, self.directrix
        foot = pedal_point(focus, directrix)
        vertex = midpoint(focus, foot)
        ux, uy = directrix.direction()
        offset = scale(point(ux, uy), 2 * self._focal_scale)
        return CanonicalElements(
            vertex=vertex,
            axis=perpendicular_through(directrix, focus),
            supporting_line=parallel_through(directrix, vertex),
            latus_endpoints=Segment(focus + offset, focus - offset),
        )


def axis_direction(parabola: Parabola) -> tuple[int, int]:
    """Primitive integer normal of the directrix, oriented toward the opening."""
    return parabola._axis_direction


def focal_scale(parabola: Parabola) -> Rational:
    """The rational k > 0 with focus = vertex + k * axis_direction."""
    return parabola._focal_scale


def canonical_elements(parabola: Parabola) -> CanonicalElements:
    """Vertex, axis, supporting line and latus endpoints, all exact."""
    return parabola._elements


def _rot90_toward_side(v: Point, side: Side) -> Point:
    if side == LEFT:
        return Point(-v.y, v.x)
    if side == RIGHT:
        return Point(v.y, -v.x)
    raise DegenerateSide(f"side must be 'left' or 'right', got {side!r}")


def parabola_from_latus_rectum(e1: Point, e2: Point, side: Side) -> Parabola:
    """Parabola whose latus rectum is the segment e1-e2, opening into ``side``.

    ``side`` names the open half-plane (left or right of the directed segment
    e1 -> e2) that the parabola opens into.  The focus is the midpoint; the
    directrix is the latus line translated by half the latus length away from
    the opening, built by rotating e2 - e1 a quarter turn toward the side.
    """
    if e1 == e2:
        raise CoincidentPoints("latus rectum endpoints coincide")
    focus = midpoint(e1, e2)
    toward_opening = _rot90_toward_side(e2 - e1, side)
    anchor = focus - scale(toward_opening, Fraction(1, 2))
    directrix = parallel_through(line_through(e1, e2), anchor)
    return Parabola(focus, directrix)


def contains_point(parabola: Parabola, p: Point) -> bool:
    """Focus-directrix membership test, exact on squared distances."""
    return dist_sq(p, parabola.focus) == dist_sq_point_line(p, parabola.directrix)


def point_at_parameter(parabola: Parabola, t: Rational) -> Point:
    """The parabola point vertex + t*u + (t^2 / 4k)*n.

    u is the primitive integer direction of the supporting line (canonical
    sign), n the primitive axis direction toward the opening, k the focal
    scale.  Each rational t names a distinct parabola point and t = 0 is the
    vertex, which is all the fuzz harnesses rely on.
    """
    elements = canonical_elements(parabola)
    ux, uy = elements.supporting_line.direction()
    nx, ny = axis_direction(parabola)
    k = focal_scale(parabola)
    along = scale(point(ux, uy), t)
    up = scale(point(nx, ny), t * t / (4 * k))
    return elements.vertex + along + up


def parameter_of(parabola: Parabola, p: Point) -> Rational:
    """Inverse of :func:`point_at_parameter` for points on the parabola."""
    if not contains_point(parabola, p):
        raise PointNotOnParabola(f"{p} is not on the parabola")
    elements = canonical_elements(parabola)
    ux, uy = elements.supporting_line.direction()
    u = point(ux, uy)
    offset = p - elements.vertex
    return (offset.x * u.x + offset.y * u.y) / (u.x * u.x + u.y * u.y)


def tangent_at(parabola: Parabola, p: Point) -> Line:
    """Tangent line at a point of the parabola.

    Built as the perpendicular bisector of the focus and the pedal of p on
    the directrix; rational-closed, and certified against ``is_tangent`` by
    the test-suite rather than trusted.  At the vertex this degenerates to
    the supporting line, which counts as a tangent.
    """
    if not contains_point(parabola, p):
        raise PointNotOnParabola(f"{p} is not on the parabola")
    foot = pedal_point(p, parabola.directrix)
    return perpendicular_bisector(parabola.focus, foot)


def is_tangent(parabola: Parabola, line: Line) -> bool:
    """Pedal tangency criterion: the focus projects onto ``line`` inside the
    supporting line exactly when ``line`` is tangent."""
    pedal = pedal_point(parabola.focus, line)
    return canonical_elements(parabola).supporting_line.contains(pedal)
