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

Membership, tangency, the tangent at a point and the parabola of a latus
rectum are decided in integers: the points involved are written over one
shared denominator W (``euclid._common``) and each test or line is a
polynomial identity in the numerators, so no Fraction is built (the latus
construction builds just the focus).  The vertex and chord points stay on
Fraction, whose reduction after each step keeps operands short at large
heights; cross-multiplied, they ran 1.4-3.7x slower on 3300-bit inputs.  The
axis and the supporting line are ``perpendicular_through`` and
``parallel_through`` of the directrix: their offset is one Fraction, which
``Line`` reduces by gcd(a, b, numerator) before clearing its denominator.

The elements are properties of :class:`Parabola`, each memoised on its own
and derived only when read: ``is_tangent`` reads the supporting line,
``point_at_parameter`` the vertex, supporting line, axis direction and focal
scale, ``build_parbelos`` the axes of the inner parabolas, and the pi/4
latus-angle suite the latus endpoints.  The drawing of a parabola binding
reads the latus endpoints and takes the foot of the focus on the directrix
as its control point.
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
    _common,
    midpoint,
    parallel_through,
    pedal_point,
    perpendicular_through,
    point,
    scale,
)
from .rational import Rational

Side = Literal["left", "right"]
LEFT: Side = "left"
RIGHT: Side = "right"


@dataclass(frozen=True)
class Parabola:
    """A parabola given by its focus and directrix.

    Its elements are the properties ``vertex``, ``axis``, ``supporting_line``,
    ``axis_direction``, ``focal_scale`` and ``latus_endpoints``.  Each is
    computed on first read and kept in the instance ``__dict__``, where
    ``cached_property`` may write even on a frozen dataclass.  Equality and
    hash read only the two fields, and pickling drops the memo.
    """

    focus: Point
    directrix: Line

    def __post_init__(self):
        if self.directrix.contains(self.focus):
            raise FocusOnDirectrix("focus {} lies on the directrix", self.focus)

    def __getstate__(self) -> dict:
        return {"focus": self.focus, "directrix": self.directrix}

    @cached_property
    def axis_direction(self) -> tuple[int, int]:
        """Primitive integer normal of the directrix, oriented toward the opening."""
        nx, ny = self.directrix.normal()
        if self.directrix.evaluate(self.focus) < 0:
            nx, ny = -nx, -ny
        return nx, ny

    @cached_property
    def focal_scale(self) -> Rational:
        """The rational k > 0 with focus = vertex + k * axis_direction."""
        line = self.directrix
        g = math.gcd(line.a, line.b)
        return Fraction(abs(line.evaluate(self.focus)) * g, 2 * (line.a**2 + line.b**2))

    @cached_property
    def vertex(self) -> Point:
        """The midpoint of the focus and its pedal on the directrix."""
        return midpoint(self.focus, pedal_point(self.focus, self.directrix))

    @cached_property
    def axis(self) -> Line:
        """The line through the focus perpendicular to the directrix."""
        return perpendicular_through(self.directrix, self.focus)

    @cached_property
    def supporting_line(self) -> Line:
        """The tangent at the vertex, parallel to the directrix."""
        return parallel_through(self.directrix, self.vertex)

    @cached_property
    def latus_endpoints(self) -> tuple[Point, Point]:
        """focus - 2k*u and focus + 2k*u, u the primitive direction of the
        directrix: :func:`point_at_parameter` at -2k and 2k, in that order."""
        ux, uy = self.directrix.direction()
        offset = scale(point(ux, uy), 2 * self.focal_scale)
        return self.focus - offset, self.focus + offset


def parabola_from_latus_rectum(e1: Point, e2: Point, side: Side) -> Parabola:
    """Parabola whose latus rectum is the segment e1-e2, opening into ``side``.

    ``side`` names the open half-plane (left or right of the directed segment
    e1 -> e2) that the parabola opens into.  The focus is the midpoint; the
    directrix is the latus line translated by half the latus length away from
    the opening.  Over the shared denominator W of e1 = (X1, Y1)/W and
    e2 = (X2, Y2)/W, the focus is (X1 + X2, Y1 + Y2)/2W, and r, the quarter
    turn of (X2 - X1, Y2 - Y1) toward the side, is both the directrix normal
    and twice the step from the focus to the directrix.  So the directrix
    passes through the anchor (X1 + X2 - rx, Y1 + Y2 - ry)/2W and is the
    integer triple (2W*rx, 2W*ry, -r.(2W*anchor)); the focus coordinates are
    the only Fractions built.
    """
    if e1 == e2:
        raise CoincidentPoints("latus rectum endpoints coincide")
    w, [(x1, y1), (x2, y2)] = _common(e1, e2)
    if side == LEFT:
        rx, ry = y1 - y2, x2 - x1
    elif side == RIGHT:
        rx, ry = y2 - y1, x1 - x2
    else:
        raise DegenerateSide(f"side must be 'left' or 'right', got {side!r}")
    sx, sy = x1 + x2, y1 + y2
    focus = Point(Fraction(sx, 2 * w), Fraction(sy, 2 * w))
    directrix = Line(2 * w * rx, 2 * w * ry, -(rx * (sx - rx) + ry * (sy - ry)))
    return Parabola(focus, directrix)


def contains_point(parabola: Parabola, p: Point) -> bool:
    """Focus-directrix membership test, exact on squared distances.

    With p = (X, Y)/W and focus = (FX, FY)/W over one shared denominator and
    the directrix a*x + b*y + c = 0, the test |p - F|^2 = L(p)^2 / (a^2 + b^2)
    is ((X - FX)^2 + (Y - FY)^2) * (a^2 + b^2) == (a*X + b*Y + c*W)^2.
    """
    w, [(x, y), (fx, fy)] = _common(p, parabola.focus)
    line = parabola.directrix
    dx, dy = x - fx, y - fy
    v = line.a * x + line.b * y + line.c * w
    return (dx * dx + dy * dy) * (line.a * line.a + line.b * line.b) == v * v


def point_at_parameter(parabola: Parabola, t: Rational) -> Point:
    """The parabola point vertex + t*u + (t^2 / 4k)*n.

    u is the primitive integer direction of the supporting line (canonical
    sign), n the primitive axis direction toward the opening, k the focal
    scale.  Each rational t names a distinct parabola point and t = 0 is the
    vertex, which is all the fuzz harnesses rely on.
    """
    ux, uy = parabola.supporting_line.direction()
    nx, ny = parabola.axis_direction
    along = scale(point(ux, uy), t)
    up = scale(point(nx, ny), t * t / (4 * parabola.focal_scale))
    return parabola.vertex + along + up


def tangent_at(parabola: Parabola, p: Point) -> Line:
    """Tangent line at a point of the parabola.

    The parabola is the zero set of f(X) = n*|X - F|^2 - L(X)^2, with L the
    directrix a*x + b*y + c and n = a^2 + b^2.  Over the shared denominator W
    of p = (X, Y)/W and F = (FX, FY)/W, W times half the gradient of f at p
    is g = n*(X - FX, Y - FY) - v*(a, b) with v = a*X + b*Y + c*W, and the
    tangent is the integer triple (gx*W, gy*W, -(gx*X + gy*Y)).  g is first
    divided by gcd(gx, gy): on 3300-bit figures that common factor has about
    three times the bits of W, and the canonical line would otherwise strip
    it from larger numbers.  g is never zero: a zero g puts the focus on the
    directrix.  The tangent at p is unique, so this is the same canonical
    line as the perpendicular bisector of the focus and the pedal of p on the
    directrix; the test-suite certifies it against that construction and
    ``is_tangent``.  At the vertex it is the supporting line, which counts as
    a tangent.
    """
    if not contains_point(parabola, p):
        raise PointNotOnParabola("{} is not on the parabola", p)
    w, [(x, y), (fx, fy)] = _common(p, parabola.focus)
    line = parabola.directrix
    n = line.a * line.a + line.b * line.b
    v = line.a * x + line.b * y + line.c * w
    gx, gy = n * (x - fx) - v * line.a, n * (y - fy) - v * line.b
    h = math.gcd(gx, gy)
    gx, gy = gx // h, gy // h
    return Line(gx * w, gy * w, -(gx * x + gy * y))


def is_tangent(parabola: Parabola, line: Line) -> bool:
    """Pedal tangency criterion: the focus projects onto ``line`` inside the
    supporting line exactly when ``line`` is tangent.

    With F = (X, Y)/W and n = a^2 + b^2 for ``line`` = (a, b, c), the pedal is
    the homogeneous point (n*X - a*v, n*Y - b*v, n*W), v = a*X + b*Y + c*W.
    The supporting line S is zero there exactly when, by linearity,
    n*(S.a*X + S.b*Y + S.c*W) == v*(S.a*a + S.b*b).
    """
    w, [(x, y)] = _common(parabola.focus)
    a, b = line.a, line.b
    s = parabola.supporting_line
    v = a * x + b * y + line.c * w
    return (a * a + b * b) * (s.a * x + s.b * y + s.c * w) == v * (s.a * a + s.b * b)
