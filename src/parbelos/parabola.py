"""Focus-directrix parabolas over the rationals.

A parabola is stored as (focus, directrix); vertex, axis, supporting line and
latus rectum all derive from that pair.  The key quantity that keeps every
derived object rational is the *focal scale* k: with n the primitive integer
normal of the directrix pointing toward the focus, the focus sits at
vertex + k*n for a rational k > 0.  Latus endpoints are then focus ± 2k*u
(u the primitive direction along the directrix) and the point with chord
parameter t is vertex + t*u + (t^2 / 4k)*n -- no square roots anywhere.

This module is the one place that turns (focus, directrix) into integer
tests.  The focal form ``_focal`` -- the equation n*|X - F|^2 - L(X)^2 at a
point over one shared denominator W (``euclid._common``), with its gradient
computed only when a caller asks -- decides membership and builds the
tangent at a point, here and in the drawing's arc certificate.  The
tangency predicate is the pedal criterion (the foot of the focus on a
tangent lies on the supporting line), written through the directrix, since
the supporting line is the directrix moved halfway to the focus; its
integer core is ``_tangent``.  Each core takes the focus's numerators over
the caller's shared denominator, and each line as an integer triple
(A, B, C) with A*X + B*Y + C = 0 at the numerators (X, Y) of its points
there.  The public predicates and the arc certificate take the focus,
their points and the directrix as (a, b, c*W) from one ``_tangent_frame``
over their own ``_common``, and a figure passes its frame's forms, each
line's primitive normal and its offset over D.  A core's verdict is the
same on any nonzero multiple of a line's triple, so the two decide alike.
The parabola of a latus rectum is built in integers too, with the focus as
its only Fractions, and its directrix from its primitive normal.

The elements are plain properties of :class:`Parabola`, each derived from the
focus and the directrix when read, without going through another element:
the axis direction and focal scale from one integer evaluation of the
directrix at the focus, the supporting line from the directrix and the
focus, the axis by ``perpendicular_through``.  No path of the package reads
the vertex; it stays public for library callers.  Chord points stay on
Fraction, whose reduction after each step keeps operands short at large
heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import CoincidentPoints, DegenerateSide, FocusOnDirectrix, PointNotOnParabola
from .euclid import Line, Point, _common, perpendicular_through
from .rational import Rational

Side = Literal["left", "right"]
LEFT: Side = "left"
RIGHT: Side = "right"


@dataclass(frozen=True)
class Parabola:
    """A parabola given by its focus and directrix.

    Its elements are the properties ``vertex``, ``axis``, ``supporting_line``,
    ``axis_direction``, ``focal_scale`` and ``latus_endpoints``, each derived
    from the focus and the directrix alone whenever it is read.  Equality,
    hash and pickling see only those two fields.
    """

    focus: Point
    directrix: Line

    def __post_init__(self):
        if self.directrix.contains(self.focus):
            raise FocusOnDirectrix("focus {} lies on the directrix", self.focus)

    def _opening(self) -> tuple[tuple[int, int], Rational]:
        """(axis_direction, focal_scale) from one integer evaluation
        v = a*X + b*Y + c*W of the directrix at the focus (X, Y)/W: the
        normal (a, b)/g, g = gcd(a, b), turned toward the focus, and
        k = |v|*g / (2*W*(a^2 + b^2)), half the focus-directrix distance in
        units of that normal."""
        w, [(x, y)] = _common(self.focus)
        line = self.directrix
        v = line.a * x + line.b * y + line.c * w
        g = math.gcd(line.a, line.b)
        nx, ny = line.a // g, line.b // g
        if v < 0:
            nx, ny, v = -nx, -ny, -v
        return (nx, ny), Fraction(v * g, 2 * w * (line.a * line.a + line.b * line.b))

    @property
    def axis_direction(self) -> tuple[int, int]:
        """Primitive integer normal of the directrix, oriented toward the opening."""
        return self._opening()[0]

    @property
    def focal_scale(self) -> Rational:
        """The rational k > 0 with focus = vertex + k * axis_direction."""
        return self._opening()[1]

    @property
    def vertex(self) -> Point:
        """focus - k*n: the midpoint of the focus and its pedal on the directrix."""
        (nx, ny), k = self._opening()
        return Point(self.focus.x - k * nx, self.focus.y - k * ny)

    @property
    def axis(self) -> Line:
        """The line through the focus perpendicular to the directrix."""
        return perpendicular_through(self.directrix, self.focus)

    @property
    def supporting_line(self) -> Line:
        """The tangent at the vertex: the directrix L moved halfway to the
        focus F, so L(x, y) - L(F)/2."""
        line, f = self.directrix, self.focus
        return Line(line.a, line.b, -(f.x * line.a + f.y * line.b - line.c) / 2)

    @property
    def latus_endpoints(self) -> tuple[Point, Point]:
        """focus - 2k*u and focus + 2k*u, u the primitive direction of the
        directrix: :func:`point_at_parameter` at -2k and 2k, in that order.
        Each coordinate is the focus's plus or minus 2k times an integer
        component of u; no intermediate point is built."""
        ux, uy = self.directrix.direction()
        h = self._opening()[1] * 2
        ox, oy, f = h * ux, h * uy, self.focus
        return Point(f.x - ox, f.y - oy), Point(f.x + ox, f.y + oy)


def parabola_from_latus_rectum(e1: Point, e2: Point, side: Side) -> Parabola:
    """Parabola whose latus rectum is the segment e1-e2, opening into ``side``.

    ``side`` names the open half-plane (left or right of the directed segment
    e1 -> e2) that the parabola opens into.  The focus is the midpoint; the
    directrix is the latus line translated by half the latus length away from
    the opening.  Both are built by :func:`_on_latus` over the shared
    denominator of e1 and e2.
    """
    if e1 == e2:
        raise CoincidentPoints("latus rectum endpoints coincide")
    w, [p1, p2] = _common(e1, e2)
    return _on_latus(w, p1, p2, side)[0]


def _on_latus(w: int, p1: tuple[int, int], p2: tuple[int, int], side: Side):
    """(parabola, S, r) for the latus rectum P1 -> P2 of integer points over W.

    S = P1 + P2, and r is the quarter turn of d = P2 - P1 toward the side:
    (-dy, dx) for left, (dy, -dx) for right.  The focus is S/2W; r is both
    the directrix normal and twice the step from the focus to the directrix,
    so the directrix passes through the foot of the axis (S - r)/2W.  With
    n = r/gcd(rx, ry) its primitive normal, it is the integer triple
    (2W*nx, 2W*ny, -n.(S - r)), which ``Line`` reduces by 2W and one gcd at
    the frame's height.  The focus coordinates are the only Fractions built.
    The tangents at P1 and P2 run to that foot, along d - r and -d - r.
    """
    (x1, y1), (x2, y2) = p1, p2
    if side == LEFT:
        rx, ry = y1 - y2, x2 - x1
    elif side == RIGHT:
        rx, ry = y2 - y1, x1 - x2
    else:
        raise DegenerateSide(f"side must be 'left' or 'right', got {side!r}")
    sx, sy = x1 + x2, y1 + y2
    focus = Point(Fraction(sx, 2 * w), Fraction(sy, 2 * w))
    m = math.gcd(rx, ry)
    nx, ny = rx // m, ry // m
    directrix = Line(2 * w * nx, 2 * w * ny, -(nx * (sx - rx) + ny * (sy - ry)))
    return Parabola(focus, directrix), (sx, sy), (rx, ry)


def _focal(directrix: tuple[int, int, int], x: int, y: int, fx: int, fy: int):
    """The focus-directrix equation at the point (X, Y)/W, and its gradient on request.

    With the focus (FX, FY)/W over the same denominator and the directrix
    as an integer triple (a, b, c) with a*X + b*Y + c = 0 at its points'
    numerators over W (the line a*x + b*y + c' is (a, b, c'*W)),
    n = a^2 + b^2 and v = a*X + b*Y + c, returns f = n*|X - F|^2 - v^2 and a
    function giving g = n*(X - F) - v*(a, b) as (gx, gy).  The point is on
    the parabola exactly when f == 0 (|p - F|^2 = L(p)^2 / n with W^2 n
    cleared), and g is W times half the gradient of n*|x - F|^2 - L(x)^2
    there, the normal of the tangent.  A membership test reads f alone, so
    g is computed only when asked for.  g is never zero on the parabola: a
    zero g puts the focus on the directrix.  A multiple k of the triple
    multiplies f and g by k^2, so f == 0 and the direction of g do not
    depend on which multiple a caller passes.
    """
    a, b, c = directrix
    n = a * a + b * b
    dx, dy = x - fx, y - fy
    v = a * x + b * y + c
    return n * (dx * dx + dy * dy) - v * v, lambda: (n * dx - v * a, n * dy - v * b)


def contains_point(parabola: Parabola, p: Point) -> bool:
    """Focus-directrix membership test, exact on squared distances
    (the equation of :func:`_focal` over the shared denominator of p and the
    focus; its gradient is not computed)."""
    _, [(fx, fy), (x, y)], (_, directrix) = _tangent_frame(parabola, p)
    return _focal(directrix, x, y, fx, fy)[0] == 0


def point_at_parameter(parabola: Parabola, t: Rational) -> Point:
    """The parabola point vertex + t*u + (t^2 / 4k)*n.

    u is the primitive integer direction of the directrix (canonical sign), n
    the primitive axis direction toward the opening, k the focal scale.  As
    vertex = focus - k*n, the point is focus + t*u + c*n with c = t^2/4k - k,
    each coordinate written directly (``f.x + t*ux + c*nx``, the Fraction
    operand first), so no intermediate point is built.  Each rational t
    names a distinct parabola point and t = 0 is the vertex, which is all
    the fuzz harnesses rely on.
    """
    ux, uy = parabola.directrix.direction()
    (nx, ny), k = parabola._opening()
    c = t * t / (k * 4) - k
    f = parabola.focus
    return Point(f.x + t * ux + c * nx, f.y + t * uy + c * ny)


def tangent_at(parabola: Parabola, p: Point) -> Line:
    """Tangent line at a point of the parabola.

    With p = (X, Y)/W and the focus over one shared denominator W,
    :func:`_focal` gives the equation f and the normal g at p; the point is
    on the parabola when f == 0, and the tangent is then the integer triple
    (gx*W, gy*W, -(gx*X + gy*Y)), which ``Line`` reduces.  The tangent at p
    is unique, so this is the same canonical line as the perpendicular
    bisector of the focus and the pedal of p on the directrix; the test-suite
    certifies it against that construction and ``is_tangent``.  At the vertex
    it is the supporting line, which counts as a tangent.
    """
    w, [(fx, fy), (x, y)], (_, directrix) = _tangent_frame(parabola, p)
    f, gradient = _focal(directrix, x, y, fx, fy)
    if f:
        raise PointNotOnParabola("{} is not on the parabola", p)
    gx, gy = gradient()
    return Line(gx * w, gy * w, -(gx * x + gy * y))


def is_tangent(parabola: Parabola, line: Line) -> bool:
    """Pedal tangency criterion: the focus projects onto ``line`` inside the
    supporting line exactly when ``line`` is tangent.

    With F = (X, Y)/W and n = a^2 + b^2 for ``line`` = (a, b, c), the pedal is
    the homogeneous point (n*X - a*v, n*Y - b*v, n*W), v = a*X + b*Y + c*W.
    A line S = (s, t, u) is zero there exactly when, by linearity,
    n*(s*X + t*Y + u*W) == v*(s*a + t*b).  The supporting line is the
    directrix L = (p, q, r) moved halfway to the focus: it is parallel to L
    and passes through the vertex, the midpoint of F and its foot on L,
    where the affine L takes the value L(F)/2.  So S = L - L(F)/2 and
    S(F) = L(F)/2.  Taking S = (p, q, r - L(F)/2) and clearing the half, the
    test is n*(p*X + q*Y + r*W) == 2*v*(p*a + q*b), and nothing is derived.
    The test is :func:`_tangent`, here over the focus's own denominator,
    with each line as (a, b, c*W).
    """
    w, _, form = _tangent_frame(parabola)
    return _tangent(form, (line.a, line.b, line.c * w))


def _tangent_frame(parabola: Parabola, *points: Point) -> tuple[int, list[tuple[int, int]], tuple]:
    """(W, numerators, form): the shared denominator W of the focus and
    ``points`` (``euclid._common``), their numerators, the focus's first,
    and the parabola's :func:`_tangent` form over W, (focus numerators,
    directrix (a, b, c*W))."""
    w, numerators = _common(parabola.focus, *points)
    d = parabola.directrix
    return w, numerators, (numerators[0], (d.a, d.b, d.c * w))


def _tangent(parabola: tuple, line: tuple[int, int, int]) -> bool:
    """The integer core of :func:`is_tangent`, on a parabola given as (focus
    numerators (X, Y), directrix) and a line, each line an integer triple
    (A, B, C) with A*X + B*Y + C = 0 on numerators over the caller's shared
    denominator.  Both sides of the test scale alike with either triple, so
    any nonzero multiple of a line decides as the line does.  The line must
    have (A, B) != (0, 0): on (0, 0, C), both sides are zero and the test
    reads True, so a caller with a raw triple refuses that first."""
    (x, y), (p, q, r) = parabola
    a, b, c = line
    v = a * x + b * y + c
    return (a * a + b * b) * (p * x + q * y + r) == 2 * v * (p * a + q * b)
