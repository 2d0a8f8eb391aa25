"""Rational plane primitives: points, lines, circles, and incidence operations.

Everything is exact.  Lines are canonicalized primitive integer triples so
equality of lines is structural equality; circles store the squared radius
(radii are generally irrational, centers of our constructions never are).
The one operation that looks like it should leave the rationals --
intersecting a line with a circle -- is done with a known point on both via
Vieta's root factoring, which keeps the whole kernel rational-closed.

The predicates ``Line.contains``, ``on_circle`` and ``equidistant`` and the
constructions ``circumcircle``, ``second_intersection`` and
``circle_through_points`` write their points over one shared denominator
(``_common``) and work on the integer numerators, so the only Fractions they
build are the coordinates (and squared radius) of the point or circle they
return; ``line_through`` frames its two points the same way and builds
none, handing ``Line`` the triple to reduce.  The integer tests of
``on_circle`` and ``equidistant`` are cores of their own (``_on_circle``,
``_equidistant``), which a figure also runs on the numerators of its frame
(``figure.ParbelosFigure.frame``).  ``_second_root``, the Vieta step behind
``second_intersection``, returns its point as a homogeneous integer triple
(X, Y, Z) with Z > 0 and builds no Fraction, so a caller that needs only
the line through two roots (``theorems._converse_chord``) takes that line
as the cross product of the two triples and makes no Points.  ``Line`` reduces
integer a, b with a Fraction c by gcd(a, b, numerator of c) before it
clears c's denominator, which is the shape ``perpendicular_through`` hands
it.

``pedal_point``, ``midpoint`` and ``line_intersection`` stay on Fraction
arithmetic.  Their integer forms end in a ``Fraction(n, d)`` whose gcd runs
over a pair of about twice the input's bits, while Fraction's own ``+`` and
``*`` reduce by the gcd of the two denominators and skip that final gcd
(Henrici's method).  On 3300-bit figure points (2 vCPUs, Python 3.11.7) an
integer ``pedal_point`` ran 1.8-2.6x slower, and an integer ``midpoint`` of
two 3300-bit points 10x slower.  Fraction operands are written first
(``p.x * a``), so an int operand takes ``Fraction.__mul__`` and not the
``__rmul__`` path with its abstract-base-class check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoincidentPoints,
    DegenerateCircle,
    DegenerateLine,
    DegenerateTriangle,
    ParallelLines,
    PointNotIncident,
)
from .rational import Rational, format_rational

Scalar = Rational | int


@dataclass(frozen=True)
class Point:
    x: Rational
    y: Rational

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


def point(x: Scalar, y: Scalar) -> Point:
    """Build a point, coercing plain integers to exact rationals."""
    return Point(Fraction(x), Fraction(y))


def dot(p: Point, q: Point) -> Rational:
    return p.x * q.x + p.y * q.y


def cross(p: Point, q: Point) -> Rational:
    return p.x * q.y - p.y * q.x


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def dist_sq(p: Point, q: Point) -> Rational:
    d = q - p
    return dot(d, d)


@dataclass(frozen=True, init=False)
class Line:
    """The line a*x + b*y + c = 0 with a canonical primitive integer triple.

    Canonical form: gcd(|a|, |b|, |c|) = 1 and the leading nonzero coefficient
    (a if a != 0, else b) is positive.  Rational coefficients passed to the
    constructor are cleared to integers, so two equal lines always compare
    structurally equal.  The constructor writes the three canonical
    coefficients once, through the instance dict.  Its reduction is one
    gcd(a, b, c): a caller that hands it (a*W, b*W, c) on a primitive normal
    (a, b) gets gcd(a*W, b*W) = W, in a few steps when (a, b) is small, and
    then one gcd at W's height, which is how the figure builds its lines.
    The integer cores take a line over a shared denominator W as the triple
    (a, b, c*W), zero at the numerators of its points.
    """

    a: int
    b: int
    c: int

    def __init__(self, a: Scalar, b: Scalar, c: Scalar):
        if type(a) is not int or type(b) is not int or type(c) not in (int, Fraction):
            a, b, c = Fraction(a), Fraction(b), Fraction(c)
            mult = math.lcm(a.denominator, b.denominator, c.denominator)
            a, b, c = int(a * mult), int(b * mult), int(c * mult)
        if a == 0 and b == 0:
            raise DegenerateLine("line needs (a, b) != (0, 0)")
        # Integers a, b and c = n/d in lowest terms (d = 1 for an int c):
        # gcd(a*d, b*d, n) is gcd(a, b, n) because gcd(n, d) = 1, so the triple
        # is divided by it before d is cleared, and no Fraction is built.
        n, d = c.numerator, c.denominator
        g = math.gcd(a, b, n)
        a, b, c = a // g * d, b // g * d, n // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        fields = self.__dict__  # written once, past the frozen __setattr__
        fields["a"], fields["b"], fields["c"] = a, b, c

    def evaluate(self, p: Point) -> Rational:
        """Signed value a*x + b*y + c; zero exactly on the line."""
        return p.x * self.a + p.y * self.b + self.c

    def contains(self, p: Point) -> bool:
        # evaluate(p) == 0 with the denominators cleared: no Fraction is built.
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        return self.a * xn * yd + self.b * yn * xd + self.c * xd * yd == 0

    def direction(self) -> tuple[int, int]:
        """Primitive integer direction vector, sign-canonicalized.

        The first nonzero component is positive, so the vector is a pure
        function of the line (used by chord parametrizations that need a
        well-defined rational parameter).
        """
        return _primitive_direction(self.b, -self.a)

    def __str__(self) -> str:
        return f"{self.a}x + {self.b}y + {self.c} = 0"


@dataclass(frozen=True)
class Circle:
    center: Point
    radius_sq: Rational

    def __post_init__(self):
        if self.radius_sq <= 0:
            raise DegenerateCircle("radius_sq must be positive, got {}", self.radius_sq)


def line_through(p: Point, q: Point) -> Line:
    """Canonical line containing two distinct points."""
    if p == q:
        raise CoincidentPoints("no unique line through {} twice", p)
    w, [(px, py), (qx, qy)] = _common(p, q)
    return Line((py - qy) * w, (qx - px) * w, px * qy - py * qx)


def _common(*points: Point) -> tuple[int, list[tuple[int, int]]]:
    """One shared denominator W and integer (X, Y) with p = (X/W, Y/W) for each point.

    W is the lcm of all the points' coordinate denominators.
    """
    w = 1
    for p in points:
        w = math.lcm(w, p.x.denominator, p.y.denominator)
    numerators = []
    for p in points:
        x, y = p.x, p.y
        numerators.append((x.numerator * (w // x.denominator), y.numerator * (w // y.denominator)))
    return w, numerators


def _primitive_direction(dx: int, dy: int) -> tuple[int, int]:
    """(dx, dy) divided by its gcd, with the first nonzero component positive."""
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def perpendicular_through(line: Line, p: Point) -> Line:
    """The line through p perpendicular to ``line``; its direction is (a, b)."""
    return Line(line.b, -line.a, p.y * line.a - p.x * line.b)


def is_perpendicular(l1: Line, l2: Line) -> bool:
    return l1.a * l2.a + l1.b * l2.b == 0


def line_intersection(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLines("{} and {} do not intersect", l1, l2)
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return Point(x, y)


def pedal_point(p: Point, line: Line) -> Point:
    """Orthogonal projection of p onto the line (p itself if already on it)."""
    t = Fraction(line.evaluate(p), line.a * line.a + line.b * line.b)
    return Point(p.x - t * line.a, p.y - t * line.b)


def dist_sq_point_line(p: Point, line: Line) -> Rational:
    v = line.evaluate(p)
    return Fraction(v * v, line.a * line.a + line.b * line.b)


def is_collinear(a: Point, b: Point, c: Point) -> bool:
    """Exact collinearity via the 2x2 determinant of (b - a, c - a).

    Degenerate input with repeated points is collinear under this convention.
    """
    return cross(b - a, c - a) == 0


def perpendicular_bisector(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPoints("perpendicular bisector needs distinct points")
    return perpendicular_through(line_through(p, q), midpoint(p, q))


def circumcircle(a: Point, b: Point, c: Point) -> Circle:
    """Unique circle through three points, as one integer determinant.

    Over the shared denominator W of a = (AX, AY)/W, b and c, with
    u = B - A and v = C - A in those numerators, d = 2*cross(u, v) is zero
    exactly when the points are collinear or two coincide.  Otherwise the
    center is a + e/(d*W) with e = (vy*|u|^2 - uy*|v|^2, ux*|v|^2 - vx*|u|^2),
    and radius^2 = |e|^2/(d*W)^2.  The center's coordinates, each added to
    a's over a's own denominator, and radius^2 are the only Fractions built,
    and they do the reducing.
    """
    w, [(ax, ay), (bx, by), (cx, cy)] = _common(a, b, c)
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    d = 2 * (ux * vy - uy * vx)
    if d == 0:
        raise DegenerateTriangle("collinear or coincident: {}, {}, {}", a, b, c)
    su, sv = ux * ux + uy * uy, vx * vx + vy * vy
    ex, ey, den = vy * su - uy * sv, ux * sv - vx * su, d * w
    x, y = a.x, a.y
    center = Point(
        Fraction(x.numerator * den + ex * x.denominator, x.denominator * den),
        Fraction(y.numerator * den + ey * y.denominator, y.denominator * den),
    )
    return Circle(center, Fraction(ex * ex + ey * ey, den * den))


def _circle_offset(circle: Circle, p: Point) -> tuple[bool, int, int, int, int, int]:
    """Whether p is on the circle, with the integers that decided it.

    Over the shared denominator W of p = (X, Y)/W and center = (CX, CY)/W,
    with e = (X - CX, Y - CY), :func:`_on_circle` decides.  Returns
    (verdict, W, X, Y, ex, ey).
    """
    w, [(x, y), center] = _common(p, circle.center)
    verdict = _on_circle(w, (center, circle.radius_sq), (x, y))
    return verdict, w, x, y, x - center[0], y - center[1]


def _on_circle(w: int, circle: tuple, p: tuple[int, int]) -> bool:
    """The integer core of :func:`on_circle`: is the point (X, Y)/W on the
    circle given as (center numerators (CX, CY) over W, radius^2)?

    With radius^2 = R/Q and e = (X - CX, Y - CY), it is exactly when
    Q*|e|^2 == R*W^2.
    """
    (cx, cy), r = circle
    ex, ey = p[0] - cx, p[1] - cy
    return (ex * ex + ey * ey) * r.denominator == r.numerator * w * w


def on_circle(circle: Circle, p: Point) -> bool:
    return _circle_offset(circle, p)[0]


def equidistant(p: Point, a: Point, b: Point) -> bool:
    """|P - A|^2 == |P - B|^2, over the shared denominator of the three points."""
    return _equidistant(*_common(p, a, b)[1])


def _equidistant(p: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> bool:
    """The integer core of :func:`equidistant`, on numerators over any one
    shared denominator."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    ux, uy, vx, vy = px - ax, py - ay, px - bx, py - by
    return ux * ux + uy * uy == vx * vx + vy * vy


def second_intersection(line: Line, circle: Circle, p: Point) -> Point:
    """The other point of line ∩ circle, given the point p on both.

    Along the chord X(t) = p + t*d the incidence condition is a quadratic in t
    whose constant term vanishes because p is already on the circle, so the
    unknown root comes straight out of Vieta: t = -2 d·(p - center) / |d|^2.
    No square root is ever taken, which is what keeps the kernel inside the
    rationals.  If the line is tangent at p the second root is t = 0 and p
    itself is returned.  The root is taken by :func:`_second_root`.
    """
    if not line.contains(p):
        raise PointNotIncident("{} is not on {}", p, line)
    offset = _circle_offset(circle, p)
    if not offset[0]:
        raise PointNotIncident("{} is not on the circle", p)
    x, y, z = _second_root(line, offset)
    return Point(Fraction(x, z), Fraction(y, z))


def _second_root(line: Line, offset: tuple[bool, int, int, int, int, int]) -> tuple[int, int, int]:
    """The other point of ``line`` on a circle, as the homogeneous integer
    triple (X', Y', Z') with Z' > 0, from the :func:`_circle_offset` of a
    point p known to be on both (the caller's duty; nothing is checked).

    Over the shared denominator W of p = (X, Y)/W and center = (CX, CY)/W,
    with e = (X - CX, Y - CY), d the line's direction, s = d.e and
    n = |d|^2, the point is (n*X - 2s*dx, n*Y - 2s*dy)/(n*W).  The triple
    is not reduced: the line through two such roots is the cross product of
    their triples, which ``Line`` reduces once.
    """
    _, w, x, y, ex, ey = offset
    dx, dy = line.direction()
    n, s = dx * dx + dy * dy, dx * ex + dy * ey
    return n * x - 2 * s * dx, n * y - 2 * s * dy, n * w


def circle_through_points(p: Point, q: Point, t: Rational) -> Circle:
    """Member t of the pencil of circles through two fixed points.

    The center is midpoint(p, q) + t*d with d the primitive integer direction
    of the perpendicular bisector of pq; t -> circle is injective and reaches
    every circle through p and q with rational center.

    Over the shared denominator W of p = (PX, PY)/W and q = (QX, QY)/W, d is
    the primitive quarter turn of Q - P under ``Line.direction``'s sign rule.
    With t = tn/td and D = 2*W*td, the center is
    ((PX + QX)*td + 2*W*tn*d)/D and center - p = ((QX - PX)*td + 2*W*tn*d)/D,
    so the center's coordinates and radius^2 are the only Fractions built.
    """
    if p == q:
        raise CoincidentPoints("circle family needs two distinct points")
    w, [(px, py), (qx, qy)] = _common(p, q)
    dx, dy = _primitive_direction(py - qy, qx - px)
    tn, td = t.numerator, t.denominator
    den = 2 * w * td
    kx, ky = 2 * w * tn * dx, 2 * w * tn * dy
    ex, ey = (qx - px) * td + kx, (qy - py) * td + ky
    center = Point(Fraction((px + qx) * td + kx, den), Fraction((py + qy) * td + ky, den))
    return Circle(center, Fraction(ex * ex + ey * ey, den * den))
