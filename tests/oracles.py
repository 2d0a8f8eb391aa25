"""Independent oracles used to freeze expected test values.

Everything here is computed straight from coordinate formulas on Fractions,
without touching the package under test, so a kernel bug cannot hide behind
a matching bug in the expected values.  Results are plain tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction

F = Fraction

XY = tuple[Fraction, Fraction]


def project(px, py, a, b, c) -> XY:
    """Orthogonal projection of (px, py) onto a*x + b*y + c = 0."""
    px, py = F(px), F(py)
    t = F(a * px + b * py + c, 1) / (a * a + b * b)
    return (px - t * a, py - t * b)


def two_point_line(p: XY, q: XY) -> tuple[Fraction, Fraction, Fraction]:
    """Raw (a, b, c) of the line through two points, no canonicalization."""
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = -(a * p[0] + b * p[1])
    assert a * p[0] + b * p[1] + c == 0 and a * q[0] + b * q[1] + c == 0
    return a, b, c


def circumcenter_solve(p: XY, q: XY, r: XY) -> XY:
    """Circumcenter by direct 2x2 elimination of the equal-distance system."""
    ax, ay = p
    bx, by = q
    cx, cy = r
    # |X-P|^2 = |X-Q|^2  and  |X-Q|^2 = |X-R|^2, linear in X.
    a1, b1 = 2 * (bx - ax), 2 * (by - ay)
    c1 = bx * bx + by * by - ax * ax - ay * ay
    a2, b2 = 2 * (cx - bx), 2 * (cy - by)
    c2 = cx * cx + cy * cy - bx * bx - by * by
    det = a1 * b2 - a2 * b1
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return (x, y)


def dist2(p: XY, q: XY) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def stereographic(t) -> XY:
    """Rational point of the unit circle for slope parameter t from (-1, 0)."""
    t = F(t)
    return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def chord_parameter(p: XY, focus: XY, a: int, b: int) -> Fraction:
    """The t of ``point_at_parameter`` naming the point p of the parabola
    with this focus and the directrix a*x + b*y + c = 0.

    The point is vertex + t*u + s*n with u = (b, -a)/gcd(a, b), sign-fixed so
    its first nonzero entry is positive, and n normal to u; the focus is
    vertex + k*n, so t is the component of p - focus along u.
    """
    g = math.gcd(a, b)
    ux, uy = b // g, -a // g
    if ux < 0 or (ux == 0 and uy < 0):
        ux, uy = -ux, -uy
    return F((p[0] - focus[0]) * ux + (p[1] - focus[1]) * uy, ux * ux + uy * uy)


def upward_parabola_point(h, v, f, x) -> XY:
    """Point of y = (x - h)^2 / (4f) + v at abscissa x."""
    h, v, f, x = F(h), F(v), F(f), F(x)
    return (x, (x - h) ** 2 / (4 * f) + v)


def upward_parabola_tangent(h, v, f, x) -> tuple[Fraction, Fraction, Fraction]:
    """Tangent of y = (x - h)^2 / (4f) + v at abscissa x via the derivative.

    Slope m = (x - h) / (2f); returns (m, -1, y0 - m*x0) for m*x - y + c = 0.
    """
    h, v, f, x = F(h), F(v), F(f), F(x)
    y = (x - h) ** 2 / (4 * f) + v
    m = (x - h) / (2 * f)
    return (m, F(-1), y - m * x)


def parbelos_closed_forms(a, b) -> dict[str, object]:
    """Every named value of the figure with cusps (0,0), (a,0), (a+b,0), +y.

    Derived once by hand from the parabola equations: the tangent at a latus
    endpoint has slope -1 at the left end and +1 at the right end, which
    pins every rectangle vertex; the rest is intersection algebra.
    """
    a, b = F(a), F(b)
    s = a + b
    return {
        "T1": (a / 2, -a / 2),
        "T2": (s / 2, -s / 2),
        "T3": (a + b / 2, -b / 2),
        "F": (s / 2, F(0)),
        "O": ((3 * a + b) / 4, -s / 4),
        "radius_sq": (a * a + b * b) / 8,
        "contact": (a, -a * b / s),
        "H": (a, -s / 2),
        "A1": (a / 2, -b / 2),
        "A3": (a + b / 2, -a / 2),
        "FT_sq": (b - a) ** 2 / 4 + (a * b / s) ** 2,
        "FT1_sq": (a * a + b * b) / 4,
        "A1C2_sq": (a * a + b * b) / 4,
    }


def transported_closed_forms(c1: XY, c3: XY, t, side: str) -> dict[str, object]:
    """``parbelos_closed_forms(t, 1 - t)`` moved onto the cusp line C1 -> C3.

    The similarity z -> C1 + (C3 - C1)*z on complex numbers, after z -> conj(z)
    when ``side`` is "right", takes the cusps 0, t, 1 to C1, C1 + t*(C3 - C1)
    and C3, and the whole figure with them: each named point moves by it, and
    each squared length scales by |C3 - C1|^2.
    """
    t = F(t)
    x1, y1 = F(c1[0]), F(c1[1])
    dx, dy = F(c3[0]) - x1, F(c3[1]) - y1
    flip = -1 if side == "right" else 1

    def move(value):
        if isinstance(value, tuple):
            x, y = value[0], flip * value[1]
            return (x1 + dx * x - dy * y, y1 + dy * x + dx * y)
        return value * (dx * dx + dy * dy)

    return {name: move(value) for name, value in parbelos_closed_forms(t, 1 - t).items()}
