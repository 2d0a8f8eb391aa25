"""The parbelos: three same-side parabolas over collinear cusps.

Given cusps C1, C2, C3 on any rational line (C2 strictly between the others)
and a half-plane to open into, the three parabolas have latera recta C1C2,
C2C3 and C1C3.  The four cusp tangents close into a rectangle C2 T1 T2 T3;
this module builds the whole derived cast -- circumscribing square, tangent
rectangle circumcircle, outer focus, diagonal, cusp bisector, contact point,
and the auxiliary points H, A1, A3.  The figure's statements, the tangency
property of the diagonal and the five equidistance/concyclicity properties,
are the rows of ``SONDOW`` and ``COROLLARIES``: each names a word of
``PREDICATES`` and the figure fields it is applied to.  ``PREDICATES`` is the
one table of predicates, read by these rows and by the construction
language's assertions alike; each word holds its argument kinds, its exact
verdict and a separate witness, which the figure's checks never compute.

The figure is built on one integer frame: the cusps' numerators over their
shared denominator W.  Three facts of the figure turn every named point but
the contact into a closed form in those integers.  The tangents at the two
ends of a latus rectum meet at the foot of the axis on the directrix, so T1,
T2 and T3 are the feet of inner1, outer and inner2.  The tangents at C1 and
C3 are shared by the outer and the inner parabola there (the homothety at
that cusp maps one onto the other).  The square's corners are the inner
foci, the feet of T1 and T3 on the cusp line, and their shifts by T2 - F.
The forms use only sums, differences and quarter turns of the cusps'
numerators, never a chosen axis, so a similarity of the cusps still maps
the figure, which is what makes the similarity-invariance checks meaningful.
K is the circle on O through C2.  Each line, the directrices included, is
built from its primitive normal (a, b): ``Line`` is handed
(a*W, b*W, -(a*X + b*Y)) for a point (X, Y)/W on it, so its one reduction
is gcd(a*W, b*W) = W and then one gcd at the frame's height, where the
unreduced direction times W would double that height.

So every field's denominator divides a known bound.  With V = P3 - P1 the
cusps' integer difference, T1, T2, T3, F, H, A1, A3 and the square's corners
divide 2W, O divides 4W, K's squared radius 16W^2 and the contact W*|V|^2;
the tests check each bound, and that a field moved by 1/(2W + 1) breaks it.
The checks and the drawing read the figure's frame over D = 4W
(``ParbelosFigure.frame``), which holds every field that a core reads
(``READ_FIELDS``) but the contact: each row, and each latus arc's
certificate (``ARCS``), whose fields all lie in the frame is
decided there by the integer core that its predicate runs after its own
``_common``.  A line lies in the frame as its primitive normal and its
offset over D, so the pedal test and the arc certificates multiply integers
of about the frame's height, not twice it; a core's verdict is the same on
any nonzero multiple of a line's triple, so this form and the public
(a, b, c*W) decide alike.  The rows that read the contact point keep their
own shared denominator; it has about a third more bits than 4W, and a frame
that held it too would lift every other row to its size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

from .errors import CuspNotInterior, CuspsNotCollinear, InvalidRotation
from .euclid import (
    Circle,
    Line,
    Point,
    _common,
    _equidistant,
    _on_circle,
    cross,
    dist_sq,
    dist_sq_point_line,
    dot,
    equidistant,
    is_collinear,
    is_perpendicular,
    line_intersection,
    midpoint,
    on_circle,
    pedal_point,
)
from .parabola import LEFT, Parabola, Side, _on_latus, _tangent, contains_point, is_tangent


def _parts(value) -> tuple | list:
    """A composite value's parts: a tuple's items, or a dataclass's fields in order.

    A dataclass's fields are read through its ``__match_args__``, the names
    of its ``__init__`` parameters in order, which for every dataclass here
    are all of its fields, so ``kind(*parts)`` rebuilds it.  The figure's
    frame reads four fields' parts per operation, and ``dataclasses.fields``
    is the slower read.
    """
    return value if type(value) is tuple else [getattr(value, name) for name in value.__match_args__]


def _form(value, den: int, quotients: dict[int, tuple[int, int]]):
    """The form of a value over the denominator D = ``den``, or None if it has none.

    One rule: a point is its numerators (X, Y) over D, and has no form if
    divmod(D, d) leaves a remainder for one of its denominators d; a line
    a*x + b*y + c = 0 is (a/M, b/M, c*D/M) with M = gcd(a, b), its primitive
    normal and its offset over D, zero at a point's numerators exactly on
    the line, and has no form if divmod(D, M) leaves a remainder (M shares
    no factor with c, so that is when c*D/M does); a Fraction is itself; a
    tuple or any other dataclass is the tuple of its parts' forms
    (:func:`_parts`), and has none if a part has none.  ``quotients`` holds
    divmod(D, d) per denominator or normal gcd d, across one frame.
    """
    kind = type(value)
    if kind is Point:
        (xn, xd), (yn, yd) = value.x.as_integer_ratio(), value.y.as_integer_ratio()
        qx, rx = quotients.get(xd) or quotients.setdefault(xd, divmod(den, xd))
        qy, ry = quotients.get(yd) or quotients.setdefault(yd, divmod(den, yd))
        return None if rx or ry else (xn * qx, yn * qy)
    if kind is Line:
        a, b, c = value.a, value.b, value.c
        m = math.gcd(a, b)
        q, r = quotients.get(m) or quotients.setdefault(m, divmod(den, m))
        return None if r else (a // m, b // m, c * q)
    if kind is Fraction:
        return value
    parts = tuple([_form(part, den, quotients) for part in _parts(value)])
    return None if None in parts else parts


@dataclass(frozen=True)
class ParbelosFigure:
    C1: Point
    C2: Point
    C3: Point
    inner1: Parabola
    inner2: Parabola
    outer: Parabola
    tangent_at_C1: Line
    tangent_at_C3: Line
    tangent_at_C2_left: Line
    tangent_at_C2_right: Line
    T1: Point
    T2: Point
    T3: Point
    square_R: tuple[Point, Point, Point, Point]
    center_O: Point
    circumcircle_K: Circle
    focus_F: Point
    diagonal: Line
    contact_T: Point
    bisector: Line
    H: Point
    A1: Point
    A3: Point

    @cached_property
    def frame(self) -> tuple[int, dict]:
        """(D, forms): the figure's integer frame, derived from its fields on first read.

        D = 4W, W the cusps' shared denominator.  ``forms`` maps the name of
        each field whose form an integer core reads (``READ_FIELDS``: the
        fields of a ``SONDOW`` or ``COROLLARIES`` row whose word has a core,
        and of the drawing's ``ARCS``) and that has a form over D
        (:func:`_form`) to that form: a point is its numerators (X, Y), a
        line its primitive normal and its offset over D, (A, B, C) with
        A*X + B*Y + C = 0 on the line, the square a tuple of points, a circle
        (center numerators, radius^2) and a parabola (focus numerators,
        directrix form).  The contact point, or a forged field, lies outside
        the frame and has no form; a field that no core reads, such as a cusp
        tangent or the bisector, is not formed.  The figure is frozen, so the
        frame is cached; a figure made by ``dataclasses.replace`` is a new
        object and derives its own.
        """
        w, _ = _common(self.C1, self.C2, self.C3)
        d = 4 * w
        # divmod(D, d) per denominator d: the frame's points share a handful
        # of denominators.
        quotients: dict[int, tuple[int, int]] = {}
        forms = {}
        for name in READ_FIELDS:
            form = _form(getattr(self, name), d, quotients)
            if form is not None:
                forms[name] = form
        return d, forms

    def __getstate__(self) -> dict:
        # The frame is derived, so a pickle holds the fields alone.
        return {f.name: getattr(self, f.name) for f in fields(self)}


# The figure's named points in report order: (short name, field).  The CLI
# text report prints them, the drawing labels them and the DSL accepts each
# short name after a figure's dot.
NAMED_POINTS = (
    ("C1", "C1"),
    ("C2", "C2"),
    ("C3", "C3"),
    ("T1", "T1"),
    ("T2", "T2"),
    ("T3", "T3"),
    ("F", "focus_F"),
    ("O", "center_O"),
    ("contact", "contact_T"),
    ("H", "H"),
    ("A1", "A1"),
    ("A3", "A3"),
)


def build_parbelos(c1: Point, c2: Point, c3: Point, side: Side = LEFT) -> ParbelosFigure:
    """Construct the full figure from three collinear cusps.

    ``side`` selects the half-plane (left or right of the directed cusp line
    C1 -> C3) all three parabolas open into; a bad ``side`` is refused by
    :func:`parabola._on_latus`, after the cusps pass.  With P1, P2, P3 the
    cusps' integer numerators over their shared denominator W, each latus rectum
    Pa -> Pb gives S = Pa + Pb and r, the quarter turn of Pb - Pa toward the
    side (:func:`parabola._on_latus`); write S12, r12 for C1 -> C2, S23, r23
    for C2 -> C3 and S13, r13 for C1 -> C3.  Over 2W, T1, T3 and T2 are the
    feet S - r of the three axes, F = S13, the square is S12, S23,
    S23 - r13, S12 - r13, H = 2*P2 - r13, A1 = S12 - r23 and A3 = S23 - r12;
    O = 2*P2 + S13 - r13 over 4W.  The cusp tangents, the diagonal and the
    bisector are integer triples built from their primitive directions
    (:func:`_line_along`).  K is centred on O itself (the same
    Point), the centre of the rectangle C2 T1 T2 T3, through C2: its squared
    radius is |T2 - 2*P2|^2 / 16W^2 with T2's numerators over 2W.  The
    contact point is computed as diagonal ∩ bisector.  K and the contact,
    like every other field, are then re-certified by the exact predicates
    of :func:`sondow_checks` and :func:`corollary_checks` rather than assumed.
    """
    if c1 == c3:
        raise CuspNotInterior("outer cusps coincide")
    w, [p1, p2, p3] = _common(c1, c2, c3)
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    # u = C2 - C1 and v = C3 - C1 over W: C2 is C1 + t*v with
    # t = dot(u, v)/dot(v, v) when cross(u, v) = 0.
    ux, uy, vx, vy = x2 - x1, y2 - y1, x3 - x1, y3 - y1
    if ux * vy - uy * vx != 0:
        raise CuspsNotCollinear("{}, {}, {} are not collinear", c1, c2, c3)
    uv, vv = ux * vx + uy * vy, vx * vx + vy * vy
    if not 0 < uv < vv:
        raise CuspNotInterior("C2 must lie strictly between C1 and C3 (got t={})", Fraction(uv, vv))

    inner1, (s12x, s12y), (r12x, r12y) = _on_latus(w, p1, p2, side)
    inner2, (s23x, s23y), (r23x, r23y) = _on_latus(w, p2, p3, side)
    outer, (s13x, s13y), (r13x, r13y) = _on_latus(w, p1, p3, side)
    den = 2 * w

    def at(x: int, y: int) -> Point:
        return Point(Fraction(x, den), Fraction(y, den))

    # The homothety at C1 with ratio t maps outer onto inner1, so the tangent
    # at C1 is also inner1's, and both of inner1's latus-end tangents pass
    # through its foot T1; likewise at C3 with inner2 and T3.  The square's
    # sides are the cusp line, the outer directrix and the inner axes, so its
    # corners are the inner foci and their shifts by T2 - F = -r13/2W.
    t1x, t1y, t3x, t3y = s12x - r12x, s12y - r12y, s23x - r23x, s23y - r23y
    t2x, t2y = s13x - r13x, s13y - r13y
    diagonal = _line_along(den, (t1x, t1y), t3x - t1x, t3y - t1y)
    bisector = _line_along(w, p2, -vy, vx)
    # O is the centre of the rectangle C2 T1 T2 T3, so K is the circle on
    # O through C2: radius^2 = |T2 - 2*P2|^2 / 16W^2 over the cusps' frame.
    center = Point(Fraction(2 * x2 + t2x, 2 * den), Fraction(2 * y2 + t2y, 2 * den))
    kx, ky = t2x - 2 * x2, t2y - 2 * y2
    return ParbelosFigure(
        C1=c1,
        C2=c2,
        C3=c3,
        inner1=inner1,
        inner2=inner2,
        outer=outer,
        tangent_at_C1=_line_along(w, p1, vx - r13x, vy - r13y),
        tangent_at_C3=_line_along(w, p3, -vx - r13x, -vy - r13y),
        tangent_at_C2_left=_line_along(w, p2, -ux - r12x, -uy - r12y),
        tangent_at_C2_right=_line_along(w, p2, vx - ux - r23x, vy - uy - r23y),
        T1=at(t1x, t1y),
        T2=at(t2x, t2y),
        T3=at(t3x, t3y),
        square_R=(
            inner1.focus,
            inner2.focus,
            at(s23x - r13x, s23y - r13y),
            at(s12x - r13x, s12y - r13y),
        ),
        center_O=center,
        circumcircle_K=Circle(center, Fraction(kx * kx + ky * ky, 4 * den * den)),
        focus_F=outer.focus,
        diagonal=diagonal,
        contact_T=line_intersection(diagonal, bisector),
        bisector=bisector,
        H=at(2 * x2 - r13x, 2 * y2 - r13y),
        A1=at(s12x - r23x, s12y - r23y),
        A3=at(s23x - r12x, s23y - r12y),
    )


def _line_along(w: int, p: tuple[int, int], ex: int, ey: int) -> Line:
    """The line through the point (X, Y)/W along the direction (ex, ey).

    The direction is divided by its gcd first, so ``Line`` gets
    (ey*W, -ex*W, ex*Y - ey*X) on the primitive direction: its reduction is
    gcd(ey*W, ex*W) = W, a few steps when the direction is small, and then
    one gcd at the frame's height.
    """
    g = math.gcd(ex, ey)
    ex, ey = ex // g, ey // g
    return Line(ey * w, -ex * w, ex * p[1] - ey * p[0])


def _square_check(square_R, center_O, C2, T1, T2, T3) -> bool:
    """square_R has four equal sides at right angles, centered where r is.

    Decided by :func:`_square` on the integer numerators of the nine points
    over their shared denominator.
    """
    _, [r1, r2, r3, r4, *points] = _common(*square_R, center_O, C2, T1, T2, T3)
    return _square((r1, r2, r3, r4), *points)


def _square(square, o, c2, t1, t2, t3) -> bool:
    """The integer core of :func:`_square_check`, on numerators over any one
    shared denominator; each centre test p + q == 2*O needs no halving."""
    r1, r2, r3, r4 = square
    sides = [(q[0] - p[0], q[1] - p[1]) for p, q in ((r1, r2), (r2, r3), (r3, r4), (r4, r1))]
    if len({x * x + y * y for x, y in sides}) != 1:
        return False
    if any(u[0] * v[0] + u[1] * v[1] != 0 for u, v in zip(sides, sides[1:] + sides[:1])):
        return False
    # Both diagonals of the square, and of the tangent rectangle r, meet at O.
    twice_o = (2 * o[0], 2 * o[1])
    return all(
        (p[0] + q[0], p[1] + q[1]) == twice_o for p, q in ((r1, r3), (r2, r4), (c2, t2), (t1, t3))
    )


def _square_witness(square_R, center_O, C2, T1, T2, T3) -> dict:
    """What :func:`_square_check` compares, as Fractions: the squared sides of
    square_R, the dot products of its consecutive sides, and the midpoints of
    its two diagonals and of r's, each center_O when the check holds."""
    r1, r2, r3, r4 = square_R
    sides = [q - p for p, q in ((r1, r2), (r2, r3), (r3, r4), (r4, r1))]
    return {
        "sides_sq": tuple(dot(side, side) for side in sides),
        "corner_dots": tuple(dot(u, v) for u, v in zip(sides, sides[1:] + sides[:1])),
        "diagonal_midpoints": tuple(
            midpoint(p, q) for p, q in ((r1, r3), (r2, r4), (C2, T2), (T1, T3))
        ),
    }


# The one vocabulary of predicates, keyed by the construction language's
# words: name -> (argument kinds, verdict, witness).  The verdict is the
# kernel's exact predicate and alone decides.  The witness returns the raw
# values behind it, for a reader to see why (``dsl.evaluate`` keeps them in
# its report, and ``jsonio.dumps`` writes them); nothing on the figure's own
# checks calls it.
# ``square`` is a figure's ``square_R``, and ``any`` takes every value.
PREDICATES = {
    "collinear": (
        ("point", "point", "point"),
        is_collinear,
        lambda a, b, c: {"determinant": cross(b - a, c - a)},
    ),
    "concyclic": (
        ("circle", "point"),
        on_circle,
        lambda circle, p: {"dist_sq": dist_sq(circle.center, p), "radius_sq": circle.radius_sq},
    ),
    "on_parabola": (
        ("parabola", "point"),
        contains_point,
        lambda g, p: {
            "dist_sq_focus": dist_sq(p, g.focus),
            "dist_sq_directrix": dist_sq_point_line(p, g.directrix),
        },
    ),
    "on_line": (("line", "point"), Line.contains, lambda line, p: {"value": line.evaluate(p)}),
    "tangent": (
        ("parabola", "line"),
        is_tangent,
        lambda g, line: {
            "focus_pedal": pedal_point(g.focus, line),
            "supporting_line": g.supporting_line,
        },
    ),
    "equidistant": (
        ("point", "point", "point"),
        equidistant,
        lambda p, a, b: {"dist_sq_first": dist_sq(p, a), "dist_sq_second": dist_sq(p, b)},
    ),
    "perpendicular": (
        ("line", "line"),
        is_perpendicular,
        lambda l1, l2: {"normal_dot": l1.a * l2.a + l1.b * l2.b},
    ),
    "square": (
        ("square", "point", "point", "point", "point", "point"),
        _square_check,
        _square_witness,
    ),
    "eq": (("any", "any"), operator.eq, lambda left, right: {"left": left, "right": right}),
}

# The figure's statements, one row each: (label, failure text, predicate
# key, field names, ...).  A row holds when its predicate's verdict holds on
# the fields of every tuple of names, tried left to right up to the first
# failure.
SONDOW = (
    ("diagonal tangent to outer", "diagonal not tangent to outer", "tangent", ("outer", "diagonal")),
    ("contact on parabola", "contact not on parabola", "on_parabola", ("outer", "contact_T")),
    ("contact on bisector", "contact not on bisector", "on_line", ("bisector", "contact_T")),
    ("FT equals HT", "FT differs from HT", "equidistant", ("contact_T", "focus_F", "H")),
    ("focus on circumcircle", "focus not on circumcircle", "concyclic", ("circumcircle_K", "focus_F")),
    (
        "R is a square centered with r",
        "R is not a square centered with r",
        "square",
        ("square_R", "center_O", "C2", "T1", "T2", "T3"),
    ),
)
COROLLARIES = (
    (
        "F equidistant from T1 and T3",
        "F not equidistant from T1 and T3",
        "equidistant",
        ("focus_F", "T1", "T3"),
    ),
    ("H on circumcircle", "H not on circumcircle", "concyclic", ("circumcircle_K", "H")),
    ("H equidistant from T1 and T3", "H not equidistant from T1 and T3", "equidistant", ("H", "T1", "T3")),
    (
        "A1 and A3 on circumcircle",
        "A1 or A3 not on circumcircle",
        "concyclic",
        ("circumcircle_K", "A1"),
        ("circumcircle_K", "A3"),
    ),
    (
        "A1 and A3 equidistant from C2 and T2",
        "A1 or A3 not equidistant from C2 and T2",
        "equidistant",
        ("A1", "C2", "T2"),
        ("A3", "C2", "T2"),
    ),
)


# The integer core of each word that a row can decide on the figure's
# frame: core(D, *forms) on the fields' forms over D (``ParbelosFigure.frame``).
# Each is the test its word's verdict makes after its own ``_common``.
_CORES = {
    "tangent": lambda d, g, line: _tangent(g, line),
    "concyclic": _on_circle,
    "equidistant": lambda d, p, a, b: _equidistant(p, a, b),
    "square": lambda d, *forms: _square(*forms),
}

# The drawing's three latus arcs, one row each: (parabola, start, control,
# end) fields.  The cusp tangents meet at the corners of the tangent
# rectangle, so each arc's control point is one of them.
ARCS = (("inner1", "C1", "T1", "C2"), ("inner2", "C2", "T3", "C3"), ("outer", "C1", "T2", "C3"))

# The fields whose forms a core reads, in first-read order: those of each
# statement whose word has a core, and those of the arcs.  The frame forms
# these alone.
READ_FIELDS = tuple(dict.fromkeys(
    n for row in [t for _, _, key, *ts in SONDOW + COROLLARIES if key in _CORES for t in ts] + [*ARCS] for n in row
))


def _checks(fig: ParbelosFigure, table: tuple) -> list[tuple[str, str, bool]]:
    """Each row's verdict on the figure's fields; no witness is computed.

    A row whose fields all have a form in the figure's frame is decided by its
    word's integer core on those forms; any other row (the contact point lies
    outside the frame) by the word's verdict, over the fields' own
    denominator.
    """
    d, forms = fig.frame
    checks = []
    for label, failure, key, *arguments in table:
        verdict, core = PREDICATES[key][1], _CORES.get(key)
        for names in arguments:
            framed = list(map(forms.get, names))
            if core is None or None in framed:
                ok = verdict(*[getattr(fig, name) for name in names])
            else:
                ok = core(d, *framed)
            if not ok:
                break
        checks.append((label, failure, ok))
    return checks


def sondow_checks(fig: ParbelosFigure) -> list[tuple[str, str, bool]]:
    """(label, failure text, verdict) triples for the tangency property."""
    return _checks(fig, SONDOW)


def corollary_checks(fig: ParbelosFigure) -> list[tuple[str, str, bool]]:
    """(label, failure text, verdict) triples for the five derived properties."""
    return _checks(fig, COROLLARIES)


def similarity(m: Point, shift: Point):
    """The map z -> m*z + shift on complex numbers z = x + iy, for a rational m != 0.

    It maps points, lines and circles, and rebuilds a tuple or any other
    dataclass (a parabola, a whole figure) from the images of its parts
    (:func:`_parts`).  Squared lengths, a circle's squared radius among
    them, scale by |m|^2, so any rational m keeps a figure rational, and
    orientation is kept, so a figure's side carries over.  With m = (MA + i*MB)/MD and shift = (SX, SY)/SD in integers,
    a point over its denominator W maps to one Fraction per coordinate, as
    x -> ((MA*X - MB*Y)*SD + SX*MD*W)/(MD*W*SD), and a line's normal (a, b)
    turns to (a*MA - b*MB, a*MB + b*MA) in an integer triple.
    """
    if m.x == 0 and m.y == 0:
        raise InvalidRotation("similarity needs a nonzero multiplier m")
    md, [(ma, mb)] = _common(m)
    sd, [(sx, sy)] = _common(shift)
    norm = ma * ma + mb * mb
    scale_sq = Fraction(norm, md * md)
    k = md * sd

    def map_point(p: Point) -> Point:
        w, [(x, y)] = _common(p)
        den = k * w
        return Point(
            Fraction((ma * x - mb * y) * sd + sx * md * w, den),
            Fraction((mb * x + ma * y) * sd + sy * md * w, den),
        )

    def map_line(line: Line) -> Line:
        a = line.a * ma - line.b * mb
        b = line.a * mb + line.b * ma
        return Line(a * k, b * k, norm * line.c * sd - (a * sx + b * sy) * md)

    maps = {
        Point: map_point,
        Line: map_line,
        Circle: lambda c: Circle(map_point(c.center), c.radius_sq * scale_sq),
    }

    def image(value):
        kind = type(value)
        mapped = maps.get(kind)
        if mapped:
            return mapped(value)
        parts = tuple(map(image, _parts(value)))
        return parts if kind is tuple else kind(*parts)

    return image
