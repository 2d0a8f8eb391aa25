"""Deterministic SVG rendering of scenes built from exact kernel values.

A parabola arc is exactly a quadratic Bezier curve whose control point is the
intersection of the endpoint tangents, so arcs are emitted as ``Q`` path
segments with an exact control point.  Every arc passes one certificate,
decided in integers: both endpoints on the parabola and the control point on
the tangent at each.  The figure's arcs take the corners T1, T3 and T2 of its
tangent rectangle as their control points; a parabola binding's latus arc
takes the foot of its axis on the directrix, where the tangents at the latus
ends meet.  A figure's certificates are decided on its frame
(``figure.ParbelosFigure.frame``) by the same integer core.  Coordinates
stay rational until the final string conversion: the scene's bounds are
found by integer keys, the canvas map is exact and runs in integers over
the bounds' own shared denominator, with one divmod per distinct
coordinate denominator kept for the render (:class:`_Frame`), and each
point is mapped and rounded once per render.  The y axis is flipped from
SVG's screen-down convention to the usual mathematical orientation, and
output is byte-stable for fixed inputs: fixed element order, fixed
formatting, no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from fractions import Fraction

from .errors import EmptyScene, PointNotOnParabola
from .euclid import Circle, Line, Point, _common, pedal_point, point
from .figure import ARCS, NAMED_POINTS, ParbelosFigure
from .parabola import Parabola, _focal, _tangent_frame
from .rational import Rational, ratio_to_decimal_string


@dataclass(frozen=True)
class LabeledPoint:
    at: Point
    label: str


@dataclass(frozen=True)
class SegmentElement:
    a: Point
    b: Point
    cls: str = "segment"


@dataclass(frozen=True)
class ArcElement:
    """Parabola arc between two of its points, with its exact Bezier data.

    The control point is the intersection of the endpoint tangents; the arc
    IS the quadratic Bezier on (p0, control, p1).  Every arc is built after
    that identity is certified exactly: by :func:`_certified_arc`, or, for a
    figure's arcs, by :func:`_certify` on the figure's frame.
    """

    parabola: Parabola
    p0: Point
    p1: Point
    control: Point


def _certified_arc(parabola: Parabola, p0: Point, control: Point, p1: Point) -> ArcElement:
    """The arc of ``parabola`` from p0 to p1 as the quadratic Bezier on
    (p0, control, p1), once that Bezier is certified to retrace it.

    Besides p0 != p1, four conditions are checked: p0 and p1 lie on the
    parabola, and control lies on the tangent at each of them.  No fifth test
    (say, the Bezier midpoint on the parabola) could fail after these: two
    distinct points of a parabola have crossing tangents, so control is
    their meet.  The conics touching those tangents at p0 and p1 form one
    pencil, and it holds a single parabola (its other member with a
    degenerate quadratic part is the doubled chord p0p1).  The Bezier on p0,
    the meet and p1 is a parabola of that pencil, so it is the arc.  Both
    endpoint tests come from the focal form ``parabola._focal`` over the
    shared denominator of the three points and the focus: an endpoint is on
    the parabola when its f is zero, and control is on the tangent there
    when it is orthogonal to the normal g from that endpoint.  Every failure
    raises :class:`PointNotOnParabola`; none is an ``assert``.  The messages
    name the points by their role, since a tall point's integers may be past
    the interpreter's limit for printing them.  :func:`_certify` runs the
    tests on the numerators of the parabola's frame with the three points
    (``parabola._tangent_frame``).
    """
    _, [_, q0, qc, q1], form = _tangent_frame(parabola, p0, control, p1)
    _certify(form, q0, qc, q1)
    return ArcElement(parabola, p0, p1, control)


def _certify(parabola: tuple, p0: tuple, control: tuple, p1: tuple) -> None:
    """The integer core of :func:`_certified_arc`: raise unless the Bezier on
    the numerators p0, control and p1 retraces the parabola, given as (focus
    numerators, directrix triple) over the same denominator.  Any nonzero
    multiple of the directrix's triple gives the same outcome
    (:func:`parabola._focal`)."""
    if p0 == p1:
        raise EmptyScene("degenerate arc: p0 = p1")
    (fx, fy), directrix = parabola
    xc, yc = control
    for (x, y), end in ((p0, "p0"), (p1, "p1")):
        f, gradient = _focal(directrix, x, y, fx, fy)
        if f:
            raise PointNotOnParabola(f"arc endpoint {end} is not on the parabola")
        gx, gy = gradient()
        if gx * (xc - x) + gy * (yc - y) != 0:
            raise PointNotOnParabola(f"Bezier control point is off the tangent at {end}")


@dataclass
class Scene:
    points: list[LabeledPoint] = field(default_factory=list)
    segments: list[SegmentElement] = field(default_factory=list)
    lines: list[Line] = field(default_factory=list)
    circles: list[Circle] = field(default_factory=list)
    arcs: list[ArcElement] = field(default_factory=list)

    def add_point(self, at: Point, label: str) -> None:
        self.points.append(LabeledPoint(at, label))

    def add_segment(self, a: Point, b: Point, cls: str = "segment") -> None:
        self.segments.append(SegmentElement(a, b, cls))


def figure_scene(fig: ParbelosFigure) -> Scene:
    """The standard rendering of a parbelos figure: three latus arcs, the
    tangent rectangle and its circumcircle, the square, and the named points.

    The cusp tangents meet at the corners of the tangent rectangle, so each
    latus arc's control point is one of them: T1 for inner1, T3 for inner2
    and T2 for the outer parabola.  The certificate rejects a figure whose
    corners are not where the tangents meet.  It is decided on the figure's
    frame (``ParbelosFigure.frame``) when the parabola and the three points
    all have a form there, and by :func:`_certified_arc` otherwise.
    """
    scene = Scene()
    forms = fig.frame[1]
    for names in ARCS:
        parabola, start, control, end = (getattr(fig, name) for name in names)
        framed = list(map(forms.get, names))
        if None in framed:
            scene.arcs.append(_certified_arc(parabola, start, control, end))
        else:
            _certify(*framed)
            scene.arcs.append(ArcElement(parabola, start, end, control))
    scene.circles.append(fig.circumcircle_K)
    scene.add_segment(fig.C1, fig.C3, "baseline")
    for a, b in ((fig.C2, fig.T1), (fig.T1, fig.T2), (fig.T2, fig.T3), (fig.T3, fig.C2)):
        scene.add_segment(a, b, "rectangle")
    r1, r2, r3, r4 = fig.square_R
    for a, b in ((r1, r2), (r2, r3), (r3, r4), (r4, r1)):
        scene.add_segment(a, b, "square")
    scene.add_segment(fig.T1, fig.T3, "diagonal")
    scene.add_segment(fig.C2, fig.H, "bisector")
    for label, field in NAMED_POINTS:
        # The one label that differs from the text report: the drawing calls the
        # contact point T (its field is contact_T), as the golden SVG pins.
        scene.add_point(getattr(fig, field), "T" if label == "contact" else label)
    return scene


def bindings_scene(bindings: dict[str, object]) -> Scene:
    """Scene for the drawable values of an evaluated script, in binding order.

    A parabola is drawn as its latus arc.  The tangents at the two ends of a
    latus rectum meet on the directrix, at the foot of the axis, so that foot
    is the arc's control point.
    """
    scene = Scene()
    for name, value in bindings.items():
        if isinstance(value, Point):
            scene.add_point(value, name)
        elif isinstance(value, Line):
            scene.lines.append(value)
        elif isinstance(value, Circle):
            scene.circles.append(value)
        elif isinstance(value, Parabola):
            e1, e2 = value.latus_endpoints
            foot = pedal_point(value.focus, value.directrix)
            scene.arcs.append(_certified_arc(value, e1, foot, e2))
        elif isinstance(value, ParbelosFigure):
            sub = figure_scene(value)
            for f in fields(Scene):
                getattr(scene, f.name).extend(getattr(sub, f.name))
    return scene


def _sqrt_decimal(value: Rational, digits: int) -> str:
    """Decimal string of sqrt(value) to ``digits`` digits, integers only.

    With k = ``digits``, sqrt(n/d) * 10^k is sqrt(n*d*10^(2k)) / d; the root is truncated by
    ``isqrt`` and the quotient rounded half-up by ``ratio_to_decimal_string``
    as every coordinate is.  The truncated root is the one inexact step, so
    a radius may print one unit low in its last digit.  Its fix changes
    recorded SVG bytes, so it waits on the benchmark's re-record (ROADMAP
    item 1).
    """
    num, den = value.numerator, value.denominator
    root = math.isqrt(num * den * 10 ** (2 * digits))
    return ratio_to_decimal_string(root, den * 10**digits, digits)


class _Frame:
    """Exact affine map from math coordinates to the SVG canvas (y flipped).

    The bounds are written over their shared denominator D (``_common``).
    The axis whose span is the lesser share of its canvas sets the scale
    inner*D/span, and the bounds' midpoint goes to the canvas centre, so a
    coordinate N/D maps to x = (inner*(2N - sum_x) + width*span)/(2*span),
    and y = (inner*(sum_y - 2N) + height*span)/(2*span) on the same ratio,
    each rounded once; ``shift`` adds a whole number of canvas units (the
    labels sit 5 right of and 5 above their points).  A coordinate n/d whose
    d divides D has N = n*(D/d); D/d is found by one divmod per distinct d
    and kept, with the ratio's other terms, for this frame alone.  Any other
    coordinate, such as a figure's contact point, takes the same ratio times
    d.  So mapping a coordinate over D multiplies integers whose sizes add
    up to about D's, where mapping over the scale's and the offsets' own
    denominators multiplied two integers of the bounds' full height.  No
    Fraction is built to map a coordinate: ``scale``, ``offset_x`` and
    ``offset_y`` are derived when the circle radius or :func:`_clip_line`
    first reads them, and the visible math-space rectangle, ``x_lo`` to
    ``x_hi`` by ``y_lo`` to ``y_hi``, when :func:`_clip_line` does.
    """

    def __init__(self, bounds, width: int, height: int, margin: int, digits: int):
        xmin, ymin, xmax, ymax = bounds
        den, [(x0, y0), (x1, y1)] = _common(Point(xmin, ymin), Point(xmax, ymax))
        if x1 == x0:
            x0, x1 = x0 - den, x1 + den
        if y1 == y0:
            y0, y1 = y0 - den, y1 + den
        inner_w, inner_h = width - 2 * margin, height - 2 * margin
        if inner_w <= 0 or inner_h <= 0:
            raise ValueError("margin leaves no drawing area")
        self.width, self.height, self.digits, self._den = width, height, digits, den
        # The limiting axis: the lesser of inner_w/(x1 - x0) and inner_h/(y1 - y0).
        axes = ((inner_w, x1 - x0), (inner_h, y1 - y0))
        self._inner, span = axes[inner_w * (y1 - y0) > inner_h * (x1 - x0)]
        # Over the denominator 2*span: the offsets, and twice the scale times D.
        self._unit = 2 * span
        self._ox = width * span - self._inner * (x0 + x1)
        self._oy = height * span + self._inner * (y0 + y1)
        self._terms: dict[int, tuple[int, int, int, int]] = {}

    scale = cached_property(lambda self: Fraction(2 * self._inner * self._den, self._unit))
    offset_x = cached_property(lambda self: Fraction(self._ox, self._unit))
    offset_y = cached_property(lambda self: Fraction(self._oy, self._unit))
    x_lo = cached_property(lambda self: -self.offset_x / self.scale)
    x_hi = cached_property(lambda self: (self.width - self.offset_x) / self.scale)
    y_lo = cached_property(lambda self: (self.offset_y - self.height) / self.scale)
    y_hi = cached_property(lambda self: self.offset_y / self.scale)

    def _over(self, d: int) -> tuple[int, int, int, int]:
        """(k, x offset, y offset, unit) for coordinates n/d: canvas x is
        (n*k + x offset)/unit and y (y offset - n*k)/unit, before a shift.
        With m = 1 if d divides D and m = d otherwise, n/d = N/(D*m) for
        N = n*k/(2*inner), and every other term is its frame term times m."""
        q, r = divmod(self._den, d)
        q, m = (self._den, d) if r else (q, 1)
        terms = self._terms[d] = (2 * self._inner * q, m * self._ox, m * self._oy, m * self._unit)
        return terms

    def x(self, v: Rational, shift: int = 0) -> str:
        k, ox, _, unit = self._terms.get(v.denominator) or self._over(v.denominator)
        return ratio_to_decimal_string(v.numerator * k + ox + shift * unit, unit, self.digits)

    def y(self, v: Rational, shift: int = 0) -> str:
        k, _, oy, unit = self._terms.get(v.denominator) or self._over(v.denominator)
        return ratio_to_decimal_string(oy - v.numerator * k + shift * unit, unit, self.digits)


def _scene_points(scene: Scene):
    """Every point that frames the scene, with the circles' bounding squares."""
    for lp in scene.points:
        yield lp.at
    for seg in scene.segments:
        yield seg.a
        yield seg.b
    for arc in scene.arcs:
        yield arc.p0
        yield arc.p1
        yield arc.control  # Bezier hull bound
    for circle in scene.circles:
        radius_up = Fraction(math.isqrt(math.ceil(circle.radius_sq)) + 1)
        yield circle.center + point(radius_up, radius_up)
        yield circle.center - point(radius_up, radius_up)


def _min_max(values: list[Rational]) -> tuple[Rational, Rational]:
    """The least and the greatest of ``values``.

    Each value v = n/d gets the integer key floor(n * 2^64 / d), which never
    decreases as v grows, so the extremes are among the values with the least
    and the greatest key; only those are compared exactly.
    """
    keys = [(v.numerator << 64) // v.denominator for v in values]
    lo, hi = min(keys), max(keys)
    return (
        min(v for v, k in zip(values, keys) if k == lo),
        max(v for v, k in zip(values, keys) if k == hi),
    )


def _scene_bounds(scene: Scene):
    """(xmin, ymin, xmax, ymax) over the scene's points; a point object that
    several elements share is read once."""
    points = list({id(p): p for p in _scene_points(scene)}.values())
    if not points:
        raise EmptyScene("scene has no bounded drawable elements")
    (xmin, xmax), (ymin, ymax) = _min_max([p.x for p in points]), _min_max([p.y for p in points])
    return xmin, ymin, xmax, ymax


def _clip_line(line: Line, frame: _Frame) -> tuple[Point, Point] | None:
    """Intersect a line with the visible rectangle; None if it misses.

    With b != 0 the line meets x = X at y = -(a*X + c)/b, and with a != 0 it
    meets y = Y at x = -(b*Y + c)/a; the borders are Fractions, so both are.
    """
    a, b, c = line.a, line.b, line.c
    x_lo, x_hi, y_lo, y_hi = frame.x_lo, frame.x_hi, frame.y_lo, frame.y_hi
    candidates: list[Point] = []
    if b:
        candidates += [Point(x, -(a * x + c) / b) for x in (x_lo, x_hi)]
    if a:
        candidates += [Point(-(b * y + c) / a, y) for y in (y_lo, y_hi)]
    inside = {p for p in candidates if x_lo <= p.x <= x_hi and y_lo <= p.y <= y_hi}
    unique = sorted(inside, key=lambda p: (p.x, p.y))
    if len(unique) < 2:
        return None
    return unique[0], unique[-1]


_STYLE = (
    "circle.dot{fill:#1a1a1a;}"
    "circle.circ{fill:none;stroke:#888888;stroke-width:1;}"
    "path.arc{fill:none;stroke:#0050b0;stroke-width:2;}"
    "line.segment{stroke:#1a1a1a;stroke-width:1;}"
    "line.baseline{stroke:#1a1a1a;stroke-width:1.5;}"
    "line.rectangle{stroke:#b00030;stroke-width:1.5;}"
    "line.square{stroke:#808080;stroke-width:1;stroke-dasharray:4 3;}"
    "line.diagonal{stroke:#008040;stroke-width:1.5;}"
    "line.bisector{stroke:#808000;stroke-width:1;stroke-dasharray:6 3;}"
    "line.line{stroke:#404040;stroke-width:1;}"
    "text{font-family:sans-serif;font-size:13px;fill:#1a1a1a;}"
)


def render_svg(
    scene: Scene,
    width: int = 800,
    height: int = 600,
    margin: int = 40,
    decimal_digits: int = 12,
) -> str:
    """Serialize a scene to an SVG 1.1 document.

    The only inexact step is the final decimal conversion of each coordinate
    (``decimal_digits`` digits, integer arithmetic); rerunning on the same
    scene yields byte-identical output.
    """
    frame = _Frame(_scene_bounds(scene), width, height, margin, decimal_digits)
    # Canvas (x, y) per point object and label shift.  Keyed by id(): hashing
    # a Point would hash its Fractions.  Each entry holds its point, so no id
    # is reused while the memo lives.
    placed: dict[tuple[int, int], tuple[Point, str, str]] = {}

    def at(p: Point, shift: int = 0) -> tuple[str, str]:
        """Canvas x and y of p, moved ``shift`` units right and up."""
        key = (id(p), shift)
        hit = placed.get(key)
        if hit is None:
            hit = placed[key] = (p, frame.x(p.x, shift), frame.y(p.y, -shift))
        return hit[1], hit[2]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
    ]
    for circle in scene.circles:
        cx, cy = at(circle.center)
        radius = _sqrt_decimal(circle.radius_sq * frame.scale * frame.scale, decimal_digits)
        out.append(f'<circle class="circ" cx="{cx}" cy="{cy}" r="{radius}"/>')
    for arc in scene.arcs:
        (x0, y0), (xc, yc), (x1, y1) = at(arc.p0), at(arc.control), at(arc.p1)
        out.append(f'<path class="arc" d="M {x0} {y0} Q {xc} {yc} {x1} {y1}"/>')
    for line in scene.lines:
        clipped = _clip_line(line, frame)
        if clipped is None:
            continue
        (x1, y1), (x2, y2) = at(clipped[0]), at(clipped[1])
        out.append(f'<line class="line" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    for seg in scene.segments:
        (x1, y1), (x2, y2) = at(seg.a), at(seg.b)
        out.append(f'<line class="{seg.cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    for lp in scene.points:
        cx, cy = at(lp.at)
        out.append(f'<circle class="dot" cx="{cx}" cy="{cy}" r="3"/>')
    for lp in scene.points:
        x, y = at(lp.at, 5)
        out.append(f'<text x="{x}" y="{y}">{lp.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
