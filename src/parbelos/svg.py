"""Deterministic SVG rendering of scenes built from exact kernel values.

A parabola arc is exactly a quadratic Bezier curve whose control point is the
intersection of the endpoint tangents, so arcs are emitted as ``Q`` path
segments with an exactly computed control point (:func:`arc_between` builds
an arc from its two endpoints and certifies it).  Coordinates stay rational
until the final string conversion: the canvas map is exact and runs in
integers, and each canvas coordinate is rounded once to a decimal string.
The y axis is flipped from SVG's screen-down convention to the usual
mathematical orientation, and output is byte-stable for fixed inputs: fixed
element order, fixed formatting, no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyScene, PointNotOnParabola
from .euclid import Circle, Line, Point, _common, line_intersection, point
from .figure import NAMED_POINTS, ParbelosFigure
from .parabola import Parabola, contains_point, tangent_at
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
class LineElement:
    line: Line
    cls: str = "line"


@dataclass(frozen=True)
class CircleElement:
    circle: Circle


@dataclass(frozen=True)
class ArcElement:
    """Parabola arc between two of its points, with its exact Bezier data.

    The control point is the intersection of the endpoint tangents; the arc
    IS the quadratic Bezier on (p0, control, p1).  Built via
    :func:`arc_between`, which certifies that identity exactly.
    """

    parabola: Parabola
    p0: Point
    p1: Point
    control: Point


def arc_between(parabola: Parabola, p0: Point, p1: Point) -> ArcElement:
    """Arc between two points of the parabola; rejects the zero-length arc.

    ``tangent_at`` raises :class:`PointNotOnParabola` for an endpoint off the
    parabola.  Over the shared denominator W of p0, control and p1, the
    Bezier midpoint is (X0 + 2*XC + X1, Y0 + 2*YC + Y1)/4W.
    """
    if p0 == p1:
        raise EmptyScene(f"degenerate arc: p0 = p1 = {p0}")
    control = line_intersection(tangent_at(parabola, p0), tangent_at(parabola, p1))
    # The quadratic Bezier with this control point must retrace the parabola;
    # check its midpoint B(1/2) = (p0 + 2*control + p1)/4 exactly.
    w, [(x0, y0), (xc, yc), (x1, y1)] = _common(p0, control, p1)
    bezier_mid = Point(Fraction(x0 + 2 * xc + x1, 4 * w), Fraction(y0 + 2 * yc + y1, 4 * w))
    if not contains_point(parabola, bezier_mid):
        raise PointNotOnParabola(f"Bezier control point {control} is off the parabola")
    return ArcElement(parabola, p0, p1, control)


@dataclass
class Scene:
    points: list[LabeledPoint] = field(default_factory=list)
    segments: list[SegmentElement] = field(default_factory=list)
    lines: list[LineElement] = field(default_factory=list)
    circles: list[CircleElement] = field(default_factory=list)
    arcs: list[ArcElement] = field(default_factory=list)

    def add_point(self, at: Point, label: str) -> None:
        self.points.append(LabeledPoint(at, label))

    def add_segment(self, a: Point, b: Point, cls: str = "segment") -> None:
        self.segments.append(SegmentElement(a, b, cls))

    def add_line(self, line: Line, cls: str = "line") -> None:
        self.lines.append(LineElement(line, cls))

    def add_circle(self, circle: Circle) -> None:
        self.circles.append(CircleElement(circle))


def figure_scene(fig: ParbelosFigure) -> Scene:
    """The standard rendering of a parbelos figure: three latus arcs, the
    tangent rectangle and its circumcircle, the square, and the named points."""
    scene = Scene()
    for parabola, start, end in (
        (fig.inner1, fig.C1, fig.C2),
        (fig.inner2, fig.C2, fig.C3),
        (fig.outer, fig.C1, fig.C3),
    ):
        scene.arcs.append(arc_between(parabola, start, end))
    scene.add_circle(fig.circumcircle_K)
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
    """Scene for the drawable values of an evaluated script, in binding order."""
    scene = Scene()
    for name, value in bindings.items():
        if isinstance(value, Point):
            scene.add_point(value, name)
        elif isinstance(value, Line):
            scene.add_line(value)
        elif isinstance(value, Circle):
            scene.add_circle(value)
        elif isinstance(value, Parabola):
            scene.arcs.append(arc_between(value, *value.latus_endpoints))
        elif isinstance(value, ParbelosFigure):
            sub = figure_scene(value)
            scene.points.extend(sub.points)
            scene.segments.extend(sub.segments)
            scene.lines.extend(sub.lines)
            scene.circles.extend(sub.circles)
            scene.arcs.extend(sub.arcs)
    return scene


def _sqrt_decimal(value: Rational, digits: int) -> str:
    """Decimal string of sqrt(value) to ``digits`` digits, integers only."""
    num, den = value.numerator, value.denominator
    # sqrt(n/d) * 10^digits = sqrt(n*d*10^(2*digits)) / d
    root = math.isqrt(num * den * 10 ** (2 * digits))
    rounded = (2 * root + den) // (2 * den)
    return ratio_to_decimal_string(rounded, 10**digits, digits)


def _over_one_denominator(scale: Rational, offset: Rational) -> tuple[int, int, int]:
    """Integers (S, O, D) with scale = S/D and offset = O/D, D their lcm."""
    d = math.lcm(scale.denominator, offset.denominator)
    s, o = scale.numerator * (d // scale.denominator), offset.numerator * (d // offset.denominator)
    return s, o, d


class _Frame:
    """Exact affine map from math coordinates to the SVG canvas (y flipped).

    Each axis keeps its scale and offset over one denominator D, so with
    scale = S/D and offset = O/D the canvas x of v = n/d is the unreduced
    ratio (n*S + d*O)/(d*D), rounded once; no Fraction is built per
    coordinate.  ``shift`` moves the result by a whole number of canvas
    units (the labels sit 5 right of and 5 above their points).
    """

    def __init__(self, bounds, width: int, height: int, margin: int, digits: int):
        xmin, ymin, xmax, ymax = bounds
        if xmax == xmin:
            xmin, xmax = xmin - 1, xmax + 1
        if ymax == ymin:
            ymin, ymax = ymin - 1, ymax + 1
        inner_w, inner_h = width - 2 * margin, height - 2 * margin
        if inner_w <= 0 or inner_h <= 0:
            raise ValueError("margin leaves no drawing area")
        self.scale = min(Fraction(inner_w, xmax - xmin), Fraction(inner_h, ymax - ymin))
        self.offset_x = (width - (xmax - xmin) * self.scale) / 2 - xmin * self.scale
        self.offset_y = height - (height - (ymax - ymin) * self.scale) / 2 + ymin * self.scale
        self.width = width
        self.height = height
        self.digits = digits
        # visible math-space rectangle (for clipping infinite lines)
        self.x_lo = (0 - self.offset_x) / self.scale
        self.x_hi = (width - self.offset_x) / self.scale
        self.y_lo = (self.offset_y - height) / self.scale
        self.y_hi = self.offset_y / self.scale
        self._sx, self._ox, self._dx = _over_one_denominator(self.scale, self.offset_x)
        self._sy, self._oy, self._dy = _over_one_denominator(self.scale, self.offset_y)

    def x(self, v: Rational, shift: int = 0) -> str:
        n, d = v.numerator, v.denominator
        num = n * self._sx + d * (self._ox + shift * self._dx)
        return ratio_to_decimal_string(num, d * self._dx, self.digits)

    def y(self, v: Rational, shift: int = 0) -> str:
        n, d = v.numerator, v.denominator
        num = d * (self._oy + shift * self._dy) - n * self._sy
        return ratio_to_decimal_string(num, d * self._dy, self.digits)

    def xy(self, p: Point) -> str:
        return f"{self.x(p.x)} {self.y(p.y)}"


def _scene_bounds(scene: Scene):
    xs: list[Rational] = []
    ys: list[Rational] = []

    def take(p: Point):
        xs.append(p.x)
        ys.append(p.y)

    for lp in scene.points:
        take(lp.at)
    for seg in scene.segments:
        take(seg.a)
        take(seg.b)
    for arc in scene.arcs:
        take(arc.p0)
        take(arc.p1)
        take(arc.control)  # Bezier hull bound
    for ce in scene.circles:
        radius_up = Fraction(math.isqrt(math.ceil(ce.circle.radius_sq)) + 1)
        take(ce.circle.center + point(radius_up, radius_up))
        take(ce.circle.center - point(radius_up, radius_up))
    if not xs:
        raise EmptyScene("scene has no bounded drawable elements")
    return min(xs), min(ys), max(xs), max(ys)


def _clip_line(line: Line, frame: _Frame) -> tuple[Point, Point] | None:
    """Intersect a line with the visible rectangle; None if it misses."""
    candidates: list[Point] = []
    for border in (
        Line(1, 0, -frame.x_lo),
        Line(1, 0, -frame.x_hi),
        Line(0, 1, -frame.y_lo),
        Line(0, 1, -frame.y_hi),
    ):
        if line.a * border.b - border.a * line.b == 0:
            continue
        p = line_intersection(line, border)
        if frame.x_lo <= p.x <= frame.x_hi and frame.y_lo <= p.y <= frame.y_hi:
            candidates.append(p)
    unique = sorted(set(candidates), key=lambda p: (p.x, p.y))
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
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
    ]
    for ce in scene.circles:
        center = ce.circle.center
        out.append(
            f'<circle class="circ" cx="{frame.x(center.x)}" cy="{frame.y(center.y)}" '
            f'r="{_sqrt_decimal(ce.circle.radius_sq * frame.scale * frame.scale, decimal_digits)}"/>'
        )
    for arc in scene.arcs:
        out.append(
            f'<path class="arc" d="M {frame.xy(arc.p0)} Q {frame.xy(arc.control)} {frame.xy(arc.p1)}"/>'
        )
    for le in scene.lines:
        clipped = _clip_line(le.line, frame)
        if clipped is None:
            continue
        a, b = clipped
        out.append(
            f'<line class="{le.cls}" x1="{frame.x(a.x)}" y1="{frame.y(a.y)}" '
            f'x2="{frame.x(b.x)}" y2="{frame.y(b.y)}"/>'
        )
    for seg in scene.segments:
        out.append(
            f'<line class="{seg.cls}" x1="{frame.x(seg.a.x)}" y1="{frame.y(seg.a.y)}" '
            f'x2="{frame.x(seg.b.x)}" y2="{frame.y(seg.b.y)}"/>'
        )
    for lp in scene.points:
        out.append(
            f'<circle class="dot" cx="{frame.x(lp.at.x)}" cy="{frame.y(lp.at.y)}" r="3"/>'
        )
    for lp in scene.points:
        out.append(f'<text x="{frame.x(lp.at.x, 5)}" y="{frame.y(lp.at.y, -5)}">{lp.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
