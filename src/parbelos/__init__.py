"""Exact rational plane geometry: parbelos construction and theorem checks."""

from .dsl import EvalReport, Program, evaluate, parse_script, report_json
from .errors import GeometryError
from .euclid import (
    Circle,
    Line,
    Point,
    circle_through_points,
    circumcircle,
    equidistant,
    is_collinear,
    line_through,
    on_circle,
    pedal_point,
    perpendicular_through,
    point,
    second_intersection,
)
from .figure import (
    ParbelosFigure,
    build_parbelos,
    corollary_checks,
    similarity,
    sondow_checks,
)
from .jsonio import figure_json
from .parabola import (
    LEFT,
    RIGHT,
    Parabola,
    contains_point,
    is_tangent,
    parabola_from_latus_rectum,
    point_at_parameter,
    tangent_at,
)
from .rational import Rational, format_rational, parse_rational
from .svg import Scene, bindings_scene, figure_scene, render_svg
from .theorems import (
    TheoremReport,
    converse_lambert,
    lambert_circumcircle_check,
    simson_check,
)

__all__ = [
    "Circle",
    "EvalReport",
    "GeometryError",
    "LEFT",
    "Line",
    "Parabola",
    "ParbelosFigure",
    "Point",
    "Program",
    "RIGHT",
    "Rational",
    "Scene",
    "TheoremReport",
    "bindings_scene",
    "build_parbelos",
    "circle_through_points",
    "circumcircle",
    "contains_point",
    "converse_lambert",
    "corollary_checks",
    "equidistant",
    "evaluate",
    "figure_json",
    "figure_scene",
    "format_rational",
    "is_collinear",
    "is_tangent",
    "lambert_circumcircle_check",
    "line_through",
    "on_circle",
    "parabola_from_latus_rectum",
    "parse_rational",
    "parse_script",
    "pedal_point",
    "perpendicular_through",
    "point",
    "point_at_parameter",
    "render_svg",
    "report_json",
    "second_intersection",
    "similarity",
    "simson_check",
    "sondow_checks",
    "tangent_at",
]
