"""JSON forms of kernel values.

Rationals travel as strings ("p/q", or "p" when the denominator is 1) so the
reports stay exact; points are {"x","y"} objects, lines their canonical
integer triples.  Serialization is deterministic: dict key order is fixed by
construction, so identical inputs give byte-identical ``json.dumps`` output.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

from .euclid import Circle, Line, Point
from .figure import ParbelosFigure, corollary_checks, sondow_checks
from .parabola import Parabola
from .rational import format_rational


def point_json(p: Point) -> dict:
    return {"x": format_rational(p.x), "y": format_rational(p.y)}


def line_json(line: Line) -> dict:
    return {"a": line.a, "b": line.b, "c": line.c}


def circle_json(circle: Circle) -> dict:
    return {"center": point_json(circle.center), "radius_sq": format_rational(circle.radius_sq)}


def parabola_json(parabola: Parabola) -> dict:
    return {"focus": point_json(parabola.focus), "directrix": line_json(parabola.directrix)}


def figure_json(fig: ParbelosFigure) -> dict:
    """Figure fields by their attribute names, in declaration order."""
    return {field.name: value_json(getattr(fig, field.name)) for field in fields(fig)}


def verification_json(fig: ParbelosFigure) -> dict:
    """Figure JSON plus per-check verdicts from both verification passes."""
    sondow = sondow_checks(fig)
    corollaries = corollary_checks(fig)
    doc = figure_json(fig)
    doc["checks"] = {
        "sondow": {label: ok for label, _, ok in sondow},
        "corollaries": {label: ok for label, _, ok in corollaries},
    }
    doc["overall"] = all(ok for _, _, ok in sondow + corollaries)
    return doc


def value_json(value):
    """Generic dispatcher used for DSL bindings and assertion witnesses."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (Fraction, int)):
        return format_rational(Fraction(value))
    if isinstance(value, Point):
        return point_json(value)
    if isinstance(value, Line):
        return line_json(value)
    if isinstance(value, Circle):
        return circle_json(value)
    if isinstance(value, Parabola):
        return parabola_json(value)
    if isinstance(value, ParbelosFigure):
        return figure_json(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return [value_json(item) for item in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")
