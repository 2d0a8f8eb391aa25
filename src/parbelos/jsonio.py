"""JSON forms of kernel values.

Fractions travel as strings ("p/q", or "p" when the denominator is 1) so the
reports stay exact, and plain ints as JSON integers; points are {"x","y"}
objects, lines their canonical integer triples.  Serialization is deterministic: dict key order is fixed by
construction, so identical inputs give byte-identical ``json.dumps`` output.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

from .euclid import Circle, Line, Point
from .figure import ParbelosFigure, corollary_checks, sondow_checks
from .parabola import Parabola
from .rational import format_rational


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
    """The one JSON form of a value: figure fields, DSL bindings and assertion witnesses."""
    if isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Point):
        return {"x": format_rational(value.x), "y": format_rational(value.y)}
    if isinstance(value, Line):
        return {"a": value.a, "b": value.b, "c": value.c}
    if isinstance(value, Circle):
        return {"center": value_json(value.center), "radius_sq": format_rational(value.radius_sq)}
    if isinstance(value, Parabola):
        return {"focus": value_json(value.focus), "directrix": value_json(value.directrix)}
    if isinstance(value, ParbelosFigure):
        return figure_json(value)
    if isinstance(value, tuple):
        return [value_json(item) for item in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")
