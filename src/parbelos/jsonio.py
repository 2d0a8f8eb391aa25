"""JSON forms of kernel values, and the one writer that prints them.

Fractions travel as strings ("p/q", or "p" when the denominator is 1) so the
reports stay exact, and plain ints as JSON integers; points are {"x","y"}
objects, lines their canonical integer triples.  Each kind's JSON object is
one row of :data:`_PAIRS`, its (key, part) pairs, read by :func:`value_json`
and by :func:`dumps`.  ``dumps(value)`` writes the text straight from the
kernel values and returns exactly ``json.dumps(value_json(value), indent=2)``:
the same keys in the same order, the same escaping and the same errors
(``TypeError`` for a value with no JSON form, ``ValueError`` for an int past
the interpreter's limit on printed digits).
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .euclid import Circle, Line, Point
from .figure import ParbelosFigure, _parts, corollary_checks, sondow_checks
from .parabola import Parabola
from .rational import format_rational

# Kind -> its (key, part) pairs, in order: the one place a kind's JSON keys are
# written.  A figure's keys are its field names.  A rational member is its
# "p/q" text, also when it holds an int.
_PAIRS = {
    Point: lambda p: (("x", format_rational(p.x)), ("y", format_rational(p.y))),
    Line: lambda line: (("a", line.a), ("b", line.b), ("c", line.c)),
    Circle: lambda c: (("center", c.center), ("radius_sq", format_rational(c.radius_sq))),
    Parabola: lambda p: (("focus", p.focus), ("directrix", p.directrix)),
    ParbelosFigure: lambda fig: zip(fig.__match_args__, _parts(fig)),
    dict: dict.items,
}

_CONSTANTS = {True: "true", False: "false", None: "null"}
_SCALARS = (int, str, bool, type(None))


def figure_json(fig: ParbelosFigure) -> dict:
    """Figure fields by their attribute names, in declaration order."""
    return {key: value_json(part) for key, part in _PAIRS[ParbelosFigure](fig)}


def verification(fig: ParbelosFigure) -> dict:
    """The figure's fields by name, then the per-check verdicts of both
    verification passes and the overall verdict: the raw document that
    ``parbelos --json`` prints through :func:`dumps`."""
    sondow = sondow_checks(fig)
    corollaries = corollary_checks(fig)
    doc = dict(_PAIRS[ParbelosFigure](fig))
    doc["checks"] = {
        "sondow": {label: ok for label, _, ok in sondow},
        "corollaries": {label: ok for label, _, ok in corollaries},
    }
    doc["overall"] = all(ok for _, _, ok in sondow + corollaries)
    return doc


def verification_json(fig: ParbelosFigure) -> dict:
    """The JSON form of :func:`verification`."""
    return value_json(verification(fig))


def value_json(value):
    """The one JSON form of a value: figure fields, DSL bindings and assertion witnesses.

    Kinds are matched exactly, so a subclass (of ``int``, ``tuple``, ``dict``
    or a kernel kind) has no JSON form; ``bool`` and ``None`` are their own
    kinds, and a dict's keys must be strings.
    """
    kind = type(value)
    if kind is ParbelosFigure:
        return figure_json(value)
    pairs = _PAIRS.get(kind)
    if pairs is not None:
        return {_key(key): value_json(part) for key, part in pairs(value)}
    if kind is Fraction:
        return format_rational(value)
    if kind in _SCALARS:
        return value
    if kind is tuple or kind is list:
        return [value_json(item) for item in value]
    raise TypeError(f"no JSON form for {kind.__name__}")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return key


def dumps(value) -> str:
    """``json.dumps(value_json(value), indent=2)``, written from ``value`` itself."""
    return _text(value, "\n")


def _text(value, indent: str) -> str:
    """The JSON text of ``value``, its lines after the first starting with ``indent``.

    A str part, the most common, is quoted in place; a key that is not a
    str is refused by the quoting, with a ``TypeError``.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Fraction:
        return f'"{format_rational(value)}"'
    pairs = _PAIRS.get(kind)
    inner = indent + "  "
    if pairs is not None:
        items = f",{inner}".join([
            f"{_quote(key)}: {_quote(part) if type(part) is str else _text(part, inner)}"
            for key, part in pairs(value)
        ])
        return f"{{{inner}{items}{indent}}}" if items else "{}"
    if kind is tuple or kind is list:
        items = f",{inner}".join([_text(item, inner) for item in value])
        return f"[{inner}{items}{indent}]" if items else "[]"
    if kind in _SCALARS:  # bool or None
        return _CONSTANTS[value]
    raise TypeError(f"no JSON form for {kind.__name__}")
