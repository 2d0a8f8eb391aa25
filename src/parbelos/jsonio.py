"""The one JSON writer of kernel values, :func:`dumps`.

Fractions travel as strings ("p/q", or "p" when the denominator is 1) so the
reports stay exact, and plain ints as JSON integers; points are {"x","y"}
objects, lines their canonical integer triples.  Each kind's JSON object is
one row of :data:`_PAIRS`, its (key, part) pairs.  ``dumps(value)`` writes
the text straight from the kernel values, byte for byte what
``json.dumps(…, indent=2)`` prints for that JSON form.  Kinds are matched
exactly, so a subclass (of ``int``, ``tuple``, ``dict`` or a kernel kind)
has no JSON form; ``bool`` and ``None`` are their own kinds, and a dict's
keys must be strings.  A value with no JSON form raises ``TypeError``, an
int past the interpreter's limit on printed digits ``ValueError``.  An
integer of 2^64 or more in size is converted to text once per document and
looked up after that.
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
# "p/q" text, also when it holds an int (:func:`_member`).
_PAIRS = {
    Point: lambda p: (("x", _member(p.x)), ("y", _member(p.y))),
    Line: lambda line: (("a", line.a), ("b", line.b), ("c", line.c)),
    Circle: lambda c: (("center", c.center), ("radius_sq", _member(c.radius_sq))),
    Parabola: lambda p: (("focus", p.focus), ("directrix", p.directrix)),
    ParbelosFigure: lambda fig: zip(fig.__match_args__, _parts(fig)),
    dict: dict.items,
}

_CONSTANTS = {True: "true", False: "false", None: "null"}
# Integers strictly between these are printed directly, with no lookup.
_LOW, _HIGH = -(2**64), 2**64


def _member(value):
    """A rational member of a point or a circle: a Fraction as itself, which
    :func:`dumps` prints as its "p/q" text, and any other kind (an int) as
    that text already."""
    return value if type(value) is Fraction else format_rational(value)


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


def dumps(value) -> str:
    """The indent-2 JSON text of ``value``'s JSON form, written from ``value`` itself.

    An int, or a Fraction whose numerator and denominator both lie strictly
    between -2^64 and 2^64, is printed directly.  Each longer integer is
    converted once per document, by :class:`_Digits`: a 3300-bit figure's
    report prints over a hundred of them but about sixty distinct ones, and
    ``str`` of an int takes time quadratic in its length.  The bound keeps
    the lookups off short integers, where they cost more than they save:
    without it, a 13-bit figure's report took about 30% longer to write than
    when every integer was printed directly (CPython 3.11), with it about 12%.
    """
    return _text(value, "\n", _Digits())


class _Digits(dict):
    """The decimal texts of one document's long integers: each is converted
    on its first use and looked up after that.  It lives for one :func:`dumps`
    call."""

    def __missing__(self, n: int) -> str:
        text = self[n] = int.__repr__(n)
        return text


def _text(value, indent: str, digits: _Digits) -> str:
    """The JSON text of ``value``, its lines after the first starting with ``indent``.

    A str part, the most common, is quoted in place; a key that is not a
    str is refused by the quoting, with a ``TypeError``.  A Fraction's text
    needs no escaping, so it is not scanned.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value) if _LOW < value < _HIGH else digits[value]
    if kind is Fraction:
        n, d = value.as_integer_ratio()
        if _LOW < n < _HIGH and d < _HIGH:
            return f'"{n}/{d}"' if d != 1 else f'"{n}"'
        return f'"{digits[n]}/{digits[d]}"' if d != 1 else f'"{digits[n]}"'
    pairs = _PAIRS.get(kind)
    inner = indent + "  "
    if pairs is not None:
        items = f",{inner}".join([
            f"{_quote(key)}: {_quote(part) if type(part) is str else _text(part, inner, digits)}"
            for key, part in pairs(value)
        ])
        return f"{{{inner}{items}{indent}}}" if items else "{}"
    if kind is tuple or kind is list:
        items = f",{inner}".join([_text(item, inner, digits) for item in value])
        return f"[{inner}{items}{indent}]" if items else "[]"
    if kind is bool or value is None:
        return _CONSTANTS[value]
    raise TypeError(f"no JSON form for {kind.__name__}")
