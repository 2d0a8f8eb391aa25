"""Exception hierarchy shared by the geometry kernel and its frontends."""

import re
import sys

# Runs of more than 40 digits, which error text prints by their length.  The
# pattern is compiled on first use (``re`` caches it), not at import.
_LONG_DIGITS = r"\d{41,}"


def _printable(value) -> str:
    """str(value), or a marker when it holds an int too long for the interpreter to print."""
    try:
        return str(value)
    except ValueError:
        return f"<more than {sys.get_int_max_str_digits()} digits>"


class GeometryError(Exception):
    """Base class for every error raised by this package.

    Raised as ``Error(message)`` or ``Error(template, *values)``: the text
    fills the template's ``{}`` fields with the values only when it is
    printed, so an error about a point too long to print (more than
    ``sys.get_int_max_str_digits()`` digits in one integer) is still raised
    as itself, and prints that value as ``<more than N digits>``.  ``args``
    keeps the template and the values as given; ``repr`` shows the text.
    The text prints each run of more than 40 digits as ``<N digits>``, so an
    error about a point with huge coordinates stays one short line.
    Reports, JSON and SVG output are not error text and stay exact.
    """

    def __str__(self) -> str:
        if len(self.args) > 1:
            template, *values = self.args
            text = template.format(*map(_printable, values))
        else:
            text = super().__str__()
        return re.sub(_LONG_DIGITS, lambda m: f"<{len(m.group())} digits>", text)

    def __repr__(self) -> str:
        # Built from the text, not from args: repr of a value too long to
        # print would raise ValueError in pytest, Hypothesis or %r logging.
        return f"{type(self).__name__}({str(self)!r})"


class ZeroDenominator(GeometryError):
    """A rational was requested with denominator zero."""


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide."""


class DegenerateLine(GeometryError):
    """Line coefficients (a, b) are both zero."""


class DegenerateCircle(GeometryError):
    """Circle with non-positive squared radius."""


class ParallelLines(GeometryError):
    """Two lines expected to intersect are parallel."""


class DegenerateTriangle(GeometryError):
    """Three points (or three lines) fail to form a proper triangle."""


class PointNotIncident(GeometryError):
    """A point required to lie on a line or circle does not."""


class FocusOnDirectrix(GeometryError):
    """Parabola with focus on its directrix is degenerate."""


class PointNotOnParabola(GeometryError):
    """A point required to lie on a parabola does not."""


class NotTangent(GeometryError):
    """A line required to be tangent to a parabola is not.

    Raised as ``NotTangent("line {} is not tangent", index)``; ``index`` is
    the 1-based position of the offending line argument, read from ``args``
    so that the error pickles like any other.
    """

    @property
    def index(self) -> int:
        return self.args[1]


class ParallelTangents(GeometryError):
    """Tangent pair is parallel (or equal), so it has no intersection."""


class CircleMissesFocusOrI(GeometryError):
    """Circle does not pass through both the focus and the tangent intersection."""


class CuspsNotCollinear(GeometryError):
    """Parbelos cusps do not lie on one line."""


class CuspNotInterior(GeometryError):
    """Middle cusp is not strictly between the outer cusps."""


class DegenerateSide(GeometryError):
    """Half-plane selector is not one of the two valid sides."""


class InvalidRotation(GeometryError):
    """A similarity was asked for with the multiplier m = 0, which maps every point to one."""


class EmptyScene(GeometryError):
    """Scene has nothing drawable, or contains a degenerate (zero-length) arc."""
