"""Exception hierarchy shared by the geometry kernel and its frontends."""

import re

# Runs of more than 40 digits, which error text prints by their length.  The
# pattern is compiled on first use (``re`` caches it), not at import.
_LONG_DIGITS = r"\d{41,}"


class GeometryError(Exception):
    """Base class for every error raised by this package.

    Its text prints each run of more than 40 digits as ``<N digits>``, so an
    error about a point with huge coordinates stays one short line.  Reports,
    JSON and SVG output are not error text and stay exact.
    """

    def __str__(self) -> str:
        return re.sub(_LONG_DIGITS, lambda m: f"<{len(m.group())} digits>", super().__str__())


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

    ``index`` is the 1-based position of the offending line argument.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"line {index} is not tangent")


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
