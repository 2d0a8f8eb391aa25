"""Exact rational scalars.

Every coordinate and every predicate in this package is computed over the
rationals; floating point never enters a geometric decision.  The scalar type
is ``fractions.Fraction``, which already maintains the canonical form we rely
on (denominator positive, numerator and denominator coprime, value equality =
structural equality of the canonical pair), and every module builds
``Fraction`` directly, leaving each reduction to it.  This module holds what
``Fraction`` does not: strict construction, the ``p/q`` text form used by
the DSL and JSON reports, and the one rounding out of exact form, into
decimal strings for rendering (:func:`ratio_to_decimal_string`).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ZeroDenominator

Rational = Fraction

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def make_rational(numerator: int, denominator: int = 1) -> Rational:
    """Return numerator/denominator in canonical form; sign lives on the numerator."""
    if denominator == 0:
        raise ZeroDenominator("{}/0 is not a rational", numerator)
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Rational:
    """Parse the textual form ``p/q`` (or plain ``p``).

    An optional leading sign is allowed; whitespace is not, a trailing newline
    included.  The digits are ASCII 0-9.  The denominator, when present, is an
    unsigned integer.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return make_rational(num, den)


def format_rational(value: Rational) -> str:
    """Inverse of :func:`parse_rational`: ``p/q``, or ``p`` when q = 1, which
    is the ``str`` of a ``Fraction`` (and of an int)."""
    return str(value)


def too_long_to_print(what: str) -> str:
    """Error text for ``what`` holding an integer the interpreter will not print.

    Python refuses to turn an int of more than ``sys.get_int_max_str_digits()``
    digits (4300 by default) into text, with a ``ValueError``.  The package
    leaves that limit as it is: callers that print catch the error and report
    this text instead.
    """
    limit = sys.get_int_max_str_digits()
    return f"{what} has an integer of more than {limit} digits, too long to print"


def to_decimal_string(value: Rational, digits: int = 12) -> str:
    """Decimal rendering of an exact rational, for reports and SVG only.

    Rounds to ``digits`` fractional digits (half away from zero) using integer
    arithmetic, then strips trailing zeros.  This and
    :func:`ratio_to_decimal_string` are the only places the package converts
    out of exact form.
    """
    return ratio_to_decimal_string(value.numerator, value.denominator, digits)


def ratio_to_decimal_string(numerator: int, denominator: int, digits: int = 12) -> str:
    """:func:`to_decimal_string` of numerator/denominator, for denominator > 0.

    The pair need not be reduced: rounding half away from zero compares twice
    the remainder with the denominator, and both scale by the same k in
    k*n/k*d, so every such pair gives the same digits.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    negative = numerator < 0
    whole, rem = divmod(abs(numerator) * 10**digits, denominator)
    if 2 * rem >= denominator:
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    int_part, frac_part = (text, "") if digits == 0 else (text[:-digits], text[-digits:])
    frac_part = frac_part.rstrip("0")
    out = int_part if not frac_part else f"{int_part}.{frac_part}"
    if negative and out.strip("0.") != "":
        out = "-" + out
    return out
